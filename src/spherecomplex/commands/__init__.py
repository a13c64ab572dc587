"""Command handlers, one module per command group (see ``cli``)."""
