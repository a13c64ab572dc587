"""Dual multigraphs of pants decompositions.

Each pair of pants in the complement of a pants decomposition becomes a
trivalent vertex.  Every sphere of the decomposition becomes a bond
joining two slots; loops (both slots on one vertex) and parallel bonds
are meaningful, so the representation is by half-edges: each vertex
carries exactly three slots and every slot is used by exactly one bond
end or one labeled leg (boundary cuff).

Inside, slots are integers: slot ``3*k + j`` is slot ``j`` of
``pants[k]``, bonds are pairs of slots and legs (slot, label) pairs, so
the pants of slot ``x`` is ``pants[x // 3]`` and the I-H move permutes
six slots.  Slot ids, which read ``pantsId.slotIndex``, appear only at
the boundary: the constructor parses them once, and the ``bonds`` and
``legs`` views spell them out on each read.  Pants ids therefore must
not contain a dot.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .flagcomplex import _bits, pair_components
from .genus_zero import ManifoldSignature, _clusters, _laminar_tree
from .pants import PantsDecomposition


def slot_id(pants_id: str, index: int) -> str:
    return "%s.%d" % (pants_id, index)


def split_slot(slot: str) -> tuple[str, int]:
    """The pants id and slot index of a slot id.  Only the form
    ``slot_id`` writes is accepted: a non-negative decimal index with no
    sign, space or leading zero."""
    pid, _, idx = slot.rpartition(".")
    if pid and idx.isdecimal() and slot_id(pid, int(idx)) == slot:
        return pid, int(idx)
    raise ValueError("malformed slot id: %r" % (slot,))


class DualMultigraph:
    """A trivalent multigraph with labeled legs, stored by half-edges.

    bonds: pairs of slot ids (each bond is one sphere; loops allowed).
    legs: (slot id, boundary label) pairs.
    bond_labels: optional names parallel to bonds (the defining sphere
    ids when the graph was extracted from a pants decomposition).

    Both views are spelled from the integer slots on each read.
    """

    __slots__ = ("pants", "bond_labels", "_bonds", "_legs")

    def __init__(self, pants: Sequence[str], bonds: Iterable[tuple[str, str]],
                 legs: Iterable[tuple[str, str]],
                 bond_labels: Optional[Sequence[str]] = None):
        self.pants: tuple[str, ...] = tuple(pants)
        bonds = tuple(bonds)
        self.bond_labels: Optional[tuple[str, ...]] = (
            tuple(bond_labels) if bond_labels is not None else None)
        if len(set(self.pants)) != len(self.pants):
            raise ValueError("duplicate pants ids")
        for pid in self.pants:
            if "." in pid:
                raise ValueError("pants id may not contain '.': %r" % (pid,))
        if self.bond_labels is not None and len(self.bond_labels) != len(bonds):
            raise ValueError("bond_labels length mismatch")
        first_slot = {pid: 3 * k for k, pid in enumerate(self.pants)}
        used: set[str] = set()

        def claim(sl: str) -> int:
            pid, idx = split_slot(sl)
            if pid not in first_slot:
                raise ValueError("slot on unknown pants: %r" % (sl,))
            if idx > 2:
                raise ValueError("slot index out of range: %r" % (sl,))
            if sl in used:
                raise ValueError("slot used twice: %r" % (sl,))
            used.add(sl)
            return first_slot[pid] + idx

        self._bonds = tuple((claim(a), claim(b)) for a, b in bonds)
        self._legs = tuple((claim(sl), str(lb)) for sl, lb in legs)
        if len(used) != 3 * len(self.pants):
            expected = {slot_id(p, k) for p in self.pants for k in range(3)}
            raise ValueError("slots must be used exactly once each"
                             " (missing %r, extra %r)"
                             % (sorted(expected - used), sorted(used - expected)))

    @classmethod
    def _from_slots(cls, pants: tuple[str, ...], bonds: tuple[tuple[int, int], ...],
                    legs: tuple[tuple[int, str], ...],
                    bond_labels: Optional[tuple[str, ...]],
                    check: bool = True) -> "DualMultigraph":
        """The graph on integer slots, for the builders in this module;
        it checks that every slot is used exactly once, unless ``check``
        is False because the caller has made sure of it."""
        if check:
            slots = sorted([x for pair in bonds for x in pair] + [x for x, _ in legs])
            if slots != list(range(3 * len(pants))):
                raise ValueError("slots must be used exactly once each")
        d = cls.__new__(cls)
        d.pants, d._bonds, d._legs, d.bond_labels = pants, bonds, legs, bond_labels
        return d

    def _slot_id(self, x: int) -> str:
        return slot_id(self.pants[x // 3], x % 3)

    @property
    def bonds(self) -> tuple[tuple[str, str], ...]:
        return tuple((self._slot_id(a), self._slot_id(b)) for a, b in self._bonds)

    @property
    def legs(self) -> tuple[tuple[str, str], ...]:
        return tuple((self._slot_id(x), lb) for x, lb in self._legs)

    # -- queries --------------------------------------------------------

    @property
    def n_pants(self) -> int:
        return len(self.pants)

    def bond_endpoints(self, i: int) -> tuple[str, str]:
        a, b = self._bonds[i]
        return self.pants[a // 3], self.pants[b // 3]

    def is_loop_bond(self, i: int) -> bool:
        a, b = self._bonds[i]
        return a // 3 == b // 3

    def bond_label(self, i: int) -> str:
        if self.bond_labels is not None:
            return self.bond_labels[i]
        return "b%d" % i

    def is_connected(self) -> bool:
        ends = ((a // 3, b // 3) for a, b in self._bonds)
        return len(pair_components(range(len(self.pants)), ends)) <= 1

    def __repr__(self) -> str:
        return "DualMultigraph(%d pants, %d bonds, %d legs)" % (
            len(self.pants), len(self._bonds), len(self._legs))


class _Join(NamedTuple):
    factors: tuple[ManifoldSignature, ...]


class JoinDecomposition(_Join):
    """The factors a link of a sphere system decomposes into, one
    signature per complementary piece, trivial (0,3) factors dropped,
    canonically sorted."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[ManifoldSignature]):
        factors = tuple(factors)
        if tuple(sorted(factors)) != factors:
            raise ValueError("join factors not in canonical order")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, iterable) -> "JoinDecomposition":
        # so that _replace validates too
        return cls(*iterable)

    def as_pairs(self) -> list[tuple[int, int]]:
        return [f.as_pair() for f in self.factors]


def signature_of_dual(d: DualMultigraph) -> ManifoldSignature:
    """Rank = first Betti number of the bond graph; boundary count =
    number of legs.  Defined for connected graphs only."""
    if not d.is_connected():
        raise ValueError("dual graph is disconnected; classify per component instead")
    n = len(d._bonds) - len(d.pants) + 1
    return ManifoldSignature(n, len(d._legs))


def classify_link(d: DualMultigraph, eta: Iterable[int]) -> JoinDecomposition:
    """Classify the link of the sphere subset eta (bond indices).

    Each connected component C of (pants, eta-bonds) yields a factor
    with rank r = |eta in C| - |C| + 1 and boundary count b = legs in C
    plus one for every end of a non-eta bond landing in C (a non-eta
    bond with both endpoints inside C is cut twice and contributes two).
    Trivial (0,3) factors are dropped.
    """
    eta_set = set(eta)
    for i in eta_set:
        if not 0 <= i < len(d._bonds):
            raise ValueError("bond index out of range: %r" % (i,))

    ends = [(a // 3, b // 3) for a, b in d._bonds]
    comps = pair_components(range(len(d.pants)), (ends[i] for i in eta_set))
    comp_of = {k: c for c, m in enumerate(comps) for k in _bits(m)}
    n_eta = [0] * len(comps)
    n_boundary = [0] * len(comps)
    for i in eta_set:
        n_eta[comp_of[ends[i][0]]] += 1
    for x, _ in d._legs:
        n_boundary[comp_of[x // 3]] += 1
    for i, (u, v) in enumerate(ends):
        if i not in eta_set:
            n_boundary[comp_of[u]] += 1
            n_boundary[comp_of[v]] += 1

    factors = []
    for c, m in enumerate(comps):
        rank = n_eta[c] - m.bit_count() + 1
        if (rank, n_boundary[c]) != (0, 3):
            factors.append(ManifoldSignature(rank, n_boundary[c]))
    return JoinDecomposition(tuple(sorted(factors)))


def dual_of_pants(P: PantsDecomposition) -> DualMultigraph:
    """The dual tree of a genus-zero pants decomposition, built from the
    laminar family of its blocks.

    For each member sphere take its cluster, its block away from label
    1; these are pairwise nested or disjoint.  Together with the root
    {1..s} they form a tree, and each tree node is one complementary
    region: a pants vertex whose three boundary items are its parent
    sphere (absent at the root), its children's spheres, and its own
    labels.  Spheres become bonds, labels become legs.
    """
    table = _clusters(P.complex)
    s = P.complex.meta["s"]
    members = P.sorted_members()
    regions = _laminar_tree([table[i] for i in P.complex._indices(members)], s)
    up = [0] * len(members)
    down = [0] * len(members)
    leg = [0] * (s + 1)  # the slot of each label
    for k, (key, labels, children) in enumerate(regions):
        if (key is not None) + len(children) + len(labels) != 3:
            raise AssertionError("region of a pants decomposition must be trivalent")
        # slots in order: parent sphere, child spheres, own labels
        slots = iter(range(3 * k, 3 * k + 3))
        if key is not None:
            up[key] = next(slots)
        for ch in children:
            down[ch] = next(slots)
        for lb in labels:
            leg[lb] = next(slots)
    pants = tuple("q%d" % k for k in range(len(regions)))
    legs = tuple((leg[lb], str(lb)) for lb in range(1, s + 1))
    return DualMultigraph._from_slots(pants, tuple(zip(down, up)), legs, members)


def ih_flip(d: DualMultigraph, bond_index: int, pairing_choice: int) -> DualMultigraph:
    """Re-route one non-loop bond by the I-H move.

    Contracting the bond leaves four surrounding slots; the two
    alternative ways to split them back into two trivalent vertices are
    selected by pairing_choice in {0, 1}.  The bond takes slot 2 of both
    its pants, and the other two slots of each take the pair chosen for
    it, so the move permutes those six slots and leaves the rest.
    Legs, vertex count, and the signature are preserved.  The result
    has no bond_labels (None): the re-routed bond is a new sphere, so
    the label of the one it replaced would misname it.
    """
    if not 0 <= bond_index < len(d._bonds):
        raise ValueError("bond index out of range: %r" % (bond_index,))
    if pairing_choice not in (0, 1):
        raise ValueError("pairing_choice must be 0 or 1")
    if d.is_loop_bond(bond_index):
        raise ValueError("flip is undefined on a loop bond")
    fu, fv = d._bonds[bond_index]
    u, v = fu - fu % 3, fv - fv % 3  # slot 0 of each end's pants
    su = [x for x in range(u, u + 3) if x != fu]
    sv = [x for x in range(v, v + 3) if x != fv]
    if pairing_choice:
        sv.reverse()
    perm = {fu: u + 2, fv: v + 2, su[0]: u, sv[0]: u + 1, su[1]: v, sv[1]: v + 1}
    # d uses every slot once, and so does its image under a permutation
    # of slots; the other slots are left as they are
    if perm.keys() != set(perm.values()):
        raise ValueError("a flip must permute the slots it moves")
    bonds = tuple((perm.get(a, a), perm.get(b, b)) for a, b in d._bonds)
    legs = tuple((perm.get(x, x), lb) for x, lb in d._legs)
    return DualMultigraph._from_slots(d.pants, bonds, legs, None, False)
