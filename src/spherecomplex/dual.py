"""Dual multigraphs of pants decompositions.

Each pair of pants in the complement of a pants decomposition becomes a
trivalent vertex.  Every sphere of the decomposition becomes a bond
joining two slots; loops (both slots on one vertex) and parallel bonds
are meaningful, so the representation is by half-edges: each vertex
carries exactly three slots and every slot is used by exactly one bond
end or one labeled leg (boundary cuff).

Slot ids read ``pantsId.slotIndex``; pants ids therefore must not
contain a dot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .flagcomplex import _bits, pair_components
from .genus_zero import ManifoldSignature, _laminar_tree
from .pants import PantsDecomposition


def slot_id(pants_id: str, index: int) -> str:
    return "%s.%d" % (pants_id, index)


def split_slot(slot: str) -> tuple[str, int]:
    pid, _, idx = slot.rpartition(".")
    if not pid:
        raise ValueError("malformed slot id: %r" % (slot,))
    return pid, int(idx)


class DualMultigraph:
    """A trivalent multigraph with labeled legs, stored by half-edges.

    bonds: pairs of slot ids (each bond is one sphere; loops allowed).
    legs: (slot id, boundary label) pairs.
    bond_labels: optional names parallel to bonds (the defining sphere
    ids when the graph was extracted from a pants decomposition).
    """

    __slots__ = ("pants", "bonds", "legs", "bond_labels", "_slot_pants")

    def __init__(self, pants: Sequence[str], bonds: Iterable[tuple[str, str]],
                 legs: Iterable[tuple[str, str]],
                 bond_labels: Optional[Sequence[str]] = None):
        self.pants: tuple[str, ...] = tuple(pants)
        self.bonds: tuple[tuple[str, str], ...] = tuple((a, b) for a, b in bonds)
        self.legs: tuple[tuple[str, str], ...] = tuple((sl, str(lb)) for sl, lb in legs)
        self.bond_labels: Optional[tuple[str, ...]] = (
            tuple(bond_labels) if bond_labels is not None else None)
        if len(set(self.pants)) != len(self.pants):
            raise ValueError("duplicate pants ids")
        for pid in self.pants:
            if "." in pid:
                raise ValueError("pants id may not contain '.': %r" % (pid,))
        if self.bond_labels is not None and len(self.bond_labels) != len(self.bonds):
            raise ValueError("bond_labels length mismatch")
        used: dict[str, str] = {}  # slot id -> pants id
        for pair in self.bonds:
            for sl in pair:
                self._claim(sl, used)
        for sl, _ in self.legs:
            self._claim(sl, used)
        expected = {slot_id(p, k) for p in self.pants for k in range(3)}
        if used.keys() != expected:
            missing = sorted(expected - used.keys())
            extra = sorted(used.keys() - expected)
            raise ValueError("slots must be used exactly once each"
                             " (missing %r, extra %r)" % (missing, extra))
        self._slot_pants = used

    def _claim(self, sl: str, used: dict[str, str]) -> None:
        pid, idx = split_slot(sl)
        if pid not in self.pants:
            raise ValueError("slot on unknown pants: %r" % (sl,))
        if not 0 <= idx <= 2:
            raise ValueError("slot index out of range: %r" % (sl,))
        if sl in used:
            raise ValueError("slot used twice: %r" % (sl,))
        used[sl] = pid

    # -- queries --------------------------------------------------------

    @property
    def n_pants(self) -> int:
        return len(self.pants)

    def bond_endpoints(self, i: int) -> tuple[str, str]:
        a, b = self.bonds[i]
        return self._slot_pants[a], self._slot_pants[b]

    def is_loop_bond(self, i: int) -> bool:
        u, v = self.bond_endpoints(i)
        return u == v

    def bond_label(self, i: int) -> str:
        if self.bond_labels is not None:
            return self.bond_labels[i]
        return "b%d" % i

    def is_connected(self) -> bool:
        sp = self._slot_pants
        return len(pair_components(self.pants, ((sp[a], sp[b]) for a, b in self.bonds))) <= 1

    def __repr__(self) -> str:
        return "DualMultigraph(%d pants, %d bonds, %d legs)" % (
            len(self.pants), len(self.bonds), len(self.legs))


@dataclass(frozen=True)
class JoinDecomposition:
    """The factors a link of a sphere system decomposes into, one
    signature per complementary piece, trivial (0,3) factors dropped,
    canonically sorted."""

    factors: tuple[ManifoldSignature, ...]

    def __post_init__(self):
        if tuple(sorted(self.factors)) != self.factors:
            raise ValueError("join factors not in canonical order")

    def as_pairs(self) -> list[tuple[int, int]]:
        return [f.as_pair() for f in self.factors]


def signature_of_dual(d: DualMultigraph) -> ManifoldSignature:
    """Rank = first Betti number of the bond graph; boundary count =
    number of legs.  Defined for connected graphs only."""
    if not d.is_connected():
        raise ValueError("dual graph is disconnected; classify per component instead")
    n = len(d.bonds) - len(d.pants) + 1
    return ManifoldSignature(n, len(d.legs))


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
        if not 0 <= i < len(d.bonds):
            raise ValueError("bond index out of range: %r" % (i,))

    comps = pair_components(d.pants, (d.bond_endpoints(i) for i in eta_set))
    comp_of = {d.pants[k]: c for c, m in enumerate(comps) for k in _bits(m)}
    n_eta = [0] * len(comps)
    n_boundary = [0] * len(comps)
    for i in eta_set:
        n_eta[comp_of[d.bond_endpoints(i)[0]]] += 1
    for sl, _ in d.legs:
        n_boundary[comp_of[split_slot(sl)[0]]] += 1
    for i in range(len(d.bonds)):
        if i not in eta_set:
            for p in d.bond_endpoints(i):
                n_boundary[comp_of[p]] += 1

    factors = []
    for c, m in enumerate(comps):
        rank = n_eta[c] - m.bit_count() + 1
        if (rank, n_boundary[c]) != (0, 3):
            factors.append(ManifoldSignature(rank, n_boundary[c]))
    return JoinDecomposition(tuple(sorted(factors)))


def dual_of_pants(P: PantsDecomposition) -> DualMultigraph:
    """The dual tree of a genus-zero pants decomposition, built from the
    laminar family of its blocks.

    For each member sphere take its block away from label 1; these
    blocks are pairwise nested or disjoint.  Together with the root
    {1..s} they form a tree, and each tree node is one complementary
    region: a pants vertex whose three boundary items are its parent
    sphere (absent at the root), its children's spheres, and its own
    labels.  Spheres become bonds, labels become legs.
    """
    s = P.complex.meta.get("s")
    if P.complex.meta.get("model") != "genus-zero" or s is None:
        raise ValueError("dual_of_pants needs a genus-zero pants decomposition")
    members = P.sorted_members()
    _, regions = _laminar_tree(members, s)
    pants_ids = ["q%d" % k for k in range(len(regions))]
    up: dict[int, str] = {}
    down: dict[int, str] = {}
    legs = []
    for pid, (key, labels, children) in zip(pants_ids, regions):
        if (key is not None) + len(children) + len(labels) != 3:
            raise AssertionError("region of a pants decomposition must be trivalent")
        # slots in order: parent sphere, child spheres, own labels
        slots = (slot_id(pid, k) for k in range(3))
        if key is not None:
            up[key] = next(slots)
        for ch in children:
            down[ch] = next(slots)
        legs += [(next(slots), str(lb)) for lb in labels]
    legs.sort(key=lambda t: int(t[1]))
    bonds = [(down[i], up[i]) for i in range(len(members))]
    return DualMultigraph(pants_ids, bonds, legs, members)


def ih_flip(d: DualMultigraph, bond_index: int, pairing_choice: int) -> DualMultigraph:
    """Re-route one non-loop bond by the I-H move.

    Contracting the bond leaves four surrounding slots; the two
    alternative ways to split them back into two trivalent vertices are
    selected by pairing_choice in {0, 1}.  Legs, vertex count, and the
    signature are preserved.
    """
    if not 0 <= bond_index < len(d.bonds):
        raise ValueError("bond index out of range: %r" % (bond_index,))
    if pairing_choice not in (0, 1):
        raise ValueError("pairing_choice must be 0 or 1")
    if d.is_loop_bond(bond_index):
        raise ValueError("flip is undefined on a loop bond")
    fu, fv = d.bonds[bond_index]
    u, v = d.bond_endpoints(bond_index)
    su = [slot_id(u, k) for k in range(3) if slot_id(u, k) != fu]
    sv = [slot_id(v, k) for k in range(3) if slot_id(v, k) != fv]

    rename = {fu: slot_id(u, 2), fv: slot_id(v, 2)}
    if pairing_choice == 0:
        grouping = [(su[0], sv[0]), (su[1], sv[1])]
    else:
        grouping = [(su[0], sv[1]), (su[1], sv[0])]
    rename[grouping[0][0]] = slot_id(u, 0)
    rename[grouping[0][1]] = slot_id(u, 1)
    rename[grouping[1][0]] = slot_id(v, 0)
    rename[grouping[1][1]] = slot_id(v, 1)

    def rn(sl: str) -> str:
        return rename.get(sl, sl)

    bonds = [(rn(a), rn(b)) for a, b in d.bonds]
    legs = [(rn(sl), lb) for sl, lb in d.legs]
    return DualMultigraph(d.pants, bonds, legs, d.bond_labels)
