"""Partitions of the carrier, Green's relations, the congruence checker,
and sigma, the least complete semilattice congruence, computed as
Kehayopulu's filter relation N (N. Kehayopulu, "Remark on ordered
semigroups", Math. Japonica 35, 1990).  The fact record of
:func:`osgkit.properties.facts` holds Green's relations and sigma as mask
rows; the partitions of both are this module's views of those rows,
built only by the functions that return them.

Nothing here searches over partitions: B.2 is decided by sigma alone
(``osgkit.theorems._group_like_decomposition``); the partition search
it replaces is the reference in :mod:`osgkit.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from osgkit.properties import facts
from osgkit.structure import OrderedSemigroup

CONGRUENCE_KINDS = ("left", "right", "two_sided", "semilattice", "complete_semilattice")


@dataclass(frozen=True)
class Partition:
    """Equivalence relation on the carrier.

    Classes are sorted tuples ordered by least member, so equal
    partitions compare equal; class_of maps each index to its class id.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = list(labels)
        first_seen: dict = {}
        groups: list[list[int]] = []
        for i, lab in enumerate(labels):
            if lab not in first_seen:
                first_seen[lab] = len(groups)
                groups.append([])
            groups[first_seen[lab]].append(i)
        class_of = [0] * len(labels)
        for cid, group in enumerate(groups):
            for i in group:
                class_of[i] = cid
        return cls(tuple(class_of), tuple(tuple(g) for g in groups))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_labels(range(n))

    @classmethod
    def universal(cls, n: int) -> "Partition":
        return cls.from_labels([0] * n)

    @property
    def n(self) -> int:
        return len(self.class_of)

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def refines(self, other: "Partition") -> bool:
        """Every class of self sits inside a class of other."""
        if self.n != other.n:
            raise ValueError("partitions of different carriers")
        return all(
            other.class_of[group[0]] == other.class_of[i]
            for group in self.classes
            for i in group
        )

    def check(self):
        """Raise unless classes are disjoint, nonempty, cover the carrier,
        and agree with class_of."""
        seen: set[int] = set()
        for cid, group in enumerate(self.classes):
            if not group:
                raise ValueError("empty class")
            for i in group:
                if i in seen:
                    raise ValueError(f"element {i} in two classes")
                seen.add(i)
                if self.class_of[i] != cid:
                    raise ValueError(f"class_of[{i}] inconsistent with classes")
        if seen != set(range(self.n)):
            raise ValueError("classes do not cover the carrier")


def check_partition(p: Partition, n: int):
    if p.n != n:
        raise ValueError(f"partition of {p.n} points, carrier has {n}")
    p.check()


class GreensRelations(NamedTuple):
    L: Partition
    R: Partition
    J: Partition
    H: Partition


@lru_cache(maxsize=65536)
def greens_relations(s: OrderedSemigroup) -> GreensRelations:
    """L, R and J relate the elements whose principal left, right and
    two-sided ideals are equal; H is L and R together."""
    f = facts(s)
    return GreensRelations(*map(Partition.from_labels, (f.L, f.R, f.J, f.H)))


class CongruenceVerdict(NamedTuple):
    ok: bool
    reason: str | None = None
    witness: tuple[int, ...] | None = None


def is_congruence(s: OrderedSemigroup, p: Partition, kind: str) -> CongruenceVerdict:
    """Check the compatibility laws for the requested congruence kind.

    left: a=b forces ca=cb; right is dual; two_sided is both;
    semilattice adds a=a*a and a*b=b*a; complete_semilattice further
    adds a=a*b whenever a <= b.  The witness is the first violating
    tuple in scan order.
    """
    if kind not in CONGRUENCE_KINDS:
        raise ValueError(f"kind must be one of {CONGRUENCE_KINDS}, got {kind!r}")
    check_partition(p, s.order)
    n, mult = s.order, s.mult
    cls = p.class_of

    check_left = kind in ("left", "two_sided", "semilattice", "complete_semilattice")
    check_right = kind in ("right", "two_sided", "semilattice", "complete_semilattice")
    for a in range(n):
        for b in range(n):
            if cls[a] != cls[b]:
                continue
            for c in range(n):
                if check_left and cls[mult[c][a]] != cls[mult[c][b]]:
                    return CongruenceVerdict(False, "left_translation", (a, b, c))
                if check_right and cls[mult[a][c]] != cls[mult[b][c]]:
                    return CongruenceVerdict(False, "right_translation", (a, b, c))

    if kind in ("semilattice", "complete_semilattice"):
        for a in range(n):
            if cls[a] != cls[mult[a][a]]:
                return CongruenceVerdict(False, "square", (a,))
        for a in range(n):
            for b in range(n):
                if cls[mult[a][b]] != cls[mult[b][a]]:
                    return CongruenceVerdict(False, "commute", (a, b))

    if kind == "complete_semilattice":
        for a in range(n):
            for b in range(n):
                if s.leq[a][b] and cls[a] != cls[mult[a][b]]:
                    return CongruenceVerdict(False, "downward", (a, b))

    return CongruenceVerdict(True)


@lru_cache(maxsize=65536)
def least_complete_semilattice_congruence(s: OrderedSemigroup) -> Partition:
    """sigma, the least congruence with a = a*a, a*b = b*a and a = a*b for
    a <= b, as Kehayopulu's relation N: x N y when the least filters
    containing x and y are equal (N. Kehayopulu, "Remark on ordered
    semigroups", Math. Japonica 35, 1990)."""
    return Partition.from_labels(facts(s).filters)
