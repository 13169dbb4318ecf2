"""Partitions of the carrier, Green's relations, the congruence checker,
and sigma, the least complete semilattice congruence, computed as
Kehayopulu's filter relation N (N. Kehayopulu, "Remark on ordered
semigroups", Math. Japonica 35, 1990).  Green's relations and sigma are
each built by one function over mask tables, which the fact record of
:mod:`osgkit.properties` calls on its own masks.

Nothing here searches over partitions: B.2 is decided by sigma alone
(``osgkit.theorems._group_like_decomposition``); the partition search
it replaces is the reference in :mod:`osgkit.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from osgkit.structure import OrderedSemigroup
from osgkit.subsets import ideal_masks, table_masks

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


def greens_from_ideals(left, right, two) -> GreensRelations:
    """L, R, J from equality of the principal ideals of ``ideal_masks``; H refines L and R."""
    l_part = Partition.from_labels(left)
    r_part = Partition.from_labels(right)
    j_part = Partition.from_labels(two)
    h_part = Partition.from_labels(list(zip(left, right)))
    return GreensRelations(l_part, r_part, j_part, h_part)


@lru_cache(maxsize=65536)
def greens_relations(s: OrderedSemigroup) -> GreensRelations:
    return greens_from_ideals(*ideal_masks(*table_masks(s)[1:]))


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


def filter_relation(mult, up) -> Partition:
    """Kehayopulu's relation N: x N y when the least filters containing x
    and y are equal (N. Kehayopulu, "Remark on ordered semigroups", Math.
    Japonica 35, 1990, where N is shown to be the least complete
    semilattice congruence, the least congruence with a = a*a, a*b = b*a,
    and a = a*b for a <= b).

    A filter is a subsemigroup F such that a*b in F puts a and b in F,
    and a in F, a <= b puts b in F.  The least filter containing x grows
    from {x}: each element v that joins brings in the elements above it,
    up[v], its factors, factors[v] (every a and b with a*b = v), and its
    products with the members so far, until nothing new joins.
    """
    n = len(mult)
    factors = [0] * n
    for a, row in enumerate(mult):
        for b, ab in enumerate(row):
            factors[ab] |= 1 << a | 1 << b
    filters = []
    for x in range(n):
        f, members, todo = 0, [], [x]
        while todo:
            v = todo.pop()
            if f >> v & 1:
                continue
            f |= 1 << v
            members.append(v)
            grown = up[v] | factors[v]
            for m in members:
                grown |= 1 << mult[v][m] | 1 << mult[m][v]
            todo += [w for w in range(n) if grown >> w & 1 and not f >> w & 1]
        filters.append(f)
    return Partition.from_labels(filters)


@lru_cache(maxsize=65536)
def least_complete_semilattice_congruence(s: OrderedSemigroup) -> Partition:
    return filter_relation(s.mult, table_masks(s)[0])
