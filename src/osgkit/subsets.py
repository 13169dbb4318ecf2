"""Subset algebra: downward closures, subset products, principal ideals,
and the ideal/simplicity predicates.

Subsets of the carrier are bit masks, as plain ints in the tables that
Green's relations and the fact record of :mod:`osgkit.properties` are
built from, and wrapped as :class:`Subset` values in the public
functions; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from osgkit.structure import OrderedSemigroup

SIDES = ("left", "right", "two_sided")


@dataclass(frozen=True)
class Subset:
    """Subset of carrier indices 0..n-1, stored as a bit mask."""

    bits: int
    n: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits outside the carrier range")

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls((1 << n) - 1, n)

    @classmethod
    def of(cls, members, n: int) -> "Subset":
        bits = 0
        for m in members:
            if not 0 <= m < n:
                raise ValueError(f"member {m} outside carrier of order {n}")
            bits |= 1 << m
        return cls(bits, n)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.bits >> i & 1)

    def __iter__(self):
        return iter(self.members())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.bits | other.bits, self.n)

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.bits & other.bits, self.n)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def _check(self, other: "Subset"):
        if self.n != other.n:
            raise ValueError("subsets belong to different carriers")


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def bit_mask(elements) -> int:
    bits = 0
    for v in elements:
        bits |= 1 << v
    return bits


def union_of(masks, bits: int) -> int:
    """The union of masks[v] over the members v of bits."""
    out = 0
    for v, mask in enumerate(masks):
        if bits >> v & 1:
            out |= mask
    return out


def table_masks(s: OrderedSemigroup):
    """(up, down, row, col): up[v] holds the elements above v, down[v]
    those below, row[p] the set pS = {p*x} and col[q] the set Sq = {x*q}."""
    n, mult, leq = s.order, s.mult, s.leq
    up, down, row, col = [0] * n, [0] * n, [0] * n, [0] * n
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                up[a] |= 1 << b
                down[b] |= 1 << a
            row[a] |= 1 << mult[a][b]
            col[b] |= 1 << mult[a][b]
    return tuple(up), tuple(down), tuple(row), tuple(col)


def ideal_masks(s: OrderedSemigroup):
    """(left, right, two_sided): the principal ideals of each element, the
    downward closures of a + Sa, a + aS and a + Sa + aS + S(aS)."""
    _, down, row, col = table_masks(s)
    span = range(s.order)
    return (
        [union_of(down, 1 << a | col[a]) for a in span],
        [union_of(down, 1 << a | row[a]) for a in span],
        [union_of(down, 1 << a | col[a] | row[a] | union_of(col, row[a])) for a in span],
    )


def downward_closure(s: OrderedSemigroup, x: Subset) -> Subset:
    """Everything below some member of x: {t : t <= h for some h in x}."""
    return Subset(union_of(table_masks(s)[1], x.bits), s.order)


def subset_product(s: OrderedSemigroup, x: Subset, y: Subset) -> Subset:
    """Elementwise product set {i*j : i in x, j in y}."""
    bits = 0
    for i in x:
        row = s.mult[i]
        for j in y:
            bits |= 1 << row[j]
    return Subset(bits, s.order)


def principal_ideal(s: OrderedSemigroup, a: int, side: str) -> Subset:
    """Downward-closed principal ideal of a; the identity adjunction is
    realised by uniting {a} with the translate sets before closing."""
    _check_side(side)
    return Subset(ideal_masks(s)[SIDES.index(side)][a], s.order)


class IdealVerdict(NamedTuple):
    ok: bool
    reason: str | None = None
    pair: tuple[int, int] | None = None


def is_ideal(s: OrderedSemigroup, i: Subset, side: str) -> IdealVerdict:
    """Absorption for the given side plus downward closure.

    Rejects the empty subset.  On failure the verdict names the broken
    law and a violating pair: (x, a) with x*a escaping for left
    absorption, (a, x) for right, and (t, h) with t <= h inside but t
    outside for closure.
    """
    _check_side(side)
    if not i:
        raise ValueError("ideal candidates must be nonempty")
    members = i.members()
    if side in ("left", "two_sided"):
        for x in range(s.order):
            for a in members:
                if s.mult[x][a] not in i:
                    return IdealVerdict(False, "left_absorption", (x, a))
    if side in ("right", "two_sided"):
        for a in members:
            for x in range(s.order):
                if s.mult[a][x] not in i:
                    return IdealVerdict(False, "right_absorption", (a, x))
    for t in range(s.order):
        if t in i:
            continue
        for h in members:
            if s.leq[t][h]:
                return IdealVerdict(False, "downward_closure", (t, h))
    return IdealVerdict(True)


class SimplicityVerdict(NamedTuple):
    ok: bool
    witness: Subset | None = None


def is_simple(s: OrderedSemigroup, side: str) -> SimplicityVerdict:
    """No proper nonempty ideal of the given side exists.

    Candidates are enumerated smallest-cardinality first, so a failing
    verdict carries a minimal proper ideal.
    """
    _check_side(side)
    n = s.order
    masks = sorted(range(1, (1 << n) - 1), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        candidate = Subset(mask, n)
        if is_ideal(s, candidate, side).ok:
            return SimplicityVerdict(False, candidate)
    return SimplicityVerdict(True)
