"""Subset algebra: downward closures, subset products, principal ideals,
and the ideal/simplicity predicates.

Subsets of the carrier are bit masks, as plain ints in the tables that
:func:`table_masks` and :func:`ideal_masks`, and no other function, build
for Green's relations and the fact record of :mod:`osgkit.properties`.
The public functions take any iterable of carrier indices, reject
members outside the carrier with ``ValueError``, and return
``frozenset[int]``; all functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

from osgkit.structure import OrderedSemigroup

SIDES = ("left", "right", "two_sided")


def _carrier_subset(s: OrderedSemigroup, x) -> frozenset[int]:
    """x, an iterable of carrier indices of s, as a frozenset."""
    x = frozenset(x)
    for m in x:
        if not 0 <= m < s.order:
            raise ValueError(f"member {m} outside carrier of order {s.order}")
    return x


def _members(bits: int) -> frozenset[int]:
    """The elements whose bits are set in bits."""
    return frozenset(v for v in range(bits.bit_length()) if bits >> v & 1)


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


def ideal_masks(down, row, col):
    """(left, right, two_sided): the principal ideals of each element, the
    downward closures of a + Sa, a + aS and a + Sa + aS + S(aS), from the
    down, row and col masks of :func:`table_masks`."""
    span = range(len(down))
    return (
        [union_of(down, 1 << a | col[a]) for a in span],
        [union_of(down, 1 << a | row[a]) for a in span],
        [union_of(down, 1 << a | col[a] | row[a] | union_of(col, row[a])) for a in span],
    )


def downward_closure(s: OrderedSemigroup, x) -> frozenset[int]:
    """Everything below some member of x: {t : t <= h for some h in x}."""
    return _members(union_of(table_masks(s)[1], bit_mask(_carrier_subset(s, x))))


def subset_product(s: OrderedSemigroup, x, y) -> frozenset[int]:
    """Elementwise product set {i*j : i in x, j in y}."""
    x, y = _carrier_subset(s, x), _carrier_subset(s, y)
    return frozenset(s.mult[i][j] for i in x for j in y)


def principal_ideal(s: OrderedSemigroup, a: int, side: str) -> frozenset[int]:
    """Downward-closed principal ideal of a; the identity adjunction is
    realised by uniting {a} with the translate sets before closing."""
    _check_side(side)
    return _members(ideal_masks(*table_masks(s)[1:])[SIDES.index(side)][a])


class IdealVerdict(NamedTuple):
    ok: bool
    reason: str | None = None
    pair: tuple[int, int] | None = None


def is_ideal(s: OrderedSemigroup, i, side: str) -> IdealVerdict:
    """Absorption for the given side plus downward closure.

    Rejects the empty subset.  On failure the verdict names the broken
    law and a violating pair: (x, a) with x*a escaping for left
    absorption, (a, x) for right, and (t, h) with t <= h inside but t
    outside for closure.
    """
    _check_side(side)
    i = _carrier_subset(s, i)
    if not i:
        raise ValueError("ideal candidates must be nonempty")
    inside = sorted(i)
    if side in ("left", "two_sided"):
        for x in range(s.order):
            for a in inside:
                if s.mult[x][a] not in i:
                    return IdealVerdict(False, "left_absorption", (x, a))
    if side in ("right", "two_sided"):
        for a in inside:
            for x in range(s.order):
                if s.mult[a][x] not in i:
                    return IdealVerdict(False, "right_absorption", (a, x))
    for t in range(s.order):
        if t in i:
            continue
        for h in inside:
            if s.leq[t][h]:
                return IdealVerdict(False, "downward_closure", (t, h))
    return IdealVerdict(True)


class SimplicityVerdict(NamedTuple):
    ok: bool
    witness: frozenset[int] | None = None


def is_simple(s: OrderedSemigroup, side: str) -> SimplicityVerdict:
    """No proper nonempty ideal of the given side exists.

    A failing verdict carries the least proper ideal by (size, mask), the
    least proper principal ideal: on a valid structure, as ``analyze``
    checks first, each member a of a least proper ideal I generates an
    ideal (a) inside I, so (a) has I's size and is I.
    """
    _check_side(side)
    full = (1 << s.order) - 1
    proper = [m for m in ideal_masks(*table_masks(s)[1:])[SIDES.index(side)] if m != full]
    if not proper:
        return SimplicityVerdict(True)
    return SimplicityVerdict(False, _members(min(proper, key=lambda m: (bin(m).count("1"), m))))
