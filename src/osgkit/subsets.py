"""Subset algebra: downward closures, subset products, principal ideals,
and the ideal/simplicity predicates.

Subsets of the carrier are bit masks inside, read from the fact record
of :mod:`osgkit.properties`.  The public functions take any iterable of carrier indices, reject
members outside the carrier with ``ValueError``, and return
``frozenset[int]``; all functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

from osgkit.properties import Facts, bit_mask, facts, union_of
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


def _principal_ideals(f: Facts, side: str) -> list[int]:
    """Each element's principal ideal of the side, on the record f, as a
    mask: the closure of a + Sa (left), a + aS (right) or a + Sa + aS + SaS."""
    _check_side(side)
    if side == "left":
        spans = f.col
    elif side == "right":
        spans = f.row
    else:
        spans = [c | r | union_of(f.col, r) for c, r in zip(f.col, f.row)]
    return [union_of(f.down, 1 << a | sa) for a, sa in enumerate(spans)]


def downward_closure(s: OrderedSemigroup, x) -> frozenset[int]:
    """Everything below some member of x: {t : t <= h for some h in x}."""
    return _members(union_of(facts(s).down, bit_mask(_carrier_subset(s, x))))


def subset_product(s: OrderedSemigroup, x, y) -> frozenset[int]:
    """Elementwise product set {i*j : i in x, j in y}."""
    x, y = _carrier_subset(s, x), _carrier_subset(s, y)
    return frozenset(s.mult[i][j] for i in x for j in y)


def principal_ideal(s: OrderedSemigroup, a: int, side: str) -> frozenset[int]:
    """Downward-closed principal ideal of a; the identity adjunction is
    realised by uniting {a} with the translate sets before closing."""
    return _members(_principal_ideals(facts(s), side)[a])


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


def is_simple(s: OrderedSemigroup, side: str, f: Facts | None = None) -> SimplicityVerdict:
    """No proper nonempty ideal of the given side exists; read from f, the
    fact record of s, which is built here when the caller has none.

    A failing verdict carries the least proper ideal by (size, mask), the
    least proper principal ideal: on a valid structure, as ``analyze``
    checks first, each member a of a least proper ideal I generates an
    ideal (a) inside I, so (a) has I's size and is I.
    """
    full = (1 << s.order) - 1
    proper = [m for m in _principal_ideals(facts(s) if f is None else f, side) if m != full]
    if not proper:
        return SimplicityVerdict(True)
    return SimplicityVerdict(False, _members(min(proper, key=lambda m: (bin(m).count("1"), m))))
