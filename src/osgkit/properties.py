"""Element- and structure-level predicates: ordered idempotents, inverses,
regularity variants, group-likeness, H-commutativity, inverse deciders,
and H-unique idempotent generation.

Each structure's facts are computed once, as int bit masks, into an
immutable :class:`Facts` record built by :func:`facts` from the kernel's
fact rows; the deciders below are adapters over it, and the property
predicates and the catalog conditions of :mod:`osgkit.theorems` read it
directly.  Every decider returns a :class:`PropertyReport` whose witness
is the lexicographically least violating tuple, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from osgkit import kernel
from osgkit.structure import OrderedSemigroup

REGULARITY_KINDS = ("regular", "completely_regular", "right_regular", "left_regular")
GROUP_LIKE_KINDS = ("two_sided", "left", "right")
GENERATOR_SIDES = ("left", "right")


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


def lowest(bits: int) -> int:
    """The least member of a nonempty mask."""
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    holds: bool
    witness: tuple[int, ...] | None = None
    notes: str = ""
    applicable: bool = True


@dataclass(frozen=True)
class Facts:
    """One structure's tables, subsets of the carrier as int bit masks.

    up[v] and down[v] hold the elements above and below v; row[p] and
    col[q] the sets pS and Sq; pxq[p][q] the set {(p*x)*q : x}.  inv[a]
    lists the inverses of a ascending, inv_mask[a] as a mask; idem and
    idem_mask are the ordered idempotents.  not_regular and
    not_completely_regular are the least element outside (aSa], resp.
    (a2Sa2], or None.

    The next six are rows, one mask per element a.  L[a], R[a], J[a] and
    H[a] hold a's class of each Green's relation, so a and b are related
    exactly when b is in a's row, or when their rows are equal; hc[a]
    holds the elements H-commutative with a; filters[a] is the least
    filter containing a, and sigma relates the elements whose filters are
    equal.  The partitions of Green's relations and of sigma are built
    from these rows by :mod:`osgkit.relations`.  The last five are the
    least failing tuples of the inverse-pair scans, in the catalog's scan
    order, or None: not_left_matched and not_right_matched, (a, b, a', b')
    for L4.1 and L4.2; not_conjugate, (a, a', e) for L4.3; not_reproduced,
    (a, b, a', b') for L4.4; not_sandwich_closed, (e, f, x, x') for TESF.
    """

    s: OrderedSemigroup
    n: int
    mult: tuple[tuple[int, ...], ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    row: tuple[int, ...]
    col: tuple[int, ...]
    pxq: tuple[tuple[int, ...], ...]
    inv: tuple[tuple[int, ...], ...]
    inv_mask: tuple[int, ...]
    idem: tuple[int, ...]
    idem_mask: int
    not_regular: int | None
    not_completely_regular: int | None
    L: tuple[int, ...]
    R: tuple[int, ...]
    J: tuple[int, ...]
    H: tuple[int, ...]
    hc: tuple[int, ...]
    filters: tuple[int, ...]
    not_left_matched: tuple[int, int, int, int] | None
    not_right_matched: tuple[int, int, int, int] | None
    not_conjugate: tuple[int, int, int] | None
    not_reproduced: tuple[int, int, int, int] | None
    not_sandwich_closed: tuple[int, int, int, int] | None

    def regularity(self, kind: str) -> PropertyReport:
        if kind == "regular":
            a = self.not_regular
        elif kind == "completely_regular":
            a = self.not_completely_regular
        else:
            sq = [r[a] for a, r in enumerate(self.mult)]
            core = self.row if kind == "right_regular" else self.col
            a = next((a for a in range(self.n) if not core[sq[a]] & self.up[a]), None)
        return PropertyReport(kind, a is None, None if a is None else (a,))

    def group_like(self, kind: str) -> PropertyReport:
        prop = f"group_like_{kind}"
        if self.not_regular is not None:
            return PropertyReport(
                prop, False, (self.not_regular,),
                notes="not applicable: structure is not regular", applicable=False,
            )
        witness = self.not_group_like(range(self.n), kind)
        return PropertyReport(prop, witness is None, witness)

    def not_group_like(self, members, kind: str = "two_sided"):
        """The least (a, b) over the members C with a outside (Cb] (kinds
        two_sided and left) or b outside (aC] (two_sided and right),
        products taken in S, or None.

        On a subsemigroup C under the induced order, None for two_sided
        says C is group-like with no regularity check first: a <= ac' for
        some c' in C (take b = a) and c' <= da for some d in C, so
        a <= ada by compatibility, and C is regular.
        """
        mult, up = self.mult, self.up
        left, right = kind in ("two_sided", "left"), kind in ("two_sided", "right")
        col = {b: bit_mask([mult[c][b] for c in members]) for b in members}
        row = {a: bit_mask([mult[a][c] for c in members]) for a in members}
        return next(
            ((a, b) for a in members for b in members
             if left and not col[b] & up[a] or right and not row[a] & up[b]),
            None,
        )

    def h_commutes(self, a: int, b: int) -> bool:
        return bool(self.hc[a] >> b & 1)

    def inverse(self) -> PropertyReport:
        if self.not_regular is not None:
            return PropertyReport("inverse", False, (self.not_regular,), notes="not regular")
        holds, witness = self.inverses_h_related(range(self.n))
        return PropertyReport("inverse", holds, witness)

    def inverses_h_related(self, elements):
        """(holds, witness): any two inverses of each a in elements share
        an H-class; a failing witness is the first (a, b, c) with b and c
        inverses of a not H-related, scanning b and then c ascending."""
        for a in elements:
            others = self.inv_mask[a]
            if others:
                b = lowest(others)
                stray = others & ~self.H[b]
                if stray:
                    return False, (a, b, lowest(stray))
        return True, None

    def generator_uniqueness(self, side: str) -> PropertyReport:
        prop = f"generator_uniqueness_{side}"
        # principal ideals of the side are equal exactly when their
        # generators are L- (left) or R- (right) related
        same = self.L if side == "left" else self.R
        missing = ((1 << self.n) - 1) & ~union_of(same, self.idem_mask)
        if missing:
            return PropertyReport(prop, False, (lowest(missing),), notes="no idempotent generator")
        for e in self.idem:
            stray = self.idem_mask & same[e] & ~self.H[e]
            if stray:
                return PropertyReport(prop, False, (e, lowest(stray)),
                                      notes="generators not H-related")
        return PropertyReport(prop, True)


def facts(s: OrderedSemigroup) -> Facts:
    """Build the fact record of s from the kernel's fact rows; above the
    kernel's orders, from the reference builder, which has no cap.
    Products keep the bracketing of their definitions, so the record holds
    for any table, associative or not."""
    n = s.order
    if n <= kernel.MAX_ORDER:
        rows = kernel.fact_rows(*s.flat(), n)
    else:
        from osgkit import _kernel_py  # imported only for large structures

        rows = _kernel_py._fact_rows(tuple(chain(*s.mult)), tuple(chain(*s.leq)), n)
    return Facts(s, n, s.mult, *rows)


def ordered_idempotents(s: OrderedSemigroup) -> frozenset[int]:
    """Elements e with e <= e*e."""
    return frozenset(facts(s).idem)


@lru_cache(maxsize=65536)
def inverses_of(s: OrderedSemigroup, a: int) -> frozenset[int]:
    """All b with a <= a*b*a and b <= b*a*b."""
    return frozenset(facts(s).inv[a])


@lru_cache(maxsize=65536)
def regularity(s: OrderedSemigroup, kind: str = "regular") -> PropertyReport:
    """Every element lies in its kind's closure set: a in (aSa] for
    regular, (a2Sa2] for completely regular, (a2S] / (Sa2] for the
    one-sided variants.  Witness is the least failing element."""
    if kind not in REGULARITY_KINDS:
        raise ValueError(f"kind must be one of {REGULARITY_KINDS}, got {kind!r}")
    return facts(s).regularity(kind)


def is_group_like(s: OrderedSemigroup, kind: str = "two_sided") -> PropertyReport:
    """two_sided: every a, b satisfy a in (Sb] and b in (aS]; left keeps
    only the first membership, right only the second.

    Defined on regular structures only; a non-regular input yields a
    not-applicable report (distinct from a false one).
    """
    if kind not in GROUP_LIKE_KINDS:
        raise ValueError(f"kind must be one of {GROUP_LIKE_KINDS}, got {kind!r}")
    return facts(s).group_like(kind)


def h_commutes(s: OrderedSemigroup, a: int, b: int) -> bool:
    """a*b <= b*x*a for some x, and symmetrically b*a <= a*y*b for some y."""
    return facts(s).h_commutes(a, b)


@lru_cache(maxsize=65536)
def is_inverse_ordered(s: OrderedSemigroup) -> PropertyReport:
    """Regular, and any two inverses of each element share an H-class.

    A non-regular structure reports false with its least non-regular
    element; otherwise a failing witness is the least (a, b, c) with b
    and c both inverse to a but not H-related.
    """
    return facts(s).inverse()


def generator_uniqueness(s: OrderedSemigroup, side: str) -> PropertyReport:
    """Each principal ideal of the side matches one generated by an
    ordered idempotent, and idempotents generating equal ideals share an
    H-class."""
    if side not in GENERATOR_SIDES:
        raise ValueError(f"side must be one of {GENERATOR_SIDES}, got {side!r}")
    return facts(s).generator_uniqueness(side)


# ---------------------------------------------------------------------------
# predicate registry: each property id's test of a fact record, read by the
# enumeration filters; resolve_predicate's tests of structures serve oracles

PROPERTY_PREDICATES = {
    "regular": lambda f: f.not_regular is None,
    "completely_regular": lambda f: f.not_completely_regular is None,
    "right_regular": lambda f: f.regularity("right_regular").holds,
    "left_regular": lambda f: f.regularity("left_regular").holds,
    "group_like": lambda f: f.group_like("two_sided").holds,
    "left_group_like": lambda f: f.group_like("left").holds,
    "right_group_like": lambda f: f.group_like("right").holds,
    "inverse": lambda f: f.inverse().holds,
}
# aliases: catalog names kept stable for callers
PROPERTY_PREDICATES["is_inverse_ordered"] = PROPERTY_PREDICATES["inverse"]
PROPERTY_PREDICATES["t_simple"] = PROPERTY_PREDICATES["group_like"]


def resolve_predicate(prop: str):
    """The property's test of a structure, made on its fact record."""
    try:
        predicate = PROPERTY_PREDICATES[prop]
    except KeyError:
        raise KeyError(
            f"unknown property {prop!r}; known: {sorted(PROPERTY_PREDICATES)}"
        ) from None
    return lambda s: predicate(facts(s))
