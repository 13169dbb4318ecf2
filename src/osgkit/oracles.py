"""Brute-force oracles: naive, enumerate-everything implementations used to
cross-check the main code paths and to make derived test values executable.

Each oracle recomputes from the definitions with plain scans and never
calls the validator.  Given a property id, the semilattice decomposition
search decides each class on its fact record, from ``kernel.fact_rows``;
it tries every partition of the carrier, a Bell(n) count.  The catalog
decides B.2 from sigma alone, and the tests hold that against this search.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Callable, NamedTuple

from osgkit.fixtures import load_named_fixture
from osgkit.properties import resolve_predicate
from osgkit.relations import Partition, is_congruence
from osgkit.structure import OrderedSemigroup, from_table


def assoc_failures(mult) -> list[tuple[int, int, int]]:
    """All non-associative triples of a table given as rows."""
    n = len(mult)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mult[mult[i][j]][k] != mult[i][mult[j][k]]:
                    out.append((i, j, k))
    return out


def axioms_hold(mult, leq) -> bool:
    """Full scan of associativity, order axioms, and compatibility."""
    n = len(mult)
    rng = range(n)
    if assoc_failures(mult):
        return False
    for i in rng:
        if not leq[i][i]:
            return False
        for j in rng:
            if i != j and leq[i][j] and leq[j][i]:
                return False
            if leq[i][j]:
                for k in rng:
                    if leq[j][k] and not leq[i][k]:
                        return False
    for a in rng:
        for b in rng:
            if not leq[a][b]:
                continue
            for x in rng:
                if not leq[mult[x][a]][mult[x][b]]:
                    return False
                if not leq[mult[a][x]][mult[b][x]]:
                    return False
    return True


def all_tables(n: int):
    """Every n x n table over 0..n-1, as row tuples (n <= 3 is sane)."""
    for flat in product(range(n), repeat=n * n):
        yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def assoc_tables_naive(n: int) -> list[tuple[tuple[int, ...], ...]]:
    return [t for t in all_tables(n) if not assoc_failures(t)]


def all_reflexive_relations(n: int):
    """Every reflexive boolean matrix on n points (not necessarily a poset)."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product((False, True), repeat=len(offdiag)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(offdiag, bits):
            rel[i][j] = b
        yield tuple(tuple(row) for row in rel)


def is_partial_order(rel) -> bool:
    n = len(rel)
    for i in range(n):
        if not rel[i][i]:
            return False
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                return False
            if rel[i][j]:
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        return False
    return True


def posets_naive(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    return [rel for rel in all_reflexive_relations(n) if is_partial_order(rel)]


def iso_class_count(tables, n: int) -> int:
    """Partition labelled tables into isomorphism classes by trying all
    bijections; returns the class count."""
    pool = set(tables)
    classes = 0
    while pool:
        table = pool.pop()
        classes += 1
        for perm in permutations(range(n)):
            relabelled = tuple(
                tuple(perm[table[i][j]] for j in range(n)) for i in range(n)
            )
            remapped = tuple(
                tuple(relabelled[perm[i]][perm[j]] for j in range(n)) for i in range(n)
            )
            pool.discard(remapped)
    return classes


def ordered_structures_naive(n: int) -> list[OrderedSemigroup]:
    """Every valid (table, order) pair on n labelled points, by filtering
    the full cross product through the axiom scan."""
    out = []
    for mult in assoc_tables_naive(n):
        for leq in posets_naive(n):
            if axioms_hold(mult, leq):
                out.append(OrderedSemigroup(n, mult, leq))
    return out


def greens_by_literal_sets(s: OrderedSemigroup):
    """Green's partitions from equality of the literal, non-closed
    generator sets {a} u Sa, {a} u aS, and {a} u Sa u aS u SaS."""
    n = s.order
    left, right, two = [], [], []
    for a in range(n):
        sa = frozenset({a} | {s.mult[x][a] for x in range(n)})
        a_s = frozenset({a} | {s.mult[a][x] for x in range(n)})
        sas = frozenset(
            {a}
            | {s.mult[x][a] for x in range(n)}
            | {s.mult[a][x] for x in range(n)}
            | {s.mult[x][s.mult[a][y]] for x in range(n) for y in range(n)}
        )
        left.append(sa)
        right.append(a_s)
        two.append(sas)
    return (
        Partition.from_labels(left),
        Partition.from_labels(right),
        Partition.from_labels(two),
    )


def all_partitions(n: int):
    """Every partition of 0..n-1, by restricted-growth strings."""
    labels = [0] * n

    def grow(i: int, top: int):
        if i == n:
            yield Partition.from_labels(labels)
            return
        for lab in range(top + 1):
            labels[i] = lab
            yield from grow(i + 1, top + (1 if lab == top else 0))

    yield from grow(0, 0)


def complete_semilattice_congruences(s: OrderedSemigroup) -> list[Partition]:
    return [
        p for p in all_partitions(s.order)
        if is_congruence(s, p, "complete_semilattice").ok
    ]


def substructure(s: OrderedSemigroup, members) -> OrderedSemigroup:
    """Restrict to a multiplicatively closed subset, reindexed 0..k-1.

    The induced order is the restriction of leq; raises if the subset is
    empty or not closed under multiplication.
    """
    old = sorted(set(members))
    if not old:
        raise ValueError("substructure needs a nonempty carrier")
    new_index = {x: i for i, x in enumerate(old)}
    for a in old:
        for b in old:
            if s.mult[a][b] not in new_index:
                raise ValueError(f"subset not closed: {a}*{b} escapes")
    mult = tuple(tuple(new_index[s.mult[a][b]] for b in old) for a in old)
    leq = tuple(tuple(s.leq[a][b] for b in old) for a in old)
    return OrderedSemigroup(len(old), mult, leq)


class DecompositionVerdict(NamedTuple):
    ok: bool
    witness: Partition | None = None


def semilattice_decomposition_check(
    s: OrderedSemigroup,
    class_property: str | Callable[[OrderedSemigroup], bool],
) -> DecompositionVerdict:
    """Is there a complete semilattice congruence whose classes, as
    subsemigroups under the induced order, all satisfy the predicate?

    The predicate may be a property id from :mod:`osgkit.properties` or a
    callable; the winning partition is returned as witness.
    """
    if callable(class_property):
        predicate = class_property
    else:
        predicate = resolve_predicate(class_property)
    for p in all_partitions(s.order):
        if not is_congruence(s, p, "complete_semilattice").ok:
            continue
        if all(predicate(substructure(s, group)) for group in p.classes):
            return DecompositionVerdict(True, p)
    return DecompositionVerdict(False)


# ---------------------------------------------------------------------------
# literal readings of Lemma 4's inverse-pair laws and of the sandwich-set
# condition: sets and products written out, no fact record and no masks.
# Each gives (holds, witness), the witness the least failing tuple in the
# catalog's scan order; on associative tables they must agree with it.


def _product(s: OrderedSemigroup, *factors: int) -> int:
    """x1 x2 ... xk, bracketed from the left."""
    out = factors[0]
    for x in factors[1:]:
        out = s.mult[out][x]
    return out


def _below(s: OrderedSemigroup, xs) -> frozenset[int]:
    """(X], everything below some member of xs."""
    return frozenset(t for t in range(s.order) if any(s.leq[t][x] for x in xs))


def literal_inverses(s: OrderedSemigroup, a: int) -> list[int]:
    """The b with a <= aba and b <= bab, ascending."""
    return [b for b in range(s.order)
            if s.leq[a][_product(s, a, b, a)] and s.leq[b][_product(s, b, a, b)]]


def literal_idempotents(s: OrderedSemigroup) -> list[int]:
    """The ordered idempotents e <= e*e, ascending."""
    return [e for e in range(s.order) if s.leq[e][_product(s, e, e)]]


def inverse_products_matched(s: OrderedSemigroup, side: str):
    """L4.1 (left): a L b exactly when a'a H b'b; L4.2 (right): a R b
    exactly when aa' H bb'; for all a, b, inverses a' of a and b' of b.
    a L b when (a + Sa] = (b + Sb], a R b when (a + aS] = (b + bS], and H
    is both."""
    span = range(s.order)
    left = [_below(s, {a} | {s.mult[x][a] for x in span}) for a in span]
    right = [_below(s, {a} | {s.mult[a][x] for x in span}) for a in span]
    one_sided = left if side == "left" else right
    for a in span:
        for b in span:
            for ap in literal_inverses(s, a):
                for bp in literal_inverses(s, b):
                    if side == "left":
                        x, y = _product(s, ap, a), _product(s, bp, b)
                    else:
                        x, y = _product(s, a, ap), _product(s, b, bp)
                    h_related = left[x] == left[y] and right[x] == right[y]
                    if (one_sided[a] == one_sided[b]) != h_related:
                        return False, (a, b, ap, bp)
    return True, None


def idempotent_conjugates(s: OrderedSemigroup):
    """L4.3: for each a, inverse a' and ordered idempotent e, some aexa'
    and some a'eya are ordered idempotents."""
    span, idem = range(s.order), literal_idempotents(s)
    for a in span:
        for ap in literal_inverses(s, a):
            for e in idem:
                if not (any(_product(s, a, e, x, ap) in idem for x in span)
                        and any(_product(s, ap, e, y, a) in idem for y in span)):
                    return False, (a, ap, e)
    return True, None


def products_reproduced(s: OrderedSemigroup):
    """L4.4: for each a, b and inverses a', b', ab <= abb'xa'ab for some x
    and b'a' <= b'a'aybb'a' for some y."""
    span, leq = range(s.order), s.leq
    for a in span:
        for b in span:
            for ap in literal_inverses(s, a):
                for bp in literal_inverses(s, b):
                    ab, bpap = _product(s, a, b), _product(s, bp, ap)
                    if not (any(leq[ab][_product(s, a, b, bp, x, ap, a, b)] for x in span)
                            and any(leq[bpap][_product(s, bp, ap, a, y, b, bp, ap)]
                                    for y in span)):
                        return False, (a, b, ap, bp)
    return True, None


def sandwich_inverses(s: OrderedSemigroup):
    """TESF: for ordered idempotents e and f, every inverse of a member of
    (eSf] lies in (fSe]; the witness is (e, f, x, x')."""
    span, idem = range(s.order), literal_idempotents(s)
    for e in idem:
        for f in idem:
            esf = _below(s, {_product(s, e, x, f) for x in span})
            fse = _below(s, {_product(s, f, x, e) for x in span})
            for x in sorted(esf):
                for xp in literal_inverses(s, x):
                    if xp not in fse:
                        return False, (e, f, x, xp)
    return True, None


INVERSE_PAIR_REFERENCES = {
    "L4.1": lambda s: inverse_products_matched(s, "left"),
    "L4.2": lambda s: inverse_products_matched(s, "right"),
    "L4.3": idempotent_conjugates,
    "L4.4": products_reproduced,
    "TESF": sandwich_inverses,
}


def px3_report() -> dict:
    """Exhaustive 27-triple adjudication of the px3 fixture, both the
    row-times-column table and its mirror."""
    s, names = load_named_fixture("px3")
    direct = assoc_failures(s.mult)
    mirrored = tuple(tuple(s.mult[j][i] for j in range(s.order)) for i in range(s.order))
    opposite_fails = assoc_failures(mirrored)
    return {
        "names": names,
        "direct_failures": direct,
        "direct_failure_names": [tuple(names[i] for i in t) for t in direct],
        "opposite_failures": opposite_fails,
        "associative": not direct,
        "opposite_associative": not opposite_fails,
    }


def fixture_axiom_report() -> dict:
    """Axiom oracle verdicts for every shipped fixture."""
    out = {}
    for name in ("t1", "sl2", "lz2", "n2", "px3"):
        s, _ = load_named_fixture(name)
        out[name] = axioms_hold(s.mult, s.leq)
    return out


def rz2() -> OrderedSemigroup:
    """Right-zero structure on two points with discrete order."""
    return from_table([[0, 1], [0, 1]])
