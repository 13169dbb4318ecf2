import random

import pytest

from osgkit.oracles import complete_semilattice_congruences, greens_by_literal_sets
from osgkit.properties import (
    facts,
    generator_uniqueness,
    h_commutes,
    inverses_of,
    is_group_like,
    is_inverse_ordered,
    ordered_idempotents,
    regularity,
    resolve_predicate,
)
from osgkit.relations import Partition, greens_relations, least_complete_semilattice_congruence
from osgkit.structure import opposite, relabel
from osgkit.subsets import downward_closure, subset_product


# ---------------------------------------------------------------------------
# ordered idempotents and inverses


def test_ordered_idempotents_examples(sl2, n2, t1):
    assert ordered_idempotents(sl2) == frozenset({0, 1})
    assert ordered_idempotents(n2) == frozenset({0})
    assert ordered_idempotents(t1) == frozenset({0})


def test_inverses_examples(lz2, sl2, t1):
    assert inverses_of(lz2, 0) == frozenset({0, 1})
    assert inverses_of(sl2, 1) == frozenset({1})
    assert inverses_of(sl2, 0) == frozenset({0})
    assert inverses_of(t1, 0) == frozenset({0})


def test_inverse_symmetry(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        for a in range(s.order):
            for b in inverses_of(s, a):
                assert a in inverses_of(s, b)


def test_inverse_pair_products_are_idempotent(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        idem = ordered_idempotents(s)
        for a in range(s.order):
            for b in inverses_of(s, a):
                assert s.mult[a][b] in idem
                assert s.mult[b][a] in idem


# ---------------------------------------------------------------------------
# regularity


def test_regularity_examples(lz2, n2, t1):
    assert regularity(lz2, "completely_regular").holds
    report = regularity(n2, "regular")
    assert not report.holds
    assert report.witness == (1,)
    for kind in ("regular", "completely_regular", "right_regular", "left_regular"):
        assert regularity(t1, kind).holds


def test_regularity_rejects_unknown_kind(t1):
    with pytest.raises(ValueError):
        regularity(t1, "hyper_regular")


def test_completely_regular_implies_regular(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        if regularity(s, "completely_regular").holds:
            assert regularity(s, "regular").holds


def test_completely_regular_witness_powers(corpus_upto3_iso):
    # a <= a*x*a2 and a <= a2*x*a for a shared x
    for s in corpus_upto3_iso:
        if not regularity(s, "completely_regular").holds:
            continue
        for a in range(s.order):
            aa = s.mult[a][a]
            assert any(
                s.leq[a][s.mult[s.mult[a][x]][aa]]
                and s.leq[a][s.mult[s.mult[aa][x]][a]]
                for x in range(s.order)
            )


def test_regularity_witness_reverifies(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        report = regularity(s, "regular")
        if report.holds:
            continue
        (a,) = report.witness
        asa = subset_product(s, subset_product(s, {a}, range(s.order)), {a})
        assert a not in downward_closure(s, asa)


# ---------------------------------------------------------------------------
# group-like


def test_group_like_examples(lz2, sl2, t1):
    assert is_group_like(lz2, "left").holds
    right = is_group_like(lz2, "right")
    assert not right.holds and right.witness == (0, 1)
    two = is_group_like(sl2, "two_sided")
    assert not two.holds and two.witness == (0, 1)
    assert is_group_like(t1, "two_sided").holds


def test_group_like_not_applicable_on_non_regular(n2):
    report = is_group_like(n2, "two_sided")
    assert not report.applicable
    assert not report.holds
    assert report.witness == (1,)  # least non-regular element


def test_group_like_rejects_unknown_kind(t1):
    with pytest.raises(ValueError):
        is_group_like(t1, "upward")


# ---------------------------------------------------------------------------
# H-commutativity


def test_h_commutes_examples(sl2, lz2, t1):
    assert h_commutes(sl2, 0, 1)
    assert not h_commutes(lz2, 0, 1)
    assert h_commutes(t1, 0, 0)


def test_h_commutes_is_symmetric(corpus_upto3_iso):
    for s in corpus_upto3_iso[:60]:
        for a in range(s.order):
            for b in range(s.order):
                assert h_commutes(s, a, b) == h_commutes(s, b, a)


# ---------------------------------------------------------------------------
# inverse ordered structures


def test_is_inverse_ordered_examples(sl2, lz2, t1):
    assert is_inverse_ordered(sl2).holds
    report = is_inverse_ordered(lz2)
    assert not report.holds
    assert report.witness == (0, 0, 1)
    assert is_inverse_ordered(t1).holds


def test_is_inverse_witness_reverifies(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        report = is_inverse_ordered(s)
        if report.holds:
            continue
        if len(report.witness) == 1:
            assert not regularity(s, "regular").holds
            continue
        a, b, c = report.witness
        inv = inverses_of(s, a)
        assert b in inv and c in inv
        assert not greens_relations(s).H.related(b, c)


def test_is_inverse_agrees_with_opposite(corpus_upto3_iso, valid_fixtures):
    for s in [*corpus_upto3_iso, *valid_fixtures.values()]:
        assert is_inverse_ordered(s).holds == is_inverse_ordered(opposite(s)).holds


# ---------------------------------------------------------------------------
# generator uniqueness


def test_generator_uniqueness_examples(sl2, lz2, t1):
    assert generator_uniqueness(sl2, "left").holds
    report = generator_uniqueness(lz2, "left")
    assert not report.holds
    assert report.witness == (0, 1)
    assert generator_uniqueness(t1, "left").holds
    assert generator_uniqueness(t1, "right").holds


def test_generator_uniqueness_rejects_unknown_side(t1):
    with pytest.raises(ValueError):
        generator_uniqueness(t1, "two_sided")


# ---------------------------------------------------------------------------
# the fact record's rows against the literal definitions


def _rows(labels):
    """For each element, the mask of the elements with an equal label."""
    return tuple(sum(1 << b for b, other in enumerate(labels) if other == label)
                 for label in labels)


def test_green_rows_are_the_classes_of_literal_ideals(corpus_upto3_labelled):
    # a L b when (a + Sa] = (b + Sb], R and J likewise, H is L and R; the
    # oracle's classes of the sets before closing refine these
    for s in corpus_upto3_labelled:
        mult, leq, span = s.mult, s.leq, range(s.order)

        def closed(generators):
            return frozenset(t for t in span if any(leq[t][h] for h in generators))

        left = [closed({a} | {mult[x][a] for x in span}) for a in span]
        right = [closed({a} | {mult[a][x] for x in span}) for a in span]
        two = [closed({a} | {mult[x][a] for x in span} | {mult[a][x] for x in span}
                      | {mult[x][mult[a][y]] for x in span for y in span})
               for a in span]
        f = facts(s)
        assert (f.L, f.R, f.J) == (_rows(left), _rows(right), _rows(two))
        assert f.H == tuple(lc & rc for lc, rc in zip(f.L, f.R))
        for literal, rows in zip(greens_by_literal_sets(s), (f.L, f.R, f.J)):
            assert literal.refines(Partition.from_labels(rows))


def test_hc_rows_scan_h_commutation(corpus_upto3_labelled):
    # b in hc[a] when ab <= bxa and ba <= ayb for some x, y
    for s in corpus_upto3_labelled:
        mult, leq, span = s.mult, s.leq, range(s.order)
        assert facts(s).hc == tuple(
            sum(1 << b for b in span
                if any(leq[mult[a][b]][mult[mult[b][x]][a]] for x in span)
                and any(leq[mult[b][a]][mult[mult[a][y]][b]] for y in span))
            for a in span
        )


def test_filter_rows_give_the_least_complete_semilattice_congruence(corpus_upto3_labelled):
    # sigma relates the elements with equal least filters; it is the
    # complete semilattice congruence that refines every other one
    for s in corpus_upto3_labelled:
        sigma = Partition.from_labels(facts(s).filters)
        congruences = complete_semilattice_congruences(s)
        assert [p for p in congruences if all(p.refines(q) for q in congruences)] == [sigma]
        assert least_complete_semilattice_congruence(s) == sigma


# ---------------------------------------------------------------------------
# isomorphism invariance


ALL_DECIDERS = [
    lambda s: regularity(s, "regular").holds,
    lambda s: regularity(s, "completely_regular").holds,
    lambda s: regularity(s, "right_regular").holds,
    lambda s: regularity(s, "left_regular").holds,
    lambda s: is_group_like(s, "two_sided").holds,
    lambda s: is_group_like(s, "left").holds,
    lambda s: is_group_like(s, "right").holds,
    lambda s: is_inverse_ordered(s).holds,
    lambda s: generator_uniqueness(s, "left").holds,
    lambda s: generator_uniqueness(s, "right").holds,
    lambda s: len(ordered_idempotents(s)),
    lambda s: sorted(len(inverses_of(s, a)) for a in range(s.order)),
]


def test_predicates_invariant_under_100_relabelings(valid_fixtures):
    rng = random.Random(1)
    for s in valid_fixtures.values():
        reference = [decide(s) for decide in ALL_DECIDERS]
        for _ in range(100):
            perm = list(range(s.order))
            rng.shuffle(perm)
            moved = relabel(s, perm)
            assert [decide(moved) for decide in ALL_DECIDERS] == reference


def test_resolve_predicate_and_aliases(sl2):
    assert resolve_predicate("inverse")(sl2)
    assert resolve_predicate("is_inverse_ordered")(sl2)
    assert resolve_predicate("t_simple")(sl2) == resolve_predicate("group_like")(sl2)
    with pytest.raises(KeyError):
        resolve_predicate("nope")
