import pytest

from osgkit.enumeration import EnumerationOptions, enumerate_ordered_semigroups
from osgkit.oracles import (
    all_partitions,
    complete_semilattice_congruences,
    greens_by_literal_sets,
    semilattice_decomposition_check,
    substructure,
)
from osgkit.properties import regularity, resolve_predicate
from osgkit.relations import (
    CongruenceVerdict,
    Partition,
    check_partition,
    greens_relations,
    is_congruence,
    least_complete_semilattice_congruence,
)
from osgkit.structure import relabel
from osgkit.theorems import evaluate_condition


# ---------------------------------------------------------------------------
# Partition


def test_partition_from_labels_orders_classes_by_least_member():
    p = Partition.from_labels(["x", "y", "x", "z"])
    assert p.classes == ((0, 2), (1,), (3,))
    assert p.class_of == (0, 1, 0, 2)
    p.check()


def test_partition_invariant_checker_rejects_breakage():
    bad = Partition(class_of=(0, 0), classes=((0,), (1,)))
    with pytest.raises(ValueError):
        bad.check()
    with pytest.raises(ValueError):
        check_partition(Partition.singletons(2), 3)


def test_partition_refines():
    fine = Partition.singletons(3)
    coarse = Partition.universal(3)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.refines(fine)


def test_all_partitions_counts():
    # Bell numbers
    assert sum(1 for _ in all_partitions(1)) == 1
    assert sum(1 for _ in all_partitions(2)) == 2
    assert sum(1 for _ in all_partitions(3)) == 5
    assert sum(1 for _ in all_partitions(4)) == 15
    assert sum(1 for _ in all_partitions(5)) == 52


# ---------------------------------------------------------------------------
# Green's relations


def test_greens_sl2_all_singletons(sl2):
    greens = greens_relations(sl2)
    for p in greens:
        assert p.classes == ((0,), (1,))


def test_greens_lz2(lz2):
    greens = greens_relations(lz2)
    assert greens.L.classes == ((0, 1),)
    assert greens.R.classes == ((0,), (1,))
    assert greens.H.classes == ((0,), (1,))
    assert greens.J.classes == ((0, 1),)


def test_greens_t1(t1):
    greens = greens_relations(t1)
    for p in greens:
        assert p.classes == ((0,),)


def test_h_is_meet_of_l_and_r(corpus_upto3_labelled):
    for s in corpus_upto3_labelled:
        greens = greens_relations(s)
        for a in range(s.order):
            for b in range(s.order):
                assert greens.H.related(a, b) == (
                    greens.L.related(a, b) and greens.R.related(a, b)
                )


def test_greens_partitions_satisfy_invariants(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        for p in greens_relations(s):
            check_partition(p, s.order)


def test_literal_generator_sets_refine_closed_relations(corpus_upto3_iso):
    # equal literal sets force equal closures, never the other way around
    for s in corpus_upto3_iso:
        greens = greens_relations(s)
        lit_l, lit_r, lit_j = greens_by_literal_sets(s)
        assert lit_l.refines(greens.L)
        assert lit_r.refines(greens.R)
        assert lit_j.refines(greens.J)


# ---------------------------------------------------------------------------
# congruences


def test_congruence_examples(sl2, lz2):
    assert is_congruence(sl2, Partition.singletons(2), "complete_semilattice").ok
    assert is_congruence(lz2, Partition.universal(2), "two_sided").ok
    verdict = is_congruence(lz2, Partition.singletons(2), "semilattice")
    assert verdict == CongruenceVerdict(False, "commute", (0, 1))


def test_congruence_rejects_bad_partition(sl2):
    with pytest.raises(ValueError):
        is_congruence(sl2, Partition.singletons(3), "left")
    with pytest.raises(ValueError):
        is_congruence(sl2, Partition.singletons(2), "weird")


def test_congruence_witnesses_reverify(corpus_upto3_iso):
    for s in corpus_upto3_iso[:30]:
        for p in all_partitions(s.order):
            verdict = is_congruence(s, p, "complete_semilattice")
            if verdict.ok:
                continue
            cls, mult = p.class_of, s.mult
            if verdict.reason == "left_translation":
                a, b, c = verdict.witness
                assert cls[a] == cls[b] and cls[mult[c][a]] != cls[mult[c][b]]
            elif verdict.reason == "right_translation":
                a, b, c = verdict.witness
                assert cls[a] == cls[b] and cls[mult[a][c]] != cls[mult[b][c]]
            elif verdict.reason == "square":
                (a,) = verdict.witness
                assert cls[a] != cls[mult[a][a]]
            elif verdict.reason == "commute":
                a, b = verdict.witness
                assert cls[mult[a][b]] != cls[mult[b][a]]
            else:
                a, b = verdict.witness
                assert s.leq[a][b] and cls[a] != cls[mult[a][b]]


def test_universal_partition_is_two_sided_congruence(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        assert is_congruence(s, Partition.universal(s.order), "two_sided").ok


# ---------------------------------------------------------------------------
# least complete semilattice congruence


def test_least_congruence_examples(sl2, lz2, t1):
    assert least_complete_semilattice_congruence(sl2).classes == ((0,), (1,))
    assert least_complete_semilattice_congruence(lz2).classes == ((0, 1),)
    assert least_complete_semilattice_congruence(t1).classes == ((0,),)


def test_least_congruence_passes_its_own_check(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        least = least_complete_semilattice_congruence(s)
        assert is_congruence(s, least, "complete_semilattice").ok


def test_least_congruence_refines_all_candidates(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        least = least_complete_semilattice_congruence(s)
        for p in complete_semilattice_congruences(s):
            assert least.refines(p)


def test_least_congruence_equals_j_on_completely_regular(corpus_upto3_iso):
    seen = 0
    for s in corpus_upto3_iso:
        if not regularity(s, "completely_regular").holds:
            continue
        seen += 1
        assert least_complete_semilattice_congruence(s) == greens_relations(s).J
    assert seen > 0


def test_least_congruence_is_relabeling_equivariant(sl2, lz2):
    for s in (sl2, lz2):
        perm = (1, 0)
        moved = least_complete_semilattice_congruence(relabel(s, perm))
        original = least_complete_semilattice_congruence(s)
        remapped = Partition.from_labels(
            [original.class_of[perm.index(i)] for i in range(s.order)]
        )
        assert moved.classes == remapped.classes


# ---------------------------------------------------------------------------
# decomposition check


def test_decomposition_examples(sl2, lz2, t1):
    verdict = semilattice_decomposition_check(sl2, "group_like")
    assert verdict.ok
    assert verdict.witness.classes == ((0,), (1,))
    assert not semilattice_decomposition_check(lz2, "group_like").ok
    assert semilattice_decomposition_check(t1, "group_like").ok


def test_decomposition_accepts_callable(sl2):
    assert semilattice_decomposition_check(sl2, lambda sub: True).ok


def test_decomposition_unknown_predicate(sl2):
    with pytest.raises(KeyError):
        semilattice_decomposition_check(sl2, "no_such_property")


def test_decomposition_t_simple_alias(sl2, lz2):
    for s in (sl2, lz2):
        assert (
            semilattice_decomposition_check(s, "t_simple").ok
            == semilattice_decomposition_check(s, "group_like").ok
        )


@pytest.mark.parametrize("backend,orders,expected", [
    pytest.param("c", (1, 2, 3, 4), 1 + 11 + 173 + 4753, id="orders-1-4"),
    pytest.param("c", (5,), 198838, id="order-5", marks=pytest.mark.slow),
], indirect=["backend"])
def test_group_like_decomposition_is_the_least_congruence(backend, orders, expected):
    """B.2 needs no partition search: a complete semilattice congruence
    rho whose classes are all group-like is sigma, the least complete
    semilattice congruence (the proof is the docstring of
    ``osgkit.theorems._group_like_decomposition``).  Checked against every
    partition of every class: sigma is a complete semilattice congruence
    refining every other, B.2 holds exactly when every class of sigma is
    group-like, its witness is sigma, and no other complete semilattice
    congruence has all classes group-like.
    """
    group_like = resolve_predicate("group_like")

    def all_group_like(s, p):
        return all(group_like(substructure(s, c)) for c in p.classes)

    classes = 0
    for n in orders:
        opts = EnumerationOptions(n, mode="up_to_iso")
        for s in enumerate_ordered_semigroups(opts):
            classes += 1
            sigma = least_complete_semilattice_congruence(s)
            congruences = complete_semilattice_congruences(s)
            assert sigma in congruences
            assert all(sigma.refines(p) for p in congruences)
            verdict = evaluate_condition(s, "B.2")
            assert verdict.holds == all_group_like(s, sigma)
            if verdict.holds:
                assert verdict.witness == sigma.classes
            assert all(p == sigma for p in congruences if all_group_like(s, p))
    assert classes == expected
