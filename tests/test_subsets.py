import pytest
from hypothesis import given
from hypothesis import strategies as st

from osgkit.enumeration import EnumerationOptions, enumerate_ordered_semigroups
from osgkit.properties import inverses_of
from osgkit.subsets import (
    SIDES,
    downward_closure,
    is_ideal,
    is_simple,
    principal_ideal,
    subset_product,
)


def full(s):
    return frozenset(range(s.order))


def bits_subset(s, bits):
    return frozenset(v for v in range(s.order) if bits >> v & 1)


# ---------------------------------------------------------------------------
# carrier indices


def test_subset_rejects_out_of_range(valid_fixtures):
    for s in valid_fixtures.values():
        for stray in ({s.order}, [0, s.order], {-1}):
            with pytest.raises(ValueError):
                downward_closure(s, stray)
            with pytest.raises(ValueError):
                subset_product(s, stray, full(s))
            with pytest.raises(ValueError):
                subset_product(s, full(s), stray)
            for side in ("left", "right", "two_sided"):
                with pytest.raises(ValueError):
                    is_ideal(s, stray, side)


def test_subsets_are_frozensets_of_any_iterable(sl2):
    assert downward_closure(sl2, iter([0])) == frozenset({0, 1})
    assert subset_product(sl2, (0,), [0, 1]) == frozenset({0, 1})
    assert isinstance(principal_ideal(sl2, 0, "left"), frozenset)
    assert isinstance(is_simple(sl2, "left").witness, frozenset)


# ---------------------------------------------------------------------------
# downward closure


def test_closure_sl2(sl2):
    assert downward_closure(sl2, {0}) == {0, 1}
    assert downward_closure(sl2, {1}) == {1}


def test_closure_of_empty_is_empty(valid_fixtures):
    for s in valid_fixtures.values():
        assert not downward_closure(s, set())


@st.composite
def corpus_subsets(draw, corpus):
    s = draw(st.sampled_from(corpus))
    bits = draw(st.integers(0, (1 << s.order) - 1))
    return s, bits_subset(s, bits)


@pytest.fixture(scope="module")
def subset_strategy(corpus_upto3_iso):
    return corpus_subsets(corpus_upto3_iso)


def test_closure_laws(corpus_upto3_iso):
    @given(corpus_subsets(corpus_upto3_iso))
    def run(case):
        s, x = case
        closed = downward_closure(s, x)
        assert x <= closed
        assert downward_closure(s, closed) == closed

    run()


def test_closure_monotone(corpus_upto3_iso):
    @given(corpus_subsets(corpus_upto3_iso), st.integers(0, 511))
    def run(case, extra_bits):
        s, x = case
        bigger = x | bits_subset(s, extra_bits)
        assert downward_closure(s, x) <= downward_closure(s, bigger)

    run()


# ---------------------------------------------------------------------------
# subset product


def test_product_examples(sl2, lz2):
    assert subset_product(sl2, {0}, full(sl2)) == {0, 1}
    assert subset_product(lz2, {0}, {1}) == {0}


def test_product_with_empty(valid_fixtures):
    for s in valid_fixtures.values():
        assert not subset_product(s, set(), full(s))
        assert not subset_product(s, full(s), set())


def test_product_monotone(corpus_upto3_iso):
    @given(corpus_subsets(corpus_upto3_iso), st.integers(0, 511), st.integers(0, 511))
    def run(case, ybits, extra):
        s, x = case
        y = bits_subset(s, ybits)
        x_big = x | bits_subset(s, extra)
        assert subset_product(s, x, y) <= subset_product(s, x_big, y)
        assert subset_product(s, y, x) <= subset_product(s, y, x_big)

    run()


# ---------------------------------------------------------------------------
# principal ideals


def test_principal_ideal_examples(sl2, lz2, t1):
    assert principal_ideal(sl2, 0, "left") == {0, 1}
    assert principal_ideal(lz2, 0, "right") == {0}
    assert principal_ideal(t1, 0, "two_sided") == {0}


def test_principal_ideal_rejects_bad_side(sl2):
    with pytest.raises(ValueError):
        principal_ideal(sl2, 0, "up")


def test_principal_ideals_are_ideals(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        for a in range(s.order):
            for side in ("left", "right", "two_sided"):
                assert is_ideal(s, principal_ideal(s, a, side), side).ok


def test_regular_element_left_ideal_is_closed_translate(corpus_upto3_iso):
    # for a with a <= a*x*a for some x, ({a} u Sa] equals (Sa]
    for s in corpus_upto3_iso:
        for a in range(s.order):
            regular = a in downward_closure(
                s, subset_product(s, subset_product(s, {a}, full(s)), {a})
            )
            if not regular:
                continue
            sa = downward_closure(s, subset_product(s, full(s), {a}))
            assert principal_ideal(s, a, "left") == sa


# ---------------------------------------------------------------------------
# is_ideal / is_simple


def test_is_ideal_examples(sl2):
    assert is_ideal(sl2, {1}, "two_sided").ok
    verdict = is_ideal(sl2, {0}, "left")
    assert not verdict.ok
    assert verdict.reason == "left_absorption"
    assert verdict.pair == (1, 0)  # f*e = f escapes {e}


def test_is_ideal_full_carrier(valid_fixtures):
    for s in valid_fixtures.values():
        for side in ("left", "right", "two_sided"):
            assert is_ideal(s, full(s), side).ok


def test_is_ideal_closure_witness(sl2):
    # {e} absorbs nothing on the right but also fails downward closure
    verdict = is_ideal(sl2, {0}, "right")
    assert not verdict.ok


def test_is_ideal_rejects_empty(sl2):
    with pytest.raises(ValueError):
        is_ideal(sl2, set(), "left")


def test_is_ideal_witness_reverifies(corpus_upto3_iso):
    for s in corpus_upto3_iso[:40]:
        for bits in range(1, 1 << s.order):
            candidate = bits_subset(s, bits)
            verdict = is_ideal(s, candidate, "two_sided")
            if verdict.ok:
                continue
            x, y = verdict.pair
            if verdict.reason == "left_absorption":
                assert y in candidate and s.mult[x][y] not in candidate
            elif verdict.reason == "right_absorption":
                assert x in candidate and s.mult[x][y] not in candidate
            else:
                assert x not in candidate and y in candidate and s.leq[x][y]


def test_is_simple_examples(lz2, t1):
    assert is_simple(lz2, "left").ok
    verdict = is_simple(lz2, "right")
    assert not verdict.ok
    assert verdict.witness == {0}
    for side in ("left", "right", "two_sided"):
        assert is_simple(t1, side).ok


def least_ideal(s, side, candidates):
    """The reference witness: the first of candidates, every proper
    nonempty subset as a mask ordered by (size, mask), that is_ideal
    accepts, or None."""
    for bits in candidates:
        subset = bits_subset(s, bits)
        if is_ideal(s, subset, side).ok:
            return subset
    return None


def check_simple_witnesses(orders):
    for n in orders:
        candidates = sorted(range(1, (1 << n) - 1), key=lambda m: (bin(m).count("1"), m))
        options = EnumerationOptions(n, mode="up_to_iso")
        for s in enumerate_ordered_semigroups(options):
            for side in SIDES:
                verdict = is_simple(s, side)
                assert verdict.witness == least_ideal(s, side, candidates)
                assert verdict.ok == (verdict.witness is None)


def test_simple_witness_is_minimal():
    # is_simple reads the principal ideals only; its witness is the least
    # (size, mask) ideal of the scan over all subsets, on every class
    check_simple_witnesses((1, 2, 3, 4))


@pytest.mark.slow
def test_simple_witness_is_minimal_order_5():
    check_simple_witnesses((5,))


# ---------------------------------------------------------------------------
# cross-module invariant: inverse pairs generate equal one-sided ideals


def test_inverse_pairs_share_translates(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        for a in range(s.order):
            for b in inverses_of(s, a):
                assert principal_ideal(s, a, "left") == principal_ideal(
                    s, s.mult[b][a], "left"
                )
