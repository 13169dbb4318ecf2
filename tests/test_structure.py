import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgkit import oracles
from osgkit.fixtures import fixture_text, load_fixture, load_named_fixture
from osgkit.structure import (
    AxiomFailure,
    OrderedSemigroup,
    StructureParseError,
    ValidationReport,
    canonical_form,
    decode_canonical,
    format_structure,
    from_table,
    is_isomorphic,
    opposite,
    parse_named_structure,
    parse_structure,
    relabel,
    structure_key,
    validate,
)
from osgkit.theorems import check_theorem, sweep


# ---------------------------------------------------------------------------
# parsing


def test_parse_sl2_round_trips(sl2):
    parsed, names = parse_named_structure(fixture_text("sl2"))
    assert parsed == sl2
    assert names == ("e", "f")
    assert parsed.mult == ((0, 1), (1, 1))
    assert parsed.leq == ((True, False), (True, True))


def test_parse_t1(t1):
    assert t1.order == 1
    assert t1.mult == ((0,),)


def test_format_parse_round_trip(valid_fixtures, px3):
    for s in [*valid_fixtures.values(), px3]:
        assert parse_structure(format_structure(s)) == s


def test_parse_accepts_indices_and_names():
    text = "order 2\nelements x y\nmult 0 y\nmult y 1\nleq 1 x\n"
    s = parse_structure(text)
    assert s.mult == ((0, 1), (1, 1))
    assert s.leq[1][0]


def test_parse_out_of_range_index_reports_line():
    text = "order 3\nmult 0 1 2\nmult 1 2 5\nmult 2 0 1\n"
    with pytest.raises(StructureParseError) as exc:
        parse_structure(text)
    assert exc.value.line == 3
    assert "out of range" in str(exc.value)


def test_parse_malformed_header():
    with pytest.raises(StructureParseError) as exc:
        parse_structure("orders 2\nmult 0 0\nmult 0 0\n")
    assert exc.value.line == 1


def test_parse_rejects_order_zero():
    with pytest.raises(StructureParseError):
        parse_structure("order 0\n")


def test_parse_duplicate_order_pair_reports_line():
    text = "order 2\nelements a b\nmult a a\nmult b b\nleq a b\nleq a b\n"
    with pytest.raises(StructureParseError) as exc:
        parse_structure(text)
    assert exc.value.line == 6
    assert "duplicate" in str(exc.value)


def test_parse_wrong_row_width():
    with pytest.raises(StructureParseError) as exc:
        parse_structure("order 2\nmult 0\nmult 0 0\n")
    assert exc.value.line == 2


def test_parse_missing_mult_rows():
    with pytest.raises(StructureParseError):
        parse_structure("order 2\nmult 0 0\n")


def test_parse_unknown_directive():
    with pytest.raises(StructureParseError) as exc:
        parse_structure("order 1\nmult 0\nfoo 0 0\n")
    assert "unexpected directive" in str(exc.value)


def test_parse_adds_reflexive_pairs():
    s = parse_structure("order 2\nmult 0 0\nmult 0 0\nleq 1 0\n")
    assert s.leq[0][0] and s.leq[1][1]


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        OrderedSemigroup(2, ((0, 1),), ((True, False), (False, True)))
    with pytest.raises(ValueError):
        OrderedSemigroup(2, ((0, 3), (0, 0)), ((True, False), (False, True)))


DISCRETE_2 = ((True, False), (False, True))


@pytest.mark.parametrize("order,mult,leq,message", [
    (0, (), (), "order must be positive"),
    (2, ((0, 1),), DISCRETE_2, "mult must be an order x order table"),
    (2, ((0, 1), (1,)), DISCRETE_2, "mult must be an order x order table"),
    (2, ((0, 1), (1, 0, 1)), DISCRETE_2, "mult must be an order x order table"),
    (2, ((0, -1), (1, 0)), DISCRETE_2, "mult entry out of carrier range"),
    (2, ((0, 1), (2, 0)), DISCRETE_2, "mult entry out of carrier range"),
    (2, ((0, 1), (1, 0)), ((True, False),), "leq must be an order x order matrix"),
    (2, ((0, 1), (1, 0)), ((True, False), (True,)), "leq must be an order x order matrix"),
], ids=["order-0", "missing-row", "short-row", "long-row", "entry-minus-1",
        "entry-n", "missing-leq-row", "ragged-leq"])
def test_construction_errors_name_the_check(order, mult, leq, message):
    with pytest.raises(ValueError) as exc:
        OrderedSemigroup(order, mult, leq)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# validation


def test_validate_fixtures_against_oracle(valid_fixtures, px3):
    for s in [*valid_fixtures.values(), px3]:
        assert validate(s).valid == oracles.axioms_hold(s.mult, s.leq)


def test_validate_sl2_valid(sl2):
    assert validate(sl2).valid


def test_validate_px3_associativity_witness(px3):
    report = validate(px3)
    assert not report.valid
    failures = {f.axiom: f.witness for f in report.failures}
    # indices 1, 0, 0 name the elements e, a, a
    assert failures == {"associativity": (1, 0, 0)}
    # the oracle agrees this is the least failing triple
    assert min(oracles.assoc_failures(px3.mult)) == (1, 0, 0)


def test_validate_px3_opposite_reading_also_fails(px3):
    assert not validate(opposite(px3)).valid
    assert oracles.assoc_failures(opposite(px3).mult)


def test_validate_c2_compatibility_witness(c2):
    report = validate(c2)
    assert not report.valid
    failures = {f.axiom: f.witness for f in report.failures}
    assert failures["left_compatibility"] == (0, 1, 1)
    assert failures["right_compatibility"] == (0, 1, 1)


def test_validate_transitivity_witness():
    s = from_table([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [(0, 1), (1, 2)])
    report = validate(s)
    failures = {f.axiom: f.witness for f in report.failures}
    assert failures["transitivity"] == (0, 1, 2)


def test_validate_antisymmetry_witness():
    s = from_table([[0, 0], [0, 0]], [(0, 1), (1, 0)])
    failures = {f.axiom: f.witness for f in validate(s).failures}
    assert failures["antisymmetry"] == (0, 1)


def _witness_refails(s, axiom, w):
    mult, leq = s.mult, s.leq
    if axiom == "associativity":
        i, j, k = w
        return mult[mult[i][j]][k] != mult[i][mult[j][k]]
    if axiom == "reflexivity":
        return not leq[w[0]][w[0]]
    if axiom == "antisymmetry":
        i, j = w
        return i != j and leq[i][j] and leq[j][i]
    if axiom == "transitivity":
        i, j, k = w
        return leq[i][j] and leq[j][k] and not leq[i][k]
    if axiom == "left_compatibility":
        a, b, x = w
        return leq[a][b] and not leq[mult[x][a]][mult[x][b]]
    if axiom == "right_compatibility":
        a, b, x = w
        return leq[a][b] and not leq[mult[a][x]][mult[b][x]]
    raise AssertionError(f"unknown axiom {axiom}")


@st.composite
def raw_structures(draw, max_order=3):
    n = draw(st.integers(1, max_order))
    mult = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n)
    )
    leq = tuple(
        tuple(i == j or draw(st.booleans()) for j in range(n)) for i in range(n)
    )
    return OrderedSemigroup(n, mult, leq)


@given(raw_structures())
def test_validate_witnesses_are_sound(s):
    report = validate(s)
    for failure in report.failures:
        assert _witness_refails(s, failure.axiom, failure.witness)
    assert report.valid == (not report.failures)


@given(raw_structures(max_order=7))
def test_validate_associativity_witness_is_least_triple(s):
    failing = oracles.assoc_failures(s.mult)
    witnesses = {f.axiom: f.witness for f in validate(s).failures}
    assert witnesses.get("associativity") == (failing[0] if failing else None)


def test_validate_works_above_the_search_limit():
    chain = [[min(i, j) for j in range(6)] for i in range(6)]
    order = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert validate(from_table(chain, order)).valid
    chain[2][3] = 1  # (2*3)*2 = 1 but 2*(3*2) = 2
    broken = from_table(chain, order)
    failures = {f.axiom: f.witness for f in validate(broken).failures}
    assert failures["associativity"] == (2, 3, 2)
    assert oracles.assoc_failures(broken.mult)[0] == (2, 3, 2)


def test_validate_pins_every_failure_above_the_search_limit():
    # a left-zero table (xy = x) but 4*5 = 5, under a relation with 3 not
    # below itself, 1 and 2 below each other, and 0 below 1
    mult = [[x] * 6 for x in range(6)]
    mult[4][5] = 5
    leq = [[i == j != 3 for j in range(6)] for i in range(6)]
    leq[1][2] = leq[2][1] = leq[0][1] = True
    s = OrderedSemigroup(6, tuple(map(tuple, mult)), tuple(map(tuple, leq)))
    # (40)5 = 4*5 = 5 but 4(05) = 4*0 = 4, and every triple before it
    # multiplies on the left by one of 0..3, or by 4 with no 5: always x.
    # 0 <= 1 <= 2 but not 0 <= 2, and the pair (0, 0) before it has no k.
    # 0 <= 0 but 3*0 = 3 is not below 3*0 = 3; on the right, a*x = a for
    # every a but 4, and 4*x is 4 or 5, each below itself: right
    # compatibility holds.
    assert validate(s) == ValidationReport(False, (
        AxiomFailure("associativity", (4, 0, 5)),
        AxiomFailure("reflexivity", (3,)),
        AxiomFailure("antisymmetry", (1, 2)),
        AxiomFailure("transitivity", (0, 1, 2)),
        AxiomFailure("left_compatibility", (0, 0, 3)),
    ))
    assert oracles.assoc_failures(s.mult)[0] == (4, 0, 5)


@given(raw_structures())
@settings(max_examples=300)
def test_validate_agrees_with_oracle_sampled(s):
    assert validate(s).valid == oracles.axioms_hold(s.mult, s.leq)


def test_validate_complete_order_2_exhaustive():
    for mult in oracles.all_tables(2):
        for leq in oracles.all_reflexive_relations(2):
            s = OrderedSemigroup(2, mult, leq)
            assert validate(s).valid == oracles.axioms_hold(mult, leq)


@pytest.mark.slow
def test_validate_complete_order_3_exhaustive():
    for mult in oracles.all_tables(3):
        for leq in oracles.all_reflexive_relations(3):
            s = OrderedSemigroup(3, mult, leq)
            assert validate(s).valid == oracles.axioms_hold(mult, leq)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def test_canonical_form_invariant_under_100_relabelings(valid_fixtures):
    rng = random.Random(0)
    for s in valid_fixtures.values():
        reference = canonical_form(s)
        for _ in range(100):
            perm = list(range(s.order))
            rng.shuffle(perm)
            assert canonical_form(relabel(s, perm)) == reference


def test_canonical_form_separates_lz2_rz2(lz2, rz2):
    assert canonical_form(lz2) != canonical_form(rz2)


def test_canonical_form_t1_unique(t1):
    assert canonical_form(t1) == bytes([1, 0, 1])


def test_decode_canonical_round_trip(valid_fixtures):
    for s in valid_fixtures.values():
        key = canonical_form(s)
        assert canonical_form(decode_canonical(key)) == key


def test_is_isomorphic(lz2, rz2, t1):
    assert is_isomorphic(lz2, relabel(lz2, (1, 0)))
    assert not is_isomorphic(lz2, rz2)
    assert is_isomorphic(t1, t1)


def test_structure_key_above_order_5_is_the_own_encoding():
    chain = from_table([[min(i, j) for j in range(6)] for i in range(6)],
                       [(i, j) for i in range(6) for j in range(i + 1, 6)])
    flipped = relabel(chain, range(5, -1, -1))
    for s in (chain, flipped):
        mult, leq = s.flat()
        assert structure_key(s) == bytes([6]) + mult + leq
        assert decode_canonical(structure_key(s)) == s
    assert structure_key(chain) != structure_key(flipped)  # copies are not merged
    with pytest.raises(ValueError, match="order must be within 1..5"):
        canonical_form(chain)


def test_structure_key_names_the_order_limit():
    # the key's first byte is the order: a 256-element null semigroup has
    # no key, and sweep and check_theorem say so before building anything
    null = from_table([[0] * 256 for _ in range(256)], ())
    for call in (structure_key, lambda s: sweep([s]), lambda s: check_theorem(s, "THM_BIG")):
        with pytest.raises(ValueError, match=r"^order must be within 1\.\.255$"):
            call(null)


@given(perm=st.permutations(range(3)))
def test_canonical_form_px3_table_relabelings(px3, perm):
    # canonical key is label-free even for structures that fail validation
    assert canonical_form(relabel(px3, perm)) == canonical_form(px3)


# ---------------------------------------------------------------------------
# opposite


def test_opposite_sl2_commutative(sl2):
    assert opposite(sl2) == sl2


def test_opposite_lz2_is_rz2(lz2, rz2):
    assert opposite(lz2) == rz2


def test_opposite_is_involution(valid_fixtures, px3):
    for s in [*valid_fixtures.values(), px3]:
        assert opposite(opposite(s)) == s


def test_opposite_preserves_validity(corpus_upto3_iso):
    for s in corpus_upto3_iso:
        assert validate(opposite(s)).valid
