import hashlib
import io
import json
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osgkit import cli
from osgkit.cli import main
from osgkit.fixtures import FIXTURE_NAMES, fixture_path, fixture_text
from osgkit.structure import format_structure, from_table, parse_named_structure


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def parsed(text):
    """The document that text holds, checked to be in the bytes of
    ``json.dumps(doc) + "\\n"``."""
    doc = json.loads(text)
    assert text == json.dumps(doc) + "\n"
    return doc


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json")
    return code, parsed(text)


def indented(text):
    """The document that text holds, rendered as ``json.dumps(doc, indent=2)
    + "\\n"``: the frozen JSON digests are taken over that rendering.
    Whitespace between JSON tokens is insignificant, so each digest pins the
    parsed document."""
    return json.dumps(parsed(text), indent=2) + "\n"


PX3 = str(fixture_path("px3"))
SL2 = str(fixture_path("sl2"))
LZ2 = str(fixture_path("lz2"))
N2 = str(fixture_path("n2"))


# ---------------------------------------------------------------------------
# validate


def test_validate_px3_exits_1_with_witness():
    code, text = run_cli("validate", PX3)
    assert code == 1
    assert "valid: no" in text
    assert "associativity" in text
    assert "(e, a, a)" in text


def test_validate_sl2_exits_0():
    code, text = run_cli("validate", SL2)
    assert code == 0
    assert "valid: yes" in text


def test_validate_json_findings():
    code, doc = run_json("validate", PX3)
    assert code == 1
    assert doc["command"] == "validate"
    assert doc["valid"] is False
    finding = doc["findings"][0]
    assert finding["kind"] == "axiom_failure"
    assert finding["axiom"] == "associativity"
    assert finding["witness"] == ["e", "a", "a"]
    assert isinstance(finding["structure"], str)


@pytest.mark.parametrize("command", [["validate"], ["check-theorems", "--corpus"]],
                         ids=["validate", "check-theorems"])
def test_input_files_are_closed(command):
    # a structure file is also a corpus of one record
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(*command, SL2)
    assert code == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_validate_missing_file_exits_2(capsys):
    code, _ = run_cli("validate", "no/such/file.osg")
    assert code == 2


@pytest.mark.parametrize("command", [
    ["validate", "{path}"],
    ["analyze", "{path}"],
    ["inverses", "{path}", "e0"],
    ["check-theorems", "--corpus", "{path}"],
])
def test_orders_above_the_limit_exit_2(tmp_path, capsys, command):
    # every order one byte holds is read, past the kernel's 1..5: the
    # six-element chain is reported under its own encoding
    chain = tmp_path / "chain6.osg"
    chain.write_text(format_structure(from_table(
        [[min(i, j) for j in range(6)] for i in range(6)],
        [(i, j) for i in range(6) for j in range(i + 1, 6)],
    )))
    code, _ = run_cli(*(arg.format(path=chain) for arg in command))
    assert code == 0
    big = tmp_path / "order256.osg"
    big.write_text("order 256\n")
    code, _ = run_cli(*(arg.format(path=big) for arg in command))
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {big}: line 1: order must be within 1..255" in err
    assert "Traceback" not in err


def test_validate_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.osg"
    bad.write_text("order 2\nmult 0 9\nmult 0 0\n")
    code, _ = run_cli("validate", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_sl2():
    code, doc = run_json("analyze", SL2)
    assert code == 0
    by_kind = {}
    for finding in doc["findings"]:
        by_kind.setdefault(finding["kind"], []).append(finding)
    assert by_kind["idempotents"][0]["subset"] == ["e", "f"]
    greens = by_kind["greens"][0]
    assert greens["H"] == [["e"], ["f"]]
    inverse = by_kind["inverse"][0]
    assert inverse["holds"] is True
    simple = {f["side"]: f["holds"] for f in by_kind["simplicity"]}
    assert simple == {"left": False, "right": False, "two_sided": False}


def test_analyze_lz2_simplicity():
    code, doc = run_json("analyze", LZ2)
    assert code == 0
    simple = {
        f["side"]: (f["holds"], f["witness"])
        for f in doc["findings"]
        if f["kind"] == "simplicity"
    }
    assert simple["left"] == (True, None)
    assert simple["right"] == (False, ["a"])
    inverse = next(f for f in doc["findings"] if f["kind"] == "inverse")
    assert inverse["holds"] is False
    assert inverse["witness"] == ["a", "a", "b"]


def test_analyze_n2_group_like_not_applicable():
    code, doc = run_json("analyze", N2)
    assert code == 0
    group_like = [f for f in doc["findings"] if f["kind"] == "group_like"]
    assert all(f.get("applicable") is False for f in group_like)
    regular = next(
        f for f in doc["findings"]
        if f["kind"] == "regularity" and f["property"] == "regular"
    )
    assert regular["holds"] is False and regular["witness"] == ["a"]


def test_analyze_builds_one_fact_record(fact_rows_calls):
    # one record serves every finding, simplicity on each side included
    code, _ = run_json("analyze", SL2)
    assert code == 0 and len(fact_rows_calls) == 1


def test_analyze_invalid_structure_exits_1():
    code, text = run_cli("analyze", PX3)
    assert code == 1
    assert "valid: no" in text


def test_analyze_invalid_structure_json_matches_validate():
    code, doc = run_json("analyze", PX3)
    _, validated = run_json("validate", PX3)
    assert code == 1
    assert doc["command"] == "analyze"
    assert doc["valid"] is False
    assert doc["findings"] == validated["findings"]
    assert {**doc, "command": "validate"} == validated


def test_text_and_json_agree_on_findings():
    _, text = run_cli("analyze", SL2)
    _, doc = run_json("analyze", SL2)
    assert "ordered idempotents: {e, f}" in text
    assert "inverse: yes" in text
    inverse = next(f for f in doc["findings"] if f["kind"] == "inverse")
    assert inverse["holds"] is True


# ---------------------------------------------------------------------------
# inverses


def test_inverses_lz2():
    code, text = run_cli("inverses", LZ2, "a")
    assert code == 0
    assert "inverses of a: {a, b}" in text


def test_inverses_by_index():
    code, doc = run_json("inverses", SL2, "1")
    assert code == 0
    assert doc["findings"][0]["inverses"] == ["f"]


def test_inverses_unknown_element_exits_2():
    code, _ = run_cli("inverses", SL2, "zz")
    assert code == 2


ANALYZE_AND_INVERSES_SHA256 = "219d6d10d1af01a0945548ee247298649e9f07394ddefa5d3c4524e8567547ff"


def test_analyze_and_inverses_are_frozen(tmp_path, monkeypatch, b2, corpus_upto3_iso):
    # every fixture, B2 and the 173 order-3 classes: analyze, and inverses
    # of each element, in both formats; the file is read by a relative
    # path so the options echoed in JSON do not depend on the directory
    texts = [fixture_text(name) for name in FIXTURE_NAMES]
    texts += [format_structure(s) for s in [b2] + corpus_upto3_iso if s.order >= 3]
    assert len(texts) == len(FIXTURE_NAMES) + 1 + 173
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for text in texts:
        (tmp_path / "s.osg").write_text(text)
        _, names = parse_named_structure(text)
        for argv in [["analyze", "s.osg"]] + [["inverses", "s.osg", e] for e in names]:
            for fmt in ("text", "json"):
                code, out = run_cli(*argv, "--format", fmt)
                if fmt == "json":
                    out = indented(out)
                digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == ANALYZE_AND_INVERSES_SHA256


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_writes_corpus(tmp_path):
    out_file = tmp_path / "corpus.osg"
    code, text = run_cli("enumerate", "--order", "2", "--out", str(out_file))
    assert code == 0
    assert "20 structures" in text
    content = out_file.read_text()
    assert content.count("order 2") == 20
    assert "# count: 20" in content


def test_enumerate_json_counts():
    code, doc = run_json("enumerate", "--order", "2", "--up-to-iso")
    assert code == 0
    assert doc["count"] == 11
    assert len(doc["findings"]) == 11


def test_enumerate_filter():
    code, doc = run_json(
        "enumerate", "--order", "2", "--up-to-iso", "--filter", "inverse"
    )
    assert code == 0
    assert doc["count"] == 5


def test_enumerate_rejects_large_order():
    code, _ = run_cli("enumerate", "--order", "5")
    assert code == 2


UNLOCK_HINT = " (pass --unlock-order-5 to go further)"


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--order", "2", "--filter", "bogus"],
     "unknown filter 'bogus': not a property or catalog condition"),
    (["enumerate", "--order", "5"], "order must be within 1..4" + UNLOCK_HINT),
    (["enumerate", "--order", "6"], "order must be within 1..4"),
    (["enumerate", "--order", "0"], "order must be within 1..4"),
    (["enumerate", "--order", "6", "--unlock-order-5"], "order must be within 1..5"),
    (["check-theorems", "--order", "5"], "order must be within 1..4" + UNLOCK_HINT),
    (["check-theorems", "--order", "0", "--unlock-order-5"], "order must be within 1..5"),
])
def test_enumeration_usage_errors(capsys, argv, message):
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_bad_shard():
    code, _ = run_cli("enumerate", "--order", "2", "--shard", "nope")
    assert code == 2


# ---------------------------------------------------------------------------
# check-theorems


def test_check_theorems_order_2_labelled():
    code, text = run_cli("check-theorems", "--order", "2", "--labelled")
    assert code == 0
    assert "24 candidate pairs" in text
    assert "all groupings consistent" in text


def test_check_theorems_json():
    code, doc = run_json(
        "check-theorems", "--order", "2", "--labelled", "--theorem", "THM_3_5"
    )
    assert code == 0
    assert doc["candidates"] == 24
    assert doc["structures"] == 20
    entry = doc["findings"][0]
    assert entry["theorem"] == "THM_3_5"
    assert entry["inconsistent"] == 0
    assert entry["hypothesis_met"] == 16


@pytest.mark.parametrize("fmt,sha256", [
    ("text", "bbf9ee49771febd7ce13f097c254444421400998e8d651b7174daf8a7f04294e"),
    ("json", "afdd2e583dfc86ec1cb914e4ab17e9fc8d103ebb071ffc365d3bcc39f039e555"),
])
def test_check_theorems_order_3_labelled_is_frozen(backend, fmt, sha256):
    code, text = run_cli("check-theorems", "--order", "3", "--labelled", "--format", fmt)
    assert code == 0
    if fmt == "json":
        text = indented(text)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_check_theorems_order_4_is_frozen(backend):
    code, text = run_cli("check-theorems", "--order", "4", "--format", "json")
    assert code == 0
    text = indented(text)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "55596e0abb92a3fb77f537e0b49f2fd791487011978b709541cf390edc86d6de"


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["c"], indirect=True)
def test_check_theorems_order_5_shard_is_frozen(backend):
    # the largest document the suite renders: 4971 order-5 classes
    code, text = run_cli("check-theorems", "--order", "5", "--unlock-order-5",
                         "--shard", "0/40", "--format", "json")
    assert code == 0
    text = indented(text)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "28653a8dfe5b85f5ad1035fa9bb94cc318552fcc53cb8afcbc87cfb62f1b385c"


class RecordingOut:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


JSON_STRINGS = st.text(st.sampled_from('az"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'))
JSON_KEYS = (JSON_STRINGS | st.text()).filter(lambda key: key != "findings")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | JSON_STRINGS | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(JSON_KEYS, inner),
    max_leaves=40,
)
# every CLI document is a dict whose last key is "findings", a list
JSON_DOCS = st.builds(
    lambda head, findings: {**head, "findings": findings},
    st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=4),
    st.lists(JSON_VALUES, max_size=6) | st.lists(JSON_VALUES, max_size=6).map(tuple),
)


@given(doc=JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    out = RecordingOut()
    cli._write_json(doc, out)
    assert "".join(out.writes) == json.dumps(doc) + "\n"


@pytest.mark.parametrize("doc", [{"findings": [{1, 2}]},
                                 {"a": [1, frozenset()], "findings": []}],
                         ids=["set", "nested-set"])
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._write_json(doc, RecordingOut())


def test_check_theorems_json_is_written_in_batches(monkeypatch):
    docs = []

    def recorded(doc, out, write_json=cli._write_json):
        docs.append(doc)
        write_json(doc, out)

    monkeypatch.setattr(cli, "_write_json", recorded)
    out = RecordingOut()
    assert main(["check-theorems", "--order", "3", "--labelled", "--format", "json"],
                out=out) == 0
    assert len(out.writes) > 1
    assert "".join(out.writes) == json.dumps(docs[0]) + "\n"


def test_check_theorems_corpus_round_trip(tmp_path):
    corpus_file = tmp_path / "c.osg"
    run_cli("enumerate", "--order", "2", "--up-to-iso", "--out", str(corpus_file))
    code, doc = run_json("check-theorems", "--corpus", str(corpus_file))
    assert code == 0
    assert doc["structures"] == 11
    assert doc["inconsistent"] == 0


def test_check_theorems_corpus_shard(tmp_path):
    corpus_file = tmp_path / "c.osg"
    run_cli("enumerate", "--order", "2", "--out", str(corpus_file))
    total = 0
    for index in range(3):
        code, doc = run_json(
            "check-theorems", "--corpus", str(corpus_file),
            "--theorem", "LEM_2_1", "--shard", f"{index}/3",
        )
        assert code == 0
        total += doc["structures"]
    assert total == 20


def test_check_theorems_corpus_shard_notes_name_file_positions(tmp_path):
    # records 1 and 3 fail validation: every shard names them by their
    # index in the file, as the unsharded run does
    records = [fixture_text(name) for name in ("sl2", "px3", "lz2", "px3")]
    corpus_file = tmp_path / "c.osg"
    corpus_file.write_text("---\n".join(records))
    notes = {}
    for shard in (None, "0/2", "1/2"):
        extra = ("--shard", shard) if shard else ()
        code, doc = run_json("check-theorems", "--corpus", str(corpus_file), *extra)
        assert code == 0
        notes[shard] = doc["skipped"]
    assert notes[None] == [f"corpus[{i}] skipped: fails validation" for i in (1, 3)]
    assert notes["0/2"] == []
    assert notes["1/2"] == notes[None]


@pytest.mark.parametrize("shard", ["0/0", "5/3", "3/3"])
def test_check_theorems_rejects_bad_shard(tmp_path, capsys, shard):
    corpus_file = tmp_path / "c.osg"
    run_cli("enumerate", "--order", "2", "--out", str(corpus_file))
    for source in (["--corpus", str(corpus_file)], ["--order", "2"]):
        code, text = run_cli("check-theorems", *source, "--shard", shard)
        assert code == 2
        assert text == ""
        assert "shard index must be within 0..count-1" in capsys.readouterr().err


def test_check_theorems_repeated_theorem_counts_once():
    # a repeated --theorem names one grouping, printed and counted once
    once = ("check-theorems", "--order", "2", "--theorem", "THM_BIG")
    twice = (*once, "--theorem", "THM_BIG")
    assert run_cli(*twice) == run_cli(*once)
    doc = run_json(*twice)[1]
    assert doc == run_json(*once)[1]
    assert doc["options"]["theorems"] == ["THM_BIG"]
    assert [entry["theorem"] for entry in doc["findings"]] == ["THM_BIG"]


def test_check_theorems_unknown_theorem():
    code, _ = run_cli("check-theorems", "--order", "2", "--theorem", "THM_X")
    assert code == 2


def test_check_theorems_needs_exactly_one_source():
    code, _ = run_cli("check-theorems")
    assert code == 2
    code, _ = run_cli("check-theorems", "--order", "2", "--corpus", "x.osg")
    assert code == 2


def test_check_theorems_labelled_needs_order(tmp_path, capsys):
    corpus = tmp_path / "c.osg"
    corpus.write_text(fixture_text("sl2"), encoding="utf-8")
    code, text = run_cli("check-theorems", "--corpus", str(corpus), "--labelled")
    assert code == 2 and text == ""
    assert "--labelled" in capsys.readouterr().err


def test_check_theorems_corpus_errors_name_the_file_line(tmp_path, capsys):
    corpus_file = tmp_path / "c.osg"
    corpus_file.write_text(
        "# osgkit corpus\norder 1\nmult 0\n---\n"
        "order 2  # the second record\nelements a b\nmult a a\nmult 0 x\n"
    )
    code, _ = run_cli("check-theorems", "--corpus", str(corpus_file))
    assert code == 2
    assert capsys.readouterr().err == f"error: {corpus_file}: line 8: unknown element 'x'\n"


# ---------------------------------------------------------------------------
# oracle


def test_oracle_px3():
    code, text = run_cli("oracle", "px3")
    assert code == 0
    assert "associative: no" in text
    assert "least witness: (e, a, a)" in text
    assert "opposite reading associative: no" in text


def test_oracle_semigroups_json():
    code, doc = run_json("oracle", "semigroups")
    assert code == 0
    counts = doc["findings"][0]["labelled"]
    assert counts == {"1": 1, "2": 8, "3": 113}
    assert doc["findings"][0]["iso_classes"]["2"] == 5


def test_oracle_posets():
    code, doc = run_json("oracle", "posets")
    assert code == 0
    assert doc["findings"][0]["counts"] == {"1": 1, "2": 3, "3": 19}


def test_oracle_ordered():
    code, doc = run_json("oracle", "ordered")
    assert code == 0
    assert doc["findings"][0]["counts"]["2"] == 20


def test_oracle_fixtures():
    code, doc = run_json("oracle", "fixtures")
    assert code == 0
    verdicts = doc["findings"][0]["verdicts"]
    assert verdicts["sl2"] is True
    assert verdicts["px3"] is False


def test_oracle_unknown_suite():
    code, _ = run_cli("oracle", "nonexistent")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism


def test_cli_runs_are_deterministic():
    first = run_cli("check-theorems", "--order", "2", "--format", "json")
    second = run_cli("check-theorems", "--order", "2", "--format", "json")
    assert first == second
