"""Tests of the benchmark itself: input generator, output checks, tracer.

Run from the repository root:  python3 -m pytest perfbench
"""

import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from osgkit.cli import main as osgkit_main
from osgkit.enumeration import (
    EnumerationOptions,
    enumerate_ordered_semigroups,
    read_corpus,
    write_corpus,
)
from osgkit.structure import canonical_form
from workloads import (
    O3_CANDIDATES,
    O3_CLASSES,
    O3_CORPUS_SHA256,
    O3_LABELLED_SWEEP,
    O3_OUTSIDE_DIGEST,
    RECORD_SEPARATOR,
    check_corpus,
    check_sweep,
    merge_reports,
    outside_digest,
    relabelled_shards,
    split_corpus,
)

HERE = Path(__file__).resolve().parent


def _corpus_text(order: int) -> str:
    opts = EnumerationOptions(order=order, mode="up_to_iso")
    sink = io.StringIO()
    write_corpus(sink, enumerate_ordered_semigroups(opts), opts)
    return sink.getvalue()


def _canonical_multiset(text: str) -> Counter:
    return Counter(canonical_form(s) for s in read_corpus(text))


@pytest.fixture(scope="module")
def o3_corpus() -> str:
    return _corpus_text(3)


@pytest.fixture(scope="module")
def o3_labelled_report() -> dict:
    out = io.StringIO()
    assert osgkit_main(["check-theorems", "--order", "3", "--labelled", "--format", "json"], out) == 0
    return json.loads(out.getvalue())


def test_generator_is_deterministic_per_seed(o3_corpus):
    assert relabelled_shards(o3_corpus, 7, 4) == relabelled_shards(o3_corpus, 7, 4)
    assert relabelled_shards(o3_corpus, 7, 4) != relabelled_shards(o3_corpus, 8, 4)


def test_seed_keeps_the_multiset_of_canonical_forms(o3_corpus):
    original = _canonical_multiset(o3_corpus)
    assert sum(original.values()) == 173
    for seed in (1, 2, 3):
        shards = relabelled_shards(o3_corpus, seed, 4)
        assert sum((_canonical_multiset(text) for text in shards), Counter()) == original
        sizes = [len(split_corpus(text)) for text in shards]
        assert max(sizes) - min(sizes) <= 1
        # the program sees other labellings and another record order
        assert [r for text in shards for r in split_corpus(text)] != split_corpus(o3_corpus)


def test_merged_shard_reports_match_one_report(o3_corpus, tmp_path):
    def report(text, name):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        assert osgkit_main(["check-theorems", "--corpus", str(path), "--format", "json"], out) == 0
        return json.loads(out.getvalue())

    whole = report(o3_corpus, "whole.osg")
    merged = merge_reports([
        report(text, f"shard{i}.osg") for i, text in enumerate(relabelled_shards(o3_corpus, 9, 3))
    ])
    expected = {
        f["theorem"]: {
            "checked": f["checked"],
            "hypothesis_met": f["hypothesis_met"],
            "inconsistent": f["inconsistent"],
            "outside": len(f["outside_hypothesis_disagreements"]),
        }
        for f in whole["findings"]
    }
    assert check_sweep(merged, expected, outside_digest(whole)) == []


def test_sweep_check_accepts_the_frozen_report(o3_labelled_report):
    assert check_sweep(o3_labelled_report, O3_LABELLED_SWEEP, O3_OUTSIDE_DIGEST, O3_CANDIDATES) == []


def test_sweep_check_rejects_tampered_reports(o3_labelled_report):
    def errors_after(edit):
        doc = json.loads(json.dumps(o3_labelled_report))
        edit(doc)
        return check_sweep(doc, O3_LABELLED_SWEEP, O3_OUTSIDE_DIGEST, O3_CANDIDATES)

    assert errors_after(lambda d: d.update(structures=970))
    assert errors_after(lambda d: d.update(candidates=None))
    assert errors_after(lambda d: d["findings"][0].update(inconsistent=1))
    assert errors_after(lambda d: d["findings"][1]["outside_hypothesis_disagreements"].pop())

    def swap_structure(doc):
        record = doc["findings"][1]["outside_hypothesis_disagreements"][0]
        record["structure"] = "00" + record["structure"][2:]

    assert errors_after(swap_structure)


def test_corpus_check_rejects_a_dropped_record(o3_corpus):
    assert check_corpus(o3_corpus.encode(), O3_CLASSES, O3_CORPUS_SHA256) == []
    dropped = o3_corpus[: o3_corpus.rindex(RECORD_SEPARATOR + "\n")]
    assert len(split_corpus(dropped)) == O3_CLASSES - 1
    assert check_corpus(dropped.encode(), O3_CLASSES, O3_CORPUS_SHA256)


def test_frozen_order_4_corpus():
    text = _corpus_text(4)  # the full order-4 enumeration, about 30 s pure Python
    assert check_corpus(text.encode()) == []


def test_traced_counts_on_check_o3_labelled(tmp_path):
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["check-theorems", "--order", "3", "--labelled", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "0", str(tmp_path / "out"), "1", *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["kernel.canonical_key"]["calls"] == 8739
    assert layers["kernel.enumerate_assoc_tables"]["calls"] == 1
    assert layers["kernel.enumerate_valid_tables"]["calls"] == 19
    assert layers["kernel.enumerate_valid_tables"]["results"] == 971
    assert layers["enumeration.enumerate_ordered_semigroups"]["results"] == 971
    assert layers["theorems.check_theorem.THM_3_3"]["calls"] == 971
    assert layers["theorems.condition.C.1"]["calls"] > 0
    for stat in layers.values():
        assert 0 <= stat["self_s"] <= stat["s"] + 1e-6
