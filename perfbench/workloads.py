"""The benchmark's workloads: seeded inputs and frozen output checks.

One pass over a workload's input is one or more ``osgkit`` CLI
invocations.  ``prepare`` writes the inputs (outside the timed span) and
returns the argv of each invocation; ``check`` compares the output of a
whole pass with frozen values and returns a list of mismatches.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Frozen outputs.  The corpora written by ``enumerate --order n
# --up-to-iso`` are byte-deterministic.
O3_CLASSES = 173
O3_CORPUS_SHA256 = "22df54137f703dc21d7e74363ef3dd0b658d6de86027888543d5878cf93c77ff"
O4_CLASSES = 4753
O4_CORPUS_SHA256 = "a8683fe14894d03e1ecf61a3d5329e7dbbedd3a4db10c1b8acce34648c740d67"
# sweep-o4-iso splits the order-4 classes into this many invocations
SWEEP_SHARDS = 16
GROUPINGS = ("THM_3_3", "THM_3_5", "THM_ESF", "COR", "THM_BIG", "LEM_4", "LEM_2_1")
DISAGREEING = ("THM_3_5", "THM_ESF", "COR", "THM_BIG")
# sha256 over the JSON of {grouping: sorted canonical hexes} of the
# outside-hypothesis disagreements; independent of labelling and order.
O4_OUTSIDE_DIGEST = "cd2908a61bcc980d5edbc35ce89d4778f6d3e6f6843d171d2ca1119bc81e684a"
O3_OUTSIDE_DIGEST = "c65d39a79a66685403a9a7afa1a019ef651e19bebb4b30da17b14f80c45b283d"

RECORD_SEPARATOR = "---"


def _sweep_expectations(structures, regular, disagreements):
    return {
        tid: {
            "checked": structures,
            "hypothesis_met": structures if tid == "LEM_2_1" else regular,
            "inconsistent": 0,
            "outside": disagreements if tid in DISAGREEING else 0,
        }
        for tid in GROUPINGS
    }


O4_SWEEP = _sweep_expectations(O4_CLASSES, 2347, 1426)
O3_LABELLED_SWEEP = _sweep_expectations(971, 593, 270)
O3_CANDIDATES = 2147


# ---------------------------------------------------------------------------
# corpus text


def split_corpus(text: str) -> list[str]:
    """The record texts of a corpus file, without its header comments."""
    records, current = [], []
    for line in text.splitlines(keepends=True):
        if line.strip() == RECORD_SEPARATOR:
            records.append("".join(current))
            current = []
        elif records or current or not line.startswith("#"):
            current.append(line)
    if current:
        records.append("".join(current))
    return records


def _relabel_record(record: str, perm: list[int]) -> str:
    """Rename element ``i`` to ``perm[i]`` in one structure record.

    Records are as ``format_structure`` writes them: ``order``,
    ``elements``, one ``mult`` row per element and ``leq x y`` pairs.
    """
    lines = record.splitlines()
    names = lines[1].split()[1:]
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    rows = [line.split()[1:] for line in lines[2 : 2 + n]]
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mult[perm[i]][perm[j]] = perm[index[rows[i][j]]]
    pairs = sorted(
        (perm[index[x]], perm[index[y]])
        for x, y in (line.split()[1:] for line in lines[2 + n :])
    )
    out = [lines[0], lines[1]]
    out += ["mult " + " ".join(names[v] for v in row) for row in mult]
    out += [f"leq {names[x]} {names[y]}" for x, y in pairs]
    return "\n".join(out) + "\n"


def relabelled_shards(text: str, seed: int, count: int) -> list[str]:
    """The corpus with each record relabelled by a seeded random
    permutation, the records in seeded random order, dealt into ``count``
    corpora whose sizes differ by at most one record."""
    rng = random.Random(seed)
    records = []
    for record in split_corpus(text):
        perm = list(range(len(record.splitlines()[1].split()) - 1))
        rng.shuffle(perm)
        records.append(_relabel_record(record, perm))
    rng.shuffle(records)
    return [
        f"# osgkit corpus\n# relabelled with seed {seed}, shard {i}/{count}\n"
        f"# count: {len(records[i::count])}\n"
        + (RECORD_SEPARATOR + "\n").join(records[i::count])
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# checks


def outside_digest(doc: dict) -> str:
    hexes = {
        f["theorem"]: sorted(r["structure"] for r in f["outside_hypothesis_disagreements"])
        for f in doc["findings"]
    }
    return hashlib.sha256(json.dumps(hexes, sort_keys=True).encode()).hexdigest()


def check_corpus(data: bytes, classes=O4_CLASSES, sha256=O4_CORPUS_SHA256) -> list[str]:
    errors = []
    records = split_corpus(data.decode("utf-8"))
    if len(records) != classes:
        errors.append(f"corpus has {len(records)} records, expected {classes}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        errors.append(f"corpus sha256 {digest}, expected {sha256}")
    return errors


def merge_reports(docs: list[dict]) -> dict:
    """One ``check-theorems`` report for a corpus swept in several
    invocations: counts added, disagreements concatenated."""
    findings = {}
    for doc in docs:
        for f in doc["findings"]:
            into = findings.setdefault(f["theorem"], {
                "theorem": f["theorem"],
                "checked": 0,
                "hypothesis_met": 0,
                "inconsistent": 0,
                "outside_hypothesis_disagreements": [],
            })
            for key in ("checked", "hypothesis_met", "inconsistent"):
                into[key] += f[key]
            into["outside_hypothesis_disagreements"] += f["outside_hypothesis_disagreements"]
    candidates = [doc["candidates"] for doc in docs]
    return {
        "structures": sum(doc["structures"] for doc in docs),
        "inconsistent": sum(doc["inconsistent"] for doc in docs),
        "candidates": None if None in candidates else sum(candidates),
        "findings": list(findings.values()),
    }


def check_sweep(doc: dict, expected: dict, digest: str, candidates=None) -> list[str]:
    errors = []
    structures = next(iter(expected.values()))["checked"]
    for key, want in (
        ("structures", structures),
        ("inconsistent", 0),
        ("candidates", candidates),
    ):
        if doc.get(key) != want:
            errors.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
    got = {
        f["theorem"]: {
            "checked": f["checked"],
            "hypothesis_met": f["hypothesis_met"],
            "inconsistent": f["inconsistent"],
            "outside": len(f["outside_hypothesis_disagreements"]),
        }
        for f in doc.get("findings", ())
    }
    if got != expected:
        errors.append(f"grouping counts {got}, expected {expected}")
    elif outside_digest(doc) != digest:
        errors.append(f"outside-hypothesis digest {outside_digest(doc)}, expected {digest}")
    return errors


def _check_json(paths: list[Path], expected, digest, candidates=None) -> list[str]:
    try:
        doc = merge_reports([json.loads(p.read_text(encoding="utf-8")) for p in paths])
        return check_sweep(doc, expected, digest, candidates)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"malformed JSON report: {exc!r}"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """One pass over a workload's input is one or more CLI invocations."""

    name: str
    # (work dir, seed, canonical order-4 corpus getter) -> argv of each
    # invocation of one pass
    prepare: Callable[[Path, int, Callable[[], bytes]], list[list[str]]]
    # (report file of each invocation, their argv) -> mismatches of the pass
    check: Callable[[list[Path], list[list[str]]], list[str]]


def _enum_prepare(work: Path, seed: int, corpus) -> list[list[str]]:
    # no random input: the seed is unused
    return [["enumerate", "--order", "3", "--up-to-iso", "--out", str(work / "o3.osg")]]


def _enum_check(outputs: list[Path], argvs: list[list[str]]) -> list[str]:
    try:
        data = Path(argvs[0][-1]).read_bytes()
    except OSError as exc:
        return [f"corpus not written: {exc}"]
    return check_corpus(data, O3_CLASSES, O3_CORPUS_SHA256)


def _sweep_prepare(work: Path, seed: int, corpus) -> list[list[str]]:
    argvs = []
    shards = relabelled_shards(corpus().decode("utf-8"), seed, SWEEP_SHARDS)
    for i, text in enumerate(shards):
        path = work / f"o4-seed{seed}-{i}.osg"
        path.write_text(text, encoding="utf-8")
        argvs.append(["check-theorems", "--corpus", str(path), "--format", "json"])
    return argvs


def _labelled_prepare(work: Path, seed: int, corpus) -> list[list[str]]:
    return [["check-theorems", "--order", "3", "--labelled", "--format", "json"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum-o3-iso", _enum_prepare, _enum_check),
        Workload(
            "sweep-o4-iso",
            _sweep_prepare,
            lambda outs, argvs: _check_json(outs, O4_SWEEP, O4_OUTSIDE_DIGEST),
        ),
        Workload(
            "check-o3-labelled",
            _labelled_prepare,
            lambda outs, argvs: _check_json(
                outs, O3_LABELLED_SWEEP, O3_OUTSIDE_DIGEST, O3_CANDIDATES
            ),
        ),
    )
}
