"""Command-line surface.

Subcommands: validate, analyze, inverses, enumerate, check-theorems,
oracle.  Exit codes: 0 success, 1 property/consistency failure findings,
2 usage or input errors.  ``--format json`` emits the authoritative
machine-readable report: {command, options, findings: [...]} with
witnesses given as element-name tuples.
"""

from __future__ import annotations

import argparse
import json
import sys

from osgkit import kernel, oracles
from osgkit.enumeration import (
    ASSOC_TABLE_COUNTS,
    POSET_COUNTS,
    EnumerationOptions,
    check_shard,
    enumerate_ordered_semigroups,
    read_corpus,
    shard_stream,
    write_corpus,
)
from osgkit.properties import GENERATOR_SIDES, GROUP_LIKE_KINDS, REGULARITY_KINDS, facts
from osgkit.relations import Partition
from osgkit.structure import (
    OrderedSemigroup,
    StructureParseError,
    default_names,
    format_structure,
    parse_named_structure,
    structure_key,
    validate,
)
from osgkit.subsets import SIDES, is_simple
from osgkit.theorems import sweep, theorem_ids

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

# enumerate and check-theorems stop at this order unless --unlock-order-5
# raises the cap to the kernel's
DEFAULT_MAX_ORDER = 4


class CliError(Exception):
    """Usage or input problem; converted to exit code 2."""


def _names_tuple(names, indices):
    if indices is None:
        return None
    return tuple(
        _names_tuple(names, part) if isinstance(part, tuple) else names[part]
        for part in indices
    )


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _read_structure(path: str) -> tuple[OrderedSemigroup, tuple[str, ...]]:
    text = _read_text(path)
    try:
        return parse_named_structure(text)
    except StructureParseError as exc:
        raise CliError(f"{path}: {exc}") from None


# the record lists of a theorem_sweep finding, and the most records that
# one json.dumps call encodes
RECORD_LISTS = ("inconsistencies", "outside_hypothesis_disagreements")
RECORD_SLICE = 1024


def _write_json(doc, out) -> None:
    """Write doc to out as ``json.dumps(doc) + "\\n"``.  Its last key is
    ``findings``, written one finding at a time, and a finding's record
    lists in slices of RECORD_SLICE records, so neither the text nor the
    text of one finding is ever held whole."""
    out.write(json.dumps({**doc, "findings": []})[:-2])
    for i, finding in enumerate(doc["findings"]):
        out.write(", " if i else "")
        if not (isinstance(finding, dict) and all(isinstance(key, str) for key in finding)
                and any(isinstance(finding.get(key), (list, tuple)) for key in RECORD_LISTS)):
            out.write(json.dumps(finding))
            continue
        for j, (key, value) in enumerate(finding.items()):
            out.write(f"{', ' if j else '{'}{json.dumps(key)}: ")
            if key in RECORD_LISTS and isinstance(value, (list, tuple)):
                out.write("[")
                for k in range(0, len(value), RECORD_SLICE):
                    out.write((", " if k else "") + json.dumps(value[k : k + RECORD_SLICE])[1:-1])
                out.write("]")
            else:
                out.write(json.dumps(value))
        out.write("}")
    out.write("]}\n")


def _emit(report: dict, fmt: str, render, out) -> None:
    """Write report to out: as unindented JSON, one finding at a time, through
    :func:`_write_json`, or as text, through render."""
    if fmt == "json":
        _write_json(report, out)
    else:
        render(report, out)


# ---------------------------------------------------------------------------
# validate


def _emit_validation(command, args, s, names, report, out) -> int:
    findings = [
        {
            "kind": "axiom_failure",
            "structure": structure_key(s).hex(),
            "axiom": f.axiom,
            "witness": _names_tuple(names, f.witness),
        }
        for f in report.failures
    ]
    doc = {
        "command": command,
        "options": {"file": args.file},
        "valid": report.valid,
        "findings": findings,
    }

    def render(doc, out):
        out.write(f"structure: {args.file}\n")
        out.write(f"valid: {'yes' if doc['valid'] else 'no'}\n")
        for f in doc["findings"]:
            out.write(f"FAIL {f['axiom']}: witness ({', '.join(f['witness'])})\n")

    _emit(doc, args.format, render, out)
    return EXIT_OK if report.valid else EXIT_FINDINGS


def _cmd_validate(args, out) -> int:
    s, names = _read_structure(args.file)
    return _emit_validation("validate", args, s, names, validate(s), out)


# ---------------------------------------------------------------------------
# analyze


def _partition_names(rows, names):
    """The classes of a relation, equal fact-record rows, as element names."""
    return [[names[i] for i in group] for group in Partition.from_labels(rows).classes]


def _property_finding(kind, report, names):
    finding = {
        "kind": kind,
        "property": report.prop,
        "holds": report.holds,
        "witness": _names_tuple(names, report.witness),
    }
    if not report.applicable:
        finding["applicable"] = False
    if report.notes:
        finding["notes"] = report.notes
    return finding


def _cmd_analyze(args, out) -> int:
    s, names = _read_structure(args.file)
    vreport = validate(s)
    if not vreport.valid:
        return _emit_validation("analyze", args, s, names, vreport, out)

    f = facts(s)
    canon = structure_key(s).hex()
    findings = [
        {
            "kind": "idempotents",
            "structure": canon,
            "subset": [names[e] for e in f.idem],
        },
        {
            "kind": "greens",
            "structure": canon,
            "L": _partition_names(f.L, names),
            "R": _partition_names(f.R, names),
            "J": _partition_names(f.J, names),
            "H": _partition_names(f.H, names),
        },
        {
            "kind": "least_complete_semilattice_congruence",
            "structure": canon,
            "classes": _partition_names(f.filters, names),
        },
    ]
    for kind in REGULARITY_KINDS:
        findings.append(_property_finding("regularity", f.regularity(kind), names))
    for kind in GROUP_LIKE_KINDS:
        findings.append(_property_finding("group_like", f.group_like(kind), names))
    findings.append(_property_finding("inverse", f.inverse(), names))
    for side in GENERATOR_SIDES:
        findings.append(
            _property_finding("generator_uniqueness", f.generator_uniqueness(side), names)
        )
    for side in SIDES:
        verdict = is_simple(s, side, f)
        findings.append({
            "kind": "simplicity",
            "side": side,
            "holds": verdict.ok,
            "witness": None if verdict.witness is None
            else [names[i] for i in sorted(verdict.witness)],
        })
    doc = {
        "command": "analyze",
        "options": {"file": args.file},
        "valid": True,
        "findings": findings,
    }

    def render(doc, out):
        out.write(f"structure: {args.file}\nvalid: yes\n")
        for f in doc["findings"]:
            if f["kind"] == "idempotents":
                out.write(f"ordered idempotents: {{{', '.join(f['subset'])}}}\n")
            elif f["kind"] == "greens":
                for rel in "LRJH":
                    classes = " ".join("{%s}" % ", ".join(g) for g in f[rel])
                    out.write(f"{rel}-classes: {classes}\n")
            elif f["kind"] == "least_complete_semilattice_congruence":
                classes = " ".join("{%s}" % ", ".join(g) for g in f["classes"])
                out.write(f"least complete semilattice congruence: {classes}\n")
            elif f["kind"] == "simplicity":
                verdict = "yes" if f["holds"] else f"no (ideal {{{', '.join(f['witness'])}}})"
                out.write(f"{f['side']}-simple: {verdict}\n")
            else:
                status = "yes" if f["holds"] else "no"
                if f.get("applicable") is False:
                    status = "not applicable"
                extra = ""
                if f["witness"] is not None and not f["holds"]:
                    extra = f" witness ({', '.join(map(str, f['witness']))})"
                out.write(f"{f['property']}: {status}{extra}\n")

    _emit(doc, args.format, render, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# inverses


def _cmd_inverses(args, out) -> int:
    s, names = _read_structure(args.file)
    if args.element in names:
        a = names.index(args.element)
    else:
        try:
            a = int(args.element)
        except ValueError:
            raise CliError(f"unknown element {args.element!r}") from None
        if not 0 <= a < s.order:
            raise CliError(f"element index {a} out of range for order {s.order}")
    inv = facts(s).inv[a]
    doc = {
        "command": "inverses",
        "options": {"file": args.file, "element": names[a]},
        "findings": [
            {
                "kind": "inverses",
                "structure": structure_key(s).hex(),
                "element": names[a],
                "inverses": [names[b] for b in inv],
            }
        ],
    }

    def render(doc, out):
        f = doc["findings"][0]
        out.write(f"inverses of {f['element']}: {{{', '.join(f['inverses'])}}}\n")

    _emit(doc, args.format, render, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index, count = text.split("/")
        shard = int(index), int(count)
    except ValueError:
        raise CliError(f"shard must look like i/k, got {text!r}") from None
    try:
        check_shard(shard)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return shard


def _options_from_args(args, mode: str) -> EnumerationOptions:
    shard = _parse_shard(args.shard) if getattr(args, "shard", None) else None
    limit = kernel.MAX_ORDER if getattr(args, "unlock_order_5", False) else DEFAULT_MAX_ORDER
    if limit < args.order <= kernel.MAX_ORDER:
        raise CliError(f"order must be within 1..{limit} (pass --unlock-order-5 to go further)")
    if not 1 <= args.order <= limit:
        raise CliError(f"order must be within 1..{limit}")
    try:
        return EnumerationOptions(
            order=args.order,
            mode=mode,
            filters=tuple(getattr(args, "filter", None) or ()),
            shard=shard,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _cmd_enumerate(args, out) -> int:
    mode = "up_to_iso" if args.up_to_iso else "labelled"
    opts = _options_from_args(args, mode)
    try:
        structures = list(enumerate_ordered_semigroups(opts))
    except KeyError as exc:  # an unknown filter
        raise CliError(exc.args[0]) from None

    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            write_corpus(sink, structures, opts)

    if args.format == "json":
        doc = {
            "command": "enumerate",
            "options": {
                "order": opts.order,
                "mode": opts.mode,
                "filters": list(opts.filters),
                "shard": args.shard,
                "out": args.out,
            },
            "count": len(structures),
            "findings": [
                {"kind": "structure", "structure": structure_key(s).hex()}
                for s in structures
            ],
        }
        _emit(doc, "json", None, out)
    elif args.out:
        out.write(f"{len(structures)} structures written to {args.out}\n")
    else:
        write_corpus(out, structures, opts)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-theorems


def _vector_json(report, order):
    names = default_names(order)
    return [
        {
            "condition": v.condition,
            "holds": v.holds,
            "witness": _names_tuple(names, v.witness),
            "hypothesis_met": v.hypothesis_met,
        }
        for v in report.vector
    ]


def _theorem_findings(report):
    findings = []
    for t in report.theorems:
        findings.append({
            "kind": "theorem_sweep",
            "theorem": t.theorem,
            "checked": t.checked,
            "hypothesis_met": t.hypothesis_met,
            "inconsistent": t.inconsistent,
            "inconsistencies": [
                {
                    "structure": rec.canonical,
                    "file": format_structure(rec.structure),
                    "vector": _vector_json(rec.report, rec.structure.order),
                }
                for rec in t.inconsistencies
            ],
            "outside_hypothesis_disagreements": [
                {
                    "structure": rec.canonical,
                    "vector": _vector_json(rec.report, rec.structure.order),
                }
                for rec in t.outside_disagreements
            ],
        })
    return findings


def _cmd_check_theorems(args, out) -> int:
    if bool(args.corpus) == (args.order is not None):
        raise CliError("give exactly one of --order or --corpus")
    if args.corpus and args.labelled:
        raise CliError("--labelled applies to --order only: a corpus is swept as it stands")
    for tid in args.theorem or ():
        if tid not in theorem_ids():
            raise CliError(f"unknown theorem {tid!r}; known: {list(theorem_ids())}")

    candidates = None
    if args.corpus:
        text = _read_text(args.corpus)
        try:
            corpus = read_corpus(text)
        except StructureParseError as exc:
            raise CliError(f"{args.corpus}: {exc}") from None
        if args.shard:
            corpus = shard_stream(corpus, _parse_shard(args.shard))
    else:
        mode = "labelled" if args.labelled else "up_to_iso"
        opts = _options_from_args(args, mode)
        corpus = enumerate_ordered_semigroups(opts)
        n = opts.order
        candidates = ASSOC_TABLE_COUNTS[n] * POSET_COUNTS[n]

    theorems = list(dict.fromkeys(args.theorem or theorem_ids()))
    report = sweep(corpus, theorems)
    doc = {
        "command": "check-theorems",
        "options": {
            "order": args.order,
            "corpus": args.corpus,
            "labelled": bool(args.labelled),
            "theorems": theorems,
            "shard": args.shard,
        },
        "structures": report.structures,
        "candidates": candidates,
        "skipped": list(report.skipped),
        "inconsistent": report.total_inconsistent,
        "findings": _theorem_findings(report),
    }

    def render(doc, out):
        if doc["candidates"] is not None:
            out.write(f"{doc['candidates']} candidate pairs, ")
        out.write(f"{doc['structures']} valid structures checked\n")
        for note in doc["skipped"]:
            out.write(f"note: {note}\n")
        for f in doc["findings"]:
            out.write(
                f"{f['theorem']}: checked={f['checked']} "
                f"hypothesis_met={f['hypothesis_met']} "
                f"inconsistent={f['inconsistent']} "
                f"outside_disagreements={len(f['outside_hypothesis_disagreements'])}\n"
            )
            for rec in f["inconsistencies"]:
                out.write(f"INCONSISTENT {f['theorem']} on {rec['structure']}:\n")
                out.write(rec["file"])
        if doc["inconsistent"] == 0:
            out.write("all groupings consistent\n")
        else:
            out.write(f"{doc['inconsistent']} inconsistencies found\n")

    _emit(doc, args.format, render, out)
    return EXIT_OK if report.total_inconsistent == 0 else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# oracle


def _oracle_px3(out):
    report = oracles.px3_report()
    out.write(f"associative: {'yes' if report['associative'] else 'no'}\n")
    out.write(f"failing triples: {len(report['direct_failures'])}\n")
    first = report["direct_failure_names"][0]
    out.write(f"least witness: ({', '.join(first)})\n")
    out.write(
        "opposite reading associative: "
        f"{'yes' if report['opposite_associative'] else 'no'}\n"
    )
    return {"kind": "px3", **{k: v for k, v in report.items() if k != "names"}}


def _oracle_semigroups(out):
    finding = {"kind": "semigroup_counts", "labelled": {}, "iso_classes": {}}
    for n in (1, 2, 3):
        tables = oracles.assoc_tables_naive(n)
        finding["labelled"][str(n)] = len(tables)
        out.write(f"associative tables n={n}: {len(tables)}\n")
    classes = oracles.iso_class_count(oracles.assoc_tables_naive(2), 2)
    finding["iso_classes"]["2"] = classes
    out.write(f"isomorphism classes n=2: {classes}\n")
    return finding


def _oracle_posets(out):
    finding = {"kind": "poset_counts", "counts": {}}
    for n in (1, 2, 3):
        count = len(oracles.posets_naive(n))
        finding["counts"][str(n)] = count
        out.write(f"partial orders n={n}: {count}\n")
    return finding


def _oracle_ordered(out):
    finding = {"kind": "ordered_counts", "counts": {}}
    for n in (1, 2, 3):
        count = len(oracles.ordered_structures_naive(n))
        finding["counts"][str(n)] = count
        out.write(f"valid ordered semigroups n={n}: {count}\n")
    return finding


def _oracle_fixtures(out):
    report = oracles.fixture_axiom_report()
    for name, ok in report.items():
        out.write(f"{name}: {'valid' if ok else 'invalid'}\n")
    return {"kind": "fixture_axioms", "verdicts": report}


ORACLE_SUITES = {
    "px3": _oracle_px3,
    "semigroups": _oracle_semigroups,
    "posets": _oracle_posets,
    "ordered": _oracle_ordered,
    "fixtures": _oracle_fixtures,
}


def _cmd_oracle(args, out) -> int:
    if args.suite not in ORACLE_SUITES:
        raise CliError(
            f"unknown oracle suite {args.suite!r}; known: {sorted(ORACLE_SUITES)}"
        )
    if args.format == "json":
        import io

        sink = io.StringIO()
        finding = ORACLE_SUITES[args.suite](sink)
        doc = {
            "command": "oracle",
            "options": {"suite": args.suite},
            "findings": [finding],
        }
        _emit(doc, "json", None, out)
    else:
        ORACLE_SUITES[args.suite](out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osgkit",
        description="finite ordered-semigroup workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check the axioms of a structure file")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("analyze", help="full property and relations report")
    p.add_argument("file")
    add_format(p)

    p = sub.add_parser("inverses", help="list the inverses of one element")
    p.add_argument("file")
    p.add_argument("element")
    add_format(p)

    p = sub.add_parser("enumerate", help="generate all ordered semigroups of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--filter", action="append", default=[])
    p.add_argument("--out")
    p.add_argument("--shard")
    p.add_argument("--unlock-order-5", action="store_true")
    add_format(p)

    p = sub.add_parser("check-theorems", help="sweep condition groupings over a corpus")
    p.add_argument("--order", type=int)
    p.add_argument("--labelled", action="store_true")
    p.add_argument("--corpus")
    p.add_argument("--theorem", action="append", default=[])
    p.add_argument("--shard")
    p.add_argument("--unlock-order-5", action="store_true")
    add_format(p)

    p = sub.add_parser("oracle", help="run a brute-force oracle suite")
    p.add_argument("suite")
    add_format(p)

    return parser


COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "inverses": _cmd_inverses,
    "enumerate": _cmd_enumerate,
    "check-theorems": _cmd_check_theorems,
    "oracle": _cmd_oracle,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.subcommand](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
