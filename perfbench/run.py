#!/usr/bin/env python3
"""Pipeline benchmark for osgkit: run one workload and print its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload enum-o3-iso --seed 1 --seconds 10 --trace 0

Each invocation is ``osgkit.cli.main(argv)`` in a fresh interpreter, so
every one starts with cold ``lru_cache``s.  A pass over the workload's
input is one or more invocations, run one at a time and checked as a
whole against frozen values.  Invocations go on, pass after pass, until
the next one would overrun ``--seconds``; the first pass is always whole.
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json (medians over the invocations); with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics and the tracing
overhead.  The last line of stdout is the JSON result; the lines before
it are a readable summary, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, check_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"
SETUP_SPAWNS = 50
CHILD_TIMEOUT_S = 170
BUDGET_S = 165  # set-up and measurement, after the build and the inputs


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def build() -> None:
    """Compile the optional kernel extension in place.

    Runs on every invocation, outside the timed span, so the kernel
    measured is always built from the sources in this tree; setuptools
    skips an extension whose build output is newer than its sources.
    """
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout}{proc.stderr}")


def spawn(argv: list[str], output: Path, traced: bool, timeout: float) -> dict:
    """One child interpreter; returns its measurements plus ``error``."""
    cmd = [sys.executable, str(HERE / "child.py")]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + [str(spawn_ns), str(output), "1" if traced else "0", *argv],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def canonical_o4_corpus() -> bytes:
    """The up-to-iso order-4 corpus, written once per checkout by osgkit."""
    path = CACHE / "o4-iso.osg"
    if path.exists():
        data = path.read_bytes()
        if not check_corpus(data):
            return data
    tmp = CACHE / f"o4-iso.{os.getpid()}.tmp"
    report = tmp.with_suffix(".out")
    result = spawn(
        ["enumerate", "--order", "4", "--up-to-iso", "--out", str(tmp)],
        report, False, CHILD_TIMEOUT_S,
    )
    report.unlink(missing_ok=True)
    if "error" in result or result["exit_code"] != 0:
        raise BenchError(f"cannot write the order-4 corpus: {result}")
    data = tmp.read_bytes()
    errors = check_corpus(data)
    if errors:
        raise BenchError(f"order-4 corpus is wrong: {errors}")
    os.replace(tmp, path)
    return data


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def measure(workload, argvs, work: Path, seconds: float, trace: bool, deadline: float):
    """Run passes over the workload; return (passes, errors, attempted, backend).

    A pass is one invocation per argv, in order.  A whole pass is checked
    against frozen values.  Untraced, invocations go on, pass after pass,
    until the next one would overrun ``seconds``; the first pass is always
    whole, and a last, partial pass must reproduce its reports byte for
    byte.  Traced, one untraced pass is followed by one traced pass.
    """
    outputs = [work / f"report-{i}.out" for i in range(len(argvs))]
    passes, errors, reference = [], [], []
    attempted, last, backend = 0, 0.0, None

    def one_pass(traced, out_of_time=lambda: False):
        nonlocal attempted, last, backend
        results, problems = [], []
        for argv, output in zip(argvs, outputs):
            if out_of_time():
                break
            attempted += 1
            t0 = time.monotonic()
            timeout = min(CHILD_TIMEOUT_S, deadline - t0)
            result = spawn(argv, output, traced, max(timeout, 1))
            last = time.monotonic() - t0
            if "error" in result:
                problems.append(result["error"])
            elif result["exit_code"] != 0:
                problems.append(f"exit code {result['exit_code']}")
            elif not Path(result["osgkit_file"]).is_relative_to(SRC):
                problems.append(f"osgkit imported from {result['osgkit_file']}")
            if problems:
                break
            backend = result["backend"]
            results.append(result)
        else:
            problems += workload.check(outputs, argvs)
            if not reference:
                reference.extend(path.read_bytes() for path in outputs)
        if not problems and len(results) < len(argvs):
            problems += [
                f"report {i} differs from the checked pass"
                for i in range(len(results))
                if outputs[i].read_bytes() != reference[i]
            ]
        errors.extend(f"{workload.name}: {p}" for p in problems)
        if results and not problems:
            passes.append(results)

    if trace:
        one_pass(False)
        if not errors:
            one_pass(True)
    else:
        start = time.monotonic()

        def out_of_time():
            now = time.monotonic()
            return now - start + last > seconds or now + 2 * last > deadline

        one_pass(False)
        while not errors and not out_of_time():
            one_pass(False, out_of_time)
    return passes, errors, attempted, backend


def end_to_end(passes, setups) -> dict[str, float]:
    """Medians over every invocation of the run."""
    samples = [result for results in passes for result in results]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def sum_layers(results) -> dict[str, dict[str, float]]:
    """The per-layer statistics of a traced pass, added over its invocations."""
    layers = {}
    for result in results:
        for name, stat in result["layers"].items():
            into = layers.setdefault(name, dict.fromkeys(stat, 0))
            for field, value in stat.items():
                into[field] += value
    for stat in layers.values():
        if "lookups" in stat:
            hits, lookups = stat.pop("hits"), stat.pop("lookups")
            stat["hit_ratio"] = hits / lookups if lookups else 0.0
    return layers


def per_layer(passes) -> dict[str, float]:
    untraced, traced = passes
    layers = sum_layers(traced)
    metrics = {}
    for name, stat in layers.items():
        for field, value in stat.items():
            metrics[f"{name}.{field}"] = value
    found = layers.get("kernel.enumerate_valid_tables", {}).get("results", 0)
    classes = layers.get("enumeration.enumerate_ordered_semigroups", {}).get("results", 0)
    metrics["kernel.tables_found"] = found
    metrics["enumeration.useful_ratio"] = classes / found if found else 0.0
    # CPU time of one traced minus one untraced pass, clamped at 0: host
    # noise can exceed the overhead, and a negative value would read as an
    # improvement
    cpu = [sum(result["cpu_s"] for result in results) for results in passes]
    metrics["trace.overhead_s"] = max(0.0, cpu[1] - cpu[0])
    return metrics


def select(values: dict[str, float], specs: list[dict]) -> dict:
    """The BENCHMARK.json metrics, in its order."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        if not (SRC / "osgkit" / "cli.py").is_file():
            raise BenchError(f"no osgkit sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        CACHE.mkdir(parents=True, exist_ok=True)
        build()
        work = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
        try:
            argvs = workload.prepare(work, args.seed, canonical_o4_corpus)
            deadline = time.monotonic() + BUDGET_S
            setups = []
            for _ in range(SETUP_SPAWNS):
                result = spawn([], work / "setup.out", False, 60)
                if "error" in result:
                    raise BenchError(f"set-up failed: {result['error']}")
                setups.append(result["setup_s"])
            passes, errors, attempted, backend = measure(
                workload, argvs, work, args.seconds, bool(args.trace), deadline
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = attempted - sum(len(results) for results in passes)
        metrics = {}
        if not failed:
            if args.trace:
                metrics = select(per_layer(passes), spec["per_layer"])
            else:
                metrics = select(end_to_end(passes, setups), spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = {
        "workload": workload.name,
        "seed": args.seed,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
    for error in errors:
        print(f"FAILED {error}")
    print("environment: " + json.dumps(env))
    print(f"invocations: {attempted} in {len(passes)} passes, {failed} failed; "
          f"failed_ratio {failed / attempted:.3f} ratio")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
