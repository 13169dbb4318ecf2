#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Times the four kernel entry points at a chosen order on both backends
and prints a comparison table.  The table search is timed three times:
over the discrete order (the associative tables), over every labelled
poset (the plain search, which the tests keep as the reference for the
labelled stream) and, keeping the least table of each orbit under the
poset's automorphisms, over one poset per isomorphism class (the search
behind enumeration in both modes: one table per class).  Axiom witnesses
and fact rows are timed over those classes, once each, as a sweep
validates each class and builds its record.

Usage:
    python benchmarks/bench_kernel.py [--order N] [--repeat K]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from osgkit import _kernel_py  # noqa: E402
from osgkit.enumeration import (  # noqa: E402
    enumerate_partial_orders,
    poset_representatives,
)

try:
    from osgkit import _kernel
except ImportError:
    _kernel = None


def best_of(repeat, fn, *args):
    times = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def bench(backend, n, repeat):
    rows = []

    discrete = bytes(1 if i == j else 0 for i in range(n) for j in range(n))
    elapsed, tables = best_of(repeat, backend.enumerate_valid_tables, n, discrete)
    rows.append((f"assoc tables n={n} ({len(tables)} found)", elapsed))

    def flat(rel):
        return bytes(1 if rel[i][j] else 0 for i in range(n) for j in range(n))

    def over(posets, orbit_minimal=False):
        total = 0
        for rel in posets:
            total += len(backend.enumerate_valid_tables(n, flat(rel), orbit_minimal=orbit_minimal))
        return total

    posets = enumerate_partial_orders(n)
    elapsed, count = best_of(repeat, over, posets)
    rows.append((f"valid tables over {len(posets)} posets ({count} found)", elapsed))

    classes = poset_representatives(n)
    elapsed, count = best_of(repeat, over, classes, True)
    rows.append(
        (f"orbit-minimal tables over {len(classes)} poset classes ({count} found)", elapsed)
    )

    def canonical_all():
        return [backend.canonical_key(t, discrete, n) for t in tables]

    elapsed, _ = best_of(repeat, canonical_all)
    rows.append((f"canonical keys for {len(tables)} tables", elapsed))

    structures = [
        (table, leq)
        for leq in map(flat, classes)
        for table in backend.enumerate_valid_tables(n, leq, orbit_minimal=True)
    ]

    for name in ("axiom_witnesses", "fact_rows"):
        entry = getattr(backend, name)
        elapsed, _ = best_of(repeat, lambda: [entry(t, leq, n) for t, leq in structures])
        rows.append((f"{name.replace('_', ' ')} for {len(structures)} classes", elapsed))

    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=3, choices=(1, 2, 3, 4))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = [("python", _kernel_py)]
    if _kernel is not None:
        backends.insert(0, ("c", _kernel))
    else:
        print("compiled kernel not built; timing the fallback only")

    results = {name: bench(mod, args.order, args.repeat) for name, mod in backends}

    labels = [label for label, _ in results[backends[0][0]]]
    width = max(len(label) for label in labels) + 2
    header = f"{'benchmark':<{width}}" + "".join(f"{name:>12}" for name, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for i, label in enumerate(labels):
        line = f"{label:<{width}}"
        timings = [results[name][i][1] for name, _ in backends]
        for t in timings:
            line += f"{t * 1000:>10.2f}ms"
        if len(timings) == 2 and timings[0] > 0:
            line += f"{timings[1] / timings[0]:>9.1f}x"
        print(line)


if __name__ == "__main__":
    main()
