#!/usr/bin/env python
"""Regenerate the paper's Tables 1, 3, 4, 5 and Figure 6 on the stand-ins.

Usage::

    python benchmarks/run_paper_tables.py all            # everything
    python benchmarks/run_paper_tables.py table4 fig6    # a subset
    python benchmarks/run_paper_tables.py all --size medium --timeout 300

Every cell is a fresh end-to-end run (peeling + hierarchy) on the same
graph object.  Runs exceeding ``--timeout`` seconds are aborted and shown
as starred lower bounds — the harness analogue of the paper's "did not
finish in 2 days" entries.  Output is meant to be read next to the paper's
tables.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import Callable

from repro.analysis.stats import table3_row
from repro.core.decomposition import nucleus_decomposition
from repro.errors import TimeBudgetExceeded
from repro.graph.datasets import dataset_names, load_dataset, table1_datasets
from repro.ktruss.tcp import build_tcp_index


# ---------------------------------------------------------------------------
# timed execution with a hard budget
# ---------------------------------------------------------------------------
def _raise_timeout(signum, frame):
    raise TimeBudgetExceeded


#: best-of-N repeats for every timed run; graphs here are small enough that
#: single-shot timings are noisy, and min-of-N is the standard antidote
REPEATS = 2


def timed(func: Callable[[], object], budget: float) -> float | None:
    """Best-of-N wall-clock seconds of ``func()``; ``None`` on budget blow."""
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    best: float | None = None
    try:
        for _ in range(REPEATS):
            signal.setitimer(signal.ITIMER_REAL, budget)
            start = time.perf_counter()
            try:
                func()
                elapsed = time.perf_counter() - start
            except TimeBudgetExceeded:
                return None if best is None else best
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def fmt_speedup(base: float | None, best: float, budget: float) -> str:
    """Speedup of ``best`` over ``base``; starred lower bound on timeout."""
    if base is None:
        return f">{budget / best:7.2f}x*"
    return f"{base / best:8.2f}x"


def fmt_time(seconds: float | None) -> str:
    return "   (dnf)" if seconds is None else f"{seconds:8.3f}"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
def run_table4(size: str, budget: float) -> None:
    print("\n=== Table 4: k-core ((1,2) nucleus) decomposition ===")
    print("speedups of LCPS (fastest) over each alternative; last column = LCPS seconds")
    header = f"{'dataset':12s} {'Hypo':>9s} {'Naive':>9s} {'DFT':>9s} {'FND':>9s} {'LCPS(s)':>9s}"
    print(header)
    speedups: dict[str, list[float]] = {a: [] for a in ("hypo", "naive", "dft", "fnd")}
    for name in dataset_names():
        graph = load_dataset(name, size)
        times = {a: timed(lambda a=a: nucleus_decomposition(graph, 1, 2, algorithm=a),
                          budget)
                 for a in ("hypo", "naive", "dft", "fnd", "lcps")}
        best = times["lcps"]
        if best is None:
            print(f"{name:12s} LCPS did not finish — skipped")
            continue
        cells = []
        for a in ("hypo", "naive", "dft", "fnd"):
            cells.append(fmt_speedup(times[a], best, budget))
            if times[a] is not None:
                speedups[a].append(times[a] / best)
        print(f"{name:12s} {' '.join(cells)} {fmt_time(best)}")
    avg = " ".join(f"{sum(v) / len(v):8.2f}x" if v else "       -"
                   for v in speedups.values())
    print(f"{'avg':12s} {avg}")
    print("shape check: Naive and DFT columns > 1 (paper: 21.2x, 1.8x avg; "
          "Hypo 0.66x).  Known deviation: in pure Python FND's single-pass "
          "peeling often beats LCPS's peel+traversal (paper C++: LCPS 2.1x "
          "over FND)")


def run_table5(size: str, budget: float) -> None:
    print("\n=== Table 5 (left): (2,3) nucleus / k-truss community ===")
    print("speedups of FND (fastest) over each alternative; TCP* = peel+index only")
    print(f"{'dataset':12s} {'Hypo':>9s} {'Naive':>9s} {'TCP*':>9s} {'DFT':>9s} {'FND(s)':>9s}")
    agg: dict[str, list[float]] = {a: [] for a in ("hypo", "naive", "tcp", "dft")}
    for name in dataset_names():
        graph = load_dataset(name, size)
        times: dict[str, float | None] = {
            a: timed(lambda a=a: nucleus_decomposition(graph, 2, 3, algorithm=a),
                     budget)
            for a in ("hypo", "naive", "dft", "fnd")}
        times["tcp"] = timed(lambda: build_tcp_index(graph), budget)
        best = times["fnd"]
        if best is None:
            print(f"{name:12s} FND did not finish — skipped")
            continue
        cells = []
        for a in ("hypo", "naive", "tcp", "dft"):
            cells.append(fmt_speedup(times[a], best, budget))
            if times[a] is not None:
                agg[a].append(times[a] / best)
        print(f"{name:12s} {' '.join(cells)} {fmt_time(best)}")
    avg = " ".join(f"{sum(v) / len(v):8.2f}x" if v else "       -"
                   for v in agg.values())
    print(f"{'avg':12s} {avg}")
    print("shape check: FND fastest everywhere, >= Hypo=1x "
          "(paper: 1.31x Hypo, 215x Naive, 4.3x TCP, 1.76x DFT)")

    print("\n=== Table 5 (right): (3,4) nucleus ===")
    print(f"{'dataset':12s} {'Hypo':>9s} {'Naive':>9s} {'DFT':>9s} {'FND(s)':>9s}")
    agg34: dict[str, list[float]] = {a: [] for a in ("hypo", "naive", "dft")}
    for name in dataset_names():
        graph = load_dataset(name, size)
        times = {a: timed(lambda a=a: nucleus_decomposition(graph, 3, 4, algorithm=a),
                          budget)
                 for a in ("hypo", "naive", "dft", "fnd")}
        best = times["fnd"]
        if best is None:
            print(f"{name:12s} FND did not finish — skipped")
            continue
        cells = []
        for a in ("hypo", "naive", "dft"):
            cells.append(fmt_speedup(times[a], best, budget))
            if times[a] is not None:
                agg34[a].append(times[a] / best)
        print(f"{name:12s} {' '.join(cells)} {fmt_time(best)}")
    avg = " ".join(f"{sum(v) / len(v):8.2f}x" if v else "       -"
                   for v in agg34.values())
    print(f"{'avg':12s} {avg}")
    print("shape check: Naive gap widest of all decompositions "
          "(paper: Naive starred >996x, Hypo 1.53x, DFT 1.70x)")


def run_table3(size: str) -> None:
    print("\n=== Table 3: dataset statistics ===")
    print(f"{'dataset':12s} {'|V|':>6s} {'|E|':>7s} {'|tri|':>8s} {'|K4|':>9s} "
          f"{'E/V':>6s} {'tri/E':>6s} {'K4/tri':>6s} "
          f"{'T12':>6s} {'T12*':>6s} {'T23':>6s} {'T23*':>6s} "
          f"{'T34':>6s} {'T34*':>6s} {'c23':>8s} {'c34':>8s}")
    for name in dataset_names():
        graph = load_dataset(name, size)
        row = table3_row(graph)
        print(f"{name:12s} {row.num_vertices:6d} {row.num_edges:7d} "
              f"{row.num_triangles:8d} {row.num_four_cliques:9d} "
              f"{row.edge_density:6.2f} {row.triangle_density:6.2f} "
              f"{row.k4_density:6.2f} "
              f"{row.t12:6d} {row.t12_star:6d} {row.t23:6d} {row.t23_star:6d} "
              f"{row.t34:6d} {row.t34_star:6d} "
              f"{row.c_down_23:8d} {row.c_down_34:8d}")
    print("shape check: T* close to T (paper: +24% avg for (2,3)); "
          "uk2005 has the largest K4/tri and near-zero c-down")


def run_table1(size: str, budget: float) -> None:
    print("\n=== Table 1: headline speedups (best algorithm vs baselines) ===")
    print(f"{'dataset':12s} {'kcore/Naive':>12s} {'kcore/Hypo':>12s} "
          f"{'truss/Naive':>12s} {'truss/TCP':>12s} {'truss/Hypo':>12s} "
          f"{'(3,4)/Naive':>12s}")
    for name in table1_datasets():
        graph = load_dataset(name, size)
        lcps = timed(lambda: nucleus_decomposition(graph, 1, 2, algorithm="lcps"),
                     budget)
        fnd23 = timed(lambda: nucleus_decomposition(graph, 2, 3, algorithm="fnd"),
                      budget)
        fnd34 = timed(lambda: nucleus_decomposition(graph, 3, 4, algorithm="fnd"),
                      budget)
        cells = []
        for base_builder, best in [
            (lambda: nucleus_decomposition(graph, 1, 2, algorithm="naive"), lcps),
            (lambda: nucleus_decomposition(graph, 1, 2, algorithm="hypo"), lcps),
            (lambda: nucleus_decomposition(graph, 2, 3, algorithm="naive"), fnd23),
            (lambda: build_tcp_index(graph), fnd23),
            (lambda: nucleus_decomposition(graph, 2, 3, algorithm="hypo"), fnd23),
            (lambda: nucleus_decomposition(graph, 3, 4, algorithm="naive"), fnd34),
        ]:
            if best is None:
                cells.append("       (dnf)")
                continue
            base = timed(base_builder, budget)
            cells.append(" " + fmt_speedup(base, best, budget).strip().rjust(11))
        print(f"{name:12s} {' '.join(cells)}")
    print("shape check: all > 1x; paper row Stanford3 = "
          "25.5x / 1.10x / 12.6x / 3.41x / 1.48x / 1322x*")


def run_fig6(size: str) -> None:
    print("\n=== Figure 6: peel vs post-process, % of total DFT time ===")
    for (r, s) in ((2, 3), (3, 4)):
        print(f"\n({r},{s}) nucleus decomposition")
        print(f"{'dataset':12s} {'DFT peel%':>10s} {'DFT post%':>10s} "
              f"{'FND peel%':>10s} {'FND post%':>10s} {'FND total%':>11s}")
        for name in dataset_names():
            graph = load_dataset(name, size)
            dft = min((nucleus_decomposition(graph, r, s, algorithm="dft")
                       for _ in range(3)), key=lambda d: d.total_seconds)
            fnd = min((nucleus_decomposition(graph, r, s, algorithm="fnd")
                       for _ in range(3)), key=lambda d: d.total_seconds)
            base = dft.total_seconds or 1e-12
            print(f"{name:12s} {100 * dft.peel_seconds / base:9.1f}% "
                  f"{100 * dft.post_seconds / base:9.1f}% "
                  f"{100 * fnd.peel_seconds / base:9.1f}% "
                  f"{100 * fnd.post_seconds / base:9.1f}% "
                  f"{100 * fnd.total_seconds / base:10.1f}%")
    print("\nshape check: DFT post comparable to DFT peel; FND total close to "
          "DFT peel alone (paper: +29% for (2,3), +21% for (3,4))")


TABLES = {
    "table1": lambda args: run_table1(args.size, args.timeout),
    "table3": lambda args: run_table3(args.size),
    "table4": lambda args: run_table4(args.size, args.timeout),
    "table5": lambda args: run_table5(args.size, args.timeout),
    "fig6": lambda args: run_fig6(args.size),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("targets", nargs="+",
                        choices=[*TABLES.keys(), "all"])
    parser.add_argument("--size", default="small",
                        choices=["tiny", "small", "medium"])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-run budget in seconds (default 120)")
    args = parser.parse_args(argv)
    targets = list(TABLES) if "all" in args.targets else args.targets
    print(f"# stand-in datasets at size={args.size!r}, "
          f"per-run timeout {args.timeout:.0f}s")
    for target in targets:
        TABLES[target](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
