#!/usr/bin/env python3
"""Whole-pipeline benchmark: build-index and serving metrics, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload hier23-powerlaw --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced run.  Human-readable lines go first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted``/``failed`` are
the error rate's numerator and denominator: exceptions, wrong answers
and refused or failed requests over all operations attempted.  End-to-end
times are wall times scaled to a reference host speed (:class:`HostClock`).

Inputs, the object-engine oracle and the request lists are cached under
``.perfbench_cache/`` by (workload, seed, scale parameters); spans of
each run are written to ``.perfbench_cache/traces/`` when it ends.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from loadgen import LoadGenerator, expected_hash
from tracing import median, quantile, self_time_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("hier23-powerlaw", "tiny-batch", "serve-mixed")

#: end-to-end metrics: name -> unit (printed with --trace 0)
E2E = {
    "setup_s": "s", "hierarchy_s": "s", "index_s": "s", "build_s": "s",
    "graphs_per_s": "1/s", "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit (printed with --trace 1); a layer that
#: does no work on a workload reads 0
LAYERS = {
    "graph.parse_s": "s", "graph.csr_s": "s", "graph.edges": "count",
    "external.build_s": "s", "external.block_reads": "count",
    "external.ints_read": "count", "external.read_amplification": "ratio",
    "external.fnd_s": "s",
    "core.incidence_s": "s", "core.incidence_entries": "count",
    "core.peel_s": "s", "core.peel_cells": "count",
    "core.fnd_s": "s", "core.construct_s": "s", "core.subnuclei": "count",
    "core.adj_links": "count", "core.condense_s": "s", "core.nodes": "count",
    "flatindex.build_s": "s", "flatindex.stats_s": "s",
    "flatindex.save_s": "s", "flatindex.bytes": "B", "flatindex.load_s": "s",
    "flatindex.query_us": "us", "flatindex.answer_cells": "count",
    "serve.ready_s": "s", "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms", "serve.mean_batch": "count",
    "serve.bytes_per_s": "B/s", "serve.sustained_qps": "1/s",
    "serve.query_p50_ms": "ms", "serve.query_p99_ms": "ms",
    "backends.per_graph_us_p50": "us", "backends.per_graph_us_p99": "us",
    "backends.below_threshold_share": "ratio",
    "loadgen.lag_p99_ms": "ms", "loadgen.ceiling_qps": "1/s",
    "loadgen.limited": "bool",
    "trace.uncovered_s": "s", "trace.overhead_share": "ratio",
    "error_rate": "ratio",
}

#: grouping spans of a build: their self time is the part of build_s no
#: layer span covers
GROUP_SPANS = ("build", "setup", "hierarchy", "index")

#: builds (and tiny passes) per run at least, whatever --seconds says.
#: The median of two is their mean, which one slow build moves
MIN_REPEATS = 5
#: builds per serve-mixed run at least: its phases are the shortest of
#: the single-graph builds, so their medians need more samples
SERVE_REPEATS = 7
#: server spawns per run; setup_s is their median
SPAWNS = 5
#: the serve workload's fixed reference rate (requests per second), and
#: the seconds measured at it (for --seconds 10)
REF_RATE = 250.0
REF_S = 5.0
#: requests kept in flight, and seconds, of the closed-loop throughput
#: phase (serve.sustained_qps)
IN_FLIGHT = 256
SATURATE_S = 2.0
#: the server set the pace only if the throughput needed at most
#: GENERATOR_HEADROOM of the generator's ping ceiling, the generator was
#: busy at most GENERATOR_BUSY of that phase, and it kept its schedule
#: at the reference rate within MAX_LAG_MS at p99
GENERATOR_HEADROOM = 0.7
GENERATOR_BUSY = 0.9
MAX_LAG_MS = 10.0
#: window cache of the disk build: CACHE_BLOCKS windows of at most
#: a quarter of the adjacency array in total
CACHE_BLOCKS = 8
#: served requests also answered in-process by the traced serve run
SERVE_DIRECT = 2000
#: a child process that runs longer than this has hung
CHILD_TIMEOUT_S = 100
#: seconds the calibration kernel (calibrate.py) takes on a quiet 2-vCPU
#: x86-64 VM under Python 3.11; timings are reported in these reference
#: seconds
CAL_REF_S = 0.60


class Run:
    """Outcome of one workload run: metric values plus the error count."""

    def __init__(self) -> None:
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: doubts about a measurement; they do not make the run incorrect
        self.warnings: list[str] = []
        self.spans: list[dict] = []
        self.notes: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def child_env() -> dict:
    """The environment of every child process: the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(task: dict) -> dict:
    """Run one worker task in a fresh interpreter; errors come back as
    ``{"error": ...}``."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(task), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{task['kind']} task timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{task['kind']} task exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def calibration_s() -> float:
    """Wall seconds of the calibration kernel, in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


class HostClock:
    """Turns wall seconds into reference seconds.

    On a shared host the same build took 6.4 s in one minute and 10.6 s a
    few minutes later, which no number of repeats inside one run evens
    out.  So the calibration kernel runs before and after each unit of
    work, and the unit's wall times are scaled by ``CAL_REF_S`` over the
    mean of the two calibrations.  The kernel never calls the program,
    so a change to the program moves the scaled figures by its full
    amount.  Disabled (factor 1) for the traced run, whose per-layer
    numbers are wall seconds.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples = [calibration_s()] if enabled else []

    def factor(self) -> float:
        """Calibrate again; the factor for the work done since the
        previous calibration."""
        if not self.enabled:
            return 1.0
        self.samples.append(calibration_s())
        return 2 * CAL_REF_S / (self.samples[-2] + self.samples[-1])

    def run_factor(self) -> float:
        """Calibrate again; the factor for the whole run so far, from
        the median of every calibration.  For short units (a server
        spawn) that would otherwise take on the noise of one or two
        kernel samples."""
        if not self.enabled:
            return 1.0
        self.samples.append(calibration_s())
        return CAL_REF_S / median(self.samples)

    def note(self, run: Run) -> None:
        if self.samples:
            run.notes.append(
                "calibration " + " ".join(f"{c:.3f}" for c in self.samples)
                + f" s against {CAL_REF_S} s; timings are scaled by their "
                f"ratio")


# ----------------------------------------------------------------------
# one-graph build workloads
# ----------------------------------------------------------------------
def window_cache(m: int) -> tuple[int, int]:
    """(block_ints, cache_blocks) with the cache at most a quarter of the
    2m-int adjacency array."""
    block = 64
    while block * 2 * CACHE_BLOCKS <= (2 * m) // 4:
        block *= 2
    return block, CACHE_BLOCKS


def build_task(ctx, oracle: dict, r: int, s: int, backend: str, run: str,
               trace: bool) -> dict:
    task = {"kind": "build", "run": run, "trace": trace, "r": r, "s": s,
            "backend": backend, "edge_file": str(ctx.inputs.edge_file),
            "index_path": str(ctx.workdir / "index.npz"),
            "disk_dir": str(ctx.workdir / "graph.diskcsr"),
            "oracle": {"lam_hash": oracle["lam_hash"],
                       "tree_hash": oracle["tree_hash"]}}
    if backend == "disk":
        task["block_ints"], task["cache_blocks"] = window_cache(oracle["m"])
    return task


def record_build(run: Run, out: dict) -> bool:
    run.attempted += 1
    if "error" in out:
        run.fail(out["error"])
        return False
    for problem in out["mismatches"]:
        run.fail(problem)
    return not out["mismatches"]


def record_queries(run: Run, out: dict) -> None:
    if "error" in out:
        run.attempted += 1
        run.fail(out["error"])
        return
    run.attempted += out["attempted"]
    if out["failures"]:
        run.fail(f"{out['failures']} queries raised", out["failures"])


def flatindex_layers(run: Run, out: dict) -> None:
    """The flatindex layer's numbers from an in-process query loop."""
    lat = out.get("latencies", [])
    run.layers["flatindex.query_us"] = (sum(lat) / len(lat) * 1e6
                                        if lat else 0.0)
    run.layers["flatindex.answer_cells"] = (out["cells"] / len(lat)
                                            if lat else 0.0)
    run.layers["flatindex.load_s"] = out.get("totals", {}).get(
        "flatindex.load", 0.0)


def build_metrics(run: Run, builds: list[dict],
                  factors: list[float]) -> None:
    """Medians over the builds, each build's times scaled by its factor."""
    ok = [(b["totals"], f) for b, f in zip(builds, factors, strict=True)
          if "totals" in b]
    for metric, span in (("setup_s", "setup"), ("hierarchy_s", "hierarchy"),
                         ("index_s", "index"), ("build_s", "build")):
        run.e2e[metric] = median([t[span] * f for t, f in ok])
        run.notes.append(f"build phase {span}: unscaled median "
                         f"{median([t[span] for t, _f in ok]):.4f} s")
    run.e2e["graphs_per_s"] = median([1.0 / (t["build"] * f)
                                      for t, f in ok])


def layer_metrics_from_build(run: Run, traced: dict, plain: dict) -> None:
    """Per-layer numbers of one traced build (plus its standalone calls)."""
    totals, counters = traced["totals"], traced["counters"]
    spans = traced["spans"]
    run.spans.extend(spans)
    get = totals.get
    layers = run.layers
    layers["graph.parse_s"] = get("graph.parse", 0.0)
    layers["graph.csr_s"] = get("graph.csr", 0.0)
    layers["graph.edges"] = counters.get("graph.edges", 0)
    for name in ("core.incidence_entries", "core.peel_cells",
                 "core.subnuclei", "core.adj_links", "core.nodes",
                 "flatindex.bytes"):
        layers[name] = counters.get(name, 0)
    layers["core.incidence_s"] = get("core.incidence", 0.0)
    layers["core.peel_s"] = get("core.peel", 0.0)
    layers["core.fnd_s"] = get("core.fnd", 0.0)
    layers["core.construct_s"] = get("core.fnd", 0.0) - get("core.peel", 0.0)
    layers["core.condense_s"] = get("core.condense", 0.0)
    layers["flatindex.build_s"] = get("flatindex.build", 0.0)
    layers["flatindex.stats_s"] = get("flatindex.stats", 0.0)
    layers["flatindex.save_s"] = get("flatindex.save", 0.0)
    own = self_time_by_name(spans)
    uncovered = sum(own.get(name, 0.0) for name in GROUP_SPANS)
    layers["trace.uncovered_s"] = uncovered
    covered = sum(value for name, value in own.items()
                  if name not in GROUP_SPANS and name not in
                  ("standalone", "core.peel", "core.incidence"))
    run.notes.append(
        f"traced build_s {get('build', 0.0):.4f} s = layer self times "
        f"{covered:.4f} s + uncovered {uncovered:.4f} s")
    if "totals" in plain and plain["totals"].get("build"):
        layers["trace.overhead_share"] = (
            get("build", 0.0) / plain["totals"]["build"] - 1.0)


def run_builds(ctx, oracle: dict, r: int, s: int, backend: str,
               clock: HostClock, repeats: int = MIN_REPEATS
               ) -> tuple[list[dict], list[float]]:
    """The builds of a run and their scale factors: at least ``repeats``,
    until ``--seconds`` have passed.  Traced: one untraced build beside
    the traced one, for the tracing overhead."""
    if ctx.trace:
        return [run_child(build_task(ctx, oracle, r, s, backend, name,
                                     traced))
                for name, traced in (("plain", False), ("traced", True))], \
            [1.0, 1.0]
    builds, factors = [], []
    deadline = time.perf_counter() + ctx.seconds
    while len(builds) < repeats or time.perf_counter() < deadline:
        builds.append(run_child(build_task(
            ctx, oracle, r, s, backend, f"build-{len(builds)}", False)))
        factors.append(clock.factor())
    return builds, factors


def external_layers(run: Run, traced: dict) -> None:
    """The external layer's numbers from one traced build on the disk
    backend."""
    counters = traced["counters"]
    reads = counters.get("external.ints_read", 0)
    edges = counters.get("graph.edges", 0)
    run.layers.update({
        "external.build_s": traced["totals"].get("external.build", 0.0),
        "external.fnd_s": traced["totals"].get("core.fnd", 0.0),
        "external.block_reads": counters.get("external.block_reads", 0),
        "external.ints_read": reads,
        "external.read_amplification": reads / (2 * edges) if edges else 0.0,
    })


def run_hier(ctx, run: Run) -> None:
    oracle = ctx.inputs.single_graph(2, 3)
    clock = HostClock(not ctx.trace)
    builds, factors = run_builds(ctx, oracle, 2, 3, "csr", clock)
    clock.note(run)
    good = [record_build(run, b) for b in builds]
    if not good[-1]:
        return
    build_metrics(run, builds, factors)
    run.e2e["peak_rss_mb"] = median([b["rss_mb"] for b in builds
                                     if "rss_mb" in b])
    if not ctx.trace:
        return
    query = run_child({"kind": "query", "run": "query", "trace": True,
                       "index_path": str(ctx.workdir / "index.npz"),
                       "requests": oracle["requests"]})
    record_queries(run, query)
    flatindex_layers(run, query)
    layer_metrics_from_build(run, builds[1], builds[0])


# ----------------------------------------------------------------------
# tiny-batch
# ----------------------------------------------------------------------
def run_tiny(ctx, run: Run) -> None:
    ctx.inputs.tiny_batch()
    tiny_file = str(ctx.inputs.dir / "tiny.json")
    clock = HostClock(not ctx.trace)
    deadline = time.perf_counter() + ctx.seconds
    out = run_child({"kind": "tiny", "run": "tiny", "trace": ctx.trace,
                     "tiny_file": tiny_file})
    factors = [clock.factor()]
    if "error" in out:
        clock.note(run)
        run.attempted += 1
        run.fail(out["error"])
        return
    passes = out["passes"]
    # more timed passes, each in a fresh process between calibrations
    while not ctx.trace and (len(passes) < MIN_REPEATS
                             or time.perf_counter() < deadline):
        more = run_child({"kind": "tiny_pass", "tiny_file": tiny_file})
        if "error" in more:
            run.attempted += 1
            run.fail(more["error"])
            break
        passes.append(more)
        factors.append(clock.factor())
    clock.note(run)
    # only the first pass is checked against the oracle
    run.attempted += out["decompositions"]
    for problem in out["mismatches"]:
        run.fail(problem)
    record_queries(run, out["queries"])
    scaled = list(zip(passes, factors, strict=True))
    for metric, span in (("setup_s", "graph.csr"), ("hierarchy_s", "core.fnd"),
                         ("index_s", "flatindex.build")):
        run.e2e[metric] = median([p["totals"].get(span, 0.0) * f
                                  for p, f in scaled])
    run.e2e["build_s"] = median([p["wall"] * f for p, f in scaled])
    run.e2e["graphs_per_s"] = median([out["graphs"] / (p["wall"] * f)
                                      for p, f in scaled])
    run.e2e["peak_rss_mb"] = out["rss_mb"]
    if ctx.trace:
        flatindex_layers(run, out["queries"])
        totals = passes[0]["totals"]
        run.spans.extend(out["spans"])
        run.layers.update({
            "graph.csr_s": totals.get("graph.csr", 0.0),
            "graph.edges": out["edges"],
            "core.fnd_s": totals.get("core.fnd", 0.0),
            "flatindex.build_s": totals.get("flatindex.build", 0.0),
            "backends.per_graph_us_p50": out["per_graph_us_p50"],
            "backends.per_graph_us_p99": out["per_graph_us_p99"],
            "backends.below_threshold_share": out["below_threshold_share"],
            "trace.overhead_share": passes[0]["wall"] / out["plain_wall"] - 1,
        })


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def expected_answers(cache: Path, requests: list[dict], index_path: Path):
    """Hashes of the direct :class:`FlatHierarchyIndex` answers to
    ``requests`` (cached per seed in ``cache``), and a function
    recomputing one answer."""
    from repro.backends import load_query_index

    from worker import answer

    index = load_query_index(index_path, mmap_mode=None)

    def direct(i: int):
        return answer(index, requests[i])

    if cache.exists():
        return json.loads(cache.read_text()), direct
    memo: dict[str, str] = {}
    hashes = []
    for i, request in enumerate(requests):
        key = json.dumps(request, sort_keys=True)
        if key not in memo:
            memo[key] = expected_hash(direct(i))
        hashes.append(memo[key])
    cache.write_text(json.dumps(hashes))
    return hashes, direct


def spawn_server(index_path: Path, log: Path):
    """Start ``repro-nucleus serve`` on a free port; returns the process
    and its port once it printed its ``serving`` line."""
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(index_path),
             "--port", "0"], stdout=handle, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        match = re.search(r" on [^ ]+:(\d+) ", log.read_text())
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    stop_server(proc)
    raise RuntimeError(f"server did not start: {log.read_text()[-2000:]}")


def stop_server(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


async def ping_once(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b'{"op": "ping", "id": 0}\n')
        await writer.drain()
        line = await reader.readline()
        if b'"pong"' not in line:
            raise RuntimeError(f"bad ping answer {line!r}")
    finally:
        writer.close()
        await writer.wait_closed()


def ready_server(index_path: Path, log: Path):
    """Spawn a server and wait for its first answered ping; returns
    (process, port, seconds from spawn to answer)."""
    began = time.perf_counter()
    proc, port = spawn_server(index_path, log)
    try:
        asyncio.run(ping_once(port))
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - began


def lanes_of(requests: list[dict]) -> list[int]:
    """Connection of each request: 1 for the large answers (the low-k
    community queries), 0 for the rest."""
    ks = {q["k"] for q in requests if q["op"] == "communities_of_vertex"}
    low = min(ks) if len(ks) > 1 else None
    return [int(q.get("k") == low) for q in requests]


async def drive(ctx, run: Run, server, port: int, requests, expected,
                direct) -> None:
    """Check every answer at the reference rate and read the server's
    peak RSS after that phase.  Traced, also calibrate the generator on
    ping first and measure throughput with a standing queue last: the
    serve and loadgen layer metrics, and whether the generator may have
    set their pace, exist only in the traced run."""
    from worker import peak_rss_of

    async with LoadGenerator("127.0.0.1", port, requests, expected, direct,
                             lanes_of(requests)) as gen:
        if ctx.trace:
            ceiling = await gen.ping_ceiling(ctx.scaled(0.5))
        await gen.phase(REF_RATE, ctx.scaled(0.5))  # warm-up
        ref = await gen.phase(REF_RATE, max(ctx.scaled(REF_S), 1.0))
        run.e2e["peak_rss_mb"] = peak_rss_of(server.pid)
        if ctx.trace:
            saturated = await gen.saturate(ctx.scaled(SATURATE_S),
                                           IN_FLIGHT)
            stats = (await gen.call("stats"))["result"]
    for phase in gen.phases:
        run.attempted += phase.sent
        if phase.failed:
            run.fail(f"{phase.failed} requests failed at "
                     f"{phase.rate:.0f}/s", phase.failed)
        if phase.wrong:
            run.fail(f"{phase.wrong} wrong answers at {phase.rate:.0f}/s",
                     phase.wrong)
    if not ctx.trace:
        return
    throughput = saturated.done_by_deadline / saturated.elapsed
    lag = quantile(ref.lags, 0.99) * 1e3
    busy = saturated.cpu / saturated.elapsed
    valid = (throughput <= GENERATOR_HEADROOM * ceiling
             and busy <= GENERATOR_BUSY and lag <= MAX_LAG_MS)
    if not valid:
        run.warnings.append(
            f"the load generator, not the server, may have set the pace "
            f"(ceiling {ceiling:.0f}/s, throughput {throughput:.0f}/s at "
            f"{busy:.2f} generator CPU, lag p99 {lag:.2f} ms)")
    routes = [route for name, route in stats["routes"].items()
              if name in ("max_nucleus", "communities_of_vertex")]
    run.layers.update({
        "loadgen.ceiling_qps": ceiling, "loadgen.lag_p99_ms": lag,
        "loadgen.limited": float(not valid),
        "serve.server_p50_ms": max((r["p50_ms"] for r in routes),
                                   default=0.0),
        "serve.server_p99_ms": max((r["p99_ms"] for r in routes),
                                   default=0.0),
        "serve.mean_batch": stats["batching"]["mean_batch"],
        "serve.bytes_per_s": ref.bytes / ref.elapsed if ref.elapsed else 0.0,
        "serve.sustained_qps": throughput,
        "serve.query_p50_ms": quantile(ref.latencies, 0.5) * 1e3,
        "serve.query_p99_ms": quantile(ref.latencies, 0.99) * 1e3,
    })
    run.notes.append(
        f"{IN_FLIGHT} in flight: {throughput:.0f}/s, p99 "
        f"{saturated.p99 * 1e3:.1f} ms, generator CPU {busy:.2f}; "
        f"generator ceiling {ceiling:.0f}/s")


def run_serve(ctx, run: Run) -> None:
    oracle = ctx.inputs.single_graph(1, 2)
    clock = HostClock(not ctx.trace)
    builds, factors = run_builds(ctx, oracle, 1, 2, "csr", clock,
                                 SERVE_REPEATS)
    if not all([record_build(run, b) for b in builds]):
        clock.note(run)
        return
    build_metrics(run, builds, factors)
    build = builds[-1]
    index_path = ctx.workdir / "index.npz"
    expected, direct = expected_answers(ctx.inputs.dir / "expected.json",
                                        oracle["requests"], index_path)
    ready = []
    proc = None
    try:
        for i in range(SPAWNS):
            if proc is not None:
                stop_server(proc)
                proc = None
            proc, port, seconds = ready_server(index_path,
                                               ctx.workdir / f"server{i}.log")
            ready.append(seconds)
        run.layers["serve.ready_s"] = median(ready)
        run.e2e["setup_s"] = median(ready) * clock.run_factor()
        clock.note(run)
        asyncio.run(drive(ctx, run, proc, port, oracle["requests"],
                          expected, direct))
    finally:
        if proc is not None:
            stop_server(proc)
    if ctx.trace:
        layer_metrics_from_build(run, build, builds[0])
        # the flatindex layer alone on the served index, in-process
        query = run_child({"kind": "query", "run": "query", "trace": True,
                           "index_path": str(index_path),
                           "requests": oracle["requests"][:SERVE_DIRECT]})
        record_queries(run, query)
        flatindex_layers(run, query)
        # the external layer: the same build once on the disk backend
        disk = run_child(build_task(ctx, oracle, 1, 2, "disk", "disk",
                                    True))
        if record_build(run, disk):
            external_layers(run, disk)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
class Context:
    def __init__(self, args) -> None:
        from inputs import Inputs

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = args.scale
        cache = ROOT / ".perfbench_cache"
        self.inputs = Inputs(cache, args.workload, args.seed, args.scale)
        self.workdir = cache / "work" / f"{args.workload}-{os.getpid()}"
        self.trace_dir = cache / "traces"

    def scaled(self, seconds: float) -> float:
        """A phase length given for ``--seconds 10``, scaled to the
        budget given (BENCHMARK.json runs ``--seconds 15``)."""
        return seconds * self.seconds / 10.0


RUNNERS = {"hier23-powerlaw": run_hier, "tiny-batch": run_tiny,
           "serve-mixed": run_serve}


def run_workload(args) -> tuple[Run, dict]:
    ctx = Context(args)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    run = Run()
    try:
        RUNNERS[args.workload](ctx, run)
    except Exception as exc:  # the run reports the failure, not a traceback
        run.attempted += 1
        run.fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    run.attempted = max(run.attempted, 1)
    run.layers["error_rate"] = run.failed / run.attempted
    names = LAYERS if ctx.trace else E2E
    values = run.layers if ctx.trace else run.e2e
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}
    ctx.trace_dir.mkdir(parents=True, exist_ok=True)
    (ctx.trace_dir / f"{args.workload}-{args.seed}-{args.trace}.json") \
        .write_text(json.dumps({"spans": run.spans, "metrics": metrics}))
    return run, metrics


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "large", "toy"),
                        default="full",
                        help="input size (large: the README's phase split; "
                        "toy: the self-test size)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run, metrics = run_workload(args)
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems + run.warnings:
        print(f"! {problem}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    print(f"# {run.failed} of {run.attempted} operations failed")
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
