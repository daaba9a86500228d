"""End-to-end and per-layer benchmark of the resource-estimate service and
the paper-table sweep.

Run from the repository root::

    python3 perfbench/run.py --workload estimate-cold --seed 1 --seconds 20 --trace 0

Workloads (inputs generated from ``--seed`` by ``perfbench/gen.py``):

``estimate-cold``
    One closed-loop client, a new connection per request, against
    ``python -m repro.service`` on a fresh store.  Pairwise-distinct
    modular-adder estimates (n log-uniform in [32, 256], MBU on and off),
    so every request misses both cache tiers and pays build, counts,
    compile/fuse, codegen and the Monte-Carlo run.  The run stops at a
    whole block of 12 requests, each block balanced over builders and n.
``estimate-warm``
    Two closed-loop clients, each on one persistent keep-alive
    connection, Zipf-skewed over a pre-filled set of small estimates.  The
    server's memory result tier is smaller than the key set, so hits come
    from memory and from disk; nothing is computed.
``sweep-mc``
    ``run_sweep`` in-process, serial executor, tables 1-6 at n = 16, 32,
    64 plus modexp (4, 16), ``mc_batch=65536``: the Monte-Carlo kernels
    and the sharded dispatch do most of the work.

End-to-end metrics (``--trace 0``), one set per workload; the names the
roadmap uses are given in brackets:

* ``p50_ms`` / ``p90_ms`` — latency of one operation: an HTTP request on
  the estimate workloads [cold_p50_ms, cold_p90_ms], one whole sweep on
  sweep-mc (p50_ms = sweep_s in ms).  The 22 sweep tasks range from ~5 ms
  to ~4 s, so a percentile over tasks lands between tasks of very
  different size and moves with every hiccup; task latencies are printed
  in the report only;
* ``ops_per_s`` — operations completed per second [cold_per_s,
  warm_per_s]; on sweep-mc tasks per second, so sweep_s = tasks / ops_per_s;
* ``setup_s`` — median of three set-ups (server spawn and warm-up, plus
  the store pre-fill on warm; interpreter spawn and imports on sweep-mc);
* ``peak_rss_mb`` — ``VmHWM`` of the server process, or of the sweep
  process.

Failed or wrong outputs are the ``failed`` count of the result line
(failed_ratio = failed / attempted).  The per-tier latencies of the warm
workload [memory_hit_p50_ms ... disk_hit_p90_ms] and sweep_s are printed
in the report and, with ``--trace 1``, emitted with the per-layer metrics.

``--trace 1`` runs the same workload, then replays its inputs in-process
through the real entry points with spans around every call into a layer
(``perfbench/spans.py``), writes the spans to ``.perfbench/traces/`` and
prints a per-layer self-time table.  Layers a workload bypasses report 0.

The last line of standard output is the JSON result.  Temporary stores
live under ``.perfbench/`` in the current directory and are removed on
exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import islice, zip_longest
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3
#: Untimed warm-up requests (fresh connections) before the warm timing.
WARM_WARMUP = 600
#: An MC mean further than this many standard errors from the exact
#: expected count is a wrong output.
MC_SIGMAS = 5.0

# --------------------------------------------------------------------------- #
# small helpers

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """(percentile, samples, samples beyond it)."""
    p = percentile(values, q)
    return p, len(values), sum(1 for v in values if v > p)


def self_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def mc_ok(exact: Any, mean: Any, stderr: float) -> bool:
    """|MC mean - exact expected count| <= MC_SIGMAS standard errors."""
    from fractions import Fraction

    return abs(float(Fraction(mean) - Fraction(exact))) <= MC_SIGMAS * stderr + 1e-9


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self._bad: set = set()
        self.problems: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []

    def fail(self, ops: Iterable[Any], why: str) -> None:
        """Mark the operations ``ops`` (ids) failed, for reason ``why``."""
        ops = set(ops)
        if ops:
            self._bad |= ops
            self.problems.append(f"{len(ops)} operations: {why}")

    @property
    def failed(self) -> int:
        return len(self._bad)

    def line(self, text: str = "") -> None:
        self.lines.append(text)


# --------------------------------------------------------------------------- #
# in-process replay through serve_estimate

class Replayed:
    """One in-process answer: response body, serving tier, payload, seconds."""

    __slots__ = ("body", "tier", "payload", "wall")

    def __init__(self, body: bytes, tier: str, payload: Any, wall: float) -> None:
        self.body, self.tier, self.payload, self.wall = body, tier, payload, wall


def replay(queries: Sequence[Dict[str, str]], cache,
           tracer=None) -> Tuple[List[Replayed], float]:
    """Answer ``queries`` in-process exactly as the HTTP handler does:
    parse, ``serve_estimate``, ``canonical_json`` + newline.  With a
    tracer each query is one traced operation, ``r<index>``.  Returns the
    answers and the total wall time."""
    from repro.service.api import EstimateRequest, canonical_json, serve_estimate
    from spans import traced_request_type

    out: List[Replayed] = []
    request_type = traced_request_type(tracer) if tracer else EstimateRequest
    begin = time.perf_counter()
    for i, query in enumerate(queries):
        if tracer is None:
            start = time.perf_counter()
            request = request_type.from_mapping(query)
            payload, tier = serve_estimate(request, cache)
            body = (canonical_json(payload) + "\n").encode()
            wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            with tracer.span("request", op=f"r{i}") as root:
                with tracer.span("api.parse"):
                    request = request_type.from_mapping(query)
                with tracer.span("serve"):
                    payload, tier = serve_estimate(request, cache)
                with tracer.span("api.serialize"):
                    body = (canonical_json(payload) + "\n").encode()
            wall = time.perf_counter() - start
            root.update(tier=tier, bytes=len(body), lanes=request.mc_batch * request.mc_repeats)
        out.append(Replayed(body, tier, payload, wall))
    return out, time.perf_counter() - begin


def payload_mc_ok(payload: Dict[str, Any]) -> bool:
    mc = payload.get("mc")
    return mc is None or mc_ok(payload["toffoli"], mc["mean"], mc["stderr"])


# --------------------------------------------------------------------------- #
# per-layer numbers from a trace

def summarize_trace(tracer, out: Outcome, walls: Dict[str, float], cache_hit_ratio: float,
                    task_ops: Callable[[str], bool] = lambda op: True) -> None:
    """Fill ``out.layer`` with the per-layer metrics and the report table.

    ``walls`` maps each traced op id to its wall time measured outside
    the spans; the layers' self times in the op, without the self time of
    the op's own root span, must add up to it.  ``task_ops`` selects the
    ops the per-op means are taken over."""
    from repro.sim.dispatch.cost import choose_backend

    from spans import LAYERS

    tracer.self_times()
    spans = tracer.spans
    total = sum(s["dur"] for s in spans if s["parent"] is None)
    # The outermost span of each op (a request, a task, the artifact).
    roots = [s for s in spans
             if s["parent"] is None or spans[s["parent"]]["op"] != s["op"]]

    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out.line("per-layer self time (traced replay)")
    out.line(f"  {'span':<16} {'layer':<34} {'calls':>7} {'self ms':>11} {'share':>7}")
    for name, group in sorted(by_name.items(), key=lambda kv: -sum(s["self"] for s in kv[1])):
        own = sum(s["self"] for s in group)
        out.line(f"  {name:<16} {LAYERS.get(name, name):<34} {len(group):>7} "
                 f"{own * 1e3:>11.2f} {own / total * 100 if total else 0:>6.1f}%")

    # Time inside an op that no layer span covers stays in the root's own
    # self time, so it counts as unattributed.
    root_ids = {s["id"] for s in roots}
    covered: Dict[str, float] = {}
    for s in spans:
        if s["id"] not in root_ids:
            covered[s["op"]] = covered.get(s["op"], 0.0) + s["self"]
    errors = sorted(abs(wall - covered.get(op, 0.0)) / wall
                    for op, wall in walls.items() if wall > 0)
    worst = errors[-1] if errors else 0.0
    out.line(f"  layer self times vs traced wall, over {len(errors)} ops: median off by "
             f"{percentile(errors, 50) * 100:.2f}%, p90 {percentile(errors, 90) * 100:.2f}%, "
             f"worst {worst * 100:.2f}%; {sum(e > 0.1 for e in errors)} ops beyond 10%")

    def mean_self(name: str) -> float:
        ops = {s["op"] for s in roots if task_ops(s["op"])}
        chosen = [s["self"] for s in by_name.get(name, []) if s["op"] in ops]
        return sum(chosen) / len(ops) if ops else 0.0

    def mean_of(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    compute_roots = [s for s in roots if task_ops(s["op"])]
    compute_wall = sum(s["dur"] for s in compute_roots)
    mc_name = "mc" if "mc" in by_name else "estimate"
    compiles = [s for s in by_name.get("compile", []) if task_ops(s["op"])]
    generated = [s for s in by_name.get("codegen", []) if task_ops(s["op"])]
    fresh = {s["parent"] for s in generated}
    instructions = {s["op"]: s["instructions"] for s in compiles if "instructions" in s}
    mc_spans = [s for s in by_name.get(mc_name, []) if task_ops(s["op"])]
    lanes_by_op = {s["op"]: s.get("lanes", 0) for s in roots}
    lane_gates = 0
    mc_self = 0.0
    picks = 0
    for s in mc_spans:
        ops = s.get("instructions", instructions.get(s["op"]))
        lanes = s.get("lanes", lanes_by_op.get(s["op"], 0))
        if ops is None or not lanes:
            continue  # a memory/disk hit has no MC run
        lane_gates += ops * lanes
        mc_self += s["self"]
        if "sharded" in s:
            picks += s["sharded"]
        elif choose_backend(ops=ops, batch=lanes, tally=False, lane_counts=True,
                            candidates=("codegen", "sharded")) == "sharded":
            picks += 1
    codegen_self = sum(s["self"] for s in generated)

    serve_roots = [s for s in roots if s["name"] == "request"]
    tiers = [s.get("tier") for s in serve_roots]
    disk_hits = {s["op"] for s in serve_roots if s.get("tier") == "disk"}
    loads = [s for s in by_name.get("store.load", []) if s["op"] in disk_hits]
    puts = [s for s in by_name.get("store.put", []) if task_ops(s["op"])]
    layer = {
        "api.parse_us": (mean_self("api.parse") * 1e6, "us"),
        "api.fingerprint_us": (mean_self("api.fingerprint") * 1e6, "us"),
        "api.serialize_us": (mean_self("api.serialize") * 1e6, "us"),
        "api.body_bytes": (mean_of([s["bytes"] for s in serve_roots]), "bytes"),
        "store.memory_get_us": (mean_self("store.result") * 1e6, "us"),
        "store.disk_get_us": (mean_of([s["dur"] for s in loads]) * 1e6, "us"),
        "store.put_ms": (mean_of([s["dur"] for s in puts]) * 1e3, "ms"),
        "store.memory_hit_ratio": (tiers.count("memory") / len(tiers) if tiers else 0.0, "ratio"),
        "store.disk_hit_ratio": (tiers.count("disk") / len(tiers) if tiers else 0.0, "ratio"),
        "build.ms": (mean_self("build") * 1e3, "ms"),
        "cache.hit_ratio": (cache_hit_ratio, "ratio"),
        "counts.ms": (mean_self("counts") * 1e3, "ms"),
        "compile.ms": (mean_self("compile") * 1e3, "ms"),
        "compile.instructions": (mean_of([s["instructions"] for s in compiles
                                          if s["id"] in fresh]), "count"),
        "codegen.ms": (mean_self("codegen") * 1e3, "ms"),
        "codegen.source_kb": (mean_of([s["source_bytes"] / 1024 for s in generated]), "KiB"),
        "codegen.share": (codegen_self / compute_wall if compute_wall else 0.0, "ratio"),
        "mc.run_ms": (mean_self(mc_name) * 1e3, "ms"),
        "mc.lane_gates_per_s": (lane_gates / mc_self if mc_self else 0.0, "1/s"),
        "dispatch.sharded_picks": (float(picks), "count"),
        "trace.coverage_err_pct": (worst * 100, "%"),
    }
    out.layer.update(layer)


# --------------------------------------------------------------------------- #
# HTTP-phase bookkeeping shared by the estimate workloads

def report_latency(out: Outcome, label: str, seconds: Sequence[float]) -> Tuple[float, float]:
    ms = [s * 1e3 for s in seconds]
    p50, n, _ = tail(ms, 50)
    p90, _, beyond = tail(ms, 90)
    out.line(f"  {label:<22} p50 {p50:9.3f} ms   p90 {p90:9.3f} ms   "
             f"n={n} ({beyond} beyond p90)")
    return p50, p90


def server_damaged(port: int) -> int:
    """Damaged disk entries (corrupt + stale) the server counted."""
    from serving import BenchError, fresh_connection_get

    reply = fresh_connection_get(port, "/statsz")
    if reply.status != 200:
        raise BenchError(f"/statsz answered {reply.status} {reply.error}")
    tier = json.loads(reply.body)["cache"]["result_tier"]
    return int(tier["corrupt"]) + int(tier["stale"])


# --------------------------------------------------------------------------- #
# estimate-cold

def run_cold(args: argparse.Namespace, run_dir: Path, out: Outcome) -> None:
    import gen
    from repro.service.store import PersistentCircuitCache
    from serving import (BenchError, Server, closed_loop_fresh, estimate_path,
                         fresh_connection_get)

    setups: List[float] = []
    server: Optional[Server] = None
    queries: List[Dict[str, str]] = []

    def paths() -> Iterator[str]:
        for query in gen.cold_stream(args.seed):
            queries.append(query)
            yield estimate_path(query)

    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(["-m", "repro.service", "--port", "0",
                             "--store", str(run_dir / f"store{i}")],
                            SRC, run_dir / f"server{i}.log")
            reply = fresh_connection_get(server.port, estimate_path(gen.warmup_query()))
            if reply.status != 200:
                raise BenchError(f"warm-up request failed: {reply.status} {reply.error}")
            setups.append(time.perf_counter() - start)
        rss: List[float] = []
        start = time.perf_counter()
        replies = closed_loop_fresh(server.port, paths(), args.seconds, len(gen.VARIANTS),
                                    gen.COLD_CYCLE, lambda: rss.append(server.peak_rss_mb()))
        elapsed = time.perf_counter() - start
        damaged = server_damaged(server.port)
    finally:
        if server is not None:
            server.stop()

    # The expected bodies, answered in this process on a fresh store after
    # one untimed request that loads the lazily imported modules.
    replay([gen.warmup_query()], PersistentCircuitCache(run_dir / "imports"))
    expected, plain_wall = replay(queries, PersistentCircuitCache(run_dir / "verify"))
    check_replies(out, replies, [e.body for e in expected], {"computed"})
    out.fail((i for i, e in enumerate(expected) if not payload_mc_ok(e.payload)),
             "MC mean beyond 5 sigma")

    out.line(f"estimate-cold: {len(replies)} requests in {elapsed:.2f} s, "
             f"1 client, new connection per request; peak RSS after "
             f"{min(gen.COLD_CYCLE, len(replies))}")
    p50, p90 = report_latency(out, "cold (computed)", [r.seconds for r in replies])
    ok = sum(r.status == 200 for r in replies)
    out.e2e.update(p50_ms=p50, p90_ms=p90, ops_per_s=ok / elapsed,
                   setup_s=statistics.median(setups), peak_rss_mb=rss[0])
    out.line(f"  [cold_p50_ms={p50:.3f} cold_p90_ms={p90:.3f} cold_per_s={ok / elapsed:.3f}]")
    out.layer["store.damaged"] = (float(damaged), "count")
    out.layer["http.errors"] = (float(sum(r.status != 200 for r in replies)), "count")

    if args.trace:
        from spans import Tracer, TracedStoreCache

        tracer = Tracer()
        cache = TracedStoreCache(tracer, run_dir / "traced")
        traced, traced_wall = replay(queries, cache, tracer)
        out.fail((i for i, (t, e) in enumerate(zip(traced, expected)) if t.body != e.body),
                 "traced replay bytes differ")
        walls = {f"r{i}": t.wall for i, t in enumerate(traced)}
        summarize_trace(tracer, out, walls, cache.stats.hit_ratio)
        out.layer["trace.overhead_pct"] = ((traced_wall / plain_wall - 1) * 100, "%")
        dump_trace(tracer, out)


def check_replies(out: Outcome, replies, expected_bodies: Sequence[bytes],
                  tiers: set) -> None:
    out.attempted += len(replies)
    out.fail((i for i, r in enumerate(replies) if r.status != 200),
             "non-200 or transport error")
    out.fail((i for i, r in enumerate(replies) if r.status == 200 and r.tier not in tiers),
             f"X-Repro-Cache outside {sorted(tiers)}")
    out.fail((i for i, (r, want) in enumerate(zip(replies, expected_bodies))
              if r.status == 200 and r.body != want),
             "body differs from canonical_json in the generator")


# --------------------------------------------------------------------------- #
# estimate-warm

def prefill(keys: Sequence[Dict[str, str]], store: Path) -> List[Replayed]:
    """Write every key's answer into ``store`` through ``serve_estimate``;
    the answers are the expected response bodies."""
    from repro.service.store import PersistentCircuitCache

    answers, _ = replay(keys, PersistentCircuitCache(store))
    return answers


def run_warm(args: argparse.Namespace, run_dir: Path, out: Outcome) -> None:
    import gen
    from repro.service.store import PersistentCircuitCache
    from serving import (BenchError, Server, closed_loop_keepalive, estimate_path,
                         fresh_connection_get)

    keys = gen.warm_keys(args.seed)
    paths = [estimate_path(q) for q in keys]
    setups: List[float] = []
    bodies: List[List[bytes]] = []
    server: Optional[Server] = None
    picked: List[List[int]] = [[], []]

    def stream(slot: int) -> Iterator[str]:
        for index in gen.zipf_stream(args.seed, keys, f"client{slot}"):
            picked[slot].append(index)
            yield paths[index]

    warmup = list(islice(gen.zipf_stream(args.seed, keys, "warmup"), WARM_WARMUP))
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            store = run_dir / f"store{i}"
            answers = prefill(keys, store)
            bodies.append([a.body for a in answers])
            server = Server([str(HERE / "server.py"), "--store", str(store)],
                            SRC, run_dir / f"server{i}.log")
            for index in warmup:
                reply = fresh_connection_get(server.port, paths[index])
                if reply.status != 200 or reply.body != bodies[-1][index]:
                    raise BenchError(f"warm-up request failed: {reply.status} {reply.error}")
            setups.append(time.perf_counter() - start)
        (first, second), elapsed = closed_loop_keepalive(
            server.port, [stream(0), stream(1)], args.seconds)
        damaged = server_damaged(server.port)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    expected = bodies[-1]
    replies = first + second
    reply_keys = picked[0][:len(first)] + picked[1][:len(second)]
    check_replies(out, replies, [expected[k] for k in reply_keys], {"memory", "disk"})

    def fail_keys(bad_keys: set, why: str) -> None:
        out.fail((i for i, k in enumerate(reply_keys) if k in bad_keys), why)

    fail_keys({k for k in range(len(keys)) if any(b[k] != expected[k] for b in bodies)},
              "pre-fill bytes differ between set-ups")
    fail_keys({k for k, a in enumerate(answers) if not payload_mc_ok(a.payload)},
              "MC mean beyond 5 sigma")

    out.line(f"estimate-warm: {len(replies)} requests in {elapsed:.2f} s, "
             f"2 clients on keep-alive connections, {len(keys)} keys, "
             f"memory tier {gen.WARM_RESULT_MAXSIZE}")
    p50, p90 = report_latency(out, "all hits", [r.seconds for r in replies])
    by_tier = {}
    for tier in ("memory", "disk"):
        chosen = [r.seconds for r in replies if r.status == 200 and r.tier == tier]
        t50, t90 = report_latency(out, f"{tier} hits", chosen)
        by_tier[tier] = (t50, t90)
        out.layer[f"{tier}_hit_p50_ms"] = (t50, "ms")
        out.layer[f"{tier}_hit_p90_ms"] = (t90, "ms")
    ok = sum(r.status == 200 for r in replies)
    out.e2e.update(p50_ms=p50, p90_ms=p90, ops_per_s=ok / elapsed,
                   setup_s=statistics.median(setups), peak_rss_mb=rss)
    out.line(f"  [warm_per_s={ok / elapsed:.3f} memory_hit_p50_ms={by_tier['memory'][0]:.3f} "
             f"memory_hit_p90_ms={by_tier['memory'][1]:.3f} "
             f"disk_hit_p50_ms={by_tier['disk'][0]:.3f} disk_hit_p90_ms={by_tier['disk'][1]:.3f}]")
    out.layer["store.damaged"] = (float(damaged), "count")
    out.layer["http.errors"] = (float(sum(r.status != 200 for r in replies)), "count")

    if args.trace:
        from spans import Tracer, TracedStoreCache

        # The HTTP stream in arrival-like order (warm-up, then the two
        # clients interleaved) against the last set-up's store, once plain
        # and once traced, each on a fresh cache object.
        order = [i for pair in zip_longest(range(len(first)), range(len(first), len(replies)))
                 for i in pair if i is not None]
        timed = [reply_keys[i] for i in order]
        store = run_dir / f"store{SETUP_REPEATS - 1}"
        plain = PersistentCircuitCache(store, result_maxsize=gen.WARM_RESULT_MAXSIZE)
        replay([keys[i] for i in warmup], plain)
        _, plain_wall = replay([keys[i] for i in timed], plain)
        tracer = Tracer()
        cache = TracedStoreCache(tracer, store, result_maxsize=gen.WARM_RESULT_MAXSIZE)
        replay([keys[i] for i in warmup], cache)
        tracer.spans.clear()  # the warm-up is not part of the trace
        served, traced_wall = replay([keys[i] for i in timed], cache, tracer)
        out.fail((i for i, a in zip(order, served) if a.body != expected[reply_keys[i]]),
                 "traced replay bytes differ")
        walls = {f"r{i}": s.wall for i, s in enumerate(served)}
        # Nothing is computed while serving: the compute layers read 0.
        summarize_trace(tracer, out, walls, cache.stats.hit_ratio)
        memory = [s.wall * 1e3 for s in served if s.tier == "memory"]
        out.layer["http.overhead_p50_ms"] = (by_tier["memory"][0] - percentile(memory, 50), "ms")
        out.layer["trace.overhead_pct"] = ((traced_wall / plain_wall - 1) * 100, "%")
        dump_trace(tracer, out)


# --------------------------------------------------------------------------- #
# sweep-mc

def probe_setup() -> float:
    """Seconds to spawn an interpreter and import the sweep's modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.pipeline, repro.resources.tables, repro.sim.dispatch"],
                   env=env, check=True, timeout=120, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def artifact_json(result) -> bytes:
    from repro.pipeline.artifacts import sweep_artifact

    return json.dumps(sweep_artifact(result), indent=2).encode()


def one_sweep(config, cache) -> Tuple[Any, float, bytes]:
    """(result, sweep seconds, artifact JSON)."""
    from repro.pipeline import run_sweep

    start = time.perf_counter()
    result = run_sweep(config, cache=cache)
    wall = time.perf_counter() - start
    return result, wall, artifact_json(result)


def check_sweep(out: Outcome, result, run: int) -> None:
    """Count sweep ``run``'s tasks; fail those that failed or whose MC
    columns stray from their exact columns."""
    out.attempted += len(result.task_reports)
    out.fail(((run, r["key"]) for r in result.failures), "sweep task failed")
    rows = [(f"table:{table}:n{n}", row) for table, sizes in result.tables.items()
            for n, rs in sizes.items() for row in rs]
    rows += [(f"modexp:e{row['n_exp']}:n{row['n']}", row) for row in result.modexp]
    out.fail(((run, key) for key, row in rows for col, mean in row.items()
              if col.endswith("_mc")
              and not mc_ok(row[col[:-3]], mean, row[f"{col}_ci95"] / 1.96)),
             "sweep *_mc column beyond 5 sigma of its exact column")


def fail_sweep(out: Outcome, result, run: int, why: str) -> None:
    out.fail(((run, r["key"]) for r in result.task_reports), why)


def run_sweep_mc(args: argparse.Namespace, run_dir: Path, out: Outcome) -> None:
    import gen
    from repro.pipeline.cache import CircuitCache

    setups = [probe_setup() for _ in range(SETUP_REPEATS)]
    config = gen.sweep_config(args.seed)
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < (1 if args.trace else 2) or (
            not args.trace and time.perf_counter() - start < args.seconds):
        sweeps.append(one_sweep(config, CircuitCache()))
    digests = {hashlib.sha256(blob).hexdigest() for _, _, blob in sweeps}
    for run, (result, _, blob) in enumerate(sweeps):
        check_sweep(out, result, run)
        if blob != sweeps[0][2]:
            fail_sweep(out, result, run, "sweep artifact differs between sweeps of one seed")

    task_s = [t["elapsed"] for result, *_ in sweeps for t in result.task_reports]
    walls = [wall for _, wall, _ in sweeps]
    out.line(f"sweep-mc: {len(sweeps)} sweeps x {len(sweeps[0][0].task_reports)} tasks, "
             f"mc_batch={config.mc_batch}, digest {sorted(digests)[0][:16]}")
    report_latency(out, "task latency", task_s)
    p50, p90 = report_latency(out, "sweep latency", walls)
    sweep_s = statistics.median(walls)
    out.line(f"  [sweep_s={sweep_s:.3f} (median of {len(walls)}: "
             f"{', '.join(f'{w:.3f}' for w in walls)})]")
    out.e2e.update(p50_ms=p50, p90_ms=p90, ops_per_s=len(task_s) / sum(walls),
                   setup_s=statistics.median(setups), peak_rss_mb=self_rss_mb())
    result = sweeps[0][0]
    out.layer.update({
        "sweep.tasks": (float(len(result.task_reports)), "count"),
        "sweep.retries": (float(sum(t["attempts"] - 1 for t in result.task_reports)), "count"),
        "sweep_s": (sweep_s, "s"),
    })

    if args.trace:
        from spans import Tracer, TracedCircuitCache

        tracer = Tracer()
        cache = TracedCircuitCache(tracer)
        with traced_sweep_layers(tracer):
            with tracer.span("sweep", op="sweep"):
                traced, traced_wall, _ = one_sweep(config, cache)
            with tracer.span("artifact", op="artifact"):
                blob = artifact_json(traced)
        check_sweep(out, traced, len(sweeps))
        if blob != sweeps[0][2]:
            fail_sweep(out, traced, len(sweeps), "traced sweep artifact differs")
        summarize_trace(tracer, out, {r["key"]: r["elapsed"] for r in traced.task_reports},
                        cache.stats.hit_ratio, lambda op: op not in ("sweep", "artifact"))
        art_span = next(s for s in tracer.spans if s["name"] == "artifact")
        out.layer["artifact.ms"] = (art_span["dur"] * 1e3, "ms")
        out.layer["artifact.bytes"] = (float(len(blob)), "bytes")
        out.layer["trace.overhead_pct"] = ((traced_wall / walls[0] - 1) * 100, "%")
        dump_trace(tracer, out)


@contextmanager
def traced_sweep_layers(tracer) -> Iterator[None]:
    """Wrap the sweep's per-task entry points and the MC call for one
    traced sweep: each task becomes a ``task`` span whose op is the task
    key, table assembly a ``tables`` span, the QFT block counts of the
    Beauregard rows ``counts`` spans and every Monte-Carlo estimate an
    ``mc`` span.  The originals are restored on exit."""
    from repro.pipeline import runner
    from repro.resources import tables
    from repro.sim.dispatch import program_is_flat
    from repro.sim.dispatch.cost import choose_backend

    saved = [(runner, "table_rows_with_mc"), (runner, "modexp_row"),
             (runner, "mc_or_none"), (tables, "mbu_savings"), (tables, "build_table_rows"),
             (tables, "qft_units"), (tables, "pcqft_units")]
    original = {name: getattr(mod, name) for mod, name in saved}

    def task(name: str, key: Callable[..., str]):
        def wrapped(*a, **k):
            with tracer.span("task", op=key(*a, **k)):
                return original[name](*a, **k)
        return wrapped

    def layer(span: str, name: str):
        def wrapped(*a, **k):
            with tracer.span(span):
                return original[name](*a, **k)
        return wrapped

    def mc(built, **k):
        program, batch = k["program"], k["batch"]
        ops = len(program.scalar.instructions)
        sharded = program_is_flat(program) and choose_backend(
            ops=ops, batch=batch, tally=False, lane_counts=True,
            candidates=("codegen", "sharded")) == "sharded"
        with tracer.span("mc", instructions=ops, lanes=batch * k.get("repeats", 1),
                         sharded=int(sharded)):
            return original["mc_or_none"](built, **k)

    runner.table_rows_with_mc = task("table_rows_with_mc", lambda t, n, **_: f"table:{t}:n{n}")
    runner.modexp_row = task("modexp_row", lambda e, n, **_: f"modexp:e{e}:n{n}")
    tables.mbu_savings = task("mbu_savings", lambda n, **_: f"savings:n{n}")
    tables.build_table_rows = layer("tables", "build_table_rows")
    tables.qft_units = layer("counts", "qft_units")
    tables.pcqft_units = layer("counts", "pcqft_units")
    runner.mc_or_none = mc
    try:
        yield
    finally:
        for mod, name in saved:
            setattr(mod, name, original[name])


# --------------------------------------------------------------------------- #
# entry point

def dump_trace(tracer, out: Outcome) -> None:
    path = WORK / "traces" / f"{out.workload}-{os.getpid()}.json"
    tracer.dump(path, tracer.spans[0]["start"] if tracer.spans else 0.0)
    out.line(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


WORKLOADS = {
    "estimate-cold": run_cold,
    "estimate-warm": run_warm,
    "sweep-mc": run_sweep_mc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from serving import BenchError

    out = Outcome(args.workload)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](args, run_dir, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # BENCHMARK.json names the metrics and their units.  A layer the
    # workload bypasses did no work: it reads 0.
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in contract["per_layer"]:
        out.layer.setdefault(metric["name"], (0.0, metric["unit"]))
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for text in out.lines:
        print(text)
    print(f"  attempted={out.attempted} failed={out.failed} "
          f"failed_ratio={out.failed / max(out.attempted, 1):.4f}")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        metrics = {m["name"]: {"value": out.layer[m["name"]][0], "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {"value": out.e2e[m["name"]], "unit": m["unit"]}
                   for m in contract["end_to_end"]}
        for name, metric in metrics.items():
            print(f"  {name:<12} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": out.failed == 0, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
