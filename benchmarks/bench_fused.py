"""Fused-kernel VM vs the interpretive walk, plus pipeline-level reuse.

Two layers of measurement, both written to ``benchmarks/BENCH_fused.json``:

* **Kernel level** — the MBU modular adder through three execution
  strategies (interpretive walk, fused generated bigint kernel, fused
  generated numpy vector kernel) at n = 64, 256 and batch = 1024/4096,
  tally off and on.  The acceptance bar is fused (codegen) >= 2x over the
  interpretive walk at n = 256, batch = 4096 (n = 64, batch = 1024 in the
  smoke configuration); ``test_report_fused`` asserts it.  One-off
  compile/fuse/kernel-
  generation times are reported separately — a sweep pays them once.
* **Pipeline level** — ``mc_expected_counts`` at paper scale: one
  compiled program re-run across every repetition on one reset simulator
  (the new default) against the per-repetition interpretive rebuild
  (PR 2's path).  This is the number that moves end-to-end sweep wall
  time, not just microbenchmarks.

Set ``BENCH_FUSED_SMOKE=1`` to run the reduced CI configuration (small
case only) — the ``perf-smoke`` CI job does.
"""

import time

import pytest

from _harness import (
    best_of,
    env_flag,
    power_inputs,
    prepared,
    spot_check_modadd,
    write_artifact,
)
from repro.modular import build_modadd
from repro.pipeline.montecarlo import mc_expected_counts
from repro.transform import compile_program, fuse_program

SMOKE = env_flag("BENCH_FUSED_SMOKE")
CASES = [(64, 1024)] if SMOKE else [(64, 1024), (64, 4096), (256, 4096)]
#: Fused-vs-interpretive floor asserted by the report test (per case key).
FLOORS = {"n64_B1024": 2.0} if SMOKE else {"n256_B4096": 2.0}
MC_CONFIG = (16, 256, 4) if SMOKE else (64, 2048, 8)   # (n, batch, repeats)

_RESULTS = {}
_PIPELINE = {}


@pytest.mark.parametrize("n,batch", CASES)
def test_fused_throughput(benchmark, n, batch):
    p = (1 << n) - 59
    built = build_modadd(n, p, "cdkpm", mbu=True)
    xs, ys = power_inputs(p, batch)

    t0 = time.perf_counter()
    program = compile_program(built.circuit, tally=False)
    compile_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused = fuse_program(program)
    fuse_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused.kernel(events=False)
    kernel_seconds = time.perf_counter() - t0
    program_tally = compile_program(built.circuit, tally=True)
    fused_tally = fuse_program(program_tally)
    fused_tally.kernel(events=True)

    def run_fused():
        sim = prepared(built.circuit, batch, xs, ys)
        sim.run_compiled(fused)
        return sim

    sim = benchmark(run_fused)
    spot_check_modadd(sim, xs, ys, p, batch)

    def best(execute, tally=False, rounds=5):
        return best_of(
            lambda: prepared(built.circuit, batch, xs, ys, tally=tally),
            execute, rounds=rounds,
        )

    interp = best(lambda sim: sim.run())
    codegen = best(lambda sim: sim.run_compiled(fused))
    vector = best(lambda sim: sim.run_compiled(fused, strategy="vector"))
    interp_tally = best(lambda sim: sim.run(), tally=True)
    codegen_tally = best(lambda sim: sim.run_compiled(fused_tally), tally=True)

    stats = fused.fusion_stats()
    _RESULTS[f"n{n}_B{batch}"] = {
        "n": n,
        "batch": batch,
        "instructions": len(program),
        "fusion_stats": stats,
        "compile_seconds": compile_seconds,
        "fuse_seconds": fuse_seconds,
        "kernel_generation_seconds": kernel_seconds,
        "interpretive_seconds": interp,
        "fused_codegen_seconds": codegen,
        "fused_vector_seconds": vector,
        "speedup_vs_interpretive": interp / codegen,
        "vector_vs_interpretive": interp / vector,
        "interpretive_tally_seconds": interp_tally,
        "fused_tally_seconds": codegen_tally,
        "speedup_tally_vs_interpretive": interp_tally / codegen_tally,
    }


def test_mc_program_reuse(benchmark):
    """Pipeline-level: one compiled program + reset buffers across MC
    repetitions vs the per-repetition interpretive rebuild."""
    n, mc_batch, repeats = MC_CONFIG
    p = (1 << n) - 59
    built = build_modadd(n, p, "cdkpm", mbu=True)
    kwargs = dict(batch=mc_batch, repeats=repeats, seed=11, gates=("ccx", "ccz"))

    # warm (compile + kernel outside the timed comparison; reuse is the point)
    fused = fuse_program(compile_program(built.circuit, tally=True))
    fused.kernel(events=True)

    compiled_est = benchmark(lambda: mc_expected_counts(built, program=fused, **kwargs))
    t0 = time.perf_counter()
    interp_est = mc_expected_counts(built, strategy="interpretive", **kwargs)
    interp_seconds = time.perf_counter() - t0
    assert compiled_est.mean == interp_est.mean  # bit-identical estimates

    fresh = mc_expected_counts(built, **kwargs)  # includes one-off compile
    _PIPELINE.update({
        "n": n,
        "mc_batch": mc_batch,
        "mc_repeats": repeats,
        "interpretive_seconds": interp_seconds,
        "compiled_run_seconds": compiled_est.run_seconds,
        "compile_once_seconds": fresh.compile_seconds,
        "end_to_end_speedup": interp_seconds / (compiled_est.run_seconds or 1e-12),
        "samples": compiled_est.samples,
        "mean": str(compiled_est.mean),
    })


def test_report_fused(benchmark, capsys):
    from conftest import print_once

    if not _RESULTS:  # throughput cases filtered out (-k/-x): keep old JSON
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return
    payload = {
        "benchmark": "fused_vs_interpretive_bitplane",
        "circuit": "modadd[cdkpm, mbu=True]",
        "smoke": SMOKE,
        "results": _RESULTS,
        "mc_program_reuse": _PIPELINE,
    }
    out_path = write_artifact(__file__, "BENCH_fused.json", payload)

    lines = ["Fused kernels vs interpretive walk (BitplaneSimulator):"]
    for key, row in _RESULTS.items():
        lines.append(
            f"  {key:10s} interp={row['interpretive_seconds']*1e3:8.2f} ms  "
            f"fused={row['fused_codegen_seconds']*1e3:8.2f} ms  "
            f"speedup={row['speedup_vs_interpretive']:5.2f}x  "
            f"(tally on: {row['speedup_tally_vs_interpretive']:5.2f}x, "
            f"vector: {row['vector_vs_interpretive']:5.2f}x)"
        )
    if _PIPELINE:
        lines.append(
            f"  mc reuse (n={_PIPELINE['n']}, {_PIPELINE['mc_repeats']} reps x "
            f"{_PIPELINE['mc_batch']} lanes): interpretive="
            f"{_PIPELINE['interpretive_seconds']*1e3:.1f} ms  compiled(reused)="
            f"{_PIPELINE['compiled_run_seconds']*1e3:.1f} ms  "
            f"-> {_PIPELINE['end_to_end_speedup']:.1f}x"
        )
    lines.append(f"  -> {out_path.name}")
    print_once(benchmark, capsys, "\n".join(lines))

    for key, floor in FLOORS.items():
        if key in _RESULTS:  # absent under -k filtering
            assert _RESULTS[key]["speedup_vs_interpretive"] >= floor, (
                f"{key}: fused/interpretive speedup "
                f"{_RESULTS[key]['speedup_vs_interpretive']:.2f}x below floor {floor}x"
            )
    if _PIPELINE:
        assert _PIPELINE["end_to_end_speedup"] >= 2.0
