"""Compiled vs interpretive bit-plane execution throughput.

Measures the wall-clock cost of running the MBU modular adder through
``BitplaneSimulator.run()`` (the interpretive ``ExecutionEngine`` walk)
against ``run_compiled()`` (a ``repro.transform.compile_program`` program
through the default ``codegen`` kernel) at n = 64, 256 and batch = 1024,
4096, and writes the machine-readable ``benchmarks/BENCH_transform.json``.
One-off compile time is reported separately — a sweep compiles once and
runs many batches.

The acceptance bar for the compiled path is a >= 2x speedup over the
interpretive walk at n = 64, batch = 4096 (tally off);
``test_report_transform`` asserts it.
"""

import time

import pytest

from _harness import (
    best_of,
    power_inputs,
    prepared,
    spot_check_modadd,
    write_artifact,
)
from repro.modular import build_modadd
from repro.transform import compile_program, fuse_program

CASES = [(64, 1024), (64, 4096), (256, 4096)]

_RESULTS = {}


@pytest.mark.parametrize("n,batch", CASES)
def test_transform_throughput(benchmark, n, batch):
    p = (1 << n) - 59
    built = build_modadd(n, p, "cdkpm", mbu=True)
    xs, ys = power_inputs(p, batch)

    t0 = time.perf_counter()
    program = compile_program(built.circuit, tally=False)
    compile_seconds = time.perf_counter() - t0
    # Fusion and kernel generation are one-off work too: keep them out of
    # the timed runs.
    fused = fuse_program(program)
    fused.kernel(events=False)
    fused_tally = fuse_program(compile_program(built.circuit, tally=True))
    fused_tally.kernel(events=True)

    def run_compiled():
        sim = prepared(built.circuit, batch, xs, ys)
        sim.run_compiled(fused)
        return sim

    sim = benchmark(run_compiled)
    spot_check_modadd(sim, xs, ys, p, batch)

    def best(execute, tally=False, rounds=3):
        return best_of(
            lambda: prepared(built.circuit, batch, xs, ys, tally=tally),
            execute, rounds=rounds,
        )

    interp = best(lambda sim: sim.run())
    compiled = best(lambda sim: sim.run_compiled(fused))
    interp_tally = best(lambda sim: sim.run(), tally=True)
    compiled_tally = best(lambda sim: sim.run_compiled(fused_tally), tally=True)

    _RESULTS[f"n{n}_B{batch}"] = {
        "n": n,
        "batch": batch,
        "instructions": len(program),
        "compile_seconds": compile_seconds,
        "interpretive_seconds": interp,
        "compiled_seconds": compiled,
        "speedup": interp / compiled,
        "interpretive_tally_seconds": interp_tally,
        "compiled_tally_seconds": compiled_tally,
        "speedup_tally": interp_tally / compiled_tally,
    }


def test_report_transform(benchmark, capsys):
    from conftest import print_once

    if not _RESULTS:  # throughput cases filtered out (-k/-x): keep old JSON
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return
    payload = {
        "benchmark": "compiled_vs_interpretive_bitplane",
        "circuit": "modadd[cdkpm, mbu=True]",
        "results": _RESULTS,
    }
    out_path = write_artifact(__file__, "BENCH_transform.json", payload)

    lines = ["Compiled program vs interpretive walk (BitplaneSimulator):"]
    for key, row in _RESULTS.items():
        lines.append(
            f"  {key:10s} interp={row['interpretive_seconds']*1e3:8.2f} ms  "
            f"compiled={row['compiled_seconds']*1e3:8.2f} ms  "
            f"speedup={row['speedup']:5.2f}x  "
            f"(tally on: {row['speedup_tally']:5.2f}x)"
        )
    lines.append(f"  -> {out_path.name}")
    print_once(benchmark, capsys, "\n".join(lines))

    key = "n64_B4096"
    if key in _RESULTS:  # absent under -k filtering
        assert _RESULTS[key]["speedup"] >= 2
