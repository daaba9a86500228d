"""Shared measurement helpers for the ``bench_*`` modules.

Every throughput benchmark in this directory follows the same recipe:
build the MBU modular adder, fill its registers with *full-entropy*
values, time the execution step alone (state preparation is identical
for every strategy and excluded), spot-check the arithmetic, and write
a machine-readable ``BENCH_*.json`` artifact next to the module.  This
module owns those pieces so the recipes stay identical across benches.

Full-entropy inputs matter: CPython's adaptive bigints make all-zero
planes nearly free for the codegen strategy while the numpy vector
kernel always processes full rows — benchmarks on zero registers
flatter the bigint rungs and are not honest comparisons.
"""

import json
import os
import time
from pathlib import Path

from repro.sim import BitplaneSimulator, RandomOutcomes

__all__ = [
    "best_of",
    "env_flag",
    "power_inputs",
    "prepared",
    "spot_check_modadd",
    "write_artifact",
]


def env_flag(name: str) -> bool:
    """True when the named environment toggle is set (CI smoke modes)."""
    return bool(os.environ.get(name))


def power_inputs(p, batch):
    """Deterministic full-entropy register lanes: powers of two coprime
    generators mod ``p``, so every plane row carries real bit traffic."""
    xs = [pow(3, i + 1, p) for i in range(batch)]
    ys = [pow(5, i + 1, p) for i in range(batch)]
    return xs, ys


def prepared(circuit, batch, xs, ys, *, tally=False, lane_counts=None, seed=7):
    """A simulator with ``x``/``y`` loaded — the shared starting state every
    timed execution strategy runs from."""
    sim = BitplaneSimulator(
        circuit, batch=batch, outcomes=RandomOutcomes(seed), tally=tally,
        lane_counts=lane_counts,
    )
    sim.set_register("x", xs)
    sim.set_register("y", ys)
    return sim


def best_of(make_sim, execute, rounds=5):
    """Best-of wall clock of the execution step alone.

    A fresh prepared simulator per round (execution mutates state), the
    minimum over rounds as the noise-robust statistic — this box's timer
    jitter is easily 30% between runs.
    """
    times = []
    for _ in range(rounds):
        sim = make_sim()
        t0 = time.perf_counter()
        execute(sim)
        times.append(time.perf_counter() - t0)
    return min(times)


def spot_check_modadd(sim, xs, ys, p, batch):
    """Sampled correctness check: a benchmark that computes the wrong sum
    measures nothing."""
    out = sim.get_register("y")
    for lane in range(0, batch, max(1, batch // 16)):
        assert out[lane] == (xs[lane] + ys[lane]) % p


def write_artifact(module_file, name, payload) -> Path:
    """Write a ``BENCH_*.json`` artifact next to the benchmark module."""
    out_path = Path(module_file).with_name(name)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return out_path
