"""Differential verification: random circuits, an equivalence oracle, a shrinker.

Every layer of the backend ladder — the interpretive engine walk, the
generated codegen and vector kernels and the cost-model dispatch — and every
registered :mod:`repro.transform` rewrite must preserve circuit semantics
for *all* measurement-outcome streams.  This package turns that claim into
a standing, systematic test harness instead of a pile of hand-rolled
randomized tests:

:mod:`repro.verify.generate`
    Seeded random circuit generator: mixed Gate/Conditional/MBUBlock/
    garbage circuits, pure reversible circuits, marked uncompute-oracle
    circuits and sampled :mod:`repro.arithmetic` builder circuits, with
    tunable width, depth and nesting.
:mod:`repro.verify.oracle`
    The equivalence oracle: runs a circuit through every execution
    strategy (classical, bitplane interpretive, fused codegen, fused
    vector, cost-model auto) and every registered transform
    pipeline with
    scripted outcome providers, comparing final states, classical bits,
    executed-gate tallies, per-lane tallies and outcome-stream
    consumption.  Produces a coverage *matrix* over
    (strategy × transform) cells.
:mod:`repro.verify.shrink`
    Delta-debugging shrinker: reduces any failing circuit to a minimal
    reproducer and renders it as a paste-ready regression test.
:mod:`repro.verify.fuzz` / ``python -m repro.verify`` / ``tools/fuzz.py``
    The budgeted fuzz loop tying the three together — a seconds-long
    tier-1 smoke or a longer CI job (see the ``fuzz-smoke`` workflow).

See ``docs/verification.md`` for the generator knobs, the oracle matrix
semantics and the workflow for reproducing a CI fuzz failure.
"""

from .generate import (
    FLAVORS,
    GeneratedCase,
    GeneratorConfig,
    random_case,
    random_lane_inputs,
    random_mixed_circuit,
    random_oracle_circuit,
    random_reversible_circuit,
    seed_sequence,
)
from .oracle import (
    STRATEGIES,
    TRANSFORMS,
    Mismatch,
    OracleReport,
    check_case,
    check_circuit,
)
from .shrink import ShrinkResult, render_regression_test, shrink_circuit
from .fuzz import FuzzFailure, FuzzStats, run_fuzz

__all__ = [
    "FLAVORS",
    "GeneratedCase",
    "GeneratorConfig",
    "random_case",
    "random_lane_inputs",
    "random_mixed_circuit",
    "random_oracle_circuit",
    "random_reversible_circuit",
    "seed_sequence",
    "STRATEGIES",
    "TRANSFORMS",
    "Mismatch",
    "OracleReport",
    "check_case",
    "check_circuit",
    "ShrinkResult",
    "render_regression_test",
    "shrink_circuit",
    "FuzzFailure",
    "FuzzStats",
    "run_fuzz",
]
