"""repro — reproduction of "Measurement-based uncomputation of quantum
circuits for modular arithmetic" (Luongo, Miti, Narasimhachar, Sireesh;
DAC 2025, arXiv:2407.20167).

The package provides:

* ``repro.circuits`` — a small quantum-circuit IR with measurement,
  classical feedback, MBU blocks, resource accounting and ASCII rendering;
* ``repro.sim`` — statevector and classical basis-state simulators;
* ``repro.boolarith`` — the appendix-A bit-string reference model;
* ``repro.arithmetic`` — all section-2 adders/subtractors/comparators
  (VBE, CDKPM, Gidney, Draper) with controlled / by-constant variants;
* ``repro.modular`` — all section-3 modular adders (VBE architecture,
  Takahashi, Beauregard) and their controlled / by-constant variants;
* ``repro.mbu`` — Lemma 4.1 and every section-4 MBU-optimised circuit;
* ``repro.transform`` — compiler passes over the IR (Lemma 4.1 as the
  ``insert_mbu`` rewrite, Toffoli lowering, Clifford+T decomposition,
  peephole cancellation, inversion) plus linear-program compilation for
  the bit-plane backend;
* ``repro.resources`` — the paper's cost formulas and Table 1-6 regeneration;
* ``repro.extensions`` — modular multiplication / exponentiation built on
  top of the (MBU) modular adders (the paper's future-work direction);
* ``repro.pipeline`` — cached, parallel reproduction sweeps with
  Monte-Carlo expected-cost checks and versioned JSON/markdown artifacts;
* ``repro.verify`` — differential verification: seeded random circuit
  generation, an equivalence oracle over every execution strategy and
  transform pass, and a shrinking fuzzer (``python -m repro.verify``);
* ``repro.noise`` — seeded noise injection: faulty measurement outcomes
  (``NoisyOutcomes``) and per-lane bit-flip channels at annotated noise
  points, deterministic across every backend.
"""

__version__ = "1.6.0"

from . import (
    arithmetic,
    boolarith,
    circuits,
    extensions,
    mbu,
    modular,
    noise,
    pipeline,
    resources,
    sim,
    transform,
    verify,
)

__all__ = [
    "arithmetic",
    "boolarith",
    "circuits",
    "extensions",
    "mbu",
    "modular",
    "noise",
    "pipeline",
    "resources",
    "sim",
    "transform",
    "verify",
    "__version__",
]
