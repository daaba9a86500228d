"""Circuit transformation layer: compiler passes over the :mod:`repro.circuits` IR.

The paper's central move (Lemma 4.1, thms 4.2-4.12) is a circuit-to-circuit
transformation — replace coherent uncomputation with measurement plus
classically-conditioned correction.  This package represents such
transformations explicitly, Reqomp-style, as registered rewrite passes:

===========================  =================================================
``invert``                   whole-circuit adjoint (recursing into
                             conditional bodies)
``insert_mbu``               Lemma 4.1 / Gidney fig-11 as a rewrite over the
                             builders' marked reference uncomputations
``lower_toffoli``            ccx -> temporary logical-AND compute +
                             measurement-based uncompute (Gidney figs 10-11)
``decompose_clifford_t``     ccx/ccz/cswap -> the exact 7-T Clifford+T
                             network (exact T-counts for ``repro.resources``)
``cancel_adjacent``          peephole elimination of adjacent inverse pairs
===========================  =================================================

Compose passes with :class:`PassManager` / :func:`apply_transforms`, or let
the entry points do it: ``repro.sim.simulate(..., transforms=[...])``, the
pipeline's ``CircuitSpec(transforms=...)`` cache key and the CLI
``--transform`` flag all accept the registered names.

:func:`compile_program` is the second half of the layer: it flattens a
(possibly transformed) circuit into a linear instruction stream with
pre-resolved control flow, which
:meth:`repro.sim.bitplane.BitplaneSimulator.run_compiled` executes several
times faster than the interpretive op-stream walk (see
``benchmarks/BENCH_transform.json``).  :func:`fuse_program` is the third:
it regroups the stream into a :class:`FusedProgram` of same-opcode
superinstructions with per-scope tally aggregation, which the fused
kernels in :mod:`repro.sim.kernels` execute array-at-a-time (see
``benchmarks/BENCH_fused.json`` and ``docs/performance.md``).
"""

from .base import (
    PASSES,
    Pass,
    PassManager,
    apply_transforms,
    available_passes,
    parse_transform_chain,
    register_pass,
    resolve_pass,
)
from .compile import (
    CompiledProgram,
    FusedProgram,
    FusedRun,
    FusedScope,
    compile_program,
    fuse_program,
)
from .passes import (
    CancelAdjacentPass,
    DecomposeCliffordTPass,
    InsertMBUPass,
    InvertPass,
    LowerToffoliPass,
)

__all__ = [
    "Pass",
    "PassManager",
    "PASSES",
    "register_pass",
    "resolve_pass",
    "available_passes",
    "apply_transforms",
    "parse_transform_chain",
    "InvertPass",
    "InsertMBUPass",
    "LowerToffoliPass",
    "DecomposeCliffordTPass",
    "CancelAdjacentPass",
    "CompiledProgram",
    "compile_program",
    "FusedProgram",
    "FusedRun",
    "FusedScope",
    "fuse_program",
]
