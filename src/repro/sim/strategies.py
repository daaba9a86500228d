"""Single source of truth for execution-strategy names.

Every layer that names an execution strategy — the ``strategy=``
argument of :func:`repro.sim.api.simulate`,
:meth:`repro.sim.bitplane.BitplaneSimulator.run_compiled`,
:func:`repro.pipeline.montecarlo.mc_expected_counts`, the sweep runner,
:class:`repro.pipeline.jobs.ExecutionPolicy` and the sweep CLI, plus the
cost model in :mod:`repro.sim.dispatch.cost`, the verify oracle's
strategy matrix and the fuzzer's coverage accounting — imports its choice
set from here, so adding a rung to the ladder is a one-line change and
the validation error text can never drift out of sync with what actually
dispatches.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

__all__ = [
    "COMPILED_STRATEGIES",
    "FUSED_KERNELS",
    "LADDER",
    "STRATEGIES",
    "validate_strategy",
]

#: Generated kernels a compiled program executes through: the
#: straight-line bigint kernel and the straight-line numpy kernel.
FUSED_KERNELS: Tuple[str, ...] = ("codegen", "vector")

#: Accepted ``strategy=`` values for bit-plane execution: the engine's
#: op-stream walk, either generated kernel, or ``auto`` (the calibrated
#: cost model picks one).
STRATEGIES: Tuple[str, ...] = ("interpretive",) + FUSED_KERNELS + ("auto",)

#: The subset :meth:`~repro.sim.bitplane.BitplaneSimulator.run_compiled`
#: accepts: it always runs a compiled program, so ``auto`` chooses between
#: the generated kernels only.
COMPILED_STRATEGIES: Tuple[str, ...] = FUSED_KERNELS + ("auto",)

#: The full execution ladder in cost-model order, from slowest-per-lane to
#: most specialized.
LADDER: Tuple[str, ...] = ("classical", "interpretive") + FUSED_KERNELS


def validate_strategy(
    strategy: str, choices: Sequence[str] = STRATEGIES, *, program: Any = None
) -> str:
    """Return ``strategy`` if it is one of ``choices``, else raise
    ``ValueError`` with an error text that enumerates them — the one place
    the choice set is spelled out.

    A compiled ``program`` only runs on a compiled strategy: passing one
    with ``"interpretive"`` raises rather than silently ignoring it.
    """
    if strategy not in choices:
        raise ValueError(
            f"unknown execution strategy {strategy!r}; "
            f"options: {', '.join(repr(s) for s in choices)}"
        )
    if strategy == "interpretive" and program is not None:
        raise ValueError(
            "program= is a compiled program; the interpretive strategy "
            "walks the circuit itself — pick a compiled strategy"
        )
    return strategy
