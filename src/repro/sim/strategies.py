"""Single source of truth for execution-strategy names.

Every layer that names an execution strategy — the ``kernels=`` argument
of :meth:`repro.sim.bitplane.BitplaneSimulator.run_compiled` and
:func:`repro.sim.api.simulate`, the cost model in
:mod:`repro.sim.dispatch.cost`, the verify oracle's strategy matrix and
the fuzzer's coverage accounting — imports its choice set from here, so
adding a rung to the ladder is a one-line change and the validation
error text can never drift out of sync with what actually dispatches.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "FUSED_KERNELS",
    "KERNEL_CHOICES",
    "LADDER",
    "validate_kernels",
]

#: Fused kernel strategies ``run_compiled(kernels=...)`` executes directly:
#: the generated straight-line bigint kernel and the generated
#: straight-line numpy kernel.
FUSED_KERNELS: Tuple[str, ...] = ("codegen", "vector")

#: Accepted ``kernels=`` values (``None`` means the default, ``codegen``).
KERNEL_CHOICES: Tuple[str, ...] = ("auto",) + FUSED_KERNELS

#: The full execution ladder in cost-model order, from slowest-per-lane to
#: most specialized.
LADDER: Tuple[str, ...] = ("classical", "interpretive", "scalar") + FUSED_KERNELS


def validate_kernels(kernels: Optional[str]) -> None:
    """Raise ``ValueError`` unless ``kernels`` names a fused strategy.

    ``None`` is accepted (the caller's default resolves to ``codegen``).
    The error text enumerates :data:`KERNEL_CHOICES` — the one place the
    choice set is spelled out.
    """
    if kernels is not None and kernels not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown fused kernel strategy {kernels!r}; "
            f"options: {', '.join(repr(k) for k in KERNEL_CHOICES)}"
        )
