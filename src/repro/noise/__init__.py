"""Noise injection for the simulators: faulty outcomes and bit-flip channels.

The paper's Tables 1-6 assume perfect measurements; this package supplies
the two noise mechanisms needed to ask "does the protocol still work when
they are not", at Monte-Carlo scale:

:class:`NoisyOutcomes`
    Wraps any :class:`~repro.sim.outcomes.OutcomeProvider` and flips each
    sampled measurement outcome independently with probability ``rate``,
    drawn from a *separate* seeded flip stream.  Because X-basis
    measurements and MBU headers are the only operations that consume the
    outcome provider, this models a faulty measurement *record*: the
    classical bit (and the post-measurement state the simulators assign)
    disagrees with what an ideal apparatus would have reported.  It
    composes with ``Forced``/``Constant``/``Random`` providers, so noisy
    runs work on every execution rung.

:class:`NoiseConfig` + :func:`insert_noise_points`
    Per-lane bit-flip channels in the state itself.  A *noise point* is an
    ``Annotation("noise", str(qubit))`` in the circuit IR; every backend
    XORs a seeded Bernoulli(``rate``) mask into that qubit's plane when it
    reaches the point.  :func:`insert_noise_points` places one point after
    each measurement (on the measured qubit) and after each top-level MBU
    block (on the just-reset garbage qubit) — the residual-error model for
    a faulty measurement apparatus.  Pass ``noise=NoiseConfig(rate, seed)``
    to :func:`repro.sim.simulate` (any backend) or to the bitplane runner
    directly.

Seeding contract: both mechanisms draw from their own
:class:`~repro.sim.outcomes.RandomOutcomes` stream, independent of the
measurement-outcome stream, so ``rate=0.0`` consumes *zero* flip entropy
and is bit-identical to no noise, and a fixed ``(seed, rate)`` produces
identical results across all execution strategies (see ``docs/noise.md``).

:mod:`repro.pipeline.noise` builds the protocol success / postselection
analysis on top of these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuits.circuit import Circuit
from ..circuits.ops import Annotation, MBUBlock, Measurement, Operation
from ..sim.outcomes import OutcomeProvider, RandomOutcomes

__all__ = [
    "NoiseConfig",
    "NoisyOutcomes",
    "insert_noise_points",
    "noise_points",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Bit-flip channel parameters: per-lane flip probability and seed.

    ``rate`` is the independent per-lane, per-noise-point flip probability;
    ``seed`` seeds the channel's own
    :class:`~repro.sim.outcomes.RandomOutcomes` stream (independent of the
    measurement-outcome stream).  ``rate=0.0`` is exactly no noise: the
    channel stream is never constructed, let alone consumed.  The dataclass
    is frozen and hashable so it can ride in memo keys unchanged.
    """

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"noise rate must lie in [0, 1], got {self.rate}")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0


class NoisyOutcomes(OutcomeProvider):
    """Flip a wrapped provider's sampled outcomes at a seeded rate.

    Every outcome drawn from ``inner`` is XOR'd with an independent
    Bernoulli(``rate``) flip from a dedicated ``RandomOutcomes(seed)``
    stream — per lane for vectorized draws.  ``rate=0.0`` draws nothing
    from the flip stream, so the composite is bit-identical to the bare
    ``inner`` provider.
    """

    def __init__(
        self, inner: OutcomeProvider, rate: float, seed: int = 0
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must lie in [0, 1], got {rate}")
        self.inner = inner
        self.rate = rate
        self.seed = seed
        self._flips = RandomOutcomes(seed)

    def sample(self, p_one: float) -> int:
        outcome = self.inner.sample(p_one)
        if self.rate:
            outcome ^= self._flips.sample(self.rate)
        return outcome

    def sample_lanes(self, p_one: float, lanes: int) -> int:
        mask = self.inner.sample_lanes(p_one, lanes)
        if self.rate:
            mask ^= self._flips.sample_lanes(self.rate, lanes)
        return mask

    def reset(self) -> None:
        self.inner.reset()
        self._flips = RandomOutcomes(self.seed)

    @property
    def consumed(self) -> Optional[int]:
        """Outcome events drawn, when the wrapped provider tracks them."""
        return getattr(self.inner, "consumed", None)


def noise_points(circuit: Circuit) -> Tuple[int, ...]:
    """The qubits targeted by the circuit's noise points, in stream order
    (one entry per ``Annotation('noise', q)``, top level only — where
    :func:`insert_noise_points` puts them)."""
    return tuple(
        int(op.label)
        for op in circuit.ops
        if isinstance(op, Annotation) and op.kind == "noise"
    )


def insert_noise_points(circuit: Circuit, name: str | None = None) -> Circuit:
    """A copy of ``circuit`` with a bit-flip noise point after every
    measurement event.

    Models a faulty measurement apparatus leaving a residual error on the
    qubit it touched: an ``Annotation("noise", str(q))`` is inserted after
    each top-level :class:`~repro.circuits.ops.Measurement` (on the
    measured qubit) and after each top-level
    :class:`~repro.circuits.ops.MBUBlock` (on the just-reset garbage
    qubit).  Coherently-uncomputed circuits have no measurements, hence no
    noise points — which is exactly the MBU-vs-coherent sensitivity
    comparison the pipeline's noise table draws.

    Points go at the top level only (never inside conditional or MBU
    bodies), so every lane of every execution strategy reaches every
    noise point.
    """
    out = circuit.copy_empty(
        name if name is not None else f"noisy({circuit.name})"
    )
    ops: List[Operation] = []
    for op in circuit.ops:
        ops.append(op)
        if isinstance(op, Measurement):
            ops.append(Annotation("noise", str(op.qubit)))
        elif isinstance(op, MBUBlock):
            ops.append(Annotation("noise", str(op.qubit)))
    out.extend(ops)
    return out
