"""Measurement-outcome providers.

All simulators draw measurement outcomes from an :class:`OutcomeProvider`,
so tests can (a) seed randomness reproducibly, (b) force a specific branch
sequence (e.g. "every MBU correction fires" / "no correction fires"), or
(c) enumerate branches exhaustively.

Seeding contract
----------------
Random-mode reproducibility is guaranteed end to end:

* :class:`RandomOutcomes` is a seeded Mersenne-Twister stream; the same
  seed always yields the same outcome (and per-lane bitmask) sequence,
  on every platform and supported Python version.
* When no provider is given, the execution engine defaults to
  ``RandomOutcomes(0)`` — runs are deterministic *by default*, never
  seeded from wall-clock entropy.
* :func:`repro.sim.simulate` accepts ``seed=<int>`` as shorthand for
  ``outcomes=RandomOutcomes(seed)`` (passing both is an error), so a
  caller can thread one integer through an entire experiment.
* The pipeline layer derives independent per-task seeds with
  :func:`repro.pipeline.derive_seed` (SHA-256 of the task key), so a
  sweep's results do not depend on worker scheduling order.

Composition: :class:`repro.noise.NoisyOutcomes` wraps any provider here and
XORs seeded Bernoulli flips into its sampled outcomes (faulty measurements);
it is a provider itself, so wrappers nest.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

__all__ = [
    "OutcomeProvider",
    "RandomOutcomes",
    "ForcedOutcomes",
    "ConstantOutcomes",
]

_TOL = 1e-9


class OutcomeProvider:
    """Interface: produce a 0/1 outcome given the probability of 1."""

    def sample(self, p_one: float) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def sample_lanes(self, p_one: float, lanes: int) -> int:
        """Batch outcomes for ``lanes`` simulation lanes, as an integer
        bitmask whose bit ``b`` is lane ``b``'s outcome.

        The default draws *one* outcome and broadcasts it to every lane, so
        scripted providers (:class:`ForcedOutcomes`, :class:`ConstantOutcomes`)
        consume exactly one script entry per measurement event and all lanes
        share the same branch — the contract the cross-backend tests rely on.
        :class:`RandomOutcomes` overrides this with independent per-lane draws.
        """
        return ((1 << lanes) - 1) if self.sample(p_one) else 0

    def reset(self) -> None:  # pragma: no cover - optional
        pass


class RandomOutcomes(OutcomeProvider):
    """Seeded pseudo-random outcomes (the default)."""

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def sample(self, p_one: float) -> int:
        return 1 if self._rng.random() < p_one else 0

    def sample_lanes(self, p_one: float, lanes: int) -> int:
        if p_one == 0.5:  # the MBU / X-measurement case: one fast bulk draw
            return self._rng.getrandbits(lanes)
        mask = 0
        for b in range(lanes):
            if self._rng.random() < p_one:
                mask |= 1 << b
        return mask

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class ConstantOutcomes(OutcomeProvider):
    """Always returns ``value`` when both outcomes are possible.

    ``ConstantOutcomes(1)`` forces every MBU correction branch to run;
    ``ConstantOutcomes(0)`` forces the lucky branch.  If the requested
    outcome has (numerically) zero probability the other one is returned,
    because forcing an impossible outcome is not physical.
    """

    def __init__(self, value: int) -> None:
        if value not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        self.value = value

    def sample(self, p_one: float) -> int:
        if self.value == 1:
            return 1 if p_one > _TOL else 0
        return 0 if p_one < 1.0 - _TOL else 1


class ForcedOutcomes(OutcomeProvider):
    """Replay an explicit outcome sequence (error when exhausted).

    Raises :class:`ImpossibleOutcomeError` if a forced outcome has zero
    probability — that catches tests that force a branch which the circuit
    can never take.
    """

    def __init__(self, outcomes: Iterable[int]) -> None:
        self._script: List[int] = list(outcomes)
        self._cursor = 0

    def sample(self, p_one: float) -> int:
        if self._cursor >= len(self._script):
            raise IndexError("forced outcome sequence exhausted")
        outcome = self._script[self._cursor]
        self._cursor += 1
        if outcome == 1 and p_one <= _TOL:
            raise ImpossibleOutcomeError("forced outcome 1 has probability ~0")
        if outcome == 0 and p_one >= 1.0 - _TOL:
            raise ImpossibleOutcomeError("forced outcome 0 has probability ~0")
        return outcome

    def reset(self) -> None:
        self._cursor = 0

    @property
    def consumed(self) -> int:
        return self._cursor


class ImpossibleOutcomeError(RuntimeError):
    """A forced measurement outcome had (numerically) zero probability."""
