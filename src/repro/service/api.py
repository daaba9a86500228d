"""Estimate requests: parsing, deterministic payloads, the cache-hot path.

An :class:`EstimateRequest` is the service's unit of query — "estimate
resources for modexp n=8 with MBU, 4 Monte-Carlo repeats" — normalized
into the same frozen shape whether it arrived as JSON (``POST
/estimate``) or query parameters (``GET /estimate?kind=modexp&n=8&...``).
Normalization matters because the request's :meth:`~EstimateRequest.fingerprint`
is the cache key: two spellings of the same question must hash alike.

:func:`compute_estimate` produces a fully deterministic payload — exact
expected-mode gate counts (Fractions preserved), qubit/ancilla widths,
and (where the circuit has basis-state semantics) a Monte-Carlo estimate
whose stream is seeded by request content via
:func:`~repro.pipeline.montecarlo.derive_seed`.  Nothing that depends
on time, workers or the execution strategy enters the payload, which is
what makes the service's consistency contract possible: a repeated
request is served from cache byte-identically, and a restarted server
re-serves the same bytes from the disk tier (asserted end-to-end by
``tests/test_service.py`` and the CI ``service-smoke`` job).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..pipeline.cache import BUILDERS, CircuitSpec
from ..pipeline.jobs import _encode
from ..pipeline.montecarlo import DEFAULT_GATES, derive_seed, mc_or_none
from ..sim.classical import UnsupportedGateError
from .store import PersistentCircuitCache, spec_fingerprint

__all__ = [
    "ESTIMATE_SCHEMA_VERSION",
    "EstimateRequest",
    "canonical_json",
    "compute_estimate",
    "serve_estimate",
]

#: Versioned with the payload layout; part of every fingerprint, so a
#: schema bump silently invalidates (orphans) old disk entries.
ESTIMATE_SCHEMA_VERSION = 1

#: Request fields with reserved meaning; anything else is a builder kwarg.
_RESERVED = ("kind", "n", "transforms", "mc", "mc_batch", "mc_repeats", "seed")

#: Bounds that keep a single synchronous /estimate request tractable.
MAX_MC_BATCH = 1 << 16
MAX_MC_REPEATS = 64


def _coerce(value: Any) -> Any:
    """Normalize one parameter value: query strings become the ints/bools
    JSON would have carried, so GET and POST fingerprints agree."""
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "yes", "on"):
            return True
        if lowered in ("false", "no", "off"):
            return False
        try:
            return int(value)
        except ValueError:
            return value
    return value


def _require_int(name: str, value: Any, minimum: int, maximum: int) -> int:
    value = _coerce(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(f"{name} must be in [{minimum}, {maximum}], got {value}")
    return value


@dataclass(frozen=True)
class EstimateRequest:
    """One normalized resource-estimation query (the /estimate unit)."""

    kind: str
    n: int
    params: Tuple[Tuple[str, Any], ...] = ()
    transforms: Tuple[str, ...] = ()
    mc: bool = True
    mc_batch: int = 256
    mc_repeats: int = 1
    seed: int = 0

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "EstimateRequest":
        """Build a request from decoded JSON or query parameters.

        Raises ``ValueError`` with a client-presentable message on any
        invalid field; unknown keys are forwarded to the circuit builder
        as keyword arguments (where the builder itself validates them).
        """
        if "kind" not in data:
            raise ValueError(
                f"missing 'kind'; options: {', '.join(sorted(BUILDERS))}"
            )
        kind = str(data["kind"])
        if kind not in BUILDERS:
            raise ValueError(
                f"unknown builder kind {kind!r}; options: {', '.join(sorted(BUILDERS))}"
            )
        if "n" not in data:
            raise ValueError("missing 'n' (register width)")
        n = _require_int("n", data["n"], 1, 1 << 20)
        transforms = data.get("transforms", ())
        if isinstance(transforms, str):
            transforms = tuple(t for t in transforms.split(",") if t)
        else:
            transforms = tuple(str(t) for t in transforms)
        mc = _coerce(data.get("mc", True))
        if not isinstance(mc, bool):
            raise ValueError(f"mc must be a boolean, got {data.get('mc')!r}")
        params = tuple(sorted(
            (key, _coerce(value)) for key, value in data.items()
            if key not in _RESERVED
        ))
        return cls(
            kind=kind,
            n=n,
            params=params,
            transforms=transforms,
            mc=mc,
            mc_batch=_require_int("mc_batch", data.get("mc_batch", 256), 1, MAX_MC_BATCH),
            mc_repeats=_require_int("mc_repeats", data.get("mc_repeats", 1), 1, MAX_MC_REPEATS),
            seed=_require_int("seed", data.get("seed", 0), 0, (1 << 63) - 1),
        )

    def spec(self) -> CircuitSpec:
        """The construction key this request resolves to (validates the
        transform chain; builder kwargs are validated at build time)."""
        return CircuitSpec.make(
            self.kind, self.n, transforms=self.transforms, **dict(self.params)
        )

    def as_dict(self) -> Dict[str, Any]:
        """The canonical echo embedded in every payload (and nothing else:
        this dict plus the schema version determines the fingerprint)."""
        return {
            "kind": self.kind,
            "n": self.n,
            "params": {k: v for k, v in self.params},
            "transforms": list(self.transforms),
            "mc": self.mc,
            "mc_batch": self.mc_batch,
            "mc_repeats": self.mc_repeats,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """The content address of this request's answer."""
        return spec_fingerprint(
            self.spec(),
            estimate_schema=ESTIMATE_SCHEMA_VERSION,
            mc=self.mc,
            mc_batch=self.mc_batch,
            mc_repeats=self.mc_repeats,
            seed=self.seed,
        )


def canonical_json(payload: Any) -> str:
    """The service's one serialization: checkpoint-journal codec (exact
    Fractions) + sorted keys + compact separators.  Every tier of the
    cache serializes through here, which is what makes "byte-identical
    across memory hits, disk hits and recomputes" a checkable contract
    rather than an aspiration.
    """
    return json.dumps(_encode(payload), sort_keys=True, separators=(",", ":"))


def compute_estimate(request: EstimateRequest, cache) -> Dict[str, Any]:
    """The uncached estimate payload (deterministic, JSON-able via
    :func:`canonical_json`; Fractions kept exact in memory).

    Every lookup goes through the (single-flight, memoizing) cache, so
    concurrent cold requests for the same spec still build and compile
    once.  QFT-based circuits without basis-state semantics report
    ``"mc": null`` instead of failing the whole request.
    """
    spec = request.spec()
    try:
        built = cache.build(spec)
    except TypeError as exc:
        # A builder rejecting its kwargs is the client's error, not ours.
        raise ValueError(f"builder {request.kind!r} rejected parameters: {exc}") from exc
    counts = cache.counts(spec)
    payload: Dict[str, Any] = {
        "schema": ESTIMATE_SCHEMA_VERSION,
        "spec": spec.key,
        "request": request.as_dict(),
        "qubits": built.logical_qubits,
        "ancillas": built.ancilla_count,
        "toffoli": counts.toffoli,
        "cnot": counts.cnot_cz,
        "counts": {name: counts.counts[name] for name in sorted(counts.counts)},
        "mc": None,
    }
    if request.mc:
        try:
            program = cache.program(spec)
        except UnsupportedGateError:
            program = None
        if program is not None:
            estimate = mc_or_none(
                built,
                batch=request.mc_batch,
                repeats=request.mc_repeats,
                gates=DEFAULT_GATES,
                seed=derive_seed(request.seed, "estimate", spec.key),
                program=program,
            )
            if estimate is not None:
                payload["mc"] = {
                    "gates": list(estimate.gates),
                    "samples": estimate.samples,
                    "mean": estimate.mean,
                    "ci95": round(estimate.ci95, 9),
                    "stderr": round(estimate.stderr, 9),
                }
    return payload


def serve_estimate(
    request: EstimateRequest, cache: PersistentCircuitCache
) -> Tuple[Dict[str, Any], str]:
    """The hot path: answer ``request`` through the two-tier cache.

    Returns ``(payload, tier)`` where ``tier`` records where the answer
    came from (``memory`` / ``disk`` / ``computed``) — surfaced as the
    ``X-Repro-Cache`` response header, deliberately *outside* the JSON
    body so repeated responses stay byte-identical.
    """
    return cache.result(
        "estimate", request.fingerprint(), lambda: compute_estimate(request, cache)
    )
