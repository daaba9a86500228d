"""Keyed, memoizing circuit construction: :class:`CircuitSpec` + :class:`CircuitCache`.

A :class:`CircuitSpec` is a frozen, hashable, picklable description of one
constructed circuit — builder kind × ``n`` × (family, modulus, constant,
MBU on/off, ...).  :func:`build_spec` dispatches it through the
:data:`BUILDERS` registry to the ordinary ``build_*`` constructors, and
:class:`CircuitCache` memoizes both the built circuit and its
expected-mode gate counts, so a sweep that revisits the same
(family, n, p, mbu) cell — Table 1 + the savings summary + a Monte-Carlo
pass all touch the same circuits — pays for construction once.

This module sits *below* :mod:`repro.resources` in the import graph (the
declarative table specs in ``resources/tables.py`` are written in terms of
``CircuitSpec``), so it must not import anything from ``repro.resources``
or the higher pipeline layers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..arithmetic import (
    build_add_const,
    build_adder,
    build_comparator,
    build_compare_lt_const,
    build_controlled_add_const,
    build_controlled_adder,
    build_controlled_comparator,
    build_sub_const,
    build_subtractor,
)
from ..arithmetic.builders import Built
from ..extensions import (
    build_inplace_mul_const_mod,
    build_modexp,
    build_mul_const_mod,
)
from ..modular import (
    build_controlled_modadd,
    build_controlled_modadd_const,
    build_modadd,
    build_modadd_const,
    build_modadd_const_draper,
    build_modadd_draper,
    build_modadd_vbe_original,
)
from ..sim.classical import UnsupportedGateError
from ..transform import apply_transforms, parse_transform_chain

__all__ = [
    "BUILDERS",
    "CircuitSpec",
    "CircuitCache",
    "CacheStats",
    "build_spec",
    "default_cache",
]

#: Builder registry: spec ``kind`` -> ``build_*`` constructor.  Every
#: constructor takes ``n`` plus the keyword arguments carried in
#: ``CircuitSpec.params`` and returns a :class:`Built`.
BUILDERS: Dict[str, Callable[..., Built]] = {
    "adder": build_adder,
    "subtractor": build_subtractor,
    "controlled_adder": build_controlled_adder,
    "add_const": build_add_const,
    "controlled_add_const": build_controlled_add_const,
    "sub_const": build_sub_const,
    "comparator": build_comparator,
    "controlled_comparator": build_controlled_comparator,
    "compare_lt_const": build_compare_lt_const,
    "modadd": build_modadd,
    "controlled_modadd": build_controlled_modadd,
    "modadd_vbe_original": build_modadd_vbe_original,
    "modadd_draper": build_modadd_draper,
    "modadd_const": build_modadd_const,
    "modadd_const_draper": build_modadd_const_draper,
    "controlled_modadd_const": build_controlled_modadd_const,
    "mul_const_mod": build_mul_const_mod,
    "inplace_mul_const_mod": build_inplace_mul_const_mod,
    "modexp": build_modexp,
}


@dataclass(frozen=True)
class CircuitSpec:
    """A frozen construction request: the cache key of one circuit.

    ``params`` is a sorted tuple of (keyword, value) pairs forwarded to
    the builder — e.g. ``(("family", "cdkpm"), ("mbu", True), ("p", 251))``.
    Use :meth:`make` to normalize keyword order.

    ``transforms`` is an ordered chain of registered
    :mod:`repro.transform` pass names applied to the built circuit
    (``build_spec`` runs them).  It is part of the spec — and therefore of
    the cache key and the artifact's row identity — because a transformed
    circuit is a different circuit: ``modadd`` with and without
    ``lower_toffoli`` must never alias in a :class:`CircuitCache`.
    """

    kind: str
    n: int
    params: Tuple[Tuple[str, Any], ...] = ()
    transforms: Tuple[str, ...] = ()

    @classmethod
    def make(
        cls,
        kind: str,
        n: int,
        transforms: Any = (),
        **params: Any,
    ) -> "CircuitSpec":
        if kind not in BUILDERS:
            raise ValueError(f"unknown builder kind {kind!r}; options: {sorted(BUILDERS)}")
        return cls(kind, n, tuple(sorted(params.items())), parse_transform_chain(transforms))

    def kwargs(self) -> Dict[str, Any]:
        return {"n": self.n, **dict(self.params)}

    @property
    def key(self) -> str:
        """A compact, human-readable identity string (artifact-friendly)."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        chain = f"|{'+'.join(self.transforms)}" if self.transforms else ""
        return f"{self.kind}[n={self.n}{',' if inner else ''}{inner}{chain}]"

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.key


def build_spec(spec: CircuitSpec) -> Built:
    """Construct (and transform) the circuit a :class:`CircuitSpec`
    describes (uncached)."""
    try:
        builder = BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown builder kind {spec.kind!r}; options: {sorted(BUILDERS)}"
        ) from None
    built = builder(**spec.kwargs())
    if not spec.transforms:
        return built
    circuit = apply_transforms(built.circuit, spec.transforms)
    # Registers a pass allocated (e.g. lower_toffoli's AND ancilla) are
    # ancillas by construction: passes never add data registers.
    extra = tuple(
        name for name in circuit.registers if name not in built.circuit.registers
    )
    return Built(
        circuit,
        built.n,
        built.ancilla_names + extra,
        {**built.meta, "transforms": spec.transforms},
    )


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`CircuitCache`.

    Three lookup families are tracked independently — circuits
    (``hits``/``misses``), memoized counts (``count_*``) and compiled
    programs (``program_*``) — and :attr:`hit_ratio` aggregates across
    *all* of them.  A sweep's cache-effectiveness number must not ignore
    the count and program lookups: the Monte-Carlo hot path does far more
    of those than raw circuit builds, so the circuit-only ratio both
    under- and over-stated reuse depending on the workload mix.  The
    per-family ratios are reported alongside in :meth:`as_dict`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    count_hits: int = 0
    count_misses: int = 0
    program_hits: int = 0
    program_misses: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups aggregated across every family."""
        return _ratio(
            self.hits + self.count_hits + self.program_hits,
            self.misses + self.count_misses + self.program_misses,
        )

    @property
    def circuit_hit_ratio(self) -> float:
        return _ratio(self.hits, self.misses)

    @property
    def count_hit_ratio(self) -> float:
        return _ratio(self.count_hits, self.count_misses)

    @property
    def program_hit_ratio(self) -> float:
        return _ratio(self.program_hits, self.program_misses)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "count_hits": self.count_hits,
            "count_misses": self.count_misses,
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "circuit_hit_ratio": round(self.circuit_hit_ratio, 4),
            "count_hit_ratio": round(self.count_hit_ratio, 4),
            "program_hit_ratio": round(self.program_hit_ratio, 4),
        }


class CircuitCache:
    """LRU-bounded memo of :class:`CircuitSpec` -> :class:`Built` (+ counts).

    Thread-safe: sweep workers running in threads — and the service's
    request handlers — share one instance; the process-pool path gives
    each worker process its own.  ``maxsize=None`` disables eviction.

    Lookups are *single-flight*: when N threads miss the same key
    concurrently, exactly one constructs (outside the lock — builds and
    compiles are slow) while the rest wait on a per-key event and then
    take the hit path.  Without this, a cache shared across request
    threads would build every hot circuit once per thread on a cold
    start, and the stats would report N misses for one build.
    """

    def __init__(self, maxsize: Optional[int] = 512) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self._entries: "OrderedDict[CircuitSpec, Built]" = OrderedDict()
        self._counts: Dict[Tuple[CircuitSpec, str], Any] = {}
        self._programs: Dict[Tuple[CircuitSpec, bool, bool], Any] = {}
        self._lock = threading.Lock()
        #: In-flight constructions, keyed by a family-tagged token.  The
        #: claimant computes; everyone else waits on the Event and re-probes.
        self._inflight: Dict[Tuple[Any, ...], threading.Event] = {}
        self.stats = CacheStats()

    def _release(self, token: Tuple[Any, ...]) -> None:
        with self._lock:
            waiter = self._inflight.pop(token, None)
        if waiter is not None:
            waiter.set()

    def build(self, spec: CircuitSpec) -> Built:
        """Return the (possibly cached) circuit for ``spec``."""
        token = ("build", spec)
        while True:
            with self._lock:
                built = self._entries.get(spec)
                if built is not None:
                    self.stats.hits += 1
                    self._entries.move_to_end(spec)
                    return built
                waiter = self._inflight.get(token)
                if waiter is None:
                    self._inflight[token] = threading.Event()
                    self.stats.misses += 1  # one miss per distinct build
                    break
            waiter.wait()  # another thread is building this spec
        try:
            built = build_spec(spec)  # construct outside the lock
        except BaseException:
            self._release(token)  # waiters re-probe; one of them rebuilds
            raise
        with self._lock:
            self._entries[spec] = built
            self._entries.move_to_end(spec)
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    evicted, _ = self._entries.popitem(last=False)
                    self.stats.evictions += 1
                    for ckey in [k for k in self._counts if k[0] == evicted]:
                        del self._counts[ckey]
                    for pkey in [k for k in self._programs if k[0] == evicted]:
                        del self._programs[pkey]
        self._release(token)
        return built

    def counts(self, spec: CircuitSpec, mode: str = "expected"):
        """Memoized ``Built.counts(mode)`` for the spec's circuit."""
        key = (spec, mode)
        token = ("counts",) + key
        while True:
            with self._lock:
                if key in self._counts:
                    self.stats.count_hits += 1
                    return self._counts[key]
                waiter = self._inflight.get(token)
                if waiter is None:
                    self._inflight[token] = threading.Event()
                    break
            waiter.wait()
        try:
            built = self.build(spec)
            counted = built.counts(mode)
            with self._lock:
                self.stats.count_misses += 1
                if spec in self._entries:  # don't pin counts of evicted circuits
                    self._counts[key] = counted
        finally:
            self._release(token)
        return counted

    def program(self, spec: CircuitSpec, tally: bool = True, schedule: bool = False):
        """Memoized compiled+fused bit-plane program for the spec's circuit.

        This is the pipeline-wide program reuse point: every Monte-Carlo
        estimate of the same (spec, transforms) cell — across tables,
        savings summaries and repetitions — executes one
        :class:`~repro.transform.compile.FusedProgram` (whose generated
        kernel is itself cached on the program).  Raises
        :class:`~repro.sim.classical.UnsupportedGateError` for circuits
        without basis-state semantics, like the builders themselves would
        at simulation time.

        ``schedule`` is a compatibility shim, not an option: the
        ``perfbench/`` harness overrides this method and forwards three
        positional arguments.  Only a false value is accepted; the
        parameter goes when that harness next changes.
        """
        if schedule:
            raise ValueError("the run-lengthening scheduler has been removed")
        key = (spec, tally)
        token = ("program",) + key
        while True:
            with self._lock:
                if key in self._programs:
                    self.stats.program_hits += 1
                    cached = self._programs[key]
                    if isinstance(cached, _Unsupported):
                        # memoized compile failure (QFT rows): raise a fresh
                        # exception so callers never share a mutable instance
                        raise UnsupportedGateError(*cached.args)
                    return cached
                waiter = self._inflight.get(token)
                if waiter is None:
                    self._inflight[token] = threading.Event()
                    break
            waiter.wait()
        try:
            built = self.build(spec)
            from ..transform.compile import compile_program, fuse_program

            try:
                # This cache holds the FusedProgram itself, so the module-level
                # fusion memo must not additionally pin the throwaway key.
                program = fuse_program(
                    compile_program(built.circuit, tally=tally), memoize=False
                )
            except UnsupportedGateError as exc:
                with self._lock:
                    self.stats.program_misses += 1
                    if spec in self._entries:
                        self._programs[key] = _Unsupported(exc.args)
                raise
            with self._lock:
                self.stats.program_misses += 1
                if spec in self._entries:  # don't pin programs of evicted circuits
                    self._programs[key] = program
            return program
        finally:
            self._release(token)

    def clear(self) -> None:
        # In-flight constructions are left to complete and release their
        # own tokens; popping them here would strand their waiters.
        with self._lock:
            self._entries.clear()
            self._counts.clear()
            self._programs.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec: CircuitSpec) -> bool:
        return spec in self._entries


@dataclass(frozen=True)
class _Unsupported:
    """Memoized compile failure: the args of the UnsupportedGateError a
    spec's circuit raised, replayed as a fresh exception on every hit."""

    args: Tuple[Any, ...]


_DEFAULT = CircuitCache()


def default_cache() -> CircuitCache:
    """The module-level shared cache (one per process)."""
    return _DEFAULT
