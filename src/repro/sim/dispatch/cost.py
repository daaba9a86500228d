"""The calibrated backend cost model behind ``strategy="auto"``.

The backend ladder's honest benchmarks show no single winner: the fused
codegen kernel dominates small and mid-size batches, while the generated
numpy vector kernel takes over once plane rows are long enough for SIMD
to amortize ufunc dispatch.  This module turns those measurements into a
choice: :func:`choose_backend` estimates wall time for every *capable*
strategy from a small calibrated linear model and picks the cheapest.

Calibration workflow
--------------------
``benchmarks/bench_dispatch.py`` times every strategy over an
(ops × batch × tally) grid and — when run with
``REPRO_DISPATCH_RECALIBRATE=1`` — refits the coefficients with
:func:`fit_calibration` and rewrites the checked-in
``dispatch/calibration.json``.  At import time the model loads, in order:

1. the file named by ``$REPRO_DISPATCH_CALIBRATION`` (deploy override),
2. the checked-in ``calibration.json`` next to this module,
3. the hard-coded ``DEFAULT_CALIBRATION`` (same shape, rough numbers).

The model is deliberately tiny — per backend and tally state,
``seconds = c0 + c_ops * ops + c_ops_words * ops * words`` with
``words = ceil(batch / 64)`` — because ranking only needs the crossovers
right, not absolute times.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CostModel",
    "choose_backend",
    "default_model",
    "estimate_seconds",
    "fit_calibration",
    "load_calibration",
]

from ..strategies import LADDER

#: Strategies the model can rank (superset of what any one call considers).
#: The single source of truth is :data:`repro.sim.strategies.LADDER`.
STRATEGIES = LADDER

ENV_CALIBRATION = "REPRO_DISPATCH_CALIBRATION"
_CALIBRATION_FILE = os.path.join(os.path.dirname(__file__), "calibration.json")

#: Fallback coefficients (seconds), shaped exactly like calibration.json.
#: Rough fits from the repo's reference container — the checked-in file
#: (regenerated by ``REPRO_DISPATCH_RECALIBRATE=1 pytest
#: benchmarks/bench_dispatch.py``) supersedes these.
DEFAULT_CALIBRATION: Dict[str, Any] = {
    "schema": 1,
    "source": "built-in defaults",
    "backends": {
        "classical": {
            "off": {"c0": 2e-05, "c_lane_ops": 4e-07},
            "on": {"c0": 2e-05, "c_lane_ops": 6e-07},
        },
        "interpretive": {
            "off": {"c0": 1e-04, "c_ops": 2.5e-06, "c_ops_words": 1.5e-08},
            "on": {"c0": 1e-04, "c_ops": 4e-06, "c_ops_words": 1.5e-08},
        },
        "codegen": {
            "off": {"c0": 3e-05, "c_ops": 1.2e-07, "c_ops_words": 4e-09},
            "on": {"c0": 3e-05, "c_ops": 1.6e-07, "c_ops_words": 4e-09},
        },
        "vector": {
            "off": {"c0": 5e-05, "c_ops": 6e-07, "c_ops_words": 5e-10},
            "on": {"c0": 5e-05, "c_ops": 7e-07, "c_ops_words": 5e-10},
        },
    },
}


def load_calibration(path: Optional[str] = None) -> Dict[str, Any]:
    """Load a calibration table (see module docstring for the search order)."""
    candidates = [path, os.environ.get(ENV_CALIBRATION), _CALIBRATION_FILE]
    for candidate in candidates:
        if not candidate:
            continue
        try:
            with open(candidate) as handle:
                table = json.load(handle)
        except FileNotFoundError:
            if candidate is path:  # an explicit path must exist
                raise
            continue
        table.setdefault("source", candidate)
        return table
    return dict(DEFAULT_CALIBRATION)


def _words(batch: int) -> int:
    return (batch + 63) // 64


@dataclass
class CostModel:
    """Rank execution strategies by estimated wall time."""

    table: Dict[str, Any]

    def _coeffs(self, backend: str, tally: bool) -> Mapping[str, float]:
        backends = self.table["backends"]
        if backend not in backends:
            raise ValueError(
                f"no calibration for backend {backend!r}; "
                f"calibrated: {', '.join(sorted(backends))}"
            )
        entry = backends[backend]
        return entry["on" if tally else "off"]

    def estimate(
        self,
        backend: str,
        *,
        ops: int,
        batch: int,
        tally: bool = True,
    ) -> float:
        """Estimated seconds for one run of ``ops`` instructions × ``batch``
        lanes on ``backend``."""
        c = self._coeffs(backend, tally)
        words = _words(batch)
        if backend == "classical":
            return c["c0"] + c["c_lane_ops"] * ops * batch
        return c["c0"] + c["c_ops"] * ops + c["c_ops_words"] * ops * words

    def choose(
        self,
        *,
        ops: int,
        batch: int,
        tally: bool = True,
        lane_counts: bool = False,
        candidates: Optional[Sequence[str]] = None,
    ) -> str:
        """The cheapest strategy that can run the request.

        Capability filtering before ranking: a name not on the ladder is
        never feasible, and ``classical`` only handles one lane per call
        (with scalar inputs) and keeps no per-lane ``lane_counts``.
        """
        pool = list(candidates) if candidates is not None else list(STRATEGIES)
        feasible = []
        for name in pool:
            if name not in STRATEGIES:
                continue
            if name == "classical" and (batch != 1 or lane_counts):
                continue
            feasible.append(name)
        if not feasible:
            raise ValueError(
                f"no feasible backend among {pool!r} for batch={batch}, "
                f"lane_counts={lane_counts}"
            )
        return min(
            feasible,
            key=lambda name: self.estimate(
                name, ops=ops, batch=batch, tally=tally
            ),
        )


_DEFAULT_MODEL: Optional[CostModel] = None


def default_model(refresh: bool = False) -> CostModel:
    """The process-wide model over the ambient calibration table."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None or refresh:
        _DEFAULT_MODEL = CostModel(load_calibration())
    return _DEFAULT_MODEL


def estimate_seconds(backend: str, **kwargs: Any) -> float:
    return default_model().estimate(backend, **kwargs)


def choose_backend(**kwargs: Any) -> str:
    return default_model().choose(**kwargs)


# --------------------------------------------------------------------------- #
# fitting (used by benchmarks/bench_dispatch.py)


def _lstsq(rows: List[List[float]], y: List[float]) -> List[float]:
    import numpy as np

    a = np.asarray(rows, dtype=float)
    b = np.asarray(y, dtype=float)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    return [max(0.0, float(c)) for c in coeffs]  # negative costs are noise


def fit_calibration(
    samples: Iterable[Mapping[str, Any]],
    *,
    source: str = "benchmarks/bench_dispatch.py",
) -> Dict[str, Any]:
    """Fit a calibration table from benchmark samples.

    Each sample maps ``backend``/``ops``/``batch``/``tally``/``seconds``.
    Backends or tally states
    with no samples keep the ``DEFAULT_CALIBRATION`` coefficients, so a
    smoke-size run still yields a complete table.
    """
    grouped: Dict[Tuple[str, bool], List[Mapping[str, Any]]] = {}
    for sample in samples:
        key = (str(sample["backend"]), bool(sample["tally"]))
        grouped.setdefault(key, []).append(sample)

    table = json.loads(json.dumps(DEFAULT_CALIBRATION))  # deep copy
    table["source"] = source
    backends = table["backends"]
    for (backend, tally), rows in grouped.items():
        state = "on" if tally else "off"
        if backend == "classical":
            design = [[1.0, s["ops"] * s["batch"]] for s in rows]
            c0, c_lane = _lstsq(design, [s["seconds"] for s in rows])
            backends["classical"][state] = {"c0": c0, "c_lane_ops": c_lane}
        else:
            design = [
                [1.0, float(s["ops"]), float(s["ops"] * _words(s["batch"]))]
                for s in rows
            ]
            c0, c_ops, c_ow = _lstsq(design, [s["seconds"] for s in rows])
            backends[backend][state] = {
                "c0": c0, "c_ops": c_ops, "c_ops_words": c_ow,
            }
    return table
