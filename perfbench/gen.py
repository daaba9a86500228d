"""Seeded input generators for the three workloads.

Everything the program under test receives is built here from the
workload seed: the same seed gives the same requests in the same order.
Requests are plain ``{name: str}`` query mappings, exactly what a client
puts on the wire, so the generator process and the server normalize them
through the same ``EstimateRequest.from_mapping``.

The modular adders are the paper's VBE- and Beauregard-architecture
family (Vedral, Barenco & Ekert's VBE96 construction and its CDKPM /
Gidney-adder variants), each with and without measurement-based
uncomputation.
"""

from __future__ import annotations

import hashlib
import random
from itertools import accumulate, count
from typing import Dict, Iterator, List, Tuple

#: (builder kind, fixed extra parameters); crossed with MBU on/off.
KINDS: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("modadd", {"family": "cdkpm"}),
    ("modadd", {"family": "gidney"}),
    ("controlled_modadd", {}),
    ("modadd_const", {}),
    ("controlled_modadd_const", {}),
    ("modadd_vbe_original", {}),
)
VARIANTS = tuple((kind, extra, mbu) for kind, extra in KINDS for mbu in (False, True))

COLD_N = (32, 256)
#: Requests in one Latin-square cycle of the cold stream.
COLD_CYCLE = len(VARIANTS) ** 2
WARM_N = (4, 12)
WARM_KEYS = 320
#: Memory result tier of the warm server, well below WARM_KEYS.
WARM_RESULT_MAXSIZE = 64
#: Zipf exponent of the warm key popularity; with WARM_KEYS keys and a
#: WARM_RESULT_MAXSIZE memory tier, about 30% of hits come from disk.
ZIPF_S = 1.1

SWEEP_TABLES = ("table1", "table2", "table3", "table4", "table5", "table6")
SWEEP_SIZES = (16, 32, 64)
SWEEP_MODEXP = ((4, 16),)
SWEEP_MC_BATCH = 65536


def sub_rng(seed: int, *label: object) -> random.Random:
    """An independent stream per (seed, label), stable across Pythons."""
    blob = "\x1f".join(str(p) for p in (seed,) + label).encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def _request(rng: random.Random, kind: str, extra: Dict[str, str], mbu: bool,
             n: int) -> Dict[str, str]:
    p = rng.randrange(1 << (n - 1), 1 << n) | 1  # odd n-bit modulus
    query = {"kind": kind, "n": str(n), "p": str(p), "mbu": "true" if mbu else "false"}
    query.update(extra)
    if "const" in kind:
        query["a"] = str(rng.randrange(1, p))
    return query


def _key(query: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(query.items()))


def cold_stream(seed: int) -> Iterator[Dict[str, str]]:
    """Endless pairwise-distinct cold requests, n log-uniform in COLD_N.

    Stratified so that every block of 12 requests carries nearly the
    same work: a block holds each variant once and each twelfth of the
    log-n range (stratum) once, and a cycle of 12 blocks is a Latin
    square, so every variant meets every stratum once per COLD_CYCLE
    requests.  The position of n inside its stratum is drawn per cycle,
    variant and stratum, the same for every seed, because the cost of an
    estimate follows n; seeds change the moduli, constants, the order of
    the blocks in a cycle and the order within a block, not the work.
    """
    rng = sub_rng(seed, "cold")
    lo, hi = COLD_N
    strata = len(VARIANTS)
    seen = set()
    for cycle in count():
        n_rng = sub_rng(0, "cold-n", cycle)
        position = [[n_rng.random() for _ in range(strata)] for _ in VARIANTS]
        offsets = list(range(strata))
        rng.shuffle(offsets)
        for offset in offsets:
            block = []
            for j, (kind, extra, mbu) in enumerate(VARIANTS):
                stratum = (j + offset) % strata
                n = round(lo * (hi / lo) ** ((stratum + position[j][stratum]) / strata))
                n = min(hi, max(lo, n))
                query = _request(rng, kind, extra, mbu, n)
                while _key(query) in seen:  # distinct p: fresh spec
                    query = _request(rng, kind, extra, mbu, n)
                seen.add(_key(query))
                block.append(query)
            rng.shuffle(block)
            yield from block


def warmup_query() -> Dict[str, str]:
    """The one untimed request a cold server answers before timing starts
    (loads the lazily imported compile and kernel modules); outside the
    cold stream's n range, so it shares no circuit with it."""
    return {"kind": "modadd", "n": "8", "p": "251", "family": "cdkpm", "mbu": "true"}


def warm_keys(seed: int) -> List[Dict[str, str]]:
    """WARM_KEYS distinct small-n requests, in Zipf rank order."""
    rng = sub_rng(seed, "warm-keys")
    keys: List[Dict[str, str]] = []
    seen = set()
    while len(keys) < WARM_KEYS:
        kind, extra, mbu = VARIANTS[len(keys) % len(VARIANTS)]
        query = _request(rng, kind, extra, mbu, rng.randint(*WARM_N))
        query["seed"] = str(rng.randrange(1 << 31))
        if _key(query) not in seen:
            seen.add(_key(query))
            keys.append(query)
    rng.shuffle(keys)
    return keys


def zipf_stream(seed: int, keys: List[Dict[str, str]], label: str) -> Iterator[int]:
    """Endless key indices, P(rank r) proportional to 1/r**ZIPF_S."""
    rng = sub_rng(seed, "zipf", label)
    cum = list(accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(keys))))
    population = range(len(keys))
    while True:
        yield from rng.choices(population, cum_weights=cum, k=256)


def sweep_config(seed: int):
    """The sweep-mc config: tables 1-6 x SWEEP_SIZES plus the modexp
    scenario, serial executor, MC seed drawn from the workload seed."""
    from repro.pipeline import SweepConfig

    return SweepConfig(
        tables=SWEEP_TABLES,
        sizes=SWEEP_SIZES,
        seed=sub_rng(seed, "sweep").randrange(1 << 31),
        mc_batch=SWEEP_MC_BATCH,
        workers=0,
        modexp=SWEEP_MODEXP,
    )
