"""The full backend ladder per grid point, plus the auto-dispatch check.

Written to ``benchmarks/BENCH_dispatch.json``: the MBU modular adder
through every bit-plane strategy (interpretive walk, fused codegen,
generated numpy vector kernel) over an (n × batch × tally) grid with
full-entropy register inputs, timing the execution step alone.
This is the grid the cost model behind ``backend="auto"`` is calibrated
on: run with ``REPRO_DISPATCH_RECALIBRATE=1`` to refit and rewrite the
checked-in ``src/repro/sim/dispatch/calibration.json`` (the rewrite is
followed by a schema round-trip check: the file on disk must reparse to
the exact nested key structure that was fitted).  Each point also records
the per-state ``vector_speedup_vs_codegen`` headline metric (above 1
where the numpy kernel wins).

Floor asserted by ``test_report_dispatch``: the model's pick is within
``AUTO_FACTOR`` of the best *measured* strategy on every grid point (the
whole point of auto-selection).

Set ``BENCH_DISPATCH_SMOKE=1`` for the reduced CI configuration (small
grid, relaxed auto factor) — the ``perf-smoke`` CI job does.
"""

from pathlib import Path

import pytest

from _harness import (
    best_of,
    env_flag,
    power_inputs,
    prepared,
    spot_check_modadd,
    write_artifact,
)
from repro.modular import build_modadd
from repro.sim.dispatch.cost import CostModel, fit_calibration
from repro.transform import compile_program, fuse_program

SMOKE = env_flag("BENCH_DISPATCH_SMOKE")
RECALIBRATE = env_flag("REPRO_DISPATCH_RECALIBRATE")

CASES = (
    [(16, 1024), (64, 4096)]
    if SMOKE
    else [(n, batch) for n in (16, 64, 256) for batch in (1024, 8192, 65536)]
)
ROUNDS = 2 if SMOKE else 4
#: Measured seconds of the model's pick vs the best measured strategy.
AUTO_FACTOR = 2.0 if SMOKE else 1.2

_RESULTS = {}
_SAMPLES = []


def _schema(obj, prefix=""):
    """The set of dotted key paths in a nested dict (leaf values ignored)."""
    keys = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            keys.add(prefix + str(k))
            keys |= _schema(v, prefix + str(k) + ".")
    return keys


@pytest.mark.parametrize("n,batch", CASES)
def test_dispatch_grid(benchmark, n, batch):
    p = (1 << n) - 59
    built = build_modadd(n, p, "cdkpm", mbu=True)
    xs, ys = power_inputs(p, batch)

    programs = {}
    for tally in (False, True):
        prog = compile_program(built.circuit, tally=tally)
        fused = fuse_program(prog)
        fused.kernel(events=tally)
        fused.kernel(events=tally, kind="vector")
        programs[tally] = (prog, fused)

    def run_codegen():
        sim = prepared(built.circuit, batch, xs, ys)
        sim.run_compiled(programs[False][1])
        return sim

    sim = benchmark(run_codegen)
    spot_check_modadd(sim, xs, ys, p, batch)

    point = {"n": n, "batch": batch}
    for tally in (False, True):
        prog, fused = programs[tally]
        ops = len(prog)

        def mk():
            return prepared(built.circuit, batch, xs, ys, tally=tally)

        seconds = {
            "interpretive": best_of(mk, lambda s: s.run(), rounds=ROUNDS),
            "codegen": best_of(
                mk, lambda s: s.run_compiled(fused), rounds=ROUNDS
            ),
            "vector": best_of(
                mk, lambda s: s.run_compiled(fused, strategy="vector"),
                rounds=ROUNDS,
            ),
        }
        state = "tally_on" if tally else "tally_off"
        point[state] = {
            "ops": ops,
            "seconds": dict(seconds),
            "vector_speedup_vs_codegen": seconds["codegen"] / seconds["vector"],
        }
        _SAMPLES.extend(
            {"backend": name, "ops": ops, "batch": batch, "tally": tally,
             "seconds": secs}
            for name, secs in seconds.items()
        )
    _RESULTS[f"n{n}_B{batch}"] = point


def test_report_dispatch(benchmark, capsys):
    from conftest import print_once

    if not _RESULTS:  # grid cases filtered out (-k/-x): keep old JSON
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return
    table = fit_calibration(_SAMPLES)
    model = CostModel(table)
    if RECALIBRATE:
        cal_path = (
            Path(__file__).parents[1]
            / "src" / "repro" / "sim" / "dispatch" / "calibration.json"
        )
        import json

        cal_path.write_text(json.dumps(table, indent=2) + "\n")
        # Schema round-trip: the file just written must reparse to the
        # exact nested key structure that was fitted — a partial write or
        # a fit that dropped a backend would ship a table default_model()
        # cannot serve every strategy from.
        reloaded = json.loads(cal_path.read_text())
        assert _schema(reloaded) == _schema(table), (
            "calibration.json round-trip changed the key structure: "
            f"{sorted(_schema(reloaded) ^ _schema(table))}"
        )
        from repro.sim.strategies import LADDER

        assert set(reloaded["backends"]) >= set(LADDER), (
            "refit calibration is missing ladder backends: "
            f"{sorted(set(LADDER) - set(reloaded['backends']))}"
        )

    # Auto-dispatch quality: on every grid point the freshly fit model's
    # pick must be within AUTO_FACTOR of the best measured strategy.
    auto = {}
    for key, point in _RESULTS.items():
        for state in ("tally_off", "tally_on"):
            seconds = point[state]["seconds"]
            choice = model.choose(
                ops=point[state]["ops"], batch=point["batch"],
                tally=(state == "tally_on"), candidates=tuple(seconds),
            )
            best_name = min(seconds, key=seconds.get)
            factor = seconds[choice] / seconds[best_name]
            auto[f"{key}_{state}"] = {
                "choice": choice, "best": best_name, "factor": factor,
            }
            point[state]["auto_choice"] = choice
            point[state]["auto_factor"] = factor

    payload = {
        "benchmark": "dispatch_ladder_and_auto_selection",
        "circuit": "modadd[cdkpm, mbu=True]",
        "smoke": SMOKE,
        "auto_factor_bar": AUTO_FACTOR,
        "results": _RESULTS,
        "calibration": table,
    }
    out_path = write_artifact(__file__, "BENCH_dispatch.json", payload)

    lines = ["Backend ladder (seconds, best-of, tally on):"]
    for key, point in _RESULTS.items():
        secs = point["tally_on"]["seconds"]
        lines.append(
            f"  {key:11s} "
            + "  ".join(f"{name}={secs[name]*1e3:8.2f}ms" for name in secs)
            + f"  auto->{point['tally_on']['auto_choice']}"
            f" ({point['tally_on']['auto_factor']:.2f}x of best)"
        )
        lines.append(
            f"  {'':11s} vector vs codegen="
            f"{point['tally_on']['vector_speedup_vs_codegen']:.2f}x"
        )
    lines.append(f"  -> {out_path.name}")
    print_once(benchmark, capsys, "\n".join(lines))

    for key, row in auto.items():
        assert row["factor"] <= AUTO_FACTOR, (
            f"{key}: auto picked {row['choice']} at {row['factor']:.2f}x of "
            f"best ({row['best']}), above the {AUTO_FACTOR}x bar"
        )
