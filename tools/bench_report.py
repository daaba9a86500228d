#!/usr/bin/env python3
"""Aggregate every ``benchmarks/BENCH_*.json`` into one trajectory table.

Each benchmark writes a machine-readable artifact with its own schema;
this tool (stdlib only, like ``tools/check_docs.py``) flattens them into
a single markdown table plus the headline *performance trajectory* — the
chain of backend-ladder speedups the repo has accumulated:

    classical -> bitplane (interpretive) -> fused codegen -> vectorized
              -> auto-dispatched

Alongside the markdown it always rewrites
``benchmarks/BENCH_report.json`` — the same headline entries and the full
flattened metric list in one machine-readable file (excluded from its own
input glob), so CI and downstream tooling can diff trajectories without
parsing markdown.

Usage::

    python tools/bench_report.py             # print markdown to stdout
    python tools/bench_report.py --out docs/bench-report.md
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"

#: The headline speedup metric per benchmark artifact (dotted path into
#: each case row), used for the trajectory summary.  Anything else
#: numeric still lands in the full table.
HEADLINE = {
    "bitplane_vs_looped_classical": ("speedup_per_input", "bitplane vs looped classical (per input)"),
    "compiled_vs_interpretive_bitplane": ("speedup", "compiled codegen vs interpretive walk"),
    "fused_vs_interpretive_bitplane": ("speedup_vs_interpretive", "fused kernels vs interpretive walk"),
    "dispatch_ladder_and_auto_selection": ("tally_on.vector_speedup_vs_codegen", "vector kernel vs fused codegen"),
}

#: The tool's own machine-readable output (excluded from the input glob).
REPORT_JSON = "BENCH_report.json"


def load_artifacts() -> dict:
    artifacts = {}
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        if path.name == REPORT_JSON:  # our own output, never an input
            continue
        try:
            artifacts[path.name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:  # pragma: no cover - corrupt file
            print(f"warning: {path.name}: {exc}", file=sys.stderr)
    return artifacts


def _get(row, dotted: str):
    """Numeric value at a dotted path into a nested dict, else ``None``."""
    cur = row
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    if isinstance(cur, bool) or not isinstance(cur, (int, float)):
        return None
    return cur


def headline_entries(artifacts: dict) -> list:
    """One entry per artifact that defines a :data:`HEADLINE` metric."""
    entries = []
    for payload in artifacts.values():
        bench = payload.get("benchmark", "")
        if bench not in HEADLINE:
            continue
        metric, label = HEADLINE[bench]
        speedups = {}
        for case, row in payload.get("results", {}).items():
            value = _get(row, metric) if isinstance(row, dict) else None
            if value is not None:
                speedups[case] = value
        if not speedups:
            continue
        entries.append({
            "benchmark": bench,
            "metric": metric,
            "label": label,
            "smoke": bool(payload.get("smoke")),
            "speedups": speedups,
            "mc_program_reuse": payload.get("mc_program_reuse") or {},
        })
    return entries


def _numeric_leaves(row: dict, prefix: str = ""):
    """Every numeric leaf of a nested result row, dotted-path keyed."""
    for metric, value in row.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{prefix}{metric}.")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        else:
            yield prefix + metric, value


def flatten(artifacts: dict):
    """Yield (file, benchmark, case, metric, value) for every numeric leaf."""
    for fname, payload in artifacts.items():
        bench = payload.get("benchmark", fname)
        sections = dict(payload.get("results", {}))
        for extra in ("mc_program_reuse",):
            if payload.get(extra):
                sections[extra] = payload[extra]
        for case, row in sections.items():
            if not isinstance(row, dict):
                continue
            for metric, value in _numeric_leaves(row):
                yield fname, bench, case, metric, value


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if abs(value) >= 100:
        return f"{value:.1f}"
    if abs(value) >= 0.01:
        return f"{value:.4g}"
    return f"{value:.3e}"


def trajectory_lines(artifacts: dict) -> list:
    lines = ["## Performance trajectory", ""]
    entries = headline_entries(artifacts)
    for entry in entries:
        speedups = entry["speedups"]
        best_case = max(speedups, key=speedups.get)
        cases = ", ".join(f"{c}: {fmt(v)}x" for c, v in sorted(speedups.items()))
        smoke = " **[smoke run — reduced sizes, not the headline numbers]**" \
            if entry["smoke"] else ""
        lines.append(f"- **{entry['label']}** — {cases} (best: {best_case}){smoke}")
        reuse = entry["mc_program_reuse"]
        if reuse.get("end_to_end_speedup"):
            lines.append(
                f"  - pipeline `mc_expected_counts` program reuse: "
                f"{fmt(reuse['end_to_end_speedup'])}x end-to-end "
                f"(n={reuse.get('n')}, {reuse.get('mc_repeats')} reps x "
                f"{reuse.get('mc_batch')} lanes)"
            )
    if not entries:
        lines.append("- (no benchmark artifacts found — run the `bench_*.py` suites)")
    return lines


def dispatch_lines(artifacts: dict) -> list:
    """Per-rung ladder trajectory + auto-dispatch from
    ``BENCH_dispatch.json`` (absent until its bench has run)."""
    payload = next(
        (p for p in artifacts.values()
         if p.get("benchmark") == "dispatch_ladder_and_auto_selection"),
        None,
    )
    if payload is None:
        return []
    lines = ["## Dispatch ladder (per-rung trajectory)", ""]
    smoke = " **[smoke run — reduced sizes]**" if payload.get("smoke") else ""
    lines.append(
        f"Auto-pick bar: {payload.get('auto_factor_bar', '?')}x of measured "
        f"best.{smoke}"
    )
    lines += [
        "",
        "| case | interp -> codegen | codegen -> vector "
        "| auto picked (factor) |",
        "|---|---|---|---|",
    ]
    for case, point in payload.get("results", {}).items():
        on = point.get("tally_on") or {}
        secs = on.get("seconds") or {}

        def rung(a, b):
            if not (secs.get(a) and secs.get(b)):
                return "-"
            return f"{secs[a] / secs[b]:.2f}x"

        lines.append(
            f"| {case} | {rung('interpretive', 'codegen')} "
            f"| {rung('codegen', 'vector')} "
            f"| {on.get('auto_choice', '-')} ({fmt(on.get('auto_factor', 0))}x) |"
        )
    return lines


def table_lines(artifacts: dict) -> list:
    lines = [
        "## All recorded metrics",
        "",
        "| artifact | case | metric | value |",
        "|---|---|---|---|",
    ]
    for fname, _bench, case, metric, value in flatten(artifacts):
        lines.append(f"| {fname} | {case} | {metric} | {fmt(value)} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the markdown report here instead of stdout")
    args = parser.parse_args(argv)

    artifacts = load_artifacts()
    lines = ["# Benchmark trajectory report", ""]
    lines += trajectory_lines(artifacts)
    dispatch = dispatch_lines(artifacts)
    if dispatch:
        lines.append("")
        lines += dispatch
    lines.append("")
    lines += table_lines(artifacts)
    report = "\n".join(lines) + "\n"

    payload = {
        "schema": 1,
        "artifacts": sorted(artifacts),
        "headline": headline_entries(artifacts),
        "metrics": [
            {"artifact": f, "benchmark": b, "case": c, "metric": m, "value": v}
            for f, b, c, m, v in flatten(artifacts)
        ],
    }
    report_path = BENCH_DIR / REPORT_JSON
    report_path.write_text(json.dumps(payload, indent=2) + "\n")

    if args.out:
        args.out.write_text(report)
        print(f"wrote {args.out} and {report_path.name} "
              f"({len(artifacts)} artifacts)")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
