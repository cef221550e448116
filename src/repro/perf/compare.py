"""Regression gate: compare a bench report against a committed baseline.

The contract is deliberately simple so CI can rely on it: benchmarks
are matched by name, the metric is a throughput (higher is better),
and a benchmark *regresses* when its throughput falls more than
``fail_above`` percent below the baseline.  Improvements and
benchmarks missing from either side never fail the gate (missing ones
are reported so a silent rename can't disable the gate unnoticed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "ComparisonRow",
    "compare_reports",
    "render_comparison",
]


@dataclass
class ComparisonRow:
    """One benchmark's baseline-vs-current verdict."""

    name: str
    metric: str
    baseline: float
    current: float
    #: Positive = faster than baseline, negative = slower, in percent.
    change_pct: float
    regressed: bool


def _result_index(report: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    index: Dict[str, Dict[str, object]] = {}
    for row in report.get("results", []):
        index[str(row["name"])] = row
    return index


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    *,
    fail_above: float,
) -> Tuple[List[ComparisonRow], List[str], List[str]]:
    """Return ``(rows, unmatched, warnings)`` for ``current`` vs ``baseline``.

    ``fail_above`` is the tolerated throughput drop in percent; a row
    regresses when ``current < baseline * (1 - fail_above/100)``.
    ``unmatched`` lists benchmark names present in exactly one report.
    ``warnings`` flags comparisons whose numbers are not directly
    commensurable (quick-mode report vs full-mode baseline); warnings
    never fail the gate by themselves.
    """
    if fail_above < 0:
        raise ConfigurationError(f"--fail-above must be >= 0, got {fail_above}")
    warnings: List[str] = []
    cur_quick = bool(current.get("quick"))
    base_quick = bool(baseline.get("quick"))
    if cur_quick != base_quick:
        warnings.append(
            f"mode mismatch: current report is "
            f"{'quick' if cur_quick else 'full'} but baseline is "
            f"{'quick' if base_quick else 'full'}; absolute throughput "
            f"is not directly comparable across modes"
        )
    current_index = _result_index(current)
    baseline_index = _result_index(baseline)
    rows: List[ComparisonRow] = []
    for name, row in current_index.items():
        base = baseline_index.get(name)
        if base is None:
            continue
        base_value = float(base["value"])
        cur_value = float(row["value"])
        change_pct = (
            (cur_value - base_value) / base_value * 100.0 if base_value else 0.0
        )
        rows.append(
            ComparisonRow(
                name=name,
                metric=str(row.get("metric", "")),
                baseline=base_value,
                current=cur_value,
                change_pct=change_pct,
                regressed=change_pct < -fail_above,
            )
        )
    unmatched = sorted(
        set(current_index).symmetric_difference(baseline_index)
    )
    return rows, unmatched, warnings


def render_comparison(
    rows: Sequence[ComparisonRow],
    unmatched: Sequence[str],
    *,
    fail_above: float,
    warnings: Sequence[str] = (),
) -> str:
    """Terminal-friendly comparison table plus verdict line."""
    lines = [f"regression gate: fail when throughput drops > {fail_above:g}%"]
    for warning in warnings:
        lines.append(f"  WARNING: {warning}")
    if not rows:
        lines.append("  (no benchmarks in common with the baseline)")
    else:
        width = max(len(row.name) for row in rows)
        for row in rows:
            verdict = "REGRESSED" if row.regressed else "ok"
            lines.append(
                f"  {row.name.ljust(width)}  {row.baseline:>14,.0f} -> "
                f"{row.current:>14,.0f}  {row.change_pct:+7.1f}%  {verdict}"
            )
    for name in unmatched:
        lines.append(f"  {name}: present in only one report (not gated)")
    failures = [row.name for row in rows if row.regressed]
    if failures:
        lines.append(f"FAIL: {len(failures)} regression(s): {', '.join(failures)}")
    else:
        lines.append("PASS: no benchmark regressed beyond the threshold")
    return "\n".join(lines)
