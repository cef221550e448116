"""The ``repro-privacy/1`` document: the ``repro tune`` report.

``repro tune`` is its only producer: the document records every
evaluated configuration, the target envelope, the Pareto frontier and
the winning configuration, in the envelope of :mod:`repro.obs.report`.
``kind`` is always ``"tune"``; the field stays for ``/1`` readers.

Validation is strict about the auditability contract: every
evaluation's composite score must equal the weighted sum of its
decomposition components, so a report can never present a score its
own breakdown does not explain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..obs.report import report_header, validate_report

__all__ = [
    "PRIVACY_SCHEMA",
    "build_privacy_report",
    "privacy_payload_problems",
    "render_privacy_report",
]

#: Report schema identifier; bump when the JSON layout changes.
PRIVACY_SCHEMA = "repro-privacy/1"

#: |score - sum(weighted components)| tolerated by validation.
_AUDIT_TOLERANCE = 1e-9


def build_privacy_report(
    evaluations: Sequence[Dict[str, object]],
    *,
    targets: Dict[str, object],
    frontier: Optional[Sequence[str]] = None,
    winner: Optional[str] = None,
    baseline: Optional[str] = None,
    dominating: Optional[Sequence[str]] = None,
    cache: Optional[Dict[str, int]] = None,
    metrics: Optional[Dict[str, object]] = None,
    argv: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Assemble a ``repro-privacy/1`` tune document and validate it."""
    report: Dict[str, object] = {
        **report_header(PRIVACY_SCHEMA, argv),
        "kind": "tune",
        "targets": dict(targets),
        "evaluations": list(evaluations),
    }
    if frontier is not None:
        report["frontier"] = list(frontier)
    if winner is not None:
        report["winner"] = winner
    if baseline is not None:
        report["baseline"] = baseline
    if dominating is not None:
        report["dominating"] = list(dominating)
    if cache is not None:
        report["cache"] = dict(cache)
    if metrics is not None:
        report["metrics"] = metrics
    return validate_report(report)


def _evaluation_label(entry: Dict[str, object]) -> str:
    config = entry["config"]
    label = config.get("label")
    if label:
        return str(label)
    return "/".join(str(config[k]) for k in sorted(config))


def _evaluation_problem(index: int, entry: object) -> Optional[str]:
    """What is wrong with one evaluation (``None`` when valid)."""
    where = f"evaluations[{index}]"
    if not isinstance(entry, dict):
        return f"{where} is not an object"
    config = entry.get("config")
    if not isinstance(config, dict) or "slices" not in config:
        return f"{where} lacks a config with slices"
    privacy = entry.get("privacy")
    if not isinstance(privacy, dict):
        return f"{where} lacks a privacy block"
    score = privacy.get("score")
    if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
        return f"{where} privacy score {score!r} not in [0, 1]"
    components = privacy.get("components")
    if not isinstance(components, list) or not components:
        return f"{where} privacy decomposition missing"
    disclosure = entry.get("disclosure")
    if not isinstance(disclosure, dict) or not isinstance(
        disclosure.get("monte_carlo"), (int, float)
    ):
        return f"{where} lacks a numeric disclosure.monte_carlo"
    total = 0.0
    for part in components:
        if not isinstance(part, dict):
            return f"{where} has a non-object component"
        for field in ("name", "raw", "score", "weight", "weighted"):
            if field not in part:
                return f"{where} component lacks {field!r}"
        total += float(part["weighted"])
    if abs(total - float(score)) > _AUDIT_TOLERANCE:
        return (
            f"{where} score {score} is not the sum of its weighted "
            f"components ({total}) — decomposition not auditable"
        )
    return None


def privacy_payload_problems(report: Dict[str, object]) -> List[str]:
    """Problems with a ``repro-privacy/1`` payload (empty when valid).

    Checks the kind, the targets envelope, the auditability contract
    of every evaluation, and that the winner, baseline, frontier and
    dominating entries name evaluated configurations.
    """
    problems: List[str] = []
    if report.get("kind") != "tune":
        problems.append(f"kind {report.get('kind')!r} is not 'tune'")
    if not isinstance(report.get("targets"), dict):
        problems.append("tune reports must carry a targets envelope")
    evaluations = report.get("evaluations")
    if not isinstance(evaluations, list) or not evaluations:
        return problems + ["evaluations must be a non-empty list"]
    for index, entry in enumerate(evaluations):
        problem = _evaluation_problem(index, entry)
        if problem:
            problems.append(problem)
    if problems:
        return problems
    labels = [_evaluation_label(entry) for entry in evaluations]
    for field in ("winner", "baseline"):
        value = report.get(field)
        if value is not None and value not in labels:
            problems.append(
                f"{field} {value!r} names no evaluated configuration"
            )
    for field in ("frontier", "dominating"):
        value = report.get(field, [])
        if not isinstance(value, list):
            problems.append(f"{field} must be a list")
            continue
        for label in value:
            if label not in labels:
                problems.append(
                    f"{field} entry {label!r} names no evaluated "
                    "configuration"
                )
    return problems


def _format_targets(targets: Dict[str, object]) -> str:
    parts: List[str] = []
    if targets.get("min_privacy") is not None:
        parts.append(f"privacy >= {targets['min_privacy']:g}")
    if targets.get("max_overhead") is not None:
        parts.append(f"overhead <= {targets['max_overhead']:g}x")
    if targets.get("max_accuracy_loss") is not None:
        parts.append(
            f"accuracy loss <= {targets['max_accuracy_loss']:g}"
        )
    return ", ".join(parts) if parts else "(unconstrained)"


def render_privacy_report(report: Dict[str, object]) -> str:
    """Human-readable text view of a validated document."""
    lines = [
        f"{PRIVACY_SCHEMA} — privacy autotuner ({report['created_utc']})"
    ]
    if report.get("argv"):
        lines.append("argv: " + " ".join(report["argv"]))
    lines.append("targets: " + _format_targets(report["targets"]))
    frontier = set(report.get("frontier", []))
    dominating = set(report.get("dominating", []))
    winner = report.get("winner")
    baseline = report.get("baseline")

    header = (
        f"{'configuration':<34} {'privacy':>8} {'overhead':>9} "
        f"{'accuracy':>9} {'disclose':>9}  flags"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in report["evaluations"]:
        label = _evaluation_label(entry)
        privacy = entry["privacy"]["score"]
        overhead = entry.get("overhead", {}).get("ratio")
        accuracy = entry.get("accuracy", {}).get("mean")
        disclosure = entry["disclosure"]["monte_carlo"]
        flags = []
        if label == baseline:
            flags.append("baseline")
        if label in frontier:
            flags.append("frontier")
        if label in dominating:
            flags.append("dominates")
        if label == winner:
            flags.append("WINNER")
        lines.append(
            f"{label:<34} {privacy:>8.4f} "
            f"{('%9.3f' % overhead) if overhead is not None else '       --'} "
            f"{('%9.4f' % accuracy) if accuracy is not None else '       --'} "
            f"{disclosure:>9.5f}  {' '.join(flags)}"
        )

    if winner is None:
        lines.append("no configuration meets the target envelope")
    else:
        for entry in report["evaluations"]:
            if _evaluation_label(entry) != winner:
                continue
            lines.append(f"winner: {winner} — score decomposition:")
            for part in entry["privacy"]["components"]:
                lines.append(
                    f"  {part['name']:<20} raw={part['raw']:<10.5g} "
                    f"score={part['score']:.4f} "
                    f"weight={part['weight']:.2f} "
                    f"-> {part['weighted']:.4f}"
                )
            break
    if report.get("cache"):
        cache = report["cache"]
        lines.append(
            f"store {cache.get('hits', 0)}/{cache.get('misses', 0)} "
            "hit/miss"
        )
    return "\n".join(lines)
