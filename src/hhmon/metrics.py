"""Binary classification metrics and the three-row ablation report.

Undefined ratios (0/0) stay None end to end: a degenerate model that never
fires positive has no precision, and coercing that to 0 would corrupt model
comparisons.  The report renderer prints such cells as "undef" and missing
streams as "absent".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import DataError

MODEL_ROWS = ("RGB", "Flow", "RGB+Flow")
DEFAULT_THRESHOLD = 0.5


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def add(self, label: int, prediction: int) -> None:
        if label == 1:
            if prediction == 1:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if prediction == 1:
                self.fp += 1
            else:
                self.tn += 1


@dataclass
class MetricSet:
    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1}


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def metrics(cm: ConfusionMatrix) -> MetricSet:
    """accuracy, precision, recall, f1; any 0/0 is None, never 0."""
    if cm.total == 0:
        raise DataError("metrics need at least one evaluated clip")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricSet(accuracy, precision, recall, f1)


@dataclass
class ScoredClip:
    """Scores for one annotated clip; a missing stream stays None."""

    clip_id: str
    label: int
    score_rgb: float | None = None
    score_flow: float | None = None

    @property
    def score_fused(self) -> float | None:
        if self.score_rgb is None or self.score_flow is None:
            return None
        return (self.score_rgb + self.score_flow) / 2.0

    def score_for(self, model: str) -> float | None:
        return {"RGB": self.score_rgb, "Flow": self.score_flow,
                "RGB+Flow": self.score_fused}[model]

    def headline_score(self) -> float | None:
        """Fused when both streams exist, else whichever is present."""
        if self.score_fused is not None:
            return self.score_fused
        return self.score_rgb if self.score_rgb is not None else self.score_flow


def confusion_for(clips: list[ScoredClip], model: str,
                  threshold: float = DEFAULT_THRESHOLD) -> ConfusionMatrix | None:
    """Threshold one model's scores; None if any clip lacks that stream."""
    cm = ConfusionMatrix()
    for c in clips:
        s = c.score_for(model)
        if s is None:
            return None
        cm.add(c.label, int(s >= threshold))
    return cm


def score_log_lines(clips: list[ScoredClip], threshold: float = DEFAULT_THRESHOLD) -> list[str]:
    """`clip_id label score_rgb score_flow score_fused prediction` per clip."""
    lines = []
    for c in clips:
        vals = [c.score_rgb, c.score_flow, c.score_fused]
        cols = [c.clip_id, str(c.label)]
        cols += ["nan" if v is None else f"{v:.6f}" for v in vals]
        head = c.headline_score()
        cols.append("nan" if head is None else str(int(head >= threshold)))
        lines.append(" ".join(cols))
    return lines


def threshold_sweep(clips: list[ScoredClip], model: str) -> list[dict]:
    rows = []
    for t in np.linspace(0.0, 1.0, 21):
        cm = confusion_for(clips, model, float(t))
        if cm is None:
            continue
        m = metrics(cm)
        rows.append({"threshold": round(float(t), 6), "model": model, **m.as_dict()})
    return rows


@dataclass
class AblationReport:
    rows: dict[str, MetricSet | None]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        extra = set(self.rows) - set(MODEL_ROWS)
        if extra or set(MODEL_ROWS) - set(self.rows):
            raise DataError(f"report rows must be exactly {MODEL_ROWS}")

    def as_dict(self) -> dict:
        return {"rows": {k: (v.as_dict() if v else None) for k, v in self.rows.items()},
                "metadata": self.metadata}


def ablation_run(clips: list[ScoredClip], metadata: dict | None = None,
                 threshold: float = DEFAULT_THRESHOLD) -> AblationReport:
    """Three Table-shaped rows from one scored test set; absent streams stay None."""
    if not clips:
        raise DataError("ablation needs a non-empty scored test set")
    rows: dict[str, MetricSet | None] = {}
    for name in MODEL_ROWS:
        cm = confusion_for(clips, name, threshold)
        rows[name] = metrics(cm) if cm is not None else None
    return AblationReport(rows=rows, metadata=dict(metadata or {}))


def _cell(v: float | None) -> str:
    return "undef" if v is None else f"{v:.2f}"


def render_report(report: AblationReport) -> str:
    """Aligned text table mirroring the classic four-metric ablation layout."""
    header = f"{'Model':<12}{'Accuracy':>10}{'Precision':>11}{'Recall':>8}{'F1 score':>10}"
    lines = [header, "-" * len(header)]
    for name in MODEL_ROWS:
        m = report.rows[name]
        if m is None:
            cells = ["absent"] * 4
        else:
            cells = [_cell(m.accuracy), _cell(m.precision), _cell(m.recall), _cell(m.f1)]
        lines.append(f"{name:<12}{cells[0]:>10}{cells[1]:>11}{cells[2]:>8}{cells[3]:>10}")
    extra = report.metadata.get("transfer_comparison")
    if extra:
        lines.append("")
        lines.append(f"{'Head init':<12}{'Accuracy':>10}")
        for row in extra:
            acc = row.get("accuracy")
            lines.append(f"{row['name']:<12}{_cell(acc):>10}")
    return "\n".join(lines) + "\n"


def save_report(report: AblationReport, out_dir: str,
                clips: list[ScoredClip] | None = None,
                threshold: float = DEFAULT_THRESHOLD) -> None:
    """report.txt, report.json, scores.log, and a threshold sweep per stream,
    each file published whole (`artifacts.write`)."""
    files = {"report.txt": render_report(report),
             "report.json": json.dumps(report.as_dict(), indent=1)}
    if clips is not None:
        files["scores.log"] = "\n".join(score_log_lines(clips, threshold)) + "\n"
        sweep = [row for name in MODEL_ROWS for row in threshold_sweep(clips, name)]
        files["threshold_sweep.json"] = json.dumps(sweep, indent=1)
    for name, text in files.items():
        artifacts.write(os.path.join(out_dir, name), text)
