"""Metric arithmetic against recount oracles, plus the report renderer."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhmon.errors import DataError
from hhmon.metrics import (
    DEFAULT_THRESHOLD,
    MODEL_ROWS,
    AblationReport,
    ConfusionMatrix,
    MetricSet,
    ScoredClip,
    ablation_run,
    confusion_for,
    metrics,
    render_report,
    save_report,
    score_log_lines,
    threshold_sweep,
)


def metrics_oracle(tp, fp, fn, tn):
    """Straight per-definition recount, fractions kept exact until division."""
    total = tp + fp + fn + tn
    acc = (tp + tn) / total
    prec = tp / (tp + fp) if tp + fp else None
    rec = tp / (tp + fn) if tp + fn else None
    if prec is None or rec is None or prec + rec == 0:
        f1 = None
    else:
        f1 = 2 * prec * rec / (prec + rec)
    return acc, prec, rec, f1


counts = st.integers(0, 400)


@given(tp=counts, fp=counts, fn=counts, tn=counts)
def test_metrics_match_the_recount_oracle(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        with pytest.raises(DataError):
            metrics(ConfusionMatrix(tp, fp, fn, tn))
        return
    m = metrics(ConfusionMatrix(tp, fp, fn, tn))
    acc, prec, rec, f1 = metrics_oracle(tp, fp, fn, tn)
    assert m.accuracy == acc
    assert m.precision == prec
    assert m.recall == rec
    assert m.f1 == f1


def test_hand_checked_confusion_fixture():
    m = metrics(ConfusionMatrix(tp=2, fp=0, fn=7, tn=6))
    assert m.precision == 1.0
    assert round(m.recall, 4) == 0.2222
    assert m.accuracy == 8 / 15
    assert m.f1 == pytest.approx(4 / 11)


def test_f1_rounds_to_074_at_085_precision_065_recall():
    # integer counts that land exactly on the two operand values
    cm = ConfusionMatrix(tp=221, fp=39, fn=119, tn=100)
    m = metrics(cm)
    assert m.precision == pytest.approx(0.85)
    assert m.recall == pytest.approx(0.65)
    assert f"{m.f1:.2f}" == "0.74"


def test_perfect_and_degenerate_models():
    perfect = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
    assert perfect.accuracy == 1.0 and perfect.f1 == 1.0
    never_fires = metrics(ConfusionMatrix(tp=0, fp=0, fn=4, tn=6))
    assert never_fires.precision is None
    assert never_fires.recall == 0.0
    assert never_fires.f1 is None
    no_positives = metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
    assert no_positives.recall is None


def test_confusion_validation():
    with pytest.raises(DataError, match="non-negative"):
        ConfusionMatrix(tp=-1)
    with pytest.raises(DataError, match="at least one"):
        metrics(ConfusionMatrix())


def test_confusion_add_covers_all_quadrants():
    cm = ConfusionMatrix()
    for label, pred in ((1, 1), (1, 0), (0, 1), (0, 0)):
        cm.add(label, pred)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)


def clip(i, label, rgb=None, flow=None):
    return ScoredClip(clip_id=f"c{i}", label=label, score_rgb=rgb, score_flow=flow)


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0.001, 0.999)),
                min_size=1, max_size=40))
def test_confusion_for_matches_manual_thresholding(items):
    clips = [clip(i, lab, rgb=s) for i, (lab, s) in enumerate(items)]
    cm = confusion_for(clips, "RGB")
    want = ConfusionMatrix()
    for lab, s in items:
        want.add(lab, int(s >= DEFAULT_THRESHOLD))
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (want.tp, want.fp, want.fn, want.tn)


def test_confusion_order_invariance(rng):
    clips = [clip(i, int(rng.integers(0, 2)), rgb=float(rng.random()))
             for i in range(30)]
    cm1 = confusion_for(clips, "RGB")
    cm2 = confusion_for(clips[::-1], "RGB")
    assert vars(cm1) == vars(cm2)


def test_missing_stream_yields_no_confusion():
    clips = [clip(0, 1, rgb=0.9, flow=0.8), clip(1, 0, rgb=0.2)]
    assert confusion_for(clips, "Flow") is None
    assert confusion_for(clips, "RGB+Flow") is None
    assert confusion_for(clips, "RGB") is not None


def test_fused_score_is_the_stream_mean():
    c = clip(0, 1, rgb=0.8, flow=0.6)
    assert c.score_fused == pytest.approx(0.7)
    assert clip(0, 1, rgb=0.8).score_fused is None
    assert c.score_for("RGB+Flow") == c.score_fused


def test_fusion_is_symmetric_and_idempotent():
    a, b = clip(0, 1, rgb=0.3, flow=0.9), clip(1, 1, rgb=0.9, flow=0.3)
    assert a.score_fused == b.score_fused
    assert clip(2, 0, rgb=0.4, flow=0.4).score_fused == pytest.approx(0.4)


@given(st.lists(st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6)),
                min_size=1, max_size=8))
def test_fusion_stays_between_the_streams(pairs):
    for i, (rgb, flow) in enumerate(pairs):
        fused = clip(i, 1, rgb=rgb, flow=flow).score_fused
        assert 0 < fused < 1
        assert min(rgb, flow) - 1e-12 <= fused <= max(rgb, flow) + 1e-12


def test_headline_score_prefers_fusion_then_any_stream():
    assert clip(0, 1, rgb=0.8, flow=0.6).headline_score() == pytest.approx(0.7)
    assert clip(0, 1, rgb=0.8).headline_score() == 0.8
    assert clip(0, 1, flow=0.3).headline_score() == 0.3
    assert clip(0, 1).headline_score() is None


def test_ablation_report_has_exactly_three_rows():
    clips = [clip(0, 1, rgb=0.9, flow=0.7), clip(1, 0, rgb=0.1, flow=0.4)]
    report = ablation_run(clips)
    assert set(report.rows) == set(MODEL_ROWS)
    assert report.rows["RGB"].accuracy == 1.0
    with pytest.raises(DataError, match="non-empty"):
        ablation_run([])


def test_ablation_marks_missing_streams_absent():
    clips = [clip(0, 1, rgb=0.9), clip(1, 0, rgb=0.1)]
    report = ablation_run(clips)
    assert report.rows["RGB"] is not None
    assert report.rows["Flow"] is None
    assert report.rows["RGB+Flow"] is None
    text = render_report(report)
    assert text.count("absent") == 8


def test_report_row_names_are_locked():
    good = {name: None for name in MODEL_ROWS}
    with pytest.raises(DataError, match="exactly"):
        AblationReport(rows={**good, "Audio": None})
    with pytest.raises(DataError, match="exactly"):
        AblationReport(rows={"RGB": None, "Flow": None})


def test_report_renders_the_reference_table_exactly():
    rows = {
        "RGB": MetricSet(0.76, 0.85, 0.65, 0.74),
        "Flow": MetricSet(0.62, 1.00, 0.22, 0.36),
        "RGB+Flow": MetricSet(0.61, 0.94, 0.28, 0.43),
    }
    want = (
        "Model         Accuracy  Precision  Recall  F1 score\n"
        "---------------------------------------------------\n"
        "RGB               0.76       0.85    0.65      0.74\n"
        "Flow              0.62       1.00    0.22      0.36\n"
        "RGB+Flow          0.61       0.94    0.28      0.43\n"
    )
    assert render_report(AblationReport(rows=rows, metadata={})) == want


def test_report_appends_the_transfer_comparison():
    rows = {name: MetricSet(1.0, 1.0, 1.0, 1.0) for name in MODEL_ROWS}
    report = AblationReport(rows=rows, metadata={"transfer_comparison": [
        {"name": "pretrained", "accuracy": 0.97},
        {"name": "scratch", "accuracy": 0.55},
    ]})
    text = render_report(report)
    assert "Head init     Accuracy\n" in text
    assert "pretrained        0.97\n" in text
    assert "scratch           0.55\n" in text


def test_undefined_cells_render_as_undef():
    rows = {name: MetricSet(0.5, None, 0.0, None) for name in MODEL_ROWS}
    text = render_report(AblationReport(rows=rows))
    assert "undef" in text.splitlines()[2]


def test_score_log_line_format():
    lines = score_log_lines([
        clip(0, 1, rgb=0.8, flow=0.6),
        clip(1, 0, rgb=0.25),
    ])
    assert lines[0] == "c0 1 0.800000 0.600000 0.700000 1"
    assert lines[1] == "c1 0 0.250000 nan nan 0"


def test_threshold_sweep_covers_21_points():
    clips = [clip(i, i % 2, rgb=0.1 + 0.05 * i) for i in range(10)]
    rows = threshold_sweep(clips, "RGB")
    assert len(rows) == 21
    assert rows[0]["threshold"] == 0.0
    assert rows[-1]["threshold"] == 1.0
    # at threshold 0 every score passes, so recall is total
    assert rows[0]["recall"] == 1.0
    assert all(r["model"] == "RGB" for r in rows)
    assert threshold_sweep([clip(0, 1, rgb=0.5)], "Flow") == []


def test_save_report_writes_all_artifacts(tmp_path):
    clips = [clip(0, 1, rgb=0.9, flow=0.8), clip(1, 0, rgb=0.3, flow=0.1)]
    report = ablation_run(clips, metadata={"seed": 0})
    out = tmp_path / "report"
    save_report(report, str(out), clips)
    names = {p.name for p in out.iterdir()}
    assert names == {"report.txt", "report.json", "scores.log", "threshold_sweep.json"}
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["metadata"] == {"seed": 0}
    assert parsed["rows"]["RGB"]["accuracy"] == 1.0
    sweep = json.loads((out / "threshold_sweep.json").read_text())
    assert len(sweep) == 63  # 21 thresholds x 3 streams
    assert (out / "scores.log").read_text().count("\n") == 2


def test_save_report_without_clips_writes_table_only(tmp_path):
    report = ablation_run([clip(0, 1, rgb=0.9)], metadata={})
    out = tmp_path / "r"
    save_report(report, str(out))
    assert {p.name for p in out.iterdir()} == {"report.txt", "report.json"}
