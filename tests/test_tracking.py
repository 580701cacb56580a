"""IoU linking and SMA smoothing against counting / direct-average oracles."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhmon import tracking
from hhmon.errors import ConfigError, DataError
from hhmon.pose import BBox
from hhmon.tracking import (
    Edit,
    LinkParams,
    Track,
    correct_assignment,
    iou,
    link_detections,
    link_step,
    smooth_track,
)

from helpers import link_step_oracle


def iou_pixel_oracle(a, b):
    """Count unit cells on an integer grid; exact for integer-coordinate boxes."""
    x2 = int(max(a.x2, b.x2))
    y2 = int(max(a.y2, b.y2))
    grid_a = np.zeros((y2 + 1, x2 + 1), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[int(a.y1):int(a.y2), int(a.x1):int(a.x2)] = True
    grid_b[int(b.y1):int(b.y2), int(b.x1):int(b.x2)] = True
    union = np.logical_or(grid_a, grid_b).sum()
    inter = np.logical_and(grid_a, grid_b).sum()
    return inter / union if union else 0.0


def trailing_average_oracle(series, window):
    out = []
    for n in range(len(series)):
        k = min(n + 1, window)
        out.append(sum(series[n - k + 1 : n + 1]) / k)
    return out


def box_track(xs, y=0.0, size=2.0):
    """Track whose x1 follows `xs`; the other coords ride along rigidly."""
    return Track(0, entries=[(i, BBox(x, y, x + size, y + size)) for i, x in enumerate(xs)])


def test_iou_identical_boxes():
    b = BBox(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes():
    assert iou(BBox(0, 0, 2, 2), BBox(5, 5, 7, 7)) == 0.0


def test_iou_hand_computed_seventh():
    v = iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3))
    assert abs(v - 1 / 7) < 1e-12
    assert abs(v - iou_pixel_oracle(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3))) < 1e-12


int_box = st.tuples(st.integers(0, 12), st.integers(0, 12),
                    st.integers(1, 8), st.integers(1, 8))


@given(a=int_box, b=int_box)
def test_iou_matches_pixel_count_oracle(a, b):
    ba = BBox(a[0], a[1], a[0] + a[2], a[1] + a[3])
    bb = BBox(b[0], b[1], b[0] + b[2], b[1] + b[3])
    assert abs(iou(ba, bb) - iou_pixel_oracle(ba, bb)) < 1e-12


@given(a=int_box, b=int_box)
def test_iou_symmetric_and_bounded(a, b):
    ba = BBox(a[0], a[1], a[0] + a[2], a[1] + a[3])
    bb = BBox(b[0], b[1], b[0] + b[2], b[1] + b[3])
    assert iou(ba, bb) == iou(bb, ba)
    assert 0.0 <= iou(ba, bb) <= 1.0


def test_link_step_single_assignment():
    track = Track(0, entries=[(0, BBox(0, 0, 10, 10))])
    det = BBox(0, 1, 10, 11)
    assigned, born = link_step([track], [det], frame_index=1, tau_new=0.1)
    assert assigned == [(0, 0)]
    assert born == []
    assert track.entries[-1] == (1, det)


def test_link_step_greedy_prefers_global_maximum():
    # pairwise IoUs roughly [[0.7, 0.2], [0.18, 0.6]]; greedy takes 0.7 then 0.6
    t0 = Track(0, entries=[(0, BBox(0, 0, 10, 10))])
    t1 = Track(1, entries=[(0, BBox(6, 0, 16, 10))])
    d0 = BBox(0, 1.76, 10, 11.76)
    d1 = BBox(6, 2.5, 16, 12.5)
    assigned, _ = link_step([t0, t1], [d0, d1], frame_index=1, tau_new=0.1)
    assert sorted(assigned) == [(0, 0), (1, 1)]


def test_link_step_below_threshold_starts_new_track():
    track = Track(0, entries=[(0, BBox(0, 0, 10, 10))])
    far = BBox(9.8, 9.8, 19.8, 19.8)  # IoU well under 0.1
    assert iou(track.entries[0][1], far) < 0.1
    assigned, born = link_step([track], [far], frame_index=1, tau_new=0.1)
    assert assigned == []
    assert len(born) == 1
    assert born[0].track_id == 1
    assert len(track.entries) == 1  # the old track gains nothing


def test_link_step_tie_breaks_by_lower_track_id():
    shared = BBox(0, 0, 10, 10)
    t0 = Track(0, entries=[(0, shared)])
    t1 = Track(1, entries=[(0, shared)])
    assigned, _ = link_step([t0, t1], [shared], frame_index=1, tau_new=0.1)
    assert assigned == [(0, 0)]


def test_link_step_equals_the_rescanning_loop_on_random_frames(rng):
    # a coarse grid of small boxes makes equal IoUs common, so the tie rules
    # decide many of these matches; track ids run out of index order
    def boxes(n):
        x, y = rng.integers(0, 4, size=(2, n))
        w, h = rng.integers(1, 4, size=(2, n))
        return [BBox(float(a), float(b), float(a + c), float(b + d))
                for a, b, c, d in zip(x, y, w, h)]

    for case in range(3000):
        ids = rng.permutation(8)[:rng.integers(0, 5)]
        last = boxes(len(ids))
        dets = boxes(rng.integers(0, 5))
        tau = (0.0, 0.1, 0.3)[case % 3]
        runs = []
        for link in (link_step, link_step_oracle):
            tracks = [Track(int(i), entries=[(0, b)]) for i, b in zip(ids, last)]
            matches, born = link(tracks, dets, 1, tau)
            runs.append((matches, [t.entries for t in tracks],
                         [(t.track_id, t.entries) for t in born]))
        assert runs[0] == runs[1], case


def test_link_detections_one_to_one_per_frame(rng):
    per_frame = []
    for f in range(30):
        boxes = [BBox(x, 0, x + 8, 8) for x in rng.uniform(0, 40, size=3)]
        per_frame.append((f, boxes))
    tracks = link_detections(per_frame, LinkParams())
    for f, boxes in per_frame:
        owners = [t.track_id for t in tracks for ff, b in t.entries if ff == f]
        assert len(owners) == len(set(owners))  # no track owns two detections
        claimed = sum(1 for t in tracks for ff, _ in t.entries if ff == f)
        assert claimed == len(boxes)  # every detection owned exactly once
    for t in tracks:
        t.validate()


def test_link_detections_identity_on_two_parallel_streams():
    # two well-separated drifting boxes; each track must stay on its own stream
    per_frame = []
    truth = {}
    for f in range(40):
        left = BBox(5 + 0.3 * f, 10, 15 + 0.3 * f, 22)
        right = BBox(60 - 0.2 * f, 12, 70 - 0.2 * f, 24)
        per_frame.append((f, [right, left] if f % 2 else [left, right]))
        truth[f] = {"left": left, "right": right}
    tracks = link_detections(per_frame, LinkParams())
    assert len(tracks) == 2
    for t in tracks:
        sides = set()
        for f, b in t.entries:
            side = "left" if abs(b.x1 - truth[f]["left"].x1) < 1e-9 else "right"
            sides.add(side)
        assert len(sides) == 1
        assert len(t.entries) == 40


def test_link_detections_gap_closes_track():
    per_frame = [(f, [BBox(0, 0, 10, 10)]) for f in range(3)]
    per_frame += [(f, []) for f in range(3, 15)]
    per_frame += [(f, [BBox(0, 0, 10, 10)]) for f in range(15, 18)]
    tracks = link_detections(per_frame, LinkParams(max_gap=8))
    assert len(tracks) == 2  # 12-frame silence exceeds the gap budget


def test_link_determinism(rng):
    per_frame = []
    for f in range(20):
        boxes = [BBox(x, 0, x + 6, 6) for x in rng.uniform(0, 30, size=2)]
        per_frame.append((f, boxes))
    a = link_detections(per_frame, LinkParams())
    b = link_detections(per_frame, LinkParams())
    assert [(t.track_id, t.entries) for t in a] == [(t.track_id, t.entries) for t in b]


def test_sma_hand_computed_average():
    t = box_track([0, 4, 8, 12])
    sm = smooth_track(t, 4)
    assert sm.smoothed[3][1].x1 == pytest.approx(6.0)  # (0+4+8+12)/4


def test_sma_warmup_first_frame_is_raw():
    t = box_track([3, 9, 27])
    sm = smooth_track(t, 4)
    assert sm.smoothed[0][1].x1 == pytest.approx(3.0)
    assert sm.smoothed[1][1].x1 == pytest.approx(6.0)  # mean of 2 during warm-up


def test_sma_constant_series_unchanged():
    t = box_track([5] * 10)
    sm = smooth_track(t, 4)
    assert all(b.x1 == pytest.approx(5.0) for _, b in sm.smoothed)


@given(xs=st.lists(st.floats(0, 100), min_size=1, max_size=30))
def test_sma_window_one_is_identity(xs):
    sm = smooth_track(box_track(xs), 1)
    raw = [b.x1 for _, b in sm.entries]
    out = [b.x1 for _, b in sm.smoothed]
    np.testing.assert_allclose(out, raw, atol=1e-12)


@given(xs=st.lists(st.floats(0, 100), min_size=1, max_size=30),
       window=st.integers(1, 8))
def test_sma_matches_trailing_average_oracle(xs, window):
    sm = smooth_track(box_track(xs), window)
    expect = trailing_average_oracle(xs, window)
    np.testing.assert_allclose([b.x1 for _, b in sm.smoothed], expect, atol=1e-9)


@given(xs=st.lists(st.floats(0, 100), min_size=1, max_size=30),
       window=st.integers(1, 8))
def test_sma_bounded_by_window_extremes(xs, window):
    sm = smooth_track(box_track(xs), window)
    for n, (_, b) in enumerate(sm.smoothed):
        lo = min(xs[max(0, n - window + 1) : n + 1])
        hi = max(xs[max(0, n - window + 1) : n + 1])
        assert lo - 1e-9 <= b.x1 <= hi + 1e-9


def test_sma_preserves_raw_entries():
    t = box_track([0, 4, 8, 12])
    sm = smooth_track(t, 4)
    assert sm.entries == t.entries


def test_smoothing_window_validation():
    with pytest.raises(ConfigError, match="smoothing window must be >= 1"):
        LinkParams(smooth_window=0)


def test_corrections_empty_edit_list_is_identity():
    t = box_track([0, 1, 2])
    out = correct_assignment([t], [])
    assert out[0].entries == t.entries


def test_corrections_move_detection():
    t1 = Track(1, entries=[(6, BBox(0, 0, 2, 2))])
    t2 = Track(2, entries=[(7, BBox(5, 5, 7, 7))])
    out = correct_assignment([t1, t2], [Edit("move", (7, 2, 1))])
    frames = {t.track_id: [f for f, _ in t.entries] for t in out}
    assert frames == {1: [6, 7]}


def test_corrections_move_dangling_reference_errors():
    t1 = Track(1, entries=[(6, BBox(0, 0, 2, 2))])
    with pytest.raises(DataError, match="no detection at frame 9"):
        correct_assignment([t1], [Edit("move", (9, 1, 1))])


def test_corrections_merge_overlap_errors():
    t1 = Track(1, entries=[(3, BBox(0, 0, 2, 2))])
    t2 = Track(2, entries=[(3, BBox(5, 5, 7, 7))])
    with pytest.raises(DataError, match="overlap"):
        correct_assignment([t1, t2], [Edit("merge", (1, 2))])


def test_corrections_merge_disjoint_tracks():
    t1 = Track(1, entries=[(0, BBox(0, 0, 2, 2)), (1, BBox(0, 0, 2, 2))])
    t2 = Track(2, entries=[(5, BBox(0, 0, 2, 2))])
    out = correct_assignment([t1, t2], [Edit("merge", (1, 2))])
    assert len(out) == 1
    assert [f for f, _ in out[0].entries] == [0, 1, 5]


def test_corrections_split_moves_tail_to_fresh_track():
    t = Track(0, entries=[(i, BBox(i, 0, i + 2, 2)) for i in range(6)])
    out = correct_assignment([t], [Edit("split", (0, 3))])
    assert len(out) == 2
    assert [f for f, _ in out[0].entries] == [0, 1, 2]
    assert [f for f, _ in out[1].entries] == [3, 4, 5]
    assert out[1].track_id == 1


def test_parse_corrections_file(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("# comment\nmove 7 2 1\nsplit 0 3\nmerge 1 2\n")
    edits = tracking.parse_corrections(str(path))
    assert edits == [Edit("move", (7, 2, 1)), Edit("split", (0, 3)), Edit("merge", (1, 2))]


def test_parse_corrections_rejects_unknown_edit(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("teleport 1 2\n")
    with pytest.raises(DataError, match=":1"):
        tracking.parse_corrections(str(path))


@pytest.mark.parametrize("bad", ["0 x 1 2 3 4 1 2 3 4", "0 1 1 2 3 four 1 2 3 4"],
                         ids=["frame", "coordinate"])
def test_track_file_with_a_malformed_value_names_its_line(tmp_path, bad):
    path = tmp_path / "tracks.txt"
    path.write_text(f"0 0 1 2 3 4 1 2 3 4\n{bad}\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: malformed value"):
        tracking.load_tracks(str(path))


def test_track_file_roundtrip_lossless(tmp_path, rng):
    tracks = []
    for tid in range(3):
        entries = [(f, BBox(*sorted(rng.uniform(0, 50, 2)) + [60, 70]))
                   for f in range(5)]
        t = Track(tid, entries=entries)
        tracks.append(smooth_track(t, 4))
    path = str(tmp_path / "tracks.txt")
    tracking.save_tracks(tracks, path)
    back = tracking.load_tracks(path)
    assert len(back) == len(tracks)
    for a, b in zip(back, tracks):
        assert a.track_id == b.track_id
        for (fa, ba), (fb, bb) in zip(a.entries, b.entries):
            assert fa == fb and ba.coords() == bb.coords()
        for (fa, ba), (fb, bb) in zip(a.smoothed, b.smoothed):
            assert fa == fb and ba.coords() == bb.coords()
