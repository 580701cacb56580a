"""Window enumeration, clip augmentation and date-disjoint splitting."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhmon.clipset import (
    CLIP_LEN,
    AnnotationRecord,
    AugmentConfig,
    crop_window,
    load_annotations,
    sample_clip,
    sample_rng,
    save_annotations,
    split_dataset,
    window_starts,
)
from hhmon.errors import ConfigError, DataError
from hhmon.frameio import FrameSequence
from hhmon.pose import BBox
from hhmon.tracking import Track
from helpers import crop_window_oracle, to_net_oracle


def windows_oracle(clip_len, stride):
    """Every start whose window fits, on the stride grid."""
    return [s for s in range(clip_len) if s + CLIP_LEN <= clip_len and s % stride == 0]


def random_lengths(total, parts, rng, minimum=CLIP_LEN):
    """Partition `total` frames into `parts` clips of at least `minimum`."""
    extra = total - parts * minimum
    assert extra >= 0
    counts = rng.multinomial(extra, [1.0 / parts] * parts)
    return [minimum + int(c) for c in counts]


def static_sequence(rng, n_frames=24, width=48, height=36, video_id="v", date_tag="d0"):
    img = rng.random((height, width, 3)).astype(np.float32)
    return FrameSequence(np.repeat(img[None], n_frames, axis=0),
                         fps=15.0, video_id=video_id, date_tag=date_tag)


def fixed_track(box, n_frames, track_id=0):
    return Track(track_id, entries=[(t, box) for t in range(n_frames)])


def test_positive_window_count_identity_231():
    # total 111 windows no matter how 231 frames spread over the 8 clips
    rng = np.random.default_rng(0)
    cfg = AugmentConfig()
    for _ in range(50):
        lengths = random_lengths(231, 8, rng)
        count = sum(len(window_starts(n, 1, cfg)) for n in lengths)
        assert count == 111
    lengths = random_lengths(232, 8, rng)
    assert sum(len(window_starts(n, 1, cfg)) for n in lengths) == 112


def test_negative_windows_use_stride_four():
    assert window_starts(20, 0) == [0, 4]
    assert window_starts(23, 0) == [0, 4]
    assert window_starts(24, 0) == [0, 4, 8]


def test_short_clip_yields_no_windows():
    assert window_starts(15, 1) == []
    assert window_starts(0, 0) == []
    assert window_starts(16, 1) == [0]


@given(clip_len=st.integers(0, 200), pos=st.integers(1, 8), neg=st.integers(1, 8))
def test_window_starts_match_oracle(clip_len, pos, neg):
    cfg = AugmentConfig(pos_stride=pos, neg_stride=neg)
    assert window_starts(clip_len, 1, cfg) == windows_oracle(clip_len, pos)
    assert window_starts(clip_len, 0, cfg) == windows_oracle(clip_len, neg)


def test_sample_rng_is_a_pure_function_of_provenance():
    a = sample_rng(5, ("vid", "d1", 3)).random(8)
    b = sample_rng(5, ("vid", "d1", 3)).random(8)
    c = sample_rng(5, ("vid", "d1", 4)).random(8)
    d = sample_rng(6, ("vid", "d1", 3)).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_crop_box_is_frozen_at_the_start_frame(rng):
    # static imagery + a drifting track: a frozen box means identical planes
    seq = static_sequence(rng)
    drifting = Track(0, entries=[(t, BBox(5.0 + t, 5.0, 25.0 + t, 25.0))
                                 for t in range(len(seq))])
    sample = sample_clip(seq, drifting, 0, AugmentConfig(input_size=16), mode="eval")
    for t in range(1, CLIP_LEN):
        assert np.array_equal(sample[:, t], sample[:, 0])


def test_eval_sampling_is_deterministic(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), len(seq))
    cfg = AugmentConfig(input_size=16)
    a = sample_clip(seq, track, 2, cfg, mode="eval")
    b = sample_clip(seq, track, 2, cfg, mode="eval")
    assert np.array_equal(a, b)


def test_train_sampling_reproducible_from_seed(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), len(seq))
    cfg = AugmentConfig(input_size=16)
    a = sample_clip(seq, track, 1, cfg, mode="train", seed=9)
    b = sample_clip(seq, track, 1, cfg, mode="train", seed=9)
    assert np.array_equal(a, b)


def test_collapsed_augmentation_equals_eval(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), len(seq))
    cfg = AugmentConfig(scale_min=1.0, scale_max=1.0, flip_prob=0.0,
                        brightness_extent=0.0, input_size=16)
    trained = sample_clip(seq, track, 0, cfg, mode="train")
    evaled = sample_clip(seq, track, 0, cfg, mode="eval")
    assert np.allclose(trained, evaled, atol=1e-6)


def test_train_augmentation_changes_the_crop(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(8.0, 8.0, 28.0, 28.0), len(seq))
    cfg = AugmentConfig(scale_min=1.4, scale_max=1.6, flip_prob=0.0,
                        brightness_extent=0.0, input_size=16)
    trained = sample_clip(seq, track, 0, cfg, mode="train", seed=0)
    evaled = sample_clip(seq, track, 0, cfg, mode="eval")
    assert not np.allclose(trained, evaled, atol=1e-4)


def test_clip_shape_and_dtype(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), len(seq))
    sample = sample_clip(seq, track, 0, AugmentConfig(input_size=24), mode="eval")
    assert sample.shape == (3, 16, 24, 24)
    assert sample.dtype == np.float32


def test_window_past_the_end_is_rejected(rng):
    seq = static_sequence(rng, n_frames=20)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), 20)
    with pytest.raises(DataError, match="exceeds"):
        sample_clip(seq, track, 5, AugmentConfig(input_size=16))


def test_track_without_a_box_at_start_is_rejected(rng):
    seq = static_sequence(rng)
    late = Track(0, entries=[(t, BBox(4.0, 4.0, 30.0, 30.0)) for t in range(5, 24)])
    with pytest.raises(DataError, match="no box at frame 0"):
        sample_clip(seq, late, 0, AugmentConfig(input_size=16))


def test_sample_still_shape_and_bounds(rng):
    seq = static_sequence(rng)
    track = fixed_track(BBox(4.0, 4.0, 30.0, 30.0), len(seq))
    still = sample_clip(seq, track, 3, AugmentConfig(input_size=16), mode="eval", n_frames=1)
    assert still.shape == (3, 1, 16, 16)
    sample_clip(seq, track, len(seq) - 1, AugmentConfig(input_size=16), n_frames=1)
    with pytest.raises(DataError, match="exceeds"):
        sample_clip(seq, track, len(seq), AugmentConfig(input_size=16), n_frames=1)
    with pytest.raises(DataError, match="exceeds"):
        sample_clip(seq, track, -1, AugmentConfig(input_size=16), n_frames=1)


def test_train_still_is_the_first_frame_of_its_window(rng):
    # same provenance, same draws in the same order: a still at frame f is
    # exactly frame 0 of the augmented 16-frame window starting at f
    seq = FrameSequence(rng.random((24, 36, 48, 3)).astype(np.float32),
                        fps=15.0, video_id="v", date_tag="d0")
    track = fixed_track(BBox(8.0, 6.0, 30.0, 28.0), len(seq))
    cfg = AugmentConfig(scale_min=1.2, scale_max=1.6, flip_prob=0.5, input_size=16)
    for start in range(0, 8):
        window = sample_clip(seq, track, start, cfg, mode="train", seed=3)
        still = sample_clip(seq, track, start, cfg, mode="train", seed=3, n_frames=1)
        assert np.array_equal(still[:, 0], window[:, 0])


@pytest.mark.parametrize("channels", [3, 2, 1])
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("box", [
    BBox(7.4, 5.6, 30.2, 33.9), BBox(-3.0, 20.0, 60.0, 50.0), None,
    BBox(0.0, 0.0, 12.0, 30.0), BBox(3.0, 1.0, 40.0, 12.0),
], ids=["inside", "clipped", "whole-frame", "tall-x0-zero", "wide-x0-positive"])
def test_crop_window_equals_the_per_frame_loop(rng, channels, flip, box):
    # signed flow values exercise the u negation; brightness reaches the clamp.
    # A tall box keeps the whole resized width (x0 == 0), so a flip reads the
    # window right to left down to column 0; a wide box crops it (x0 > 0).
    scale, shift = (1.0, 0.0) if channels == 3 else (6.0, -3.0)
    seq = FrameSequence(np.stack([(rng.random((36, 48, channels)) * scale + shift)
                                  .astype(np.float32) for _ in range(20)]))
    for size, n, delta in ((16, CLIP_LEN, 0.3), (24, 1, -0.05), (40, 3, 0.0)):
        got = crop_window(seq, box, 2, n, size, flip, delta)
        want = to_net_oracle(crop_window_oracle(seq, box, 2, n, size, flip, delta))
        assert got.shape == want.shape == (channels, n, size, size)
        assert got.dtype == want.dtype == np.float32
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        if channels == 3:  # RGB is centered on zero, in [-1, 1]
            assert got.min() >= -1.0 and got.max() <= 1.0


def test_crop_window_rejects_a_box_outside_the_frame(rng):
    seq = static_sequence(rng)
    with pytest.raises(DataError, match="zero-area"):
        crop_window(seq, BBox(60.0, 2.0, 80.0, 20.0), 0, CLIP_LEN, 16)


def test_augment_config_validation():
    with pytest.raises(ConfigError):
        AugmentConfig(scale_min=0.5)
    with pytest.raises(ConfigError):
        AugmentConfig(scale_min=1.5, scale_max=1.2)
    with pytest.raises(ConfigError):
        AugmentConfig(flip_prob=1.5)


def rec(vid, date, n_frames, label=1, synthetic=False):
    return AnnotationRecord(video_id=vid, date_tag=date, track_id=0,
                            start_frame=0, end_frame=n_frames, label=label,
                            action_name="a", synthetic=synthetic)


def test_twelve_equal_dates_split_ten_one_one():
    records = [rec(f"v{i}", f"d{i:02d}", 30) for i in range(12)]
    split = split_dataset(records)
    date_of = lambda ids: {records[i].date_tag for i in ids}
    assert len(date_of(split.train)) == 10
    assert len(date_of(split.val)) == 1
    assert len(date_of(split.test)) == 1


def test_splits_are_date_disjoint_and_cover_everything():
    records = []
    k = 0
    for d in range(6):
        for _ in range(3):
            records.append(rec(f"v{k}", f"d{d}", 20 + 3 * k, label=k % 2))
            k += 1
    split = split_dataset(records)
    ids = sorted(split.train + split.val + split.test)
    assert ids == list(range(len(records)))
    dates = [
        {records[i].date_tag for i in bucket}
        for bucket in (split.train, split.val, split.test)
    ]
    assert not (dates[0] & dates[1]) and not (dates[0] & dates[2]) and not (dates[1] & dates[2])


def test_synthetic_dates_forced_into_training():
    records = [rec(f"v{i}", f"d{i}", 30) for i in range(4)]
    records.append(rec("syn0", "s0", 200, synthetic=True))
    records.append(rec("syn1", "s0", 200, synthetic=True))
    split = split_dataset(records)
    syn_ids = [i for i, r in enumerate(records) if r.synthetic]
    assert all(i in split.train for i in syn_ids)


def test_split_needs_three_free_dates():
    records = [rec("v0", "d0", 30), rec("v1", "d1", 30)]
    with pytest.raises(DataError, match="at least 3"):
        split_dataset(records)
    records.append(rec("v2", "d2", 30, synthetic=True))
    with pytest.raises(DataError, match="at least 3"):
        split_dataset(records)


@given(st.data())
def test_no_split_left_empty(data):
    n_dates = data.draw(st.integers(3, 8), label="dates")
    records = []
    for d in range(n_dates):
        per_date = data.draw(st.integers(1, 3), label=f"recs{d}")
        for j in range(per_date):
            n = data.draw(st.integers(16, 64), label=f"frames{d}.{j}")
            label = data.draw(st.integers(0, 1), label=f"label{d}.{j}")
            records.append(rec(f"v{d}_{j}", f"d{d}", n, label=label))
    seed = data.draw(st.integers(0, 10), label="seed")
    split = split_dataset(records, seed=seed)
    assert split.train and split.val and split.test


def test_split_deterministic_for_a_seed():
    records = [rec(f"v{i}", f"d{i % 5}", 20 + i, label=i % 2) for i in range(15)]
    a = split_dataset(records, seed=3)
    b = split_dataset(records, seed=3)
    assert a.as_dict() == b.as_dict()


def test_annotation_roundtrip(tmp_path):
    records = [
        rec("vid_a", "d0", 40),
        rec("vid_b", "d1", 25, label=0),
        rec("syn", "s0", 33, synthetic=True),
    ]
    path = str(tmp_path / "ann.csv")
    save_annotations(records, path)
    assert load_annotations(path) == records


def test_annotation_rejects_bad_lines(tmp_path):
    path = str(tmp_path / "ann.csv")
    with open(path, "w") as fh:
        fh.write("vid,d0,0,0,20,1,a\n")  # 7 fields
    with pytest.raises(DataError, match=":1:"):
        load_annotations(path)


@pytest.mark.parametrize("field", [2, 3, 4, 5, 7])
def test_annotation_with_a_non_integer_field_names_its_line(tmp_path, field):
    path = str(tmp_path / "ann.csv")
    save_annotations([rec("vid_a", "d0", 40), rec("vid_b", "d1", 25)], path)
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[field] = "x1"
    lines[1] = ",".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(path)}:2: malformed value"):
        load_annotations(path)


def test_annotation_record_validation():
    with pytest.raises(DataError, match="at least one frame"):
        rec("v", "d", 0)
    with pytest.raises(DataError, match="label"):
        AnnotationRecord("v", "d", 0, 0, 20, 3)
