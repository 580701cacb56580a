"""Procedural scene generator: determinism, motion taxonomy, learnability floor."""

import hashlib
import json
import os

import numpy as np
import pytest
from helpers import mean_wrist_speed, render_scene_oracle, tree_bytes, wrist_distance_series

from hhmon import frameio, pose, synth, workers
from hhmon.errors import ConfigError, DataError
from hhmon.synth import (
    DatasetConfig,
    SceneSpec,
    generate_dataset,
    generate_scene,
    load_manifest,
    manifest_records,
)


def oscillation_cycles(series):
    """Count full cycles as mean-crossings / 2; the oracle for 'high frequency'."""
    centered = np.asarray(series) - np.mean(series)
    signs = np.sign(centered)
    signs = signs[signs != 0]
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    return crossings / 2.0


def fit_logistic_1d(x, y, steps=500, lr=1.0):
    """Plain gradient-descent logistic fit on one standardized feature."""
    x = (x - x.mean()) / (x.std() + 1e-12)
    w, b = 0.0, 0.0
    for _ in range(steps):
        z = w * x + b
        p = 1.0 / (1.0 + np.exp(-z))
        w -= lr * np.mean((p - y) * x)
        b -= lr * np.mean(p - y)
    pred = (w * x + b) > 0
    return np.mean(pred == y)


def dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, root).encode())
            h.update(open(p, "rb").read())
    return h.hexdigest()


def small_spec(seed=3, label=1, **kw):
    defaults = dict(seed=seed, class_label=label, n_frames=24, width=64, height=48,
                    video_id="s", date_tag="d00")
    defaults.update(kw)
    return SceneSpec(**defaults)


def test_same_spec_twice_is_byte_identical(tmp_path):
    spec = small_spec()
    for sub in ("a", "b"):
        seq, poses = generate_scene(spec)
        frameio.save_sequence(seq, str(tmp_path / sub / "frames"))
        pose.save_poses(poses, str(tmp_path / sub / "keypoints.txt"))
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_different_seeds_differ():
    seq_a, _ = generate_scene(small_spec(seed=1))
    seq_b, _ = generate_scene(small_spec(seed=2))
    assert not np.array_equal(seq_a.data, seq_b.data)


def test_rubbing_wrist_distance_oscillates_every_16_frame_window():
    for seed in range(5):
        _, poses = generate_scene(small_spec(seed=seed, label=1, n_frames=32))
        d = wrist_distance_series(poses)
        for start in range(len(d) - 15):
            cycles = oscillation_cycles(d[start : start + 16])
            assert cycles >= 3.0, f"seed {seed} window {start}: {cycles} cycles"


def test_other_action_wrist_distance_is_low_frequency():
    for seed in range(5):
        _, poses = generate_scene(small_spec(seed=seed, label=0, n_frames=32))
        d = wrist_distance_series(poses)
        assert oscillation_cycles(d[:16]) < 3.0


def test_wrist_speed_separates_classes_for_logistic_oracle():
    speeds, labels = [], []
    for i in range(50):
        for label in (0, 1):
            spec = small_spec(seed=1000 + 2 * i + label, label=label,
                              n_frames=20, width=96, height=72)
            _, poses = generate_scene(spec)
            speeds.append(mean_wrist_speed(poses))
            labels.append(label)
    acc = fit_logistic_1d(np.asarray(speeds), np.asarray(labels))
    assert acc >= 0.95


def test_two_persons_listed_per_frame(tmp_path):
    _, poses = generate_scene(small_spec(n_persons=2))
    assert all(len(p.persons) == 2 for p in poses)
    path = str(tmp_path / "kp.txt")
    pose.save_poses(poses, path)
    back = pose.load_poses(path)
    assert all(len(p.persons) == 2 for p in back)


def test_keypoints_satisfy_roi_contract():
    _, poses = generate_scene(small_spec())
    for pf in poses:
        person = pf.persons[0]
        assert person.shape == (18, 3)
        assert np.all(person[:, 2] >= 0) and np.all(person[:, 2] <= 1)
        assert pose.upper_body_roi(person, (64, 48), pose.RoiParams(margin=0.25)) is not None


def test_joint_dropout_zeroes_confidences():
    _, poses = generate_scene(small_spec(joint_dropout=0.4))
    confs = np.concatenate([pf.persons[0][:, 2] for pf in poses])
    assert np.any(confs == 0.0)
    assert np.all((confs == 0.0) | (confs == 1.0))


def test_scene_sequence_matches_spec():
    spec = small_spec(label=1, video_id="vid3", date_tag="d07")
    seq, poses = generate_scene(spec)
    assert seq.video_id == "vid3"
    assert seq.date_tag == "d07"
    assert len(seq) == len(poses) == spec.n_frames


def assert_scenes_equal(got, want):
    (seq, poses), (want_seq, want_poses) = got, want
    assert seq.data.dtype == want_seq.data.dtype
    assert seq.data.tobytes() == want_seq.data.tobytes()
    assert len(poses) == len(want_poses)
    for pf, want_pf in zip(poses, want_poses):
        assert pf.frame_index == want_pf.frame_index
        assert pf.person_hints == want_pf.person_hints
        assert [p.tobytes() for p in pf.persons] == [p.tobytes() for p in want_pf.persons]


@pytest.mark.parametrize("n_frames", [16, 23, 26])
@pytest.mark.parametrize("size", [(48, 36), (96, 72), (192, 144)], ids=str)
def test_scene_render_is_byte_equal_to_the_per_frame_oracle(size, n_frames):
    for n_persons in (1, 2, 3):
        for label in (0, 1):
            for dropout in (0.0, 0.3):
                spec = SceneSpec(seed=100 * n_persons + 10 * label + n_frames, class_label=label,
                                 n_persons=n_persons, n_frames=n_frames, width=size[0],
                                 height=size[1], joint_dropout=dropout)
                assert_scenes_equal(generate_scene(spec), render_scene_oracle(spec))


def _limb_boxes_empty(spec, motion, width=1.4):
    """(limb, frame) bool array: whether the limb's clipped box is empty."""
    joints = np.stack([synth.skeleton_at(motion, t) for t in range(spec.n_frames)])
    ends = np.stack([joints[:, list(limb)] for limb in synth._LIMBS])  # (limb, t, 2, xy)
    lo = np.maximum(0, np.floor(ends.min(axis=2) - width - 1))
    hi = np.minimum((spec.width, spec.height), np.ceil(ends.max(axis=2) + width + 2))
    return (hi <= lo).any(axis=2)


@pytest.mark.parametrize("n_persons", [1, 2, 3])
@pytest.mark.parametrize("label", [0, 1])
def test_limbs_that_leave_the_frame_render_like_the_oracle(monkeypatch, n_persons, label):
    drawn = synth.default_motion

    def at_the_edges(spec, rng):
        # even persons sway across the right edge and odd ones across the
        # left, far enough that limbs leave the frame wholly in some frames
        persons = drawn(spec, rng)
        for i, motion in enumerate(persons):
            motion.base_x = float(spec.width) if i % 2 == 0 else 0.0
            motion.sway_amp, motion.sway_freq = 0.6, 0.05
        return persons

    monkeypatch.setattr(synth, "default_motion", at_the_edges)
    spec = SceneSpec(seed=7 + n_persons, class_label=label, n_persons=n_persons, n_frames=23,
                     width=48, height=36, joint_dropout=0.3)
    motions = synth.default_motion(spec, np.random.default_rng(spec.seed))
    empty = np.concatenate([_limb_boxes_empty(spec, m) for m in motions])
    assert (empty.any(axis=1) & ~empty.all(axis=1)).any(), "no limb leaves the frame for a while"
    assert_scenes_equal(generate_scene(spec), render_scene_oracle(spec))


def small_dataset_config(**kw):
    defaults = dict(n_rubbing=4, n_other=4, n_synthetic_rubbing=2, n_dates=3,
                    n_synthetic_dates=1, width=48, height=36, n_frames_min=18, n_frames_max=20)
    defaults.update(kw)
    return DatasetConfig(**defaults)


def test_dataset_counts_and_dates(tmp_path):
    cfg = small_dataset_config(n_rubbing=10, n_other=10,
                               n_synthetic_rubbing=0, n_dates=4, n_synthetic_dates=1)
    out = str(tmp_path / "ds")
    manifest = generate_dataset(cfg, out, seed=11)
    scenes = manifest["scenes"]
    assert len(scenes) == 20
    assert sum(s["class"] == 1 for s in scenes) == 10
    assert len({s["date_tag"] for s in scenes}) == 4
    for s in scenes:
        assert os.path.isdir(os.path.join(out, s["frames_dir"]))
        assert os.path.isfile(os.path.join(out, s["keypoints_file"]))


def test_dataset_synthetic_scenes_use_their_own_dates(tmp_path):
    manifest = generate_dataset(small_dataset_config(), str(tmp_path / "ds"), seed=11)
    real_dates = {s["date_tag"] for s in manifest["scenes"] if not s["synthetic"]}
    synth_dates = {s["date_tag"] for s in manifest["scenes"] if s["synthetic"]}
    assert synth_dates and not (real_dates & synth_dates)


def test_dataset_determinism_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_dataset(small_dataset_config(), a, seed=11)
    generate_dataset(small_dataset_config(), b, seed=11)
    assert dir_digest(a) == dir_digest(b)


def test_dataset_tree_equals_the_serial_oracle_tree_on_1_and_2_workers(tmp_path, monkeypatch):
    cfg = small_dataset_config(n_rubbing=3, n_other=3, n_synthetic_rubbing=1, n_persons=2,
                               joint_dropout=0.2)
    with monkeypatch.context() as serial:
        serial.setattr(synth, "generate_scene", render_scene_oracle)
        serial.setattr(workers, "run", lambda work, jobs, name, done=None: [work(job)
                                                                             for job in jobs])
        want_manifest = generate_dataset(cfg, str(tmp_path / "oracle"), seed=5)
    want = tree_bytes(tmp_path / "oracle")
    for n in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)),
                            raising=False)
        assert generate_dataset(cfg, str(tmp_path / f"on{n}"), seed=5) == want_manifest
        assert tree_bytes(tmp_path / f"on{n}") == want, f"{n} workers"


def test_empty_dataset_has_valid_manifest(tmp_path):
    cfg = small_dataset_config(n_rubbing=0, n_other=0, n_synthetic_rubbing=0)
    generate_dataset(cfg, str(tmp_path / "ds"), seed=11)
    manifest = load_manifest(str(tmp_path / "ds"))
    assert manifest["scenes"] == []
    assert manifest_records(manifest) == []


def test_dataset_rejects_negative_counts():
    with pytest.raises(ConfigError):
        small_dataset_config(n_rubbing=-1)


def test_missing_manifest_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="dataset.json"):
        load_manifest(str(tmp_path))


def _load_scene(tmp_path, **entry):
    """load_manifest of a dataset of one scene with the given keys changed."""
    scene = {"video_id": "rub_000", "date_tag": "d00", "class": 1,
             "frames_dir": "scenes/rub_000/frames", "keypoints_file": "scenes/rub_000/kp.txt",
             "start_frame": 0, "end_frame": 20, "action_name": "rubbing_hands", **entry}
    (tmp_path / "dataset.json").write_text(json.dumps({"seed": 0, "scenes": [scene]}))
    return load_manifest(str(tmp_path))


@pytest.mark.parametrize("key, value", [("video_id", "../../escaped"), ("video_id", "a b"),
                                        ("date_tag", "d,00"), ("date_tag", "")])
def test_a_scene_id_or_date_outside_letters_digits_and_dot_dash_underscore_is_refused(
        tmp_path, key, value):
    with pytest.raises(DataError, match=rf"dataset.json: scene 0: {key} '.*' is not a plain name"):
        _load_scene(tmp_path, **{key: value})


@pytest.mark.parametrize("key, value", [("video_id", "."), ("video_id", ".."),
                                        ("date_tag", "."), ("date_tag", "..")])
def test_a_scene_id_or_date_of_dot_or_dot_dot_is_refused(tmp_path, key, value):
    with pytest.raises(DataError, match=rf"dataset.json: scene 0: {key} '.*' is not a plain name"):
        _load_scene(tmp_path, **{key: value})


@pytest.mark.parametrize("value", ["rubbing, hands", "rubbing hands", "#rubbing", 3])
def test_an_action_name_outside_letters_digits_and_dot_dash_underscore_is_refused(tmp_path, value):
    with pytest.raises(DataError, match="dataset.json: scene 0: action_name .* is not a plain name"):
        _load_scene(tmp_path, action_name=value)


def test_plain_scene_names_are_accepted(tmp_path):
    (scene,) = _load_scene(tmp_path, video_id="Rub-0.a_1", date_tag="...",
                           action_name="")["scenes"]
    assert (scene["video_id"], scene["date_tag"]) == ("Rub-0.a_1", "...")


def test_manifest_roundtrip(tmp_path):
    out = str(tmp_path / "ds")
    manifest = generate_dataset(small_dataset_config(), out, seed=11)
    back = load_manifest(out)
    assert back == manifest
    recs = manifest_records(back)
    assert len(recs) == len(manifest["scenes"])
    assert sum(r.synthetic for r in recs) == 2


def test_scene_needs_at_least_16_frames():
    # scenes take their lengths from the dataset config, which holds the check
    with pytest.raises(ConfigError, match="need 16 <= n_frames_min"):
        small_dataset_config(n_frames_min=8, n_frames_max=8)
