"""Config surface: recorded defaults and key sets, overrides, validation."""

import dataclasses
import json

import pytest

from hhmon import metrics, pose, tracking
from hhmon.clipset import AugmentConfig
from hhmon.config import (
    PipelineConfig,
    config_from_dict,
    dump_config,
    load_config,
)
from hhmon.errors import ConfigError
from hhmon.tvl1 import TvL1Params


# `--print-config` of the defaults, recorded byte for byte: a changed
# default, an added knob or a dropped key shows up as a diff here.
DEFAULT_DUMP = """\
{
 "clip": {
  "brightness_extent": 0.1,
  "flip_prob": 0.5,
  "input_size": 56,
  "neg_stride": 4,
  "pos_stride": 1,
  "scale_max": 1.75,
  "scale_min": 1.0
 },
 "eval": {
  "mode": "per-annotated-clip",
  "threshold": 0.5
 },
 "flow": {
  "lam": 0.15,
  "max_flow": 1.0,
  "min_size": 16,
  "n_iters": 25,
  "n_warps": 5,
  "pyramid_factor": 0.5,
  "stop_epsilon": 0.01,
  "tau": 0.25,
  "theta": 0.3
 },
 "gen": {
  "fps": 15.0,
  "height": 72,
  "joint_dropout": 0.0,
  "n_dates": 12,
  "n_frames_max": 26,
  "n_frames_min": 20,
  "n_other": 100,
  "n_persons": 1,
  "n_rubbing": 100,
  "n_synthetic_dates": 2,
  "n_synthetic_rubbing": 8,
  "width": 96
 },
 "link": {
  "max_gap": 8,
  "smooth_window": 4,
  "tau_new": 0.1
 },
 "paths": {
  "checkpoint_dir": "data/checkpoints",
  "dataset_dir": "data/dataset",
  "report_dir": "data/reports",
  "work_dir": "data/work"
 },
 "roi": {
  "margin": 0.25,
  "min_confidence": 0.1,
  "min_joints": 4
 },
 "seed": 0,
 "train": {
  "batch_size": 8,
  "epochs": 10,
  "head_lr": 0.5,
  "lr": 0.01,
  "momentum": 0.9,
  "pretrain_epochs": 10,
  "stills_per_scene": 4
 }
}"""


def test_default_dump_is_byte_identical_to_the_recording():
    assert dump_config(PipelineConfig()) == DEFAULT_DUMP


def test_each_section_accepts_exactly_the_recorded_keys():
    recorded = json.loads(DEFAULT_DUMP)
    cfg = PipelineConfig()
    for name, keys in recorded.items():
        if name == "seed":
            continue
        assert {f.name for f in dataclasses.fields(getattr(cfg, name))} == set(keys), name
        assert config_from_dict({name: keys}) == cfg
    # the global seed is the only seed knob
    for section in ("clip", "train", "flow"):
        with pytest.raises(ConfigError, match=f"{section}: unknown keys seed"):
            config_from_dict({section: {"seed": 1}})


def test_roi_defaults_track_the_pose_module():
    cfg = PipelineConfig()
    assert cfg.roi.margin == pose.DEFAULT_MARGIN
    assert cfg.roi.min_confidence == pose.DEFAULT_MIN_CONFIDENCE
    assert cfg.roi.min_joints == pose.DEFAULT_MIN_JOINTS


def test_link_defaults_track_the_tracking_module():
    cfg = PipelineConfig()
    assert cfg.link.tau_new == tracking.DEFAULT_TAU_NEW
    assert cfg.link.max_gap == tracking.DEFAULT_MAX_GAP
    assert cfg.link.smooth_window == tracking.DEFAULT_SMA_WINDOW


def test_clip_defaults_track_the_augment_config():
    # the clip block is the augmentation config itself, not a copy of it
    cfg = PipelineConfig()
    assert type(cfg.clip) is AugmentConfig
    assert cfg.clip == AugmentConfig()


def test_flow_solver_defaults_track_the_tvl1_params():
    cfg = PipelineConfig()
    params = TvL1Params()
    assert isinstance(cfg.flow, TvL1Params)
    for f in dataclasses.fields(TvL1Params):
        assert getattr(cfg.flow, f.name) == getattr(params, f.name), f.name
    # the displacement cap deliberately diverges from the library default:
    # desk scenes move a few px, so the pipeline clips much tighter
    assert cfg.flow.max_flow == 1.0


def test_eval_threshold_tracks_the_metrics_default():
    assert PipelineConfig().eval.threshold == metrics.DEFAULT_THRESHOLD


def test_bad_values_are_rejected_naming_their_section():
    for section, values, message in (
        ("clip", {"flip_prob": 1.5}, "clip: flip_prob"),
        ("clip", {"scale_min": 2.0, "scale_max": 1.5}, "clip: need 1 <= scale_min"),
        ("flow", {"tau": 0.3}, "flow: tau"),
        ("train", {"momentum": 1.0}, "train: momentum"),
        ("train", {"head_lr": -1.0}, "train: head_lr"),
        ("train", {"pretrain_epochs": 0}, "train: pretrain_epochs"),
    ):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({section: values})


def test_dump_and_rebuild_roundtrip():
    cfg = PipelineConfig()
    cfg.seed = 42
    cfg.gen.n_rubbing = 7
    cfg.flow.max_flow = 2.5
    rebuilt = config_from_dict(json.loads(dump_config(cfg)))
    assert rebuilt == cfg


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"train": {"epochs": 3}, "seed": 5})
    assert cfg.train.epochs == 3
    assert cfg.train.lr == PipelineConfig().train.lr
    assert cfg.seed == 5
    assert cfg.gen == PipelineConfig().gen


def test_unknown_key_names_the_section():
    with pytest.raises(ConfigError, match="train: unknown keys warmup"):
        config_from_dict({"train": {"warmup": 2}})


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match="unknown config sections: optimizer"):
        config_from_dict({"optimizer": {}})


def test_seed_must_be_a_non_negative_integer():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "zero"})


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="must be an object"):
        config_from_dict({"gen": [1, 2]})


def test_eval_mode_is_validated():
    with pytest.raises(ConfigError, match="eval: eval mode"):
        config_from_dict({"eval": {"mode": "per-frame"}})
    assert config_from_dict({"eval": {"mode": "per-window"}}).eval.mode == "per-window"


def test_load_config_file_paths(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"gen": {"n_rubbing": 3}}))
    cfg = load_config(str(path))
    assert cfg.gen.n_rubbing == 3

    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))

    arr = tmp_path / "arr.json"
    arr.write_text("[1]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(arr))


def test_seed_override_wins(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    assert load_config(str(path)).seed == 3
    assert load_config(str(path), seed_override=9).seed == 9
    assert load_config(None, seed_override=4).seed == 4
    assert load_config(None).seed == 0


def test_dump_is_stable_json():
    text = dump_config(PipelineConfig())
    parsed = json.loads(text)
    assert set(parsed) == {"seed", "paths", "gen", "roi", "link", "clip",
                           "flow", "train", "eval"}
    assert text == dump_config(PipelineConfig())
