"""Config surface: recorded defaults and key sets, overrides, validation."""

import dataclasses
import json
import os
import typing

import pytest

from hhmon import cli, config, metrics, pose, synth, tracking
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
    for section in ("gen", "clip", "train", "flow"):
        with pytest.raises(ConfigError, match=f"{section}: unknown keys seed"):
            config_from_dict({section: {"seed": 1}})


def test_stage_blocks_are_the_modules_own_objects():
    # each stage reads its block whole, so a block that is a copy of the
    # module's parameters (and can drift from them) fails here
    cfg = PipelineConfig()
    assert type(cfg.gen) is synth.DatasetConfig
    assert type(cfg.roi) is pose.RoiParams
    assert type(cfg.link) is tracking.LinkParams
    assert type(cfg.flow) is TvL1Params


def test_roi_defaults_track_the_pose_module():
    # the roi block is the pose module's ROI rule itself, not a copy of it
    cfg = PipelineConfig()
    assert type(cfg.roi) is pose.RoiParams
    assert cfg.roi == pose.RoiParams()
    assert (cfg.roi.margin, cfg.roi.min_confidence, cfg.roi.min_joints) == (0.25, 0.1, 4)


def test_link_defaults_track_the_tracking_module():
    # the link block is the tracking module's linker settings, not a copy
    cfg = PipelineConfig()
    assert type(cfg.link) is tracking.LinkParams
    assert cfg.link == tracking.LinkParams()
    assert (cfg.link.tau_new, cfg.link.max_gap, cfg.link.smooth_window) == (0.1, 8, 4)


def test_clip_defaults_track_the_augment_config():
    # the clip block is the augmentation config itself, not a copy of it
    cfg = PipelineConfig()
    assert type(cfg.clip) is AugmentConfig
    assert cfg.clip == AugmentConfig()


def test_flow_solver_defaults_track_the_tvl1_params():
    cfg = PipelineConfig()
    assert cfg.flow == TvL1Params()
    # desk scenes move a few px per frame, so stored flow clips at 1 px
    assert cfg.flow.max_flow == 1.0


def test_eval_threshold_tracks_the_metrics_default():
    assert PipelineConfig().eval.threshold == metrics.DEFAULT_THRESHOLD


def test_bad_values_are_rejected_naming_their_section():
    for section, values, message in (
        ("clip", {"flip_prob": 1.5}, "clip: flip_prob"),
        ("clip", {"scale_min": 2.0, "scale_max": 1.5}, "clip: need 1 <= scale_min"),
        ("clip", {"neg_stride": 0}, "clip: pos_stride and neg_stride must be >= 1"),
        ("clip", {"pos_stride": -1}, "clip: pos_stride and neg_stride must be >= 1"),
        ("clip", {"neg_stride": 2.5}, "clip: neg_stride must be int, got 2.5"),
        ("train", {"epochs": 2.5}, "train: epochs must be int, got 2.5"),
        ("flow", {"n_iters": True}, "flow: n_iters must be int, got True"),
        ("flow", {"tau": False}, "flow: tau must be float, got False"),
        ("eval", {"threshold": "0.5"}, "eval: threshold must be float, got '0.5'"),
        ("eval", {"threshold": 1.5}, r"eval: threshold must lie in \[0, 1\], got 1.5"),
        ("eval", {"threshold": -0.1}, r"eval: threshold must lie in \[0, 1\], got -0.1"),
        ("flow", {"tau": 0.3}, "flow: tau"),
        ("train", {"momentum": 1.0}, "train: momentum"),
        ("train", {"head_lr": -1.0}, "train: head_lr"),
        ("train", {"pretrain_epochs": 0}, "train: pretrain_epochs"),
        ("gen", {"n_frames_min": 10}, "gen: need 16 <= n_frames_min"),
        ("gen", {"n_dates": 0}, "gen: date counts"),
        ("gen", {"n_persons": 0}, "gen: n_persons must be >= 1"),
        ("gen", {"fps": 0}, "gen: fps must be positive"),
        ("gen", {"joint_dropout": 1.5}, r"gen: joint_dropout must lie in \[0, 1\)"),
        ("roi", {"margin": -1}, "roi: margin must be non-negative"),
        ("roi", {"min_confidence": 2}, "roi: min_confidence must be <= 1"),
        ("roi", {"min_joints": 7}, r"roi: min_joints must lie in \[1, 6\]"),
        ("roi", {"min_joints": 0}, r"roi: min_joints must lie in \[1, 6\]"),
        ("gen", {"width": 8}, "gen.width 8 is below flow.min_size 16"),
        ("gen", {"height": 12}, "gen.height 12 is below flow.min_size 16"),
        ("link", {"smooth_window": 0}, "link: smoothing window must be >= 1"),
        ("link", {"tau_new": 1.5}, "link: tau_new must lie in"),
        ("flow", {"max_flow": 0}, "flow: max_flow must be positive"),
        ("link", {"max_gap": -1}, "link: max_gap must be >= 0, got -1"),
        ("clip", {"input_size": 6}, "clip.input_size 6 is below 7, the smallest input i3d_mini"),
        ("clip", {"input_size": 0}, "clip.input_size 0 is below 7"),
    ):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({section: values})


def test_field_types_are_read_without_get_type_hints(monkeypatch, tmp_path, capsys):
    def no_hints(*args, **kwargs):
        raise AssertionError("typing.get_type_hints called")

    monkeypatch.setattr(typing, "get_type_hints", no_hints)
    cfg = PipelineConfig()
    cfg.seed = 3
    assert config_from_dict(json.loads(dump_config(cfg))) == cfg
    for section, values, message in (
        ("clip", {"neg_stride": 2.5}, "clip: neg_stride must be int, got 2.5"),
        ("flow", {"n_iters": True}, "flow: n_iters must be int, got True"),
        ("flow", {"tau": False}, "flow: tau must be float, got False"),
        ("eval", {"threshold": "0.5"}, "eval: threshold must be float, got '0.5'"),
    ):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({section: values})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: values}))
        assert cli.main(["gen", "--config", str(path), "--print-config"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a field of any other type takes its value unchecked, as a dataclass does
    assert config._build_block(_OtherTypes, {"name": "a", "size": (2, 3), "on": True},
                               "other") == _OtherTypes("a", (2, 3), True)


@dataclasses.dataclass
class _OtherTypes:
    name: "str" = ""
    size: "tuple[int, int]" = (1, 1)
    on: "bool" = False


def test_every_number_field_of_every_block_checks_its_type():
    checked = set()
    for section, cls in config._BLOCK_TYPES.items():
        for f in dataclasses.fields(cls):
            kind = getattr(f.type, "__name__", f.type)
            bad = {"int": (2.5, True), "float": (True, "0.5")}.get(kind, ())
            for value in bad:
                with pytest.raises(ConfigError,
                                   match=f"{section}: {f.name} must be {kind}, got {value!r}"):
                    config_from_dict({section: {f.name: value}})
                checked.add(section)
    assert checked == set(config._BLOCK_TYPES) - {"paths"}
    # a block whose module does not postpone annotations holds the classes
    for value, message in ((2.5, "n must be int"), (True, "x must be float")):
        key = message.split()[0]
        with pytest.raises(ConfigError, match=f"other: {message}, got {value!r}"):
            config._build_block(_ClassTypes, {key: value}, "other")


@dataclasses.dataclass
class _ClassTypes:
    n: int = 1
    x: float = 0.5


def test_every_float_field_of_every_block_must_be_finite(tmp_path, capsys):
    # JSON's NaN and Infinity reach the blocks as floats; a NaN eval
    # threshold once scored every clip "other" and exited 0
    path = tmp_path / "cfg.json"
    checked = set()
    for section, cls in config._BLOCK_TYPES.items():
        for f in dataclasses.fields(cls):
            if getattr(f.type, "__name__", f.type) != "float":
                continue
            for value, shown in ((float("nan"), "nan"), (float("inf"), "inf"),
                                 (float("-inf"), "-inf")):
                path.write_text(json.dumps({section: {f.name: value}}))
                assert cli.main(["gen", "--config", str(path), "--print-config"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {section}: {f.name} must be finite, got {shown}\n"
            checked.add(section)
    assert checked == set(config._BLOCK_TYPES) - {"paths"}
    # an int beyond float range is finite: it passes this check and meets
    # the block's own range rule
    with pytest.raises(ConfigError, match="eval: threshold must lie in"):
        config_from_dict({"eval": {"threshold": 10**400}})


def test_every_str_field_of_every_block_must_be_a_non_empty_string(tmp_path, capsys):
    # a path given as 5, null or true once crashed a command with a
    # TypeError traceback, and "" with a FileNotFoundError one
    path = tmp_path / "cfg.json"
    checked = []
    for section, cls in config._BLOCK_TYPES.items():
        for f in dataclasses.fields(cls):
            if getattr(f.type, "__name__", f.type) != "str":
                continue
            for value, error in ((5, "must be str, got 5"), (None, "must be str, got None"),
                                 (True, "must be str, got True"), ("", "must not be empty")):
                path.write_text(json.dumps({section: {f.name: value}}))
                assert cli.main(["prepare", "--config", str(path), "--print-config"]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {section}: {f.name} {error}\n"
            checked.append(f"{section}.{f.name}")
    assert checked == ["paths.dataset_dir", "paths.work_dir", "paths.checkpoint_dir",
                       "paths.report_dir"]


def test_frame_size_is_checked_against_the_flow_min_size():
    cfg = config_from_dict({"gen": {"width": 12, "height": 9}, "flow": {"min_size": 8}})
    assert (cfg.gen.width, cfg.gen.height, cfg.flow.min_size) == (12, 9, 8)
    with pytest.raises(ConfigError, match="gen.height 9 is below flow.min_size 10"):
        config_from_dict({"gen": {"width": 12, "height": 9}, "flow": {"min_size": 10}})


_DATA = ("paths.dataset_dir", "nest/data", "gen --force")
_FLOW = ("paths.work_dir/flow", "nest/work/flow", "flow")


@pytest.mark.parametrize("key, inside, deleted", [
    ("work_dir", "nest/data/work", _DATA),
    ("checkpoint_dir", "nest/data", _DATA),
    ("report_dir", "nest/data/./reports", _DATA),
    ("dataset_dir", "nest/work/flow/data", _FLOW),
    ("checkpoint_dir", "nest/work/flow", _FLOW),
    ("report_dir", "nest/work/../work/flow/reports", _FLOW),
])
def test_a_root_inside_a_tree_a_stage_deletes_exits_2_writing_nothing(tmp_path, capsys,
                                                                     monkeypatch, key, inside,
                                                                     deleted):
    # gen --force deletes the dataset dir and flow deletes <work_dir>/flow,
    # so a root inside either would go with it
    monkeypatch.chdir(tmp_path)
    paths = {"dataset_dir": "nest/data", "work_dir": "nest/work",
             "checkpoint_dir": "nest/ckpt", "report_dir": "nest/reports", key: inside}
    (tmp_path / "cfg.json").write_text(json.dumps({"paths": paths}))
    tree, top, stage = deleted
    root, top = (os.path.join(os.getcwd(), os.path.normpath(p)) for p in (inside, top))
    for argv in (["gen", "--force"], ["flow"], ["eval"], ["gen", "--print-config"]):
        assert cli.main(argv + ["--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: paths.{key} {root} lies inside {tree} {top}, which {stage} deletes\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_sibling_and_enclosing_roots_are_accepted():
    for paths in ({"dataset_dir": "d", "work_dir": "d2", "checkpoint_dir": "d-ckpt"},
                  {"dataset_dir": "w/data", "work_dir": "w", "report_dir": "w/flows"},
                  {"work_dir": "w", "checkpoint_dir": "w/flow2", "report_dir": "w"}):
        cfg = config_from_dict({"paths": paths})
        assert {key: getattr(cfg.paths, key) for key in paths} == paths


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
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})


def test_section_must_be_an_object():
    with pytest.raises(ConfigError, match="must be an object"):
        config_from_dict({"gen": [1, 2]})


def test_eval_mode_is_validated():
    # eval has one mode, so no value of the removed key is accepted
    for mode in ("per-annotated-clip", "per-window", "per-frame"):
        with pytest.raises(ConfigError, match="^eval: unknown keys mode$"):
            config_from_dict({"eval": {"mode": mode}})


def test_a_config_that_sets_the_removed_eval_mode_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eval": {"mode": "per-window"}}))
    assert cli.main(["eval", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: eval: unknown keys mode\n"


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
