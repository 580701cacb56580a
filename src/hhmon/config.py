"""Pipeline configuration: nested blocks of plain dataclasses, loadable from
a JSON file that overrides any subset of fields.

The clip, flow and train blocks are the owning modules' own dataclasses,
plus a few pipeline-only fields, and the roi, link and eval defaults are the
owning modules' constants, so every default is declared once.  Each block
validates itself when built, with the owning module's own checks; a bad
value is a ConfigError naming its section.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from . import metrics, pose, synth, tracking
from .clipset import AugmentConfig
from .errors import ConfigError, DataError
from .training import TrainConfig
from .tvl1 import TvL1Params


@dataclass
class PathsConfig:
    dataset_dir: str = "data/dataset"
    work_dir: str = "data/work"
    checkpoint_dir: str = "data/checkpoints"
    report_dir: str = "data/reports"


@dataclass
class GenConfig:
    n_rubbing: int = 100
    n_other: int = 100
    n_synthetic_rubbing: int = 8
    n_dates: int = 12
    n_synthetic_dates: int = 2
    width: int = 96
    height: int = 72
    n_frames_min: int = 20
    n_frames_max: int = 26
    n_persons: int = 1
    joint_dropout: float = 0.0
    fps: float = 15.0

    def __post_init__(self):
        synth.DatasetConfig(**dataclasses.asdict(self))


@dataclass
class RoiConfig:
    margin: float = pose.DEFAULT_MARGIN
    min_confidence: float = pose.DEFAULT_MIN_CONFIDENCE
    min_joints: int = pose.DEFAULT_MIN_JOINTS

    def __post_init__(self):
        pose.check_margin(self.margin)


@dataclass
class LinkConfig:
    tau_new: float = tracking.DEFAULT_TAU_NEW
    max_gap: int = tracking.DEFAULT_MAX_GAP
    smooth_window: int = tracking.DEFAULT_SMA_WINDOW

    def __post_init__(self):
        tracking.check_tau_new(self.tau_new)
        tracking.SmoothingConfig(window=self.smooth_window)


@dataclass
class FlowConfig(TvL1Params):
    # library default caps at 20 px; desk-scale scenes move 1-5 px per frame,
    # so 1 px keeps the stored flow from collapsing toward zero
    max_flow: float = 1.0


@dataclass
class TrainBlock(TrainConfig):
    head_lr: float = 0.5  # frozen-backbone logistic head tolerates a hotter step
    pretrain_epochs: int = 10
    stills_per_scene: int = 4

    def __post_init__(self):
        super().__post_init__()
        if self.head_lr < 0:
            raise ConfigError(f"head_lr must be >= 0, got {self.head_lr}")
        if self.pretrain_epochs < 1 or self.stills_per_scene < 1:
            raise ConfigError("pretrain_epochs and stills_per_scene must be >= 1")


@dataclass
class EvalConfig:
    mode: str = "per-annotated-clip"  # or per-window
    threshold: float = metrics.DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.mode not in ("per-annotated-clip", "per-window"):
            raise ConfigError(f"eval mode must be per-annotated-clip or per-window, "
                              f"got {self.mode!r}")


@dataclass
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    gen: GenConfig = field(default_factory=GenConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    clip: AugmentConfig = field(default_factory=AugmentConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    train: TrainBlock = field(default_factory=TrainBlock)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_BLOCK_TYPES = {"paths": PathsConfig, "gen": GenConfig, "roi": RoiConfig, "link": LinkConfig,
                "clip": AugmentConfig, "flow": FlowConfig, "train": TrainBlock, "eval": EvalConfig}


def _build_block(cls, data: dict, where: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {', '.join(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ConfigError, DataError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict) -> PipelineConfig:
    data = dict(data)
    seed = data.pop("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    unknown = sorted(set(data) - set(_BLOCK_TYPES))
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
    blocks = {}
    for name, cls in _BLOCK_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        blocks[name] = _build_block(cls, section, name)
    return PipelineConfig(seed=seed, **blocks)


def load_config(path: str | None, seed_override: int | None = None) -> PipelineConfig:
    """Defaults, overlaid with a JSON file if given, then the --seed flag."""
    if path is None:
        cfg = PipelineConfig()
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = config_from_dict(data)
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=1, sort_keys=True)
