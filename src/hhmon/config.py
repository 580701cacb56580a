"""Pipeline configuration: nested blocks of plain dataclasses, loadable from
a JSON file that overrides any subset of fields.

Each stage's block is that stage's own parameter object, passed to it whole:
`gen` is `synth.DatasetConfig`, `roi` is `pose.RoiParams`, `link` is
`tracking.LinkParams`, `clip` is `clipset.AugmentConfig` and `flow` is
`tvl1.TvL1Params`.  Only the paths, the train block (the training module's
`TrainConfig` plus three pipeline-only fields) and the eval block are
declared here, so every default is declared once.  The loader checks each
field's type, that each float is finite and that each string is non-empty,
then each block validates itself when built; a bad value is a ConfigError
naming its section.  The loader also checks the rules that span blocks:
frames no smaller than the flow solver's `min_size`, a clip input no
smaller than the network can pool, enough dates for the split, and no root
inside a tree that a stage deletes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from . import artifacts, metrics, model
from .clipset import SPLIT_MIN_DATES, AugmentConfig
from .errors import ConfigError
from .pose import RoiParams
from .synth import DatasetConfig
from .tracking import LinkParams
from .training import TrainConfig
from .tvl1 import TvL1Params


@dataclass
class PathsConfig:
    dataset_dir: str = "data/dataset"
    work_dir: str = "data/work"
    checkpoint_dir: str = "data/checkpoints"
    report_dir: str = "data/reports"


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
    threshold: float = metrics.DEFAULT_THRESHOLD

    def __post_init__(self):
        if not 0 <= self.threshold <= 1:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")


@dataclass
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    gen: DatasetConfig = field(default_factory=DatasetConfig)
    roi: RoiParams = field(default_factory=RoiParams)
    link: LinkParams = field(default_factory=LinkParams)
    clip: AugmentConfig = field(default_factory=AugmentConfig)
    flow: TvL1Params = field(default_factory=TvL1Params)
    train: TrainBlock = field(default_factory=TrainBlock)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_BLOCK_TYPES = {"paths": PathsConfig, "gen": DatasetConfig, "roi": RoiParams, "link": LinkParams,
                "clip": AugmentConfig, "flow": TvL1Params, "train": TrainBlock, "eval": EvalConfig}


# The JSON types each kind of field takes; bool, an int subclass, is none of them.
_FIELD_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}


def _build_block(cls, data: dict, where: str):
    # a field's type is its annotation string where the module postpones
    # annotations, else the class itself; both name the kind
    types = {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {', '.join(unknown)}")
    for key, value in data.items():
        kinds = _FIELD_KINDS.get(types[key])
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ConfigError(f"{where}: {key} must be {types[key]}, got {value!r}")
        if value == "":
            raise ConfigError(f"{where}: {key} must not be empty")
        # JSON's NaN and Infinity parse as floats; a comparison, unlike
        # math.isfinite, takes an int too large for a float
        if types[key] == "float" and not -math.inf < value < math.inf:
            raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
    try:
        return cls(**data)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _checked_seed(seed) -> int:
    # bool is an int subclass, but JSON true is no seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def config_from_dict(data: dict) -> PipelineConfig:
    data = dict(data)
    seed = _checked_seed(data.pop("seed", 0))
    unknown = sorted(set(data) - set(_BLOCK_TYPES))
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
    blocks = {}
    for name, cls in _BLOCK_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        blocks[name] = _build_block(cls, section, name)
    # frames the flow solver would refuse must not get past gen and prepare
    min_size = blocks["flow"].min_size
    for key in ("width", "height"):
        value = getattr(blocks["gen"], key)
        if value < min_size:
            raise ConfigError(f"gen.{key} {value} is below flow.min_size {min_size}")
    # a crop the network cannot pool must not get past gen and prepare
    least = model.min_input_size(model.i3d_mini())
    if blocks["clip"].input_size < least:
        raise ConfigError(f"clip.input_size {blocks['clip'].input_size} is below {least}, "
                          f"the smallest input i3d_mini can pool")
    # dates the split would refuse must not get past gen; each group numbers
    # its dates from d00
    gen = blocks["gen"]
    n = min(gen.n_dates, max(gen.n_rubbing, gen.n_other))
    if n < SPLIT_MIN_DATES:
        raise ConfigError(f"gen.n_dates {gen.n_dates} with gen.n_rubbing {gen.n_rubbing} and "
                          f"gen.n_other {gen.n_other} gives {n} non-synthetic dates; the split "
                          f"needs at least {SPLIT_MIN_DATES}")
    # a root inside a tree that a stage deletes whole would go with it
    roots = {f"paths.{k}": os.path.abspath(v) for k, v in vars(blocks["paths"]).items()}
    deleted = (("paths.dataset_dir", roots["paths.dataset_dir"], "gen --force"),
               ("paths.work_dir/flow", os.path.join(roots["paths.work_dir"], "flow"), "flow"))
    for tree, top, stage in deleted:
        for key, root in roots.items():
            if key != tree and os.path.commonpath([root, top]) == top:
                raise ConfigError(f"{key} {root} lies inside {tree} {top}, which {stage} deletes")
    return PipelineConfig(seed=seed, **blocks)


def load_config(path: str | None, seed_override: int | None = None) -> PipelineConfig:
    """Defaults, overlaid with a JSON file if given, then the --seed flag."""
    if path is None:
        cfg = PipelineConfig()
    else:
        data = artifacts.read_json(path, ConfigError, f"config file not found: {path}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = config_from_dict(data)
    if seed_override is not None:
        cfg.seed = _checked_seed(seed_override)
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=1, sort_keys=True)
