"""Fixed-length clip sampling, augmentation and dataset splitting.

A sample is a 16-frame window cropped to one person's smoothed ROI; a
still for 2D pretraining is the one-frame window.  The crop box is frozen
at the window's start frame for all its frames so the crop itself adds no
apparent motion.  Augmentation draws are a pure function of (seed,
provenance), which keeps RGB and flow samples of the same window
geometrically in lockstep.

A sample comes out in the network's layout and value range, which this
module alone decides: a (C, T, S, S) float32 array, RGB mapped from [0, 1]
to [-1, 1] and flow, stored in [-1, 1], passed through.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import artifacts, frameio
from .errors import ConfigError, DataError
from .frameio import FrameSequence
from .pose import BBox
from .tracking import Track

CLIP_LEN = 16
SPLIT_MIN_DATES = 3  # one non-synthetic date at least for each of train, val and test
SPLIT_RATIOS = (10, 1, 1)  # train:val:test
SPLITS = ("train", "val", "test")


@dataclass
class AnnotationRecord:
    video_id: str
    date_tag: str
    track_id: int
    start_frame: int
    end_frame: int  # exclusive
    label: int
    action_name: str = ""
    synthetic: bool = False
    split: str = ""  # one of SPLITS once prepared

    def __post_init__(self):
        if self.end_frame - self.start_frame < 1:
            raise DataError(f"{self.video_id}: annotation must span at least one frame")
        if self.label not in (0, 1):
            raise DataError(f"{self.video_id}: label must be 0 or 1, got {self.label}")
        if self.split not in ("", *SPLITS):
            raise DataError(f"{self.video_id}: split must be train, val or test, "
                            f"got {self.split!r}")

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame


@dataclass
class AugmentConfig:
    scale_min: float = 1.0
    scale_max: float = 1.75
    flip_prob: float = 0.5
    brightness_extent: float = 0.1
    input_size: int = 56
    pos_stride: int = 1
    neg_stride: int = 4

    def __post_init__(self):
        if not 1.0 <= self.scale_min <= self.scale_max:
            raise ConfigError(f"need 1 <= scale_min <= scale_max, got {self.scale_min}, {self.scale_max}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError(f"flip_prob must lie in [0, 1], got {self.flip_prob}")
        if self.pos_stride < 1 or self.neg_stride < 1:
            raise ConfigError(f"pos_stride and neg_stride must be >= 1, "
                              f"got {self.pos_stride}, {self.neg_stride}")


def window_starts(clip_len: int, label: int, cfg: AugmentConfig = AugmentConfig()) -> list[int]:
    """All 16-frame window starts for a clip: every frame for positives,
    a fixed stride for negatives.  Clips shorter than 16 frames yield none."""
    if clip_len < CLIP_LEN:
        return []
    stride = cfg.pos_stride if label == 1 else cfg.neg_stride
    return list(range(0, clip_len - CLIP_LEN + 1, stride))


def sample_rng(seed: int, provenance: tuple[str, str, int]) -> np.random.Generator:
    """Per-sample RNG stream keyed by provenance; identical for RGB and flow."""
    video_id, date_tag, start = provenance
    digest = hashlib.sha256(f"{video_id}|{date_tag}|{start}".encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def _crop_slices(box: BBox, width: int, height: int) -> tuple[slice, slice]:
    """Row and column slices of a BBox (rounded to pixels) within a width x
    height frame; a DataError when they do not overlap."""
    x1, y1, x2, y2 = box.coords()
    ix1 = max(0, int(np.floor(x1 + 0.5)))
    iy1 = max(0, int(np.floor(y1 + 0.5)))
    ix2 = min(width, int(np.floor(x2 + 0.5)))
    iy2 = min(height, int(np.floor(y2 + 0.5)))
    if ix2 <= ix1 or iy2 <= iy1:
        raise DataError(f"crop box ({x1}, {y1}, {x2}, {y2}) has zero-area intersection with "
                        f"{width}x{height} frame")
    return slice(iy1, iy2), slice(ix1, ix2)


def crop_window(seq: FrameSequence, box: BBox | None, start: int, n: int, size: int,
                flip: bool = False, delta: float = 0.0) -> np.ndarray:
    """Frames [start, start + n) cut to `box` (the whole frame if None), fit
    to size x size (shorter side scaled to `size`, then center-cropped),
    optionally mirrored (flow's horizontal component negated) and, for RGB,
    brightened by `delta` and clamped to [0, 1], then mapped to [-1, 1]:
    the network's (C, n, size, size) float32 input.

    The box is the same for every frame, so the ROI is copied once to
    (C, n, h, w) and resized in one call, which computes only the kept
    center window, mirrored by reading it right to left; each value equals
    the per-frame crop, resize, flip and brighten."""
    if box is None:
        rows = cols = slice(None)
    else:
        rows, cols = _crop_slices(box, seq.width, seq.height)
    roi = np.ascontiguousarray(seq.data[start:start + n, rows, cols].transpose(3, 0, 1, 2))
    h, w = roi.shape[2:]
    scale = size / min(w, h)
    new_w = max(size, int(round(w * scale)))
    new_h = max(size, int(round(h * scale)))
    x0 = (new_w - size) // 2
    y0 = (new_h - size) // 2
    cols = slice(x0 + size - 1, x0 - 1 if x0 else None, -1) if flip else slice(x0, x0 + size)
    out = frameio.resize_bilinear(roi, new_w, new_h, (slice(y0, y0 + size), cols))
    if flip and seq.channels == 2:
        np.negative(out[0], out=out[0])
    if seq.channels == 3:
        # zero-centered inputs are what the He-initialized backbone trains
        # well on, and they match the flow stream, which is already signed
        if delta:
            out += np.float32(delta)
            np.clip(out, 0.0, 1.0, out=out)
        out *= np.float32(2.0)
        out -= np.float32(1.0)
    return out


def sample_clip(
    seq: FrameSequence,
    track: Track,
    start: int,
    cfg: AugmentConfig,
    mode: str = "eval",
    *,
    seed: int = 0,
    n_frames: int = CLIP_LEN,
) -> np.ndarray:
    """Cut a (C, n_frames, S, S) window around the track's smoothed box at `start`.

    Train mode applies per-sample multi-scale cropping (area factor in
    [scale_min, scale_max]), a coin-flip horizontal flip and one brightness
    delta shared by all frames, drawn from `sample_rng(seed, provenance)`.
    Eval mode is the deterministic original-ROI crop.  A still for 2D
    pretraining is the one-frame window at its frame.
    """
    if mode not in ("train", "eval"):
        raise DataError(f"mode must be train or eval, got {mode}")
    if start < 0 or start + n_frames > len(seq):
        raise DataError(f"{seq.video_id}: window [{start}, {start + n_frames}) exceeds {len(seq)} frames")
    box = track.box_at(start)
    if box is None:
        raise DataError(f"{seq.video_id}: track {track.track_id} has no box at frame {start}")

    if mode == "train":
        rng = sample_rng(seed, (seq.video_id, seq.date_tag, start))
        area = rng.uniform(cfg.scale_min, cfg.scale_max)
        flip = rng.random() < cfg.flip_prob
        delta = rng.uniform(-cfg.brightness_extent, cfg.brightness_extent)
        box = box.scaled(float(np.sqrt(area)))
    else:
        flip, delta = False, 0.0
    return crop_window(seq, box, start, n_frames, cfg.input_size, flip, delta)


def split_dataset(records: list[AnnotationRecord], seed: int = 0) -> list[AnnotationRecord]:
    """The records, in order, each with its `split` set: a date-disjoint
    10:1:1 split by per-class frame counts.

    Dates are greedily packed into the split whose per-class frame totals
    deviate least from the ratio targets.  Synthetic records (and any date
    containing one) are forced into the training split.
    """
    dates: dict[str, dict] = {}
    for rec in records:
        d = dates.setdefault(rec.date_tag, {"frames": np.zeros(2), "synthetic": False})
        d["frames"][rec.label] += rec.n_frames
        d["synthetic"] |= rec.synthetic

    free_dates = [tag for tag, d in dates.items() if not d["synthetic"]]
    if len(free_dates) < SPLIT_MIN_DATES:
        raise DataError(f"need at least {SPLIT_MIN_DATES} distinct non-synthetic date_tags to split, "
                        f"got {len(free_dates)}")

    totals = sum((dates[t]["frames"] for t in free_dates), np.zeros(2))
    weights = np.array(SPLIT_RATIOS, dtype=np.float64) / sum(SPLIT_RATIOS)
    targets = weights[:, None] * totals[None, :]  # (3 splits, 2 classes)

    rng = np.random.default_rng(seed)
    order = sorted(free_dates)
    rng.shuffle(order)
    order.sort(key=lambda t: -dates[t]["frames"].sum(), )

    assigned = np.zeros((3, 2))
    membership: list[list[str]] = [[], [], []]
    for tag in order:
        best, best_dev = 0, None
        for s in range(3):
            trial = assigned.copy()
            trial[s] += dates[tag]["frames"]
            dev = np.abs(trial - targets).sum()
            if best_dev is None or dev < best_dev - 1e-9:
                best, best_dev = s, dev
        assigned[best] += dates[tag]["frames"]
        membership[best].append(tag)

    # with >= 3 free dates no split may end up date-less; move the date whose
    # relocation costs the least deviation into each empty slot
    for s in (1, 2):
        while not membership[s]:
            best_move, best_dev = None, None
            for d in range(3):
                if len(membership[d]) < 2:
                    continue
                for tag in membership[d]:
                    trial = assigned.copy()
                    trial[d] -= dates[tag]["frames"]
                    trial[s] += dates[tag]["frames"]
                    dev = np.abs(trial - targets).sum()
                    if best_dev is None or dev < best_dev - 1e-9:
                        best_move, best_dev = (d, tag), dev
            d, tag = best_move
            membership[d].remove(tag)
            membership[s].append(tag)
            assigned[d] -= dates[tag]["frames"]
            assigned[s] += dates[tag]["frames"]

    # the synthetic dates were never packed: they all train
    split_of = {tag: SPLITS[s] for s, tags in enumerate(membership) for tag in tags}
    return [replace(rec, split=split_of.get(rec.date_tag, "train")) for rec in records]


def save_annotations(records: list[AnnotationRecord], path: str) -> None:
    """CSV lines: video_id,date_tag,track_id,start,end,label,action_name,synthetic,split."""
    artifacts.write(path, "".join(
        f"{r.video_id},{r.date_tag},{r.track_id},{r.start_frame},{r.end_frame},"
        f"{r.label},{r.action_name},{int(r.synthetic)},{r.split}\n" for r in records))


def load_annotations(path: str) -> list[AnnotationRecord]:
    rows = artifacts.read_rows(path, (str, str, int, int, int, int, str, int, str), ",")
    return [AnnotationRecord(*f[:7], synthetic=bool(f[7]), split=f[8]) for _, f in rows]
