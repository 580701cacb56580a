"""Deterministic procedural generator of labeled multi-person scenes.

Each person is an articulated stick figure rendered over a static noise
background.  Class 1 ("rubbing") persons oscillate both wrists toward and
away from each other near the body midline at high frequency; class 0
("other") persons sweep one arm through a slow, large arc.  Motion, not
appearance, is the discriminative signal.  Generation is a pure function of
the scene spec: the same seed reproduces frame and keypoint files byte for
byte.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from . import artifacts, frameio, pose, workers
from .clipset import AnnotationRecord
from .errors import ConfigError, DataError
from .frameio import FrameSequence
from .pose import PoseFrame

OTHER_ACTIONS = ("intubating", "wearing_gloves", "removing_gloves")

DEFAULT_WIDTH, DEFAULT_HEIGHT = 160, 120


@dataclass
class PersonMotion:
    """Trajectory parameters for one stick figure.  Lengths are fractions of
    the torso scale unless stated otherwise."""

    kind: str  # rubbing | other | idle
    base_x: float  # neck position, px
    base_y: float
    scale: float  # torso length, px
    freq: float = 0.25  # primary oscillation, cycles/frame
    amp: float = 0.19
    phase: float = 0.0
    arm_side: int = 1  # +1 right arm leads, -1 left (kind "other")
    sway_amp: float = 0.02
    sway_freq: float = 0.013
    shade: float = 0.2  # stroke intensity


@dataclass
class SceneSpec:
    seed: int
    class_label: int = 1
    n_persons: int = 1
    n_frames: int = 48
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    fps: float = 15.0
    video_id: str = "scene"
    date_tag: str = "d00"
    joint_dropout: float = 0.0


def default_motion(spec: SceneSpec, rng: np.random.Generator) -> list[PersonMotion]:
    """Person 0 performs the scene's class action; extra persons idle nearby."""
    persons = []
    scale = min(spec.height / 3.3, spec.width / (2.2 * spec.n_persons))
    for i in range(spec.n_persons):
        slot = (i + 1) / (spec.n_persons + 1)
        base_x = slot * spec.width + rng.uniform(-0.02, 0.02) * spec.width
        base_y = 0.24 * spec.height + rng.uniform(-0.02, 0.02) * spec.height
        kind = ("rubbing" if spec.class_label == 1 else "other") if i == 0 else "idle"
        if kind == "rubbing":
            freq = rng.uniform(0.22, 0.28)
            amp = rng.uniform(0.16, 0.22)
        elif kind == "other":
            freq = rng.uniform(0.020, 0.028)
            amp = rng.uniform(0.9, 1.2)  # arc half-angle, radians
        else:
            freq = rng.uniform(0.008, 0.015)
            amp = rng.uniform(0.01, 0.03)
        persons.append(PersonMotion(
            kind=kind, base_x=base_x, base_y=base_y, scale=scale,
            freq=freq, amp=amp, phase=rng.uniform(0, 2 * np.pi),
            arm_side=1 if rng.random() < 0.5 else -1,
            sway_amp=rng.uniform(0.01, 0.025), sway_freq=rng.uniform(0.008, 0.018),
            shade=rng.uniform(0.12, 0.28),
        ))
    return persons


# (joint, dx, dy) of each joint that keeps its place relative to the neck, in torso lengths
_REST = ((pose.NECK, 0.0, 0.0), (pose.NOSE, 0.0, -0.30),
         (pose.R_EYE, -0.07, -0.36), (pose.L_EYE, 0.07, -0.36),
         (pose.R_EAR, -0.14, -0.33), (pose.L_EAR, 0.14, -0.33),
         (pose.R_SHOULDER, -0.30, 0.05), (pose.L_SHOULDER, 0.30, 0.05),
         (pose.R_HIP, -0.18, 0.95), (pose.L_HIP, 0.18, 0.95),
         (pose.R_KNEE, -0.20, 1.48), (pose.L_KNEE, 0.20, 1.48),
         (pose.R_ANKLE, -0.22, 2.0), (pose.L_ANKLE, 0.22, 2.0))


def skeleton_at(motion: PersonMotion, t: int) -> np.ndarray:
    """18 joint (x, y) positions at frame t, COCO-18 order."""
    s = motion.scale
    sway = motion.sway_amp * s * np.sin(2 * np.pi * motion.sway_freq * t + motion.phase)
    cx = motion.base_x + sway
    cy = motion.base_y
    j = np.zeros((pose.N_JOINTS, 2))

    for idx, dx, dy in _REST:
        j[idx] = (cx + dx * s, cy + dy * s)

    w = 2 * np.pi * motion.freq * t + motion.phase
    if motion.kind == "rubbing":
        # both wrists meet near the chest midline, high-frequency in/out
        half = (0.30 + motion.amp * np.sin(w)) * 0.5
        wob = 0.06 * np.sin(w + np.pi / 2)
        j[pose.R_WRIST] = (cx - half * s, cy + (0.55 + wob) * s)
        j[pose.L_WRIST] = (cx + half * s, cy + (0.55 - wob) * s)
    elif motion.kind == "other":
        # one arm sweeps a slow, wide arc; the other hangs
        lead = pose.R_WRIST if motion.arm_side > 0 else pose.L_WRIST
        hang = pose.L_WRIST if motion.arm_side > 0 else pose.R_WRIST
        sh = j[pose.R_SHOULDER] if motion.arm_side > 0 else j[pose.L_SHOULDER]
        other_sh = j[pose.L_SHOULDER] if motion.arm_side > 0 else j[pose.R_SHOULDER]
        ang = np.pi / 2 + motion.amp * np.sin(w)  # pi/2 hangs straight down
        reach = 0.85 * s
        j[lead] = (sh[0] + motion.arm_side * reach * np.cos(ang), sh[1] + reach * np.sin(ang))
        j[hang] = (other_sh[0], other_sh[1] + 0.85 * s)
    else:
        j[pose.R_WRIST] = (j[pose.R_SHOULDER][0] - 0.02 * s, cy + 0.88 * s)
        j[pose.L_WRIST] = (j[pose.L_SHOULDER][0] + 0.02 * s, cy + 0.88 * s)

    # elbows: halfway shoulder->wrist, pushed outward from the torso
    for sh_i, wr_i, el_i, side in (
        (pose.R_SHOULDER, pose.R_WRIST, pose.R_ELBOW, -1),
        (pose.L_SHOULDER, pose.L_WRIST, pose.L_ELBOW, 1),
    ):
        mid = (j[sh_i] + j[wr_i]) / 2.0
        j[el_i] = (mid[0] + side * 0.10 * s, mid[1] + 0.05 * s)
    return j


_LIMBS = (
    (pose.NECK, pose.NOSE),
    (pose.NECK, pose.R_SHOULDER), (pose.NECK, pose.L_SHOULDER),
    (pose.R_SHOULDER, pose.R_ELBOW), (pose.R_ELBOW, pose.R_WRIST),
    (pose.L_SHOULDER, pose.L_ELBOW), (pose.L_ELBOW, pose.L_WRIST),
    (pose.NECK, pose.R_HIP), (pose.NECK, pose.L_HIP),
    (pose.R_HIP, pose.L_HIP),
    (pose.R_HIP, pose.R_KNEE), (pose.R_KNEE, pose.R_ANKLE),
    (pose.L_HIP, pose.L_KNEE), (pose.L_KNEE, pose.L_ANKLE),
)


def _blend(frames: np.ndarray, lo: np.ndarray, hi: np.ndarray, alpha_of,
           color: np.ndarray) -> None:
    """Blend `color` into every frame with alpha `clip(alpha_of(xs, ys), 0, 1)`
    over the box from floor(min lo) to ceil(max hi), (x, y), clipped to the
    frame.  lo[t] and hi[t] bound frame t's stroke with at least half a pixel
    to spare, so alpha is 0 outside them, and a pixel blended with alpha 0
    keeps its value: each frame is drawn as if over its own box alone.
    `alpha_of` maps the box's (1, 1, w) and (1, h, 1) pixel coordinates to
    one float64 map per frame."""
    h, w = frames.shape[1:3]
    x0, y0 = np.maximum(0, np.floor(lo.min(axis=0))).astype(int)
    x1, y1 = np.minimum((w, h), np.ceil(hi.max(axis=0))).astype(int)
    if x1 <= x0 or y1 <= y0:
        return
    alpha = np.clip(alpha_of(np.arange(x0, x1)[None, None, :], np.arange(y0, y1)[None, :, None]),
                    0.0, 1.0).astype(np.float32)[..., None]
    region = frames[:, y0:y1, x0:x1]
    region[...] = region * (1 - alpha) + color * alpha


def _draw_segments(frames: np.ndarray, p0: np.ndarray, p1: np.ndarray, color: np.ndarray,
                   width: float = 1.4) -> None:
    """Draw the segment p0[t]-p1[t], a (n, 2) pair of (x, y) ends, into each frame t."""
    x0, y0, dx, dy = (v.reshape(-1, 1, 1) for v in (*p0.T, *(p1 - p0).T))
    seg_len2 = dx * dx + dy * dy
    short = seg_len2 < 1e-12  # a point: every pixel measures to p0

    def alpha_of(xs, ys):
        t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / np.where(short, 1.0, seg_len2), 0.0, 1.0)
        t = np.where(short, 0.0, t)
        return width - np.sqrt((xs - (x0 + t * dx)) ** 2 + (ys - (y0 + t * dy)) ** 2)

    _blend(frames, np.minimum(p0, p1) - width - 1, np.maximum(p0, p1) + width + 2,
           alpha_of, color)


def _draw_discs(frames: np.ndarray, centers: np.ndarray, radius: float, color: np.ndarray) -> None:
    """Draw a disc of `radius` around centers[t], (x, y), into each frame t."""
    cx, cy = (v.reshape(-1, 1, 1) for v in centers.T)
    _blend(frames, centers - radius - 1, centers + radius + 2,
           lambda xs, ys: radius - np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2) + 0.5, color)


def _background(width: int, height: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth static value-noise texture in mid grays."""
    gw, gh = max(2, width // 16), max(2, height // 16)
    grid = rng.uniform(0.40, 0.72, size=(gh, gw, 3)).astype(np.float32)
    planes = frameio.resize_bilinear(grid.transpose(2, 0, 1), width, height)
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


def generate_scene(spec: SceneSpec) -> tuple[FrameSequence, list[PoseFrame]]:
    """Render a scene and its keypoint ground truth.  Each limb and head is
    drawn over all frames at once, in the order, and with the float64 and
    float32 ops per pixel, of drawing each frame's persons one by one."""
    rng = np.random.default_rng(spec.seed)
    motions = default_motion(spec, rng)
    background = _background(spec.width, spec.height, rng)

    drop = (rng.random((spec.n_frames, spec.n_persons, pose.N_JOINTS)) < spec.joint_dropout
            if spec.joint_dropout > 0 else None)

    frames = np.broadcast_to(background, (spec.n_frames, *background.shape)).copy()
    skeletons = []  # (n_frames, joints, 2) of each person
    for motion in motions:
        joints = np.stack([skeleton_at(motion, t) for t in range(spec.n_frames)])
        color = np.array([motion.shade, motion.shade * 1.1, motion.shade * 1.35], dtype=np.float32)
        for a, b in _LIMBS:
            _draw_segments(frames, joints[:, a], joints[:, b], color)
        _draw_discs(frames, joints[:, pose.NOSE], 0.18 * motion.scale, color)
        skeletons.append(joints)
    np.clip(frames, 0.0, 1.0, out=frames)

    # (frame, person, joint) rows of x, y and a confidence of 1, or 0 where dropped
    kps = np.concatenate([np.stack(skeletons, axis=1),
                          np.ones((spec.n_frames, len(motions), pose.N_JOINTS, 1))], axis=3)
    if drop is not None:
        kps[drop] = 0.0
    poses = [PoseFrame(t, list(kps[t]), list(range(len(motions)))) for t in range(spec.n_frames)]
    seq = FrameSequence(frames, fps=spec.fps, video_id=spec.video_id, date_tag=spec.date_tag)
    return seq, poses


@dataclass
class DatasetConfig:
    """What `generate_dataset` draws: scene counts per group, dates, frame
    size and length range, persons per scene, joint dropout and frame rate."""

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
        if min(self.n_rubbing, self.n_other, self.n_synthetic_rubbing) < 0:
            raise ConfigError("scene counts must be non-negative")
        if self.n_dates < 1 or self.n_synthetic_dates < 1:
            raise ConfigError("date counts must be >= 1")
        if self.n_frames_min < 16 or self.n_frames_max < self.n_frames_min:
            raise ConfigError("need 16 <= n_frames_min <= n_frames_max")
        if self.n_persons < 1:
            raise ConfigError(f"n_persons must be >= 1, got {self.n_persons}")
        # a dropout of 1 leaves no joint to detect a person by
        if not 0 <= self.joint_dropout < 1:
            raise ConfigError(f"joint_dropout must lie in [0, 1), got {self.joint_dropout}")
        if not self.fps > 0:
            raise ConfigError(f"fps must be positive, got {self.fps}")


def _write_scene(out_dir: str, spec: SceneSpec, entry: dict) -> None:
    """Render a scene and publish its frames dir and keypoints file under out_dir."""
    seq, poses = generate_scene(spec)
    try:
        frameio.save_sequence(seq, os.path.join(out_dir, entry["frames_dir"]))
        pose.save_poses(poses, os.path.join(out_dir, entry["keypoints_file"]))
    except OSError as exc:
        raise DataError(f"{spec.video_id}: cannot write the scene: {exc}") from None


def generate_dataset(cfg: DatasetConfig, out_dir: str, seed: int) -> dict:
    """Write scenes plus a dataset.json manifest under out_dir; returns the
    manifest dict.  Every scene is drawn here, then rendered and written in
    the worker pool (`workers.run`), and the manifest is published last."""
    rng = np.random.default_rng(seed)
    groups = [("rub", 1, False, cfg.n_rubbing), ("oth", 0, False, cfg.n_other),
              ("synrub", 1, True, cfg.n_synthetic_rubbing)]
    jobs = []  # (spec, manifest entry) of each scene
    scene_seeds = rng.integers(0, 2**62, size=sum(g[3] for g in groups))
    seed_iter = iter(int(s) for s in scene_seeds)

    for prefix, label, synthetic, count in groups:
        # a group of no scenes draws nothing, so the other groups' lengths stay put
        lengths = rng.integers(cfg.n_frames_min, cfg.n_frames_max + 1,
                               size=count).tolist() if count else []
        for i in range(count):
            date = f"s{i % cfg.n_synthetic_dates:02d}" if synthetic else f"d{i % cfg.n_dates:02d}"
            video_id = f"{prefix}_{i:03d}"
            action = "rubbing_hands" if label == 1 else OTHER_ACTIONS[i % len(OTHER_ACTIONS)]
            spec = SceneSpec(
                seed=next(seed_iter), class_label=label, n_persons=cfg.n_persons,
                n_frames=lengths[i], width=cfg.width, height=cfg.height, fps=cfg.fps,
                video_id=video_id, date_tag=date, joint_dropout=cfg.joint_dropout,
            )
            jobs.append((spec, {
                "video_id": video_id, "date_tag": date, "class": label,
                "frames_dir": os.path.join("scenes", video_id, "frames"),
                "keypoints_file": os.path.join("scenes", video_id, "keypoints.txt"),
                "start_frame": 0, "end_frame": lengths[i], "action_name": action,
                "synthetic": synthetic}))

    workers.run(lambda job: _write_scene(out_dir, *job), jobs, lambda job: job[0].video_id)
    manifest = {"seed": seed, "scenes": [entry for _, entry in jobs]}
    artifacts.write(os.path.join(out_dir, "dataset.json"), json.dumps(manifest, indent=1))
    return manifest


# The keys of a manifest entry that the stages read and the JSON types each must have.
_ENTRY = {"video_id": str, "date_tag": str, "class": int, "frames_dir": str,
          "keypoints_file": str, "start_frame": int, "end_frame": int}
# A scene's names, which become file names and annotations.csv fields.
_FILE_NAME = re.compile(r"(?!\.\.?\Z)[A-Za-z0-9_.-]+")
_NAMES = {"video_id": _FILE_NAME, "date_tag": _FILE_NAME,
          "action_name": re.compile(r"[A-Za-z0-9_.-]*")}


def load_manifest(dataset_dir: str) -> dict:
    """A dataset's dataset.json, checked to be an object with a `scenes` list
    whose every entry has each key the stages read, of the right type, and
    names (`_NAMES`) safe as a file name and a CSV field; any fault is a
    DataError naming the file."""
    path = os.path.join(dataset_dir, "dataset.json")
    manifest = artifacts.read_json(path, DataError, f"{dataset_dir}: missing dataset.json manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("scenes"), list):
        raise DataError(f"{path}: manifest must be a JSON object with a 'scenes' list")
    for i, entry in enumerate(manifest["scenes"]):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: scene {i} must be a JSON object")
        for key, kind in _ENTRY.items():
            if not isinstance(entry.get(key), kind):
                raise DataError(f"{path}: scene {i} has no {key!r} of type {kind.__name__}")
        for key, name in _NAMES.items():
            value = entry.get(key, "")
            if not isinstance(value, str) or not name.fullmatch(value):
                raise DataError(f"{path}: scene {i}: {key} {value!r} is not a plain name "
                                f"(letters, digits, '_', '.', '-')")
    return manifest


def manifest_records(manifest: dict) -> list[AnnotationRecord]:
    """Annotation records straight from the manifest (track ids unresolved)."""
    return [
        AnnotationRecord(
            video_id=e["video_id"], date_tag=e["date_tag"], track_id=-1,
            start_frame=e["start_frame"], end_frame=e["end_frame"], label=e["class"],
            action_name=e.get("action_name", ""), synthetic=e.get("synthetic", False),
        )
        for e in manifest["scenes"]
    ]
