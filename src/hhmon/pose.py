"""COCO-18 keypoint ingestion and upper-body ROI derivation.

Keypoint files are whitespace-separated lines, one per (frame, person):

    frame_index person_hint x0 y0 c0 x1 y1 c1 ... x17 y17 c17

`person_hint` is a generator-truth id (-1 when unknown) consumed only by
test oracles, never by the tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import ConfigError, DataError

N_JOINTS = 18

# COCO-18 joint order
NOSE, NECK = 0, 1
R_SHOULDER, R_ELBOW, R_WRIST = 2, 3, 4
L_SHOULDER, L_ELBOW, L_WRIST = 5, 6, 7
R_HIP, R_KNEE, R_ANKLE = 8, 9, 10
L_HIP, L_KNEE, L_ANKLE = 11, 12, 13
R_EYE, L_EYE, R_EAR, L_EAR = 14, 15, 16, 17

ARM_JOINTS = (R_SHOULDER, R_ELBOW, R_WRIST, L_SHOULDER, L_ELBOW, L_WRIST)


@dataclass
class BBox:
    """Axis-aligned box, half-open on the right/bottom edge."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise DataError(f"box ({self.x1}, {self.y1}, {self.x2}, {self.y2}) must have positive area")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def scaled(self, factor: float) -> "BBox":
        """Grow/shrink about the center by a linear factor."""
        cx, cy = self.center
        hw, hh = self.width * factor / 2.0, self.height * factor / 2.0
        return BBox(cx - hw, cy - hh, cx + hw, cy + hh)


@dataclass
class PoseFrame:
    """All persons detected in one frame; each person is an (18, 3) array of x, y, confidence."""

    frame_index: int
    persons: list[np.ndarray] = field(default_factory=list)
    person_hints: list[int] = field(default_factory=list)

    def __post_init__(self):
        for p in self.persons:
            if p.shape != (N_JOINTS, 3):
                raise DataError(f"frame {self.frame_index}: person must have exactly {N_JOINTS} joints, "
                                f"got shape {p.shape}")
            c = p[:, 2]
            if np.any(c < 0) or np.any(c > 1):
                raise DataError(f"frame {self.frame_index}: confidences must lie in [0, 1]")


def _check_values(path: str, linenos: list[int], persons: list[np.ndarray]) -> None:
    """Raise naming the first of the lines read that holds a non-finite
    number or a confidence outside [0, 1], in one check over them all."""
    if persons:
        values = np.array(persons)
        finite = np.isfinite(values).all(axis=(1, 2))
        conf = values[:, :, 2]
        bad = ~finite | ((conf < 0) | (conf > 1)).any(axis=1)
        if bad.any():
            i = bad.argmax()
            what = ("confidences must lie in [0, 1]" if finite[i]
                    else "coordinates and confidences must be finite")
            raise DataError(f"{path}:{linenos[i]}: {what}")


def load_poses(path: str) -> list[PoseFrame]:
    """Parse a keypoint file into PoseFrames ordered by ascending frame index.
    Of several faulty lines, the first is named."""
    by_frame: dict[int, PoseFrame] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read keypoint file {path}: {exc}") from exc

    linenos, persons = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2 + 3 * N_JOINTS:
            _check_values(path, linenos, persons)
            n_joints = max(0, (len(tokens) - 2) // 3)
            raise DataError(f"{path}:{lineno}: expected {N_JOINTS} joints "
                            f"({2 + 3 * N_JOINTS} fields), found {n_joints} ({len(tokens)} fields)")
        try:
            frame_index = int(tokens[0])
            hint = int(tokens[1])
            values = np.array(tokens[2:], dtype=np.float64).reshape(N_JOINTS, 3)
        except ValueError as exc:
            _check_values(path, linenos, persons)
            raise DataError(f"{path}:{lineno}: malformed value: {exc}") from exc
        linenos.append(lineno)
        persons.append(values)
        pf = by_frame.setdefault(frame_index, PoseFrame(frame_index))
        pf.persons.append(values)
        pf.person_hints.append(hint)
    _check_values(path, linenos, persons)
    return [by_frame[i] for i in sorted(by_frame)]


def save_poses(poses: list[PoseFrame], path: str) -> None:
    with artifacts.publish(path) as tmp, open(tmp, "w") as fh:
        for pf in poses:
            for person, hint in zip(pf.persons, pf.person_hints):
                coords = " ".join(f"{v:.4f}" for v in person.reshape(-1))
                fh.write(f"{pf.frame_index} {hint} {coords}\n")


@dataclass
class RoiParams:
    """Upper-body ROI rule: the box over the arm joints that reach
    `min_confidence`, grown by `margin` of its extent on each side, needs at
    least `min_joints` of the six."""

    margin: float = 0.25
    min_confidence: float = 0.1
    min_joints: int = 4

    def __post_init__(self):
        if self.margin < 0:
            raise ConfigError(f"margin must be non-negative, got {self.margin}")
        # past these bounds no person can ever yield a box
        if not self.min_confidence <= 1:
            raise ConfigError(f"min_confidence must be <= 1, got {self.min_confidence}")
        if not 1 <= self.min_joints <= len(ARM_JOINTS):
            raise ConfigError(f"min_joints must lie in [1, {len(ARM_JOINTS)}], "
                              f"got {self.min_joints}")


def upper_body_roi(person: np.ndarray, frame_dims: tuple[int, int],
                   params: RoiParams) -> BBox | None:
    """Box over the six confident arm joints, expanded by a fractional margin.

    Returns None when fewer than `params.min_joints` of the six arm joints
    reach `params.min_confidence` or when the box, clamped to the
    (width, height) frame, degenerates to zero area.
    """
    arm = person[list(ARM_JOINTS)]
    confident = arm[arm[:, 2] >= params.min_confidence]
    if len(confident) < params.min_joints:
        return None
    x_min, y_min = confident[:, 0].min(), confident[:, 1].min()
    x_max, y_max = confident[:, 0].max(), confident[:, 1].max()
    mx = params.margin * (x_max - x_min)
    my = params.margin * (y_max - y_min)
    w, h = frame_dims
    x1, x2 = max(0.0, x_min - mx), min(float(w), x_max + mx)
    y1, y2 = max(0.0, y_min - my), min(float(h), y_max + my)
    if x2 <= x1 or y2 <= y1:
        return None
    return BBox(x1, y1, x2, y2)
