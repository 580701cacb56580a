"""Link per-frame ROIs into per-person tracks and smooth them.

Assignment is greedy highest-IoU-first against each active track's latest
box.  Smoothing is a trailing moving average over the box coordinates with
a warm-up over however many samples exist, so the first frame is passed
through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import ConfigError, DataError
from .pose import BBox


@dataclass
class Track:
    track_id: int
    entries: list[tuple[int, BBox]] = field(default_factory=list)
    smoothed: list[tuple[int, BBox]] = field(default_factory=list)

    def frame_indices(self) -> list[int]:
        return [f for f, _ in self.entries]

    def box_at(self, frame_index: int) -> BBox | None:
        """The smoothed box at a frame, or the raw one if nothing is smoothed."""
        for f, box in self.smoothed or self.entries:
            if f == frame_index:
                return box
        return None

    def validate(self) -> None:
        idx = self.frame_indices()
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DataError(f"track {self.track_id}: frame indices must be strictly increasing, got {idx}")

    @property
    def last_frame(self) -> int:
        return self.entries[-1][0]


@dataclass
class LinkParams:
    """Linking and smoothing: a detection joins a track at IoU >= `tau_new`,
    a track closes after more than `max_gap` frames without one, and boxes
    are averaged over a trailing window of `smooth_window` samples."""

    tau_new: float = 0.1
    max_gap: int = 8
    smooth_window: int = 4

    def __post_init__(self):
        if not 0.0 <= self.tau_new <= 1.0:
            raise ConfigError(f"tau_new must lie in [0, 1], got {self.tau_new}")
        if self.max_gap < 0:
            raise ConfigError(f"max_gap must be >= 0, got {self.max_gap}")
        if self.smooth_window < 1:
            raise ConfigError(f"smoothing window must be >= 1, got {self.smooth_window}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def link_step(
    tracks: list[Track],
    detections: list[BBox],
    frame_index: int,
    tau_new: float,
    next_id: int | None = None,
) -> tuple[list[tuple[int, int]], list[Track]]:
    """Assign one frame of detections to active tracks, greedily by IoU.

    Walks the (track, detection) pairs from the highest IoU down, ties
    toward the lower track id, then the lower detection index, and matches
    each pair with IoU >= tau_new whose track and detection are both still
    free.  Unmatched detections open new tracks.  Returns the matched
    (track index, detection index) pairs and the list of tracks created.
    """
    if next_id is None:
        next_id = max((t.track_id for t in tracks), default=-1) + 1

    pairs = sorted((-iou(track.entries[-1][1], det), track.track_id, ti, di)
                   for ti, track in enumerate(tracks) for di, det in enumerate(detections))
    matches: list[tuple[int, int]] = []
    used_tracks, used_dets = set(), set()
    for neg_iou, _, ti, di in pairs:
        if -neg_iou < tau_new:
            break
        if ti not in used_tracks and di not in used_dets:
            tracks[ti].entries.append((frame_index, detections[di]))
            matches.append((ti, di))
            used_tracks.add(ti)
            used_dets.add(di)

    free = [di for di in range(len(detections)) if di not in used_dets]
    return matches, [Track(next_id + i, entries=[(frame_index, detections[di])])
                     for i, di in enumerate(free)]


def link_detections(per_frame: list[tuple[int, list[BBox]]],
                    params: LinkParams) -> list[Track]:
    """Link (frame_index, detections) pairs, in frame order, into tracks.

    A track closes once more than `params.max_gap` frames pass since its
    last detection; detections left unmatched open new tracks.
    """
    active: list[Track] = []
    closed: list[Track] = []
    next_id = 0
    for frame_index, dets in per_frame:
        closed += [t for t in active if frame_index - t.last_frame > params.max_gap]
        active = [t for t in active if frame_index - t.last_frame <= params.max_gap]
        _, born = link_step(active, dets, frame_index, params.tau_new, next_id=next_id)
        active += born
        next_id += len(born)
    tracks = sorted(closed + active, key=lambda t: t.track_id)
    for t in tracks:
        t.validate()
    return tracks


def smooth_track(track: Track, window: int) -> Track:
    """Trailing moving average of the four coordinates over `window` samples,
    warm-up over available samples."""
    if not track.entries:
        raise DataError(f"track {track.track_id} is empty")
    coords = np.array([b.coords() for _, b in track.entries], dtype=np.float64)
    csum = np.cumsum(coords, axis=0)
    out = np.empty_like(coords)
    n = len(coords)
    for i in range(min(window, n)):
        out[i] = csum[i] / (i + 1)
    if n > window:
        out[window:] = (csum[window:] - csum[:-window]) / window
    track.smoothed = [
        (frame, BBox(*out[i])) for i, (frame, _) in enumerate(track.entries)
    ]
    return track


@dataclass
class Edit:
    """One correction: move a single detection, split a track, or merge two tracks."""

    op: str  # move | split | merge
    args: tuple[int, ...]


def parse_corrections(path: str) -> list[Edit]:
    edits = []
    for lineno, (op, *tokens) in artifacts.read_rows(path):
        try:
            args = tuple(int(t) for t in tokens)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed edit: {exc}") from exc
        if (op, len(args)) not in (("move", 3), ("split", 2), ("merge", 2)):
            raise DataError(f"{path}:{lineno}: unknown edit '{' '.join((op, *tokens))}'")
        edits.append(Edit(op, args))
    return edits


def correct_assignment(tracks: list[Track], edits: list[Edit]) -> list[Track]:
    """Apply manual correction edits; invariants are re-validated afterwards.

    move <frame> <from_track> <to_track>: reassign one detection.
    split <track> <frame>: entries at/after <frame> move to a fresh track.
    merge <src_track> <dst_track>: fold src into dst (error on temporal overlap).
    """
    by_id = {t.track_id: t for t in tracks}
    next_id = max(by_id, default=-1) + 1
    for edit in edits:
        if edit.op == "move":
            frame, src_id, dst_id = edit.args
            src, dst = by_id.get(src_id), by_id.get(dst_id)
            if src is None or dst is None:
                raise DataError(f"edit {edit}: unknown track")
            entry = [(f, b) for f, b in src.entries if f == frame]
            if not entry:
                raise DataError(f"edit {edit}: track {src_id} has no detection at frame {frame}")
            if any(f == frame for f, _ in dst.entries):
                raise DataError(f"edit {edit}: track {dst_id} already has a detection at frame {frame}")
            src.entries = [(f, b) for f, b in src.entries if f != frame]
            dst.entries = sorted(dst.entries + entry)
        elif edit.op == "split":
            src_id, frame = edit.args
            src = by_id.get(src_id)
            if src is None:
                raise DataError(f"edit {edit}: unknown track {src_id}")
            head = [(f, b) for f, b in src.entries if f < frame]
            tail = [(f, b) for f, b in src.entries if f >= frame]
            if not tail:
                raise DataError(f"edit {edit}: track {src_id} has no entries at or after frame {frame}")
            src.entries = head
            new = Track(next_id, entries=tail)
            by_id[next_id] = new
            next_id += 1
        elif edit.op == "merge":
            src_id, dst_id = edit.args
            src, dst = by_id.get(src_id), by_id.get(dst_id)
            if src is None or dst is None:
                raise DataError(f"edit {edit}: unknown track")
            overlap = set(src.frame_indices()) & set(dst.frame_indices())
            if overlap:
                raise DataError(f"edit {edit}: tracks {src_id} and {dst_id} overlap at frames "
                                f"{sorted(overlap)}; one entry per frame per track")
            dst.entries = sorted(dst.entries + src.entries)
            del by_id[src_id]
        else:
            raise DataError(f"unknown edit op {edit.op}")
    out = [t for t in sorted(by_id.values(), key=lambda t: t.track_id) if t.entries]
    for t in out:
        t.validate()
        t.smoothed = []  # stale after edits; re-run smoothing
    return out


def save_tracks(tracks: list[Track], path: str) -> None:
    """One line per entry: track_id frame x1 y1 x2 y2 sx1 sy1 sx2 sy2."""
    lines = []
    for t in tracks:
        smoothed = dict((f, b) for f, b in t.smoothed)
        for frame, box in t.entries:
            s = smoothed.get(frame, box)
            vals = " ".join(repr(float(v)) for v in box.coords() + s.coords())
            lines.append(f"{t.track_id} {frame} {vals}\n")
    artifacts.write(path, "".join(lines))


def load_tracks(path: str) -> list[Track]:
    by_id: dict[int, Track] = {}
    for _, (tid, frame, *vals) in artifacts.read_rows(path, (int, int) + (float,) * 8):
        t = by_id.setdefault(tid, Track(tid))
        t.entries.append((frame, BBox(*vals[:4])))
        t.smoothed.append((frame, BBox(*vals[4:])))
    tracks = [by_id[k] for k in sorted(by_id)]
    for t in tracks:
        t.validate()
    return tracks
