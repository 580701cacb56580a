"""Codec-free frame storage and elementary image operations.

A sequence lives in memory as one float32 array of shape (frames, height,
width, channels), and a single image as its (height, width, channels)
slice, with RGB values in [0, 1].  Two-channel images hold optical flow
(dx, dy) and are exempt from the range bound.  On disk, RGB goes to binary
PPM (P6, 8-bit), grayscale to PGM (P5) and flow to a little-endian float32
planar format (".flo2").

Everything after the load is channel first: `resize_bilinear` resizes the
last two axes of a (..., h, w) stack, such as the flow solver's (n, h, w)
planes or a clip's (C, n, h, w) ROI (see `clipset.crop_window`).
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DataError

FLO2_MAGIC = b"FLO2"

_FRAME_RE = re.compile(r"^frame_(\d{6})\.(ppm|pgm|flo2)$")


@dataclass
class FrameSequence:
    """A clip as one float32 array of shape (n, h, w, c), c in {1, 2, 3},
    plus recording metadata."""

    data: np.ndarray
    fps: float = 15.0
    video_id: str = ""
    date_tag: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4 or self.data.shape[3] not in (1, 2, 3):
            raise DataError(f"frame data must be (n, h, w, c) with 1|2|3 channels, "
                            f"got {self.data.shape}")
        if self.fps <= 0:
            raise DataError(f"fps must be positive, got {self.fps}")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]


def write_ppm(image: np.ndarray, path: str) -> None:
    """8-bit binary PPM (P6) for an (h, w, 3) RGB image, PGM (P5) for (h, w, 1)."""
    height, width, channels = image.shape
    q = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (width, height))
        fh.write(q.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """An 8-bit PPM or PGM file as an (h, w, 3 or 1) float32 image in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    m = re.match(rb"^(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if m is None:
        raise DataError(f"{path}: not a binary PPM/PGM file")
    magic, w, h, maxval = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit images supported, maxval={maxval}")
    c = 3 if magic == b"P6" else 1
    if len(raw) - m.end() < w * h * c:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h * c, offset=m.end())
    return pixels.reshape(h, w, c).astype(np.float32) / 255.0


def write_flo2(flow: np.ndarray, path: str) -> None:
    """Planar little-endian float32 flow file of an (h, w, 2) image: dx
    plane then dy plane."""
    if flow.shape[2:] != (2,):
        raise DataError(f"{path}: .flo2 requires an (h, w, 2) flow image, got {flow.shape}")
    with open(path, "wb") as fh:
        fh.write(FLO2_MAGIC)
        fh.write(struct.pack("<II", flow.shape[1], flow.shape[0]))
        fh.write(flow[:, :, 0].astype("<f4").tobytes())
        fh.write(flow[:, :, 1].astype("<f4").tobytes())


def read_flo2(path: str) -> np.ndarray:
    """A .flo2 file as an (h, w, 2) float32 flow image."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != FLO2_MAGIC:
        raise DataError(f"{path}: bad magic, not a .flo2 file")
    w, h = struct.unpack("<II", raw[4:12])
    if len(raw) - 12 < 8 * w * h:
        raise DataError(f"{path}: truncated flow data")
    planes = np.frombuffer(raw, dtype="<f4", count=2 * w * h, offset=12)
    return np.stack(planes.reshape(2, h, w), axis=-1)


def save_sequence(seq: FrameSequence, directory: str) -> None:
    """Write meta.json plus contiguously numbered frame files, as one
    directory published whole (`artifacts.publish`)."""
    try:
        with artifacts.publish(directory) as tmp:
            os.mkdir(tmp)
            meta = {
                "width": seq.width,
                "height": seq.height,
                "fps": seq.fps,
                "video_id": seq.video_id,
                "date_tag": seq.date_tag,
                "channels": seq.channels,
            }
            with open(os.path.join(tmp, "meta.json"), "w") as fh:
                json.dump(meta, fh, indent=1)
            ext = {1: "pgm", 2: "flo2", 3: "ppm"}[seq.channels]
            write = write_flo2 if ext == "flo2" else write_ppm
            for i, image in enumerate(seq.data):
                write(image, os.path.join(tmp, f"frame_{i:06d}.{ext}"))
    except OSError as exc:
        raise DataError(f"cannot write sequence to {directory}: {exc}") from exc


# The frame descriptor's keys and the JSON types each must have.
_DESCRIPTOR = {"width": int, "height": int, "channels": int, "fps": (int, float),
               "video_id": str, "date_tag": str}


def load_descriptor(directory: str) -> dict:
    """A frame directory's meta.json, checked to be an object with every
    descriptor key of the right type; any fault is a DataError naming the file."""
    path = os.path.join(directory, "meta.json")
    meta = artifacts.read_json(path, DataError, f"{directory}: missing meta.json descriptor")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: descriptor must be a JSON object")
    for key, kind in _DESCRIPTOR.items():
        if key not in meta:
            raise DataError(f"{path}: descriptor has no {key!r}")
        if not isinstance(meta[key], kind):
            raise DataError(f"{path}: descriptor {key!r} has the wrong type: {meta[key]!r}")
    if min(meta["width"], meta["height"]) < 1 or meta["channels"] not in (1, 2, 3):
        raise DataError(f"{path}: descriptor dimensions {meta['width']}x{meta['height']}"
                        f"x{meta['channels']} are not a frame's")
    return meta


def index_sequence(directory: str) -> tuple[dict, list[str]]:
    """A frame directory's checked descriptor and its frame file names in
    frame order; a DataError when there are none or the numbering has a gap."""
    meta = load_descriptor(directory)
    indices = {}
    for name in os.listdir(directory):
        m = _FRAME_RE.match(name)
        if m:
            indices[int(m.group(1))] = name
    if not indices:
        raise DataError(f"{directory}: no frames")
    for i in range(len(indices)):
        if i not in indices:
            raise DataError(f"{directory}: missing frame {i}")
    return meta, [indices[i] for i in range(len(indices))]


def load_sequence(directory: str, frames: slice = slice(None)) -> FrameSequence:
    """Load a frame directory, or the frames `frames` of it, into one array,
    enforcing contiguous numbering and the descriptor dims."""
    meta, names = index_sequence(directory)
    h, w, c = meta["height"], meta["width"], meta["channels"]
    names = names[frames]
    data = np.empty((len(names), h, w, c), dtype=np.float32)
    for i, name in enumerate(names):
        path = os.path.join(directory, name)
        image = read_flo2(path) if c == 2 else read_ppm(path)
        if image.shape != (h, w, c):
            ih, iw, ic = image.shape
            raise DataError(f"{name}: dimensions {iw}x{ih}x{ic} do not match descriptor {w}x{h}x{c}")
        data[i] = image
    return FrameSequence(data, fps=float(meta["fps"]), video_id=meta["video_id"],
                         date_tag=meta["date_tag"])


def _crop_slices(box, width: int, height: int) -> tuple[slice, slice]:
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


def _sample_coords(n_out: int, n_in: int) -> np.ndarray:
    # corner-aligned sampling; a single output sample maps to the input center
    if n_out == 1 or n_in == 1:
        return np.full(n_out, (n_in - 1) / 2.0)
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


def resize_bilinear(image: np.ndarray, out_w: int, out_h: int,
                    window: tuple[slice, slice] = (slice(None), slice(None))) -> np.ndarray:
    """Bilinear resize, with corner-aligned sampling, of the last two axes
    of a (..., h, w) array; only the `window` (row and column slices) of the
    (..., out_h, out_w) result is computed.

    The row slice must ascend.  The column slice may step -1: a reversed
    column window gives the mirrored result, bit for bit.

    The x pass runs on the band of input rows the window reads, then the
    output rows are gathered from it; each value gets the same float32
    arithmetic on the same four inputs as interpolating x at the output
    rows first."""
    if out_w < 1 or out_h < 1:
        raise DataError(f"resize target must be at least 1x1, got {out_w}x{out_h}")
    height, width = image.shape[-2:]
    rows, cols = window
    xs = _sample_coords(out_w, width)[cols]
    ys = _sample_coords(out_h, height)[rows]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, width - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (xs - x0).astype(np.float32)
    fy = (ys - y0).astype(np.float32)[:, None]
    # one-axis gathers: the values of 2-D fancy indexing at a fraction of the cost
    lo, hi = y0[0], y1[-1] + 1
    band = image[..., lo:hi, :]
    across = _lerp(band.take(x0, axis=-1), band.take(x1, axis=-1), fx)
    return _lerp(across.take(y0 - lo, axis=-2), across.take(y1 - lo, axis=-2), fy)


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a * (1 - f) + b * f, rounded the same, computed in place in a and b."""
    a *= 1 - f
    b *= f
    a += b
    return a


def luminance(images: np.ndarray) -> np.ndarray:
    """Grayscale planes (..., h, w) of (..., h, w, c) images via Rec.601
    weights; identity for 1-channel images."""
    if images.shape[-1] == 1:
        return images[..., 0]
    if images.shape[-1] != 3:
        raise DataError("luminance needs RGB or grayscale images")
    r, g, b = images[..., 0], images[..., 1], images[..., 2]
    return 0.299 * r + 0.587 * g + 0.114 * b
