"""Codec-free frame storage and elementary image operations.

A sequence lives in memory as one float32 array of shape (frames, height,
width, channels), and a single image as its (height, width, channels)
slice, with RGB values in [0, 1].  Two-channel images hold optical flow
(dx, dy) and are exempt from the range bound.  No other channel count is
a frame.  On disk, RGB goes to binary PPM (P6, 8-bit) and flow to a
little-endian float32 planar format (".flo2").

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

_FRAME_RE = re.compile(r"^frame_(\d{6})\.(ppm|flo2)$")


@dataclass
class FrameSequence:
    """A clip as one float32 array of shape (n, h, w, c), c in {2, 3},
    plus recording metadata."""

    data: np.ndarray
    fps: float = 15.0
    video_id: str = ""
    date_tag: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4 or self.data.shape[3] not in (2, 3):
            raise DataError(f"frame data must be (n, h, w, c) with 2|3 channels, "
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
    """8-bit binary PPM (P6) for an (h, w, 3) RGB image."""
    height, width, _ = image.shape
    q = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(q.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """An 8-bit binary PPM (P6) file as an (h, w, 3) float32 image in [0, 1]."""
    raw = artifacts.read(path)
    m = re.match(rb"^P6\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if m is None:
        raise DataError(f"{path}: not a binary PPM file")
    w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit images supported, maxval={maxval}")
    if len(raw) - m.end() < w * h * 3:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=m.end())
    return pixels.reshape(h, w, 3).astype(np.float32) / 255.0


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
    raw = artifacts.read(path)
    if raw[:4] != FLO2_MAGIC:
        raise DataError(f"{path}: bad magic, not a .flo2 file")
    w, h = struct.unpack("<II", raw[4:12])
    if len(raw) - 12 < 8 * w * h:
        raise DataError(f"{path}: truncated flow data")
    planes = np.frombuffer(raw, dtype="<f4", count=2 * w * h, offset=12)
    return np.stack(planes.reshape(2, h, w), axis=-1)


def save_frames(images: np.ndarray, directory: str, first: int = 0) -> None:
    """Write each image of an (n, h, w, c) stack into `directory`, made if
    missing, as frame files first, first + 1, ..., so that the workers of
    one directory may each write a range of it."""
    os.makedirs(directory, exist_ok=True)
    ext, write = ("flo2", write_flo2) if images.shape[3] == 2 else ("ppm", write_ppm)
    for i, image in enumerate(images, start=first):
        write(image, os.path.join(directory, f"frame_{i:06d}.{ext}"))


# The frame descriptor's keys, in the order meta.json lists them, and the
# JSON types each must have.
_DESCRIPTOR = {"width": int, "height": int, "fps": (int, float), "video_id": str,
               "date_tag": str, "channels": int}


def save_descriptor(meta: dict, directory: str) -> None:
    """Publish the descriptor keys of `meta` as the meta.json of the frame
    directory `directory`."""
    artifacts.write(os.path.join(directory, "meta.json"),
                    json.dumps({key: meta[key] for key in _DESCRIPTOR}, indent=1))


def save_sequence(seq: FrameSequence, directory: str) -> None:
    """Write meta.json plus contiguously numbered frame files, as one
    directory published whole (`artifacts.publish`)."""
    with artifacts.publish(directory) as tmp:
        save_frames(seq.data, tmp)
        save_descriptor({"width": seq.width, "height": seq.height, "fps": seq.fps,
                         "video_id": seq.video_id, "date_tag": seq.date_tag,
                         "channels": seq.channels}, tmp)


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
    if min(meta["width"], meta["height"]) < 1 or meta["channels"] not in (2, 3):
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
    if not names:
        raise DataError(f"{directory}: no frames in {frames}")
    read = read_flo2 if c == 2 else read_ppm
    for i, name in enumerate(names):
        image = read(os.path.join(directory, name))
        if image.shape != (h, w, c):
            ih, iw, ic = image.shape
            raise DataError(f"{name}: dimensions {iw}x{ih}x{ic} do not match descriptor {w}x{h}x{c}")
        if i == 0:  # sized only once a frame has matched the descriptor
            data = np.empty((len(names), h, w, c), dtype=np.float32)
        data[i] = image
    return FrameSequence(data, fps=float(meta["fps"]), video_id=meta["video_id"],
                         date_tag=meta["date_tag"])


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
    """Grayscale planes (..., h, w) of (..., h, w, 3) RGB images via Rec.601
    weights."""
    if images.shape[-1] != 3:
        raise DataError("luminance needs RGB images")
    r, g, b = images[..., 0], images[..., 1], images[..., 2]
    return 0.299 * r + 0.587 * g + 0.114 * b
