"""Frame storage and elementary image ops: exact formats, hand-checked examples."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhmon import frameio
from hhmon.errors import DataError
from hhmon.frameio import Frame, FrameSequence

from helpers import make_rgb


def quantize8(data):
    return np.round(data * 255.0) / 255.0


def test_ppm_roundtrip_is_lossless_after_8bit_quantization(tmp_path, rng):
    f = make_rgb(17, 11, rng)
    path = str(tmp_path / "f.ppm")
    frameio.write_ppm(f, path)
    back = frameio.read_ppm(path)
    assert back.data.shape == (11, 17, 3)
    np.testing.assert_array_equal(back.data, quantize8(f.data).astype(np.float32))


def test_ppm_header_is_binary_p6(tmp_path, rng):
    path = str(tmp_path / "f.ppm")
    frameio.write_ppm(make_rgb(4, 3, rng), path)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P6")


def test_grayscale_roundtrips_as_pgm(tmp_path, rng):
    f = Frame(rng.random((5, 7, 1)).astype(np.float32))
    path = str(tmp_path / "f.pgm")
    frameio.write_ppm(f, path)
    back = frameio.read_ppm(path)
    assert back.channels == 1
    np.testing.assert_array_equal(back.data, quantize8(f.data).astype(np.float32))


def test_flo2_roundtrip_exact_float32(tmp_path, rng):
    flow = Frame((rng.random((9, 13, 2)) * 40 - 20).astype(np.float32))
    path = str(tmp_path / "f.flo2")
    frameio.write_flo2(flow, path)
    back = frameio.read_flo2(path)
    np.testing.assert_array_equal(back.data, flow.data)


def test_flo2_binary_layout(tmp_path):
    # magic, u32 w, u32 h, dx plane then dy plane as little-endian f32
    data = np.array([[[1.5, -2.5], [3.0, 4.0]]], dtype=np.float32)  # 1x2x2
    path = str(tmp_path / "f.flo2")
    frameio.write_flo2(Frame(data), path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"FLO2"
    w, h = struct.unpack("<II", raw[4:12])
    assert (w, h) == (2, 1)
    vals = struct.unpack("<4f", raw[12:])
    assert vals == (1.5, 3.0, -2.5, 4.0)


def test_flo2_rejects_rgb(tmp_path, rng):
    with pytest.raises(DataError):
        frameio.write_flo2(make_rgb(4, 4, rng), str(tmp_path / "x.flo2"))


def test_flo2_bad_magic(tmp_path):
    path = tmp_path / "x.flo2"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxx")
    with pytest.raises(DataError, match="magic"):
        frameio.read_flo2(str(path))


def test_sequence_roundtrip_preserves_pixels_and_metadata(tmp_path, rng):
    frames = [make_rgb(12, 8, rng) for _ in range(3)]
    seq = FrameSequence(frames, fps=15.0, video_id="vid7", date_tag="d03")
    out = str(tmp_path / "seq")
    frameio.save_sequence(seq, out)
    back = frameio.load_sequence(out)
    assert len(back) == 3
    assert (back.fps, back.video_id, back.date_tag) == (15.0, "vid7", "d03")
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a.data, quantize8(b.data).astype(np.float32))


def test_flow_sequence_roundtrip_exact(tmp_path, rng):
    frames = [Frame((rng.random((6, 5, 2)) * 2 - 1).astype(np.float32)) for _ in range(4)]
    seq = FrameSequence(frames, fps=15.0, video_id="fl", date_tag="d00")
    out = str(tmp_path / "flow")
    frameio.save_sequence(seq, out)
    back = frameio.load_sequence(out)
    for a, b in zip(back.frames, frames):
        np.testing.assert_array_equal(a.data, b.data)


def test_load_sequence_empty_dir_errors(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "meta.json").write_text(
        '{"width": 4, "height": 4, "fps": 15, "video_id": "v", "date_tag": "d", "channels": 3}')
    with pytest.raises(DataError, match="no frames"):
        frameio.load_sequence(str(d))


def test_load_sequence_gap_names_first_missing_index(tmp_path, rng):
    seq = FrameSequence([make_rgb(4, 4, rng) for _ in range(4)], video_id="v", date_tag="d")
    out = tmp_path / "seq"
    frameio.save_sequence(seq, str(out))
    (out / "frame_000002.ppm").unlink()
    with pytest.raises(DataError, match="missing frame 2"):
        frameio.load_sequence(str(out))


def test_load_sequence_dimension_mismatch_names_frame(tmp_path, rng):
    seq = FrameSequence([make_rgb(4, 4, rng) for _ in range(2)], video_id="v", date_tag="d")
    out = tmp_path / "seq"
    frameio.save_sequence(seq, str(out))
    frameio.write_ppm(make_rgb(5, 4, rng), str(out / "frame_000001.ppm"))
    with pytest.raises(DataError, match="frame_000001"):
        frameio.load_sequence(str(out))


def test_load_sequence_missing_meta(tmp_path, rng):
    d = tmp_path / "seq"
    d.mkdir()
    frameio.write_ppm(make_rgb(4, 4, rng), str(d / "frame_000000.ppm"))
    with pytest.raises(DataError, match="meta.json"):
        frameio.load_sequence(str(d))


def test_crop_identity(rng):
    f = make_rgb(640, 480, rng)
    out = frameio.crop(f, (0, 0, 640, 480))
    np.testing.assert_array_equal(out.data, f.data)


def test_crop_extent():
    f = Frame(np.zeros((480, 640, 3), dtype=np.float32))
    out = frameio.crop(f, (10, 20, 110, 220))
    assert (out.width, out.height) == (100, 200)


def test_crop_copies_pixels(rng):
    f = make_rgb(16, 16, rng)
    out = frameio.crop(f, (2, 3, 7, 9))
    np.testing.assert_array_equal(out.data, f.data[3:9, 2:7])
    out.data[0, 0, 0] = -1.0
    assert f.data[3, 2, 0] != -1.0


def test_crop_outside_frame_errors(rng):
    with pytest.raises(DataError):
        frameio.crop(make_rgb(8, 8, rng), (20, 20, 30, 30))


@given(x1=st.integers(-5, 20), y1=st.integers(-5, 20),
       dw=st.integers(1, 30), dh=st.integers(1, 30))
def test_crop_dims_equal_clipped_box(x1, y1, dw, dh):
    f = Frame(np.zeros((16, 24, 3), dtype=np.float32))
    box = (x1, y1, x1 + dw, y1 + dh)
    cx1, cy1 = max(x1, 0), max(y1, 0)
    cx2, cy2 = min(x1 + dw, 24), min(y1 + dh, 16)
    if cx2 <= cx1 or cy2 <= cy1:
        with pytest.raises(DataError):
            frameio.crop(f, box)
    else:
        out = frameio.crop(f, box)
        assert (out.width, out.height) == (cx2 - cx1, cy2 - cy1)


def test_resize_2x1_to_3x1_corner_aligned():
    f = Frame(np.array([[[0.0], [1.0]]], dtype=np.float32))
    out = frameio.resize_bilinear(f, 3, 1)
    np.testing.assert_allclose(out.data[0, :, 0], [0.0, 0.5, 1.0], atol=1e-7)


@given(w=st.integers(1, 9), h=st.integers(1, 9))
def test_resize_constant_stays_constant(w, h):
    f = Frame(np.full((5, 7, 3), 0.5, dtype=np.float32))
    out = frameio.resize_bilinear(f, w, h)
    np.testing.assert_allclose(out.data, 0.5, atol=1e-6)


def test_resize_same_size_is_identity(rng):
    f = make_rgb(13, 9, rng)
    out = frameio.resize_bilinear(f, 13, 9)
    np.testing.assert_allclose(out.data, f.data, atol=1e-6)


def test_resize_rejects_zero_target(rng):
    with pytest.raises(DataError):
        frameio.resize_bilinear(make_rgb(4, 4, rng), 0, 4)


def test_hflip_involution_rgb(rng):
    f = make_rgb(10, 6, rng)
    np.testing.assert_array_equal(frameio.hflip(frameio.hflip(f)).data, f.data)


def test_hflip_2x1_swaps_columns():
    f = Frame(np.array([[[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]]], dtype=np.float32))
    out = frameio.hflip(f)
    np.testing.assert_array_equal(out.data[0, 0], f.data[0, 1])
    np.testing.assert_array_equal(out.data[0, 1], f.data[0, 0])


def test_hflip_flow_negates_horizontal_component():
    flow = Frame(np.stack([np.ones((4, 5)), np.zeros((4, 5))], axis=-1).astype(np.float32))
    out = frameio.hflip(flow)
    np.testing.assert_array_equal(out.data[:, :, 0], -1.0)
    np.testing.assert_array_equal(out.data[:, :, 1], 0.0)


def test_hflip_flow_involution(rng):
    flow = Frame((rng.random((6, 7, 2)) * 4 - 2).astype(np.float32))
    np.testing.assert_array_equal(frameio.hflip(frameio.hflip(flow)).data, flow.data)


def test_brightness_zero_delta_identity(rng):
    f = make_rgb(5, 5, rng)
    np.testing.assert_array_equal(frameio.adjust_brightness(f, 0.0).data, f.data)


def test_brightness_clamps_at_one():
    f = Frame(np.full((2, 2, 3), 0.95, dtype=np.float32))
    np.testing.assert_allclose(frameio.adjust_brightness(f, 0.1).data, 1.0)


def test_brightness_plain_shift():
    f = Frame(np.full((2, 2, 3), 0.5, dtype=np.float32))
    np.testing.assert_allclose(frameio.adjust_brightness(f, -0.1).data, 0.4, atol=1e-7)


def test_luminance_coefficients():
    px = np.zeros((1, 3, 3), dtype=np.float32)
    px[0, 0] = [1, 0, 0]
    px[0, 1] = [0, 1, 0]
    px[0, 2] = [0, 0, 1]
    lum = frameio.luminance(Frame(px))
    np.testing.assert_allclose(lum[0], [0.299, 0.587, 0.114], atol=1e-6)


def test_frame_rejects_bad_channel_count():
    with pytest.raises(DataError):
        Frame(np.zeros((4, 4, 5), dtype=np.float32))


def test_sequence_rejects_mixed_dimensions(rng):
    with pytest.raises(DataError):
        FrameSequence([make_rgb(4, 4, rng), make_rgb(5, 4, rng)])
