"""Frame storage and elementary image ops: exact formats, hand-checked examples."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhmon import frameio
from hhmon.errors import DataError
from hhmon.frameio import FrameSequence

from helpers import adjust_brightness, crop, hflip, make_rgb, resize_bilinear_oracle


def quantize8(data):
    return np.round(data * 255.0) / 255.0


def test_ppm_roundtrip_is_lossless_after_8bit_quantization(tmp_path, rng):
    f = make_rgb(17, 11, rng)
    path = str(tmp_path / "f.ppm")
    frameio.write_ppm(f, path)
    back = frameio.read_ppm(path)
    assert back.shape == (11, 17, 3) and back.dtype == np.float32
    np.testing.assert_array_equal(back, quantize8(f).astype(np.float32))


def test_ppm_header_is_binary_p6(tmp_path, rng):
    path = str(tmp_path / "f.ppm")
    frameio.write_ppm(make_rgb(4, 3, rng), path)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P6")


def test_grayscale_roundtrips_as_pgm(tmp_path, rng):
    f = rng.random((5, 7, 1)).astype(np.float32)
    path = str(tmp_path / "f.pgm")
    frameio.write_ppm(f, path)
    back = frameio.read_ppm(path)
    assert back.shape == (5, 7, 1)
    np.testing.assert_array_equal(back, quantize8(f).astype(np.float32))


def test_flo2_roundtrip_exact_float32(tmp_path, rng):
    flow = (rng.random((9, 13, 2)) * 40 - 20).astype(np.float32)
    path = str(tmp_path / "f.flo2")
    frameio.write_flo2(flow, path)
    back = frameio.read_flo2(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, flow)


def test_flo2_binary_layout(tmp_path):
    # magic, u32 w, u32 h, dx plane then dy plane as little-endian f32
    data = np.array([[[1.5, -2.5], [3.0, 4.0]]], dtype=np.float32)  # 1x2x2
    path = str(tmp_path / "f.flo2")
    frameio.write_flo2(data, path)
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


def test_truncated_files_are_data_errors(tmp_path, rng):
    for name, write, read in (("f.ppm", frameio.write_ppm, frameio.read_ppm),
                              ("f.flo2", frameio.write_flo2, frameio.read_flo2)):
        path = tmp_path / name
        write(rng.random((4, 5, 3 if name == "f.ppm" else 2)).astype(np.float32), str(path))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="truncated"):
            read(str(path))


def test_sequence_roundtrip_preserves_pixels_and_metadata(tmp_path, rng):
    frames = np.stack([make_rgb(12, 8, rng) for _ in range(3)])
    seq = FrameSequence(frames, fps=15.0, video_id="vid7", date_tag="d03")
    out = str(tmp_path / "seq")
    frameio.save_sequence(seq, out)
    back = frameio.load_sequence(out)
    assert len(back) == 3 and back.data.shape == (3, 8, 12, 3)
    assert (back.fps, back.video_id, back.date_tag) == (15.0, "vid7", "d03")
    np.testing.assert_array_equal(back.data, quantize8(frames).astype(np.float32))


def test_rewriting_a_shorter_sequence_leaves_no_stale_frames(tmp_path, rng):
    out = str(tmp_path / "seq")
    frameio.save_sequence(FrameSequence(np.stack([make_rgb(4, 4, rng) for _ in range(5)])), out)
    frameio.save_sequence(FrameSequence(np.stack([make_rgb(4, 4, rng) for _ in range(3)])), out)
    assert len(frameio.load_sequence(out)) == 3
    assert sorted(os.listdir(tmp_path)) == ["seq"]


def test_flow_sequence_roundtrip_exact(tmp_path, rng):
    frames = (rng.random((4, 6, 5, 2)) * 2 - 1).astype(np.float32)
    seq = FrameSequence(frames, fps=15.0, video_id="fl", date_tag="d00")
    out = str(tmp_path / "flow")
    frameio.save_sequence(seq, out)
    back = frameio.load_sequence(out)
    np.testing.assert_array_equal(back.data, frames)
    np.testing.assert_array_equal(frameio.load_sequence(out, slice(1, 3)).data, frames[1:3])


def test_load_sequence_empty_dir_errors(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "meta.json").write_text(
        '{"width": 4, "height": 4, "fps": 15, "video_id": "v", "date_tag": "d", "channels": 3}')
    with pytest.raises(DataError, match="no frames"):
        frameio.load_sequence(str(d))


@pytest.mark.parametrize("dims", ['"width": -4, "height": 4, "channels": 3',
                                  '"width": 4, "height": 4, "channels": 4'],
                         ids=["negative-width", "four-channels"])
def test_load_sequence_rejects_descriptor_dims_no_frame_has(tmp_path, rng, dims):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "meta.json").write_text(f'{{{dims}, "fps": 15, "video_id": "v", "date_tag": "d"}}')
    frameio.write_ppm(make_rgb(4, 4, rng), str(d / "frame_000000.ppm"))
    with pytest.raises(DataError, match="descriptor dimensions"):
        frameio.load_sequence(str(d))


def test_load_sequence_gap_names_first_missing_index(tmp_path, rng):
    seq = FrameSequence(np.stack([make_rgb(4, 4, rng) for _ in range(4)]), video_id="v",
                        date_tag="d")
    out = tmp_path / "seq"
    frameio.save_sequence(seq, str(out))
    (out / "frame_000002.ppm").unlink()
    with pytest.raises(DataError, match="missing frame 2"):
        frameio.load_sequence(str(out))


def test_load_sequence_dimension_mismatch_names_frame(tmp_path, rng):
    seq = FrameSequence(np.stack([make_rgb(4, 4, rng) for _ in range(2)]), video_id="v",
                        date_tag="d")
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
    out = crop(f, (0, 0, 640, 480))
    np.testing.assert_array_equal(out, f)


def test_crop_extent():
    f = np.zeros((480, 640, 3), dtype=np.float32)
    out = crop(f, (10, 20, 110, 220))
    assert out.shape == (200, 100, 3)


def test_crop_copies_pixels(rng):
    f = make_rgb(16, 16, rng)
    out = crop(f, (2, 3, 7, 9))
    np.testing.assert_array_equal(out, f[3:9, 2:7])
    out[0, 0, 0] = -1.0
    assert f[3, 2, 0] != -1.0


def test_crop_outside_frame_errors(rng):
    with pytest.raises(DataError):
        crop(make_rgb(8, 8, rng), (20, 20, 30, 30))


@given(x1=st.integers(-5, 20), y1=st.integers(-5, 20),
       dw=st.integers(1, 30), dh=st.integers(1, 30))
def test_crop_dims_equal_clipped_box(x1, y1, dw, dh):
    f = np.zeros((16, 24, 3), dtype=np.float32)
    box = (x1, y1, x1 + dw, y1 + dh)
    cx1, cy1 = max(x1, 0), max(y1, 0)
    cx2, cy2 = min(x1 + dw, 24), min(y1 + dh, 16)
    if cx2 <= cx1 or cy2 <= cy1:
        with pytest.raises(DataError):
            crop(f, box)
    else:
        out = crop(f, box)
        assert out.shape[:2] == (cy2 - cy1, cx2 - cx1)


def test_resize_2x1_to_3x1_corner_aligned():
    f = np.array([[[0.0, 1.0]]], dtype=np.float32)
    out = frameio.resize_bilinear(f, 3, 1)
    np.testing.assert_allclose(out[0, 0], [0.0, 0.5, 1.0], atol=1e-7)


@given(w=st.integers(1, 9), h=st.integers(1, 9))
def test_resize_constant_stays_constant(w, h):
    f = np.full((3, 5, 7), 0.5, dtype=np.float32)
    out = frameio.resize_bilinear(f, w, h)
    assert out.shape == (3, h, w)
    np.testing.assert_allclose(out, 0.5, atol=1e-6)


def test_resize_same_size_is_identity(rng):
    f = make_rgb(13, 9, rng).transpose(2, 0, 1)
    out = frameio.resize_bilinear(f, 13, 9)
    np.testing.assert_allclose(out, f, atol=1e-6)


@pytest.mark.parametrize("shape", [(9, 13), (3, 9, 13), (2, 4, 9, 13)],
                         ids=["one-plane", "n-planes", "c-by-n-planes"])
def test_resize_of_a_stack_equals_the_oracle_per_plane(rng, shape):
    planes = (rng.standard_normal(shape) * 4).astype(np.float32)
    for out_w, out_h in ((13, 9), (7, 5), (20, 11), (1, 1)):
        got = frameio.resize_bilinear(planes, out_w, out_h)
        assert got.shape == (*shape[:-2], out_h, out_w) and got.flags.c_contiguous
        for index in np.ndindex(*shape[:-2]):
            want = resize_bilinear_oracle(planes[index][:, :, None], out_w, out_h)[:, :, 0]
            assert got[index].tobytes() == want.tobytes()


def test_resize_rejects_zero_target(rng):
    with pytest.raises(DataError):
        frameio.resize_bilinear(make_rgb(4, 4, rng), 0, 4)


@pytest.mark.parametrize("channels", [1, 2, 3, 48])
@pytest.mark.parametrize("shape, target", [
    ((9, 13), (31, 23)), ((9, 13), (7, 5)), ((9, 13), (13, 9)), ((40, 13), (13, 5)),
    ((9, 13), (1, 1)), ((9, 13), (1, 6)), ((9, 13), (8, 1)), ((1, 1), (4, 3)),
], ids=["upscale", "downscale", "same-size", "eight-rows-to-one", "to-1x1", "to-1-wide",
        "to-1-high", "from-1x1"])
def test_resize_equals_the_oracle_bit_for_bit(rng, channels, shape, target):
    # signed values far from [0, 1], as flow planes are
    image = (rng.standard_normal((channels, *shape)) * 4).astype(np.float32)
    got = frameio.resize_bilinear(image, *target)
    want = np.ascontiguousarray(
        resize_bilinear_oracle(image.transpose(1, 2, 0), *target).transpose(2, 0, 1))
    assert got.shape == want.shape == (channels, target[1], target[0])
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@given(data=st.data(), in_h=st.integers(1, 12), in_w=st.integers(1, 12),
       out_w=st.integers(1, 30), out_h=st.integers(1, 30),
       channels=st.sampled_from([1, 2, 3, 48]), reverse=st.booleans())
def test_a_resize_window_equals_the_sliced_whole(data, in_h, in_w, out_w, out_h, channels,
                                                 reverse):
    image = np.random.default_rng(in_h * 13 + in_w).random((channels, in_h, in_w),
                                                           dtype=np.float32)
    top = data.draw(st.integers(0, out_h - 1))
    left = data.draw(st.integers(0, out_w - 1))
    right = data.draw(st.integers(left + 1, out_w))
    # a reversed column window reads [left, right) right to left: the mirror
    cols = slice(right - 1, left - 1 if left else None, -1) if reverse else slice(left, right)
    window = (slice(top, data.draw(st.integers(top + 1, out_h))), cols)
    got = frameio.resize_bilinear(image, out_w, out_h, window)
    want = np.ascontiguousarray(
        resize_bilinear_oracle(image.transpose(1, 2, 0), out_w, out_h)[window].transpose(2, 0, 1))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_hflip_involution_rgb(rng):
    f = make_rgb(10, 6, rng)
    np.testing.assert_array_equal(hflip(hflip(f)), f)


def test_hflip_2x1_swaps_columns():
    f = np.array([[[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]]], dtype=np.float32)
    out = hflip(f)
    np.testing.assert_array_equal(out[0, 0], f[0, 1])
    np.testing.assert_array_equal(out[0, 1], f[0, 0])


def test_hflip_flow_negates_horizontal_component():
    flow = np.stack([np.ones((4, 5)), np.zeros((4, 5))], axis=-1).astype(np.float32)
    out = hflip(flow)
    np.testing.assert_array_equal(out[:, :, 0], -1.0)
    np.testing.assert_array_equal(out[:, :, 1], 0.0)


def test_hflip_flow_involution(rng):
    flow = (rng.random((6, 7, 2)) * 4 - 2).astype(np.float32)
    np.testing.assert_array_equal(hflip(hflip(flow)), flow)


def test_brightness_zero_delta_identity(rng):
    f = make_rgb(5, 5, rng)
    np.testing.assert_array_equal(adjust_brightness(f, 0.0), f)


def test_brightness_clamps_at_one():
    f = np.full((2, 2, 3), 0.95, dtype=np.float32)
    np.testing.assert_allclose(adjust_brightness(f, 0.1), 1.0)


def test_brightness_plain_shift():
    f = np.full((2, 2, 3), 0.5, dtype=np.float32)
    np.testing.assert_allclose(adjust_brightness(f, -0.1), 0.4, atol=1e-7)


def test_luminance_coefficients():
    px = np.zeros((1, 3, 3), dtype=np.float32)
    px[0, 0] = [1, 0, 0]
    px[0, 1] = [0, 1, 0]
    px[0, 2] = [0, 0, 1]
    lum = frameio.luminance(px)
    np.testing.assert_allclose(lum[0], [0.299, 0.587, 0.114], atol=1e-6)
    # a stack of images gives the stack of their planes, bit for bit
    stack = np.stack([px, px[:, ::-1]])
    assert np.array_equal(frameio.luminance(stack),
                          np.stack([frameio.luminance(p) for p in stack]))


def test_frame_rejects_bad_channel_count():
    with pytest.raises(DataError, match=r"1\|2\|3 channels"):
        FrameSequence(np.zeros((2, 4, 4, 5), dtype=np.float32))


def test_sequence_holds_one_float32_array_of_four_axes():
    seq = FrameSequence(np.zeros((3, 4, 5, 2), dtype=np.float64))
    assert seq.data.dtype == np.float32
    assert (len(seq), seq.height, seq.width, seq.channels) == (3, 4, 5, 2)
    for shape in ((4, 5, 3), (1, 3, 4, 5, 3)):
        with pytest.raises(DataError, match="must be \\(n, h, w, c\\)"):
            FrameSequence(np.zeros(shape, dtype=np.float32))
    with pytest.raises(DataError, match="fps"):
        FrameSequence(np.zeros((1, 4, 4, 3)), fps=0.0)
