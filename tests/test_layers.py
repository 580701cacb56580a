"""Layer primitives against naive oracles and central finite differences.

The conv oracle below is written for clarity, not speed: explicit padding,
explicit window loops, elementwise multiply-sum.  Everything runs in float64
so discretization error is the only error.
"""

import numpy as np
import pytest

from hhmon import layers
from hhmon.errors import ModelError
from hhmon.layers import (
    bce_with_logits,
    conv3d_backward,
    conv3d_forward,
    maxpool3d_backward,
    maxpool3d_forward,
    sigmoid,
)

from helpers import (conv3d_backward_oracle, conv3d_im2col_oracle, maxpool3d_argmax_oracle,
                     maxpool3d_backward_oracle, pad5_oracle)


def same_pad_oracle(n, k, s):
    out = (n + s - 1) // s
    total = max((out - 1) * s + k - n, 0)
    return total // 2, total - total // 2


def conv3d_oracle(x, kernel, bias, stride=(1, 1, 1), padding="same", temporal_pad="zero"):
    N, c_in, T, H, W = x.shape
    c_out, _, kt, kh, kw = kernel.shape
    if padding == "same":
        pads = [same_pad_oracle(n, k, s)
                for n, k, s in zip((T, H, W), (kt, kh, kw), stride)]
    else:
        pads = [(0, 0)] * 3
    (pt0, pt1), (ph0, ph1), (pw0, pw1) = pads
    if temporal_pad == "circular" and (pt0 or pt1):
        xp = np.pad(x, ((0, 0), (0, 0), (pt0, pt1), (0, 0), (0, 0)), mode="wrap")
        xp = np.pad(xp, ((0, 0), (0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
    else:
        xp = np.pad(x, ((0, 0), (0, 0), (pt0, pt1), (ph0, ph1), (pw0, pw1)))
    st, sh, sw = stride
    To = (xp.shape[2] - kt) // st + 1
    Ho = (xp.shape[3] - kh) // sh + 1
    Wo = (xp.shape[4] - kw) // sw + 1
    y = np.zeros((N, c_out, To, Ho, Wo), dtype=np.float64)
    for n in range(N):
        for co in range(c_out):
            for t in range(To):
                for i in range(Ho):
                    for j in range(Wo):
                        win = xp[n, :, t * st : t * st + kt,
                                 i * sh : i * sh + kh, j * sw : j * sw + kw]
                        y[n, co, t, i, j] = np.sum(win * kernel[co]) + bias[co]
    return y


def numeric_grad(loss_fn, x, h=1e-6):
    """Central differences of a scalar function, perturbing x in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        keep = x[i]
        x[i] = keep + h
        fp = loss_fn()
        x[i] = keep - h
        fm = loss_fn()
        x[i] = keep
        g[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(got, want):
    scale = max(np.abs(want).max(), 1e-8)
    return np.abs(got - want).max() / scale


def test_conv_identity_with_delta_kernel(rng):
    x = rng.normal(size=(1, 1, 3, 5, 5))
    kernel = np.zeros((1, 1, 3, 3, 3))
    kernel[0, 0, 1, 1, 1] = 1.0
    y, _ = conv3d_forward(x, kernel, np.zeros(1))
    assert np.allclose(y, x, atol=1e-14)


def test_conv_pointwise_kernel_scales(rng):
    x = rng.normal(size=(2, 1, 2, 3, 3))
    kernel = np.full((1, 1, 1, 1, 1), 2.0)
    y, _ = conv3d_forward(x, kernel, np.array([0.5]))
    assert np.allclose(y[:, 0], 2.0 * x[:, 0] + 0.5, atol=1e-14)


def test_conv_hand_summed_window():
    x = np.arange(2 * 4 * 4, dtype=np.float64).reshape(1, 1, 2, 4, 4)
    kernel = np.ones((1, 1, 2, 2, 2))
    y, _ = conv3d_forward(x, kernel, np.zeros(1), padding="valid")
    assert y.shape == (1, 1, 1, 3, 3)
    window = x[0, 0, 0:2, 0:2, 0:2].sum()
    assert y[0, 0, 0, 0, 0] == window
    assert y[0, 0, 0, 2, 2] == x[0, 0, 0:2, 2:4, 2:4].sum()


def test_conv_two_frame_kernel_matches_oracle(rng):
    x = rng.normal(size=(1, 1, 2, 4, 4))
    kernel = rng.normal(size=(1, 1, 2, 3, 3))
    bias = rng.normal(size=1)
    y, _ = conv3d_forward(x, kernel, bias)
    assert np.abs(y - conv3d_oracle(x, kernel, bias)).max() < 1e-12


def random_conv_case(rng):
    while True:
        N = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 3))
        T, H, W = (int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        stride = tuple(rng.choice([1, 1, 2], size=3).tolist())
        padding = str(rng.choice(["same", "valid"]))
        temporal_pad = str(rng.choice(["zero", "circular"]))
        if padding == "valid" and (kt > T or kh > H or kw > W):
            continue
        if padding == "same" and temporal_pad == "circular":
            pt0, pt1 = same_pad_oracle(T, kt, stride[0])
            if max(pt0, pt1) > T:
                continue
        x = rng.normal(size=(N, c_in, T, H, W))
        kernel = rng.normal(size=(c_out, c_in, kt, kh, kw))
        bias = rng.normal(size=c_out)
        return x, kernel, bias, stride, padding, temporal_pad


def test_conv_matches_oracle_on_random_shapes(rng):
    for trial in range(30):
        x, kernel, bias, stride, padding, temporal_pad = random_conv_case(rng)
        y, _ = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad)
        want = conv3d_oracle(x, kernel, bias, stride, padding, temporal_pad)
        assert y.shape == want.shape, f"trial {trial}"
        assert np.abs(y - want).max() < 1e-10, f"trial {trial}"


def test_conv_strided_output_shape(rng):
    x = rng.normal(size=(1, 3, 16, 56, 56))
    kernel = rng.normal(size=(8, 3, 3, 5, 5))
    y, _ = conv3d_forward(x, kernel, np.zeros(8), stride=(1, 2, 2))
    assert y.shape == (1, 8, 16, 28, 28)


def test_conv_circular_pad_keeps_time_constant_input_constant(rng):
    frame = rng.normal(size=(1, 2, 1, 5, 5))
    x = np.repeat(frame, 4, axis=2)
    kernel = rng.normal(size=(3, 2, 3, 3, 3))
    y, _ = conv3d_forward(x, kernel, np.zeros(3), temporal_pad="circular")
    for t in range(1, 4):
        assert np.allclose(y[:, :, t], y[:, :, 0], atol=1e-12)
    # zero temporal padding breaks that symmetry at the clip ends
    yz, _ = conv3d_forward(x, kernel, np.zeros(3), temporal_pad="zero")
    assert not np.allclose(yz[:, :, 0], yz[:, :, 1], atol=1e-6)


def test_conv_validation_errors(rng):
    x = rng.normal(size=(1, 2, 3, 4, 4))
    with pytest.raises(ModelError, match="channel mismatch"):
        conv3d_forward(x, rng.normal(size=(1, 3, 1, 1, 1)), np.zeros(1))
    with pytest.raises(ModelError, match="bias"):
        conv3d_forward(x, rng.normal(size=(2, 2, 1, 1, 1)), np.zeros(3))
    with pytest.raises(ModelError, match="padding"):
        conv3d_forward(x, rng.normal(size=(1, 2, 1, 1, 1)), np.zeros(1), padding="full")
    with pytest.raises(ModelError, match="5d"):
        conv3d_forward(x[0], rng.normal(size=(1, 2, 1, 1, 1)), np.zeros(1))
    with pytest.raises(ModelError, match="exceeds"):
        conv3d_forward(x, rng.normal(size=(1, 2, 4, 1, 1)), np.zeros(1), padding="valid")
    with pytest.raises(ModelError, match="circular"):
        conv3d_forward(x, rng.normal(size=(1, 2, 9, 1, 1)), np.zeros(1),
                       padding="same", temporal_pad="circular")


def test_conv_gradients_match_finite_differences(rng):
    x = rng.normal(size=(2, 2, 3, 4, 4))
    kernel = rng.normal(size=(2, 2, 2, 3, 3))
    bias = rng.normal(size=2)
    probe = rng.normal(size=conv3d_forward(x, kernel, bias, (1, 2, 2))[0].shape)

    def loss():
        y, _ = conv3d_forward(x, kernel, bias, (1, 2, 2))
        return float(np.sum(y * probe))

    y, cache = conv3d_forward(x, kernel, bias, (1, 2, 2))
    dx, dk, db = conv3d_backward(probe, cache)
    assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
    assert rel_err(dk, numeric_grad(loss, kernel)) < 1e-6
    assert rel_err(db, numeric_grad(loss, bias)) < 1e-6


def test_conv_circular_gradient_matches_finite_differences(rng):
    x = rng.normal(size=(1, 1, 4, 3, 3))
    kernel = rng.normal(size=(1, 1, 3, 3, 3))
    bias = rng.normal(size=1)
    probe = rng.normal(size=(1, 1, 4, 3, 3))

    def loss():
        y, _ = conv3d_forward(x, kernel, bias, temporal_pad="circular")
        return float(np.sum(y * probe))

    _, cache = conv3d_forward(x, kernel, bias, temporal_pad="circular")
    dx, dk, db = conv3d_backward(probe, cache)
    assert rel_err(dx, numeric_grad(loss, x)) < 1e-6
    assert rel_err(dk, numeric_grad(loss, kernel)) < 1e-6


# (kernel shape, stride): conv1 of the default topology, a mixed block's
# pointwise and kt x 3 x 3 convs, a strided pointwise conv (whose columns
# are a copy, not a view) and a stride on every axis
ROUTE_CONVS = [((8, 3, 3, 5, 5), (1, 2, 2)), ((6, 4, 1, 1, 1), (1, 1, 1)),
               ((5, 4, 3, 3, 3), (1, 1, 1)), ((5, 4, 1, 1, 1), (1, 2, 2)),
               ((5, 4, 2, 3, 3), (2, 2, 2))]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("shape,stride", ROUTE_CONVS)
def test_conv_matches_the_position_major_im2col_route(rng, shape, stride, padding,
                                                      temporal_pad, dtype):
    x = rng.uniform(-1, 1, size=(3, shape[1], 6, 11, 10)).astype(dtype)
    kernel = rng.normal(size=shape).astype(dtype)
    bias = rng.normal(size=shape[0]).astype(dtype)
    tol = 1e-12 if dtype == np.float64 else 1e-6
    want, oracle_cache = conv3d_im2col_oracle(x, kernel, bias, stride, padding, temporal_pad)
    got, cache = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad)
    no_cache, _ = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad,
                                 want_cache=False)
    for y in (got, no_cache):
        assert y.shape == want.shape and y.dtype == want.dtype
        assert rel_err(y, want) <= tol
    dy = rng.normal(size=want.shape).astype(dtype)
    for g, w in zip(conv3d_backward(dy, cache), conv3d_backward_oracle(dy, oracle_cache)):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert rel_err(g, w) <= tol


def test_pointwise_conv_columns_are_a_view_of_the_input(rng):
    x = rng.normal(size=(2, 4, 3, 5, 5))
    _, cache = conv3d_forward(x, rng.normal(size=(3, 4, 1, 1, 1)), np.zeros(3))
    assert np.shares_memory(cache[0], x)
    _, cache = conv3d_forward(x, rng.normal(size=(3, 4, 1, 1, 1)), np.zeros(3),
                              stride=(1, 2, 2))
    assert not np.shares_memory(cache[0], x)


# ((pt0, pt1), (ph0, ph1), (pw0, pw1)) on a 5-frame clip: none, symmetric,
# one-sided, and temporal pads as wide as the clip
PADS = [((0, 0), (0, 0), (0, 0)), ((1, 1), (2, 2), (1, 1)), ((2, 0), (0, 1), (1, 0)),
        ((0, 3), (1, 0), (0, 2)), ((5, 5), (1, 1), (0, 0)), ((5, 0), (0, 0), (2, 1))]


@pytest.mark.parametrize("fill", [0.0, -np.inf])
@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
@pytest.mark.parametrize("pads", PADS)
def test_pad_equals_np_pad_bit_for_bit(rng, pads, temporal_pad, fill):
    cells = np.array([-1.5, -0.0, 0.0, 2.0, np.nan], dtype=np.float32)
    x = rng.choice(cells, size=(2, 3, 5, 4, 6))
    got = layers._pad5(x, pads, temporal_pad, fill)
    want = pad5_oracle(x, pads, temporal_pad, fill)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    if pads == PADS[0]:
        assert got is x


def test_maxpool_forward_picks_window_maxima():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 1, 4, 4)
    y, _ = maxpool3d_forward(x, (1, 2, 2))
    assert np.array_equal(y[0, 0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradient_matches_finite_differences(rng):
    # distinct values keep argmax stable under the probe step
    x = rng.permutation(np.arange(2 * 2 * 4 * 4 * 4, dtype=np.float64)).reshape(2, 2, 4, 4, 4)
    probe = rng.normal(size=(2, 2, 2, 2, 2))

    def loss():
        y, _ = maxpool3d_forward(x, (2, 2, 2))
        return float(np.sum(y * probe))

    _, cache = maxpool3d_forward(x, (2, 2, 2))
    dx = maxpool3d_backward(probe, cache)
    assert rel_err(dx, numeric_grad(loss, x, h=1e-3)) < 1e-6


def test_maxpool_tie_routes_gradient_to_first_cell():
    x = np.ones((1, 1, 1, 2, 2))
    y, cache = maxpool3d_forward(x, (1, 2, 2))
    assert y[0, 0, 0, 0, 0] == 1.0
    dx = maxpool3d_backward(np.full((1, 1, 1, 1, 1), 5.0), cache)
    assert dx[0, 0, 0, 0, 0] == 5.0
    assert dx.sum() == 5.0


def test_maxpool_same_padding_never_selects_fill(rng):
    x = -np.abs(rng.normal(size=(1, 1, 3, 5, 5))) - 1.0  # all entries below the fill
    y, _ = maxpool3d_forward(x, (3, 3, 3), stride=(1, 1, 1), padding="same")
    assert np.all(np.isfinite(y))
    assert y.shape == x.shape


POOLS = [((1, 2, 2), None, "valid"), ((2, 2, 2), None, "valid"), ((3, 3, 3), (1, 1, 1), "same"),
         ((3, 3, 3), (2, 3, 1), "same"), ((2, 3, 2), (1, 2, 3), "valid")]


def assert_pool_matches_the_argmax_oracle(rng, x, kernel, stride, padding, temporal_pad="zero"):
    """Forward with and without a cache and backward, bit for bit against the
    argmax / np.add.at oracle, under a standard-normal gradient."""
    want, oracle_cache = maxpool3d_argmax_oracle(x, kernel, stride, padding, temporal_pad)
    y, cache = maxpool3d_forward(x, kernel, stride, padding, temporal_pad)
    fast, none = maxpool3d_forward(x, kernel, stride, padding, temporal_pad, want_cache=False)
    assert none is None
    bits = f"u{x.itemsize}"
    for got in (y, fast):
        assert got.shape == want.shape
        assert np.array_equal(got.view(bits), want.view(bits))
    dy = rng.standard_normal(want.shape).astype(x.dtype)
    dx = maxpool3d_backward(dy, cache)
    dx_want = maxpool3d_backward_oracle(dy, oracle_cache)
    assert dx.shape == x.shape
    assert np.array_equal(dx.view(bits), dx_want.view(bits))


@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
@pytest.mark.parametrize("kernel,stride,padding", POOLS)
def test_maxpool_equals_the_argmax_route_bit_for_bit_on_ties_and_nan(rng, kernel, stride,
                                                                      padding, temporal_pad):
    # relu turns negatives into -0.0, which ties with 0.0 but differs in its
    # bits.  With negatives beside the zeros the tied cells of a window form
    # no box, so only the first-in-(t, h, w)-order rule settles which zero wins
    cells = np.array([-1.0, -0.0, 0.0, 2.0], dtype=np.float32)
    x = rng.choice(cells, p=[0.4, 0.28, 0.28, 0.04], size=(2, 3, 7, 9, 11))
    x[0, 1, 2, 3, 4] = np.nan
    x[1, 0, 5, 0, 0] = np.nan
    assert np.isnan(maxpool3d_forward(x, kernel, stride, padding, temporal_pad)[0]).any()
    assert_pool_matches_the_argmax_oracle(rng, x, kernel, stride, padding, temporal_pad)


# the 2D twin's pool1, mixed1 pool, pool2 and mixed2 pool on a batch of 8
# 56-pixel stills, as pretrain_twin runs them
TWIN_POOLS = [((8, 8, 1, 28, 28), (1, 2, 2), None, "valid"),
              ((8, 8, 1, 14, 14), (1, 3, 3), (1, 1, 1), "same"),
              ((8, 24, 1, 14, 14), (1, 2, 2), None, "valid"),
              ((8, 24, 1, 7, 7), (1, 3, 3), (1, 1, 1), "same")]


@pytest.mark.parametrize("shape,kernel,stride,padding", TWIN_POOLS)
def test_maxpool_equals_the_argmax_route_bit_for_bit_on_the_twin_pools(rng, shape, kernel,
                                                                        stride, padding):
    a = rng.standard_normal(shape).astype(np.float32)
    assert_pool_matches_the_argmax_oracle(rng, a * (a > 0), kernel, stride, padding)


def test_maxpool_backward_adds_overlapping_windows_in_output_order(rng):
    # a cell of a 3x3x3 stride-1 pool takes up to 27 gradients, whose float32
    # sum depends on their order: adding the taps in ascending order changes
    # thousands of cells here
    x = rng.standard_normal((8, 8, 4, 14, 14)).astype(np.float32)
    assert_pool_matches_the_argmax_oracle(rng, x, (3, 3, 3), (1, 1, 1), "same")


def inflated_kernel(rng, shape):
    c_out, c_in, kt, kh, kw = shape
    k2d = rng.normal(size=(c_out, c_in, kh, kw)).astype(np.float32)
    return np.repeat(k2d[:, :, None] / np.float32(kt), kt, axis=2)


@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
def test_inflated_conv_without_cache_matches_the_general_route(rng, stride, padding,
                                                               temporal_pad):
    x = rng.uniform(-1, 1, size=(3, 3, 8, 11, 10)).astype(np.float32)
    kernel = inflated_kernel(rng, (5, 3, 3, 5, 5))
    bias = rng.normal(size=5).astype(np.float32)
    want, _ = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad)
    got, cache = conv3d_forward(x, kernel, bias, stride, padding, temporal_pad,
                                want_cache=False)
    assert cache is None
    assert got.shape == want.shape and got.dtype == want.dtype
    assert rel_err(got, want) < 1e-6


def test_inflated_route_needs_equal_time_slices_and_no_cache(rng, monkeypatch):
    from hhmon import layers

    taken = []
    real = layers._inflated_conv
    monkeypatch.setattr(layers, "_inflated_conv",
                        lambda *args: taken.append(1) or real(*args))
    x = rng.uniform(-1, 1, size=(2, 2, 6, 7, 7)).astype(np.float32)
    kernel = inflated_kernel(rng, (3, 2, 3, 3, 3))
    bias = np.zeros(3, dtype=np.float32)
    conv3d_forward(x, kernel, bias, want_cache=False)
    assert len(taken) == 1  # the whole batch fits one slab
    # a cache is requested: the general route, whose columns backward needs
    _, cache = conv3d_forward(x, kernel, bias)
    assert len(taken) == 1 and cache is not None
    # one time slice differs in one weight: the general route, which gives
    # the same bits without a cache as with one
    kernel[1, 0, 2, 1, 1] += np.float32(0.25)
    got, _ = conv3d_forward(x, kernel, bias, want_cache=False)
    want, _ = conv3d_forward(x, kernel, bias)
    assert len(taken) == 1
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


# conv1's 3x5x5 at (1, 2, 2), a mixed block's 3x3x3 and a 2x3x3 at stride 2
# on every axis
SLAB_CONVS = [((8, 3, 3, 5, 5), (1, 2, 2)), ((8, 4, 3, 3, 3), (1, 1, 1)),
              ((8, 4, 2, 3, 3), (2, 2, 2))]


def slabbed_and_whole(rng, monkeypatch, x, shape, stride, temporal_pad, inflated, frames):
    """The no-cache conv with a budget of `frames` output frames per slab,
    and the same route as one call on the whole padded input."""
    kernel = (inflated_kernel(rng, shape) if inflated
              else rng.normal(size=shape).astype(np.float32))
    bias = rng.normal(size=shape[0]).astype(np.float32)
    pads = layers._pad_amounts(x.shape[2:], shape[2:], stride, "same")
    xp = layers._pad5(x, pads, temporal_pad, 0.0)
    route = layers._inflated_conv if inflated else layers._conv_valid
    whole = route(xp, kernel, bias, stride)[0]
    to, ho, wo = layers._out_shape(xp.shape[2:], shape[2:], stride)
    assert to % frames  # the frames do not divide into slabs evenly
    taps = kernel[0, :, :1].size if inflated else kernel[0].size
    monkeypatch.setattr(layers, "COLUMN_BYTES", frames * len(x) * taps * ho * wo * 4)
    got, _ = conv3d_forward(x, kernel, bias, stride, "same", temporal_pad, want_cache=False)
    return got.reshape(whole.shape), whole


@pytest.mark.parametrize("frames", [2, 3])
@pytest.mark.parametrize("inflated", [False, True])
@pytest.mark.parametrize("temporal_pad", ["zero", "circular"])
@pytest.mark.parametrize("shape,stride", SLAB_CONVS)
def test_slabbed_conv_equals_one_call_on_the_whole_clip(rng, monkeypatch, shape, stride,
                                                        temporal_pad, inflated, frames):
    # a clip of the default 56x56 input: every slab's product is large
    # enough for the BLAS to round each column as in the whole call
    x = rng.uniform(-1, 1, size=(1, shape[1], 13, 56, 56)).astype(np.float32)
    got, whole = slabbed_and_whole(rng, monkeypatch, x, shape, stride, temporal_pad,
                                   inflated, frames)
    assert np.array_equal(got.view(np.uint32), whole.view(np.uint32))


@pytest.mark.parametrize("shape,stride", SLAB_CONVS)
def test_slabs_of_a_small_product_agree_to_rounding(rng, monkeypatch, shape, stride):
    # OpenBLAS rounds the last few columns of a small product (below about
    # a million multiply-adds) by the product's width, so the slabs of a
    # 9x10 clip may differ from the whole call in the last bit
    x = rng.uniform(-1, 1, size=(2, shape[1], 13, 9, 10)).astype(np.float32)
    got, whole = slabbed_and_whole(rng, monkeypatch, x, shape, stride, "zero", False, 2)
    assert rel_err(got, whole) < 1e-6


def test_default_budget_slabs_a_scratch_conv1_clip_bit_for_bit(rng):
    # one 3x16x56x56 clip through the default topology's conv1: 10.8 MiB of
    # columns, more than the default budget
    x = rng.uniform(-1, 1, size=(1, 3, 16, 56, 56)).astype(np.float32)
    kernel = rng.normal(size=(8, 3, 3, 5, 5)).astype(np.float32)
    bias = rng.normal(size=8).astype(np.float32)
    pads = layers._pad_amounts(x.shape[2:], (3, 5, 5), (1, 2, 2), "same")
    whole, cols = layers._conv_valid(layers._pad5(x, pads, "zero", 0.0), kernel, bias, (1, 2, 2))
    assert cols.nbytes > layers.COLUMN_BYTES
    got, _ = conv3d_forward(x, kernel, bias, (1, 2, 2), want_cache=False)
    assert np.array_equal(got.reshape(whole.shape).view(np.uint32), whole.view(np.uint32))


def test_no_cache_routes_reject_a_kernel_wider_than_the_input(rng):
    x = rng.normal(size=(1, 2, 3, 4, 4))
    with pytest.raises(ModelError, match="exceeds input"):
        conv3d_forward(x, rng.normal(size=(1, 2, 4, 1, 1)), np.zeros(1), padding="valid",
                       want_cache=False)
    with pytest.raises(ModelError, match="exceeds input"):
        maxpool3d_forward(x, (1, 5, 1), want_cache=False)


def test_sigmoid_is_stable_and_correct():
    z = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = sigmoid(z)
    assert s[0] == 0.0 and s[4] == 1.0
    assert s[2] == 0.5
    assert np.allclose(s[1], 1.0 / (1.0 + np.e), atol=1e-12)
    assert np.all((s >= 0) & (s <= 1))


def test_bce_hand_values():
    loss, dz = bce_with_logits(np.array([0.0]), np.array([1.0]))
    assert loss == pytest.approx(np.log(2.0))
    assert dz[0] == pytest.approx(-0.5)
    loss2, dz2 = bce_with_logits(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert loss2 == pytest.approx(np.log(2.0))
    assert np.allclose(dz2, [-0.25, 0.25])


def test_bce_gradient_matches_finite_differences(rng):
    z = rng.normal(size=8)
    y = (rng.random(8) > 0.5).astype(np.float64)

    def loss():
        return bce_with_logits(z, y)[0]

    _, dz = bce_with_logits(z, y)
    assert rel_err(dz, numeric_grad(loss, z)) < 1e-6


def test_bce_rejects_nonfinite():
    with np.errstate(invalid="ignore"):
        with pytest.raises(ModelError, match="nonfinite"):
            bce_with_logits(np.array([np.inf]), np.array([1.0]))
