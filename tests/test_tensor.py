"""Gradient and value checks for the autodiff core."""

import numpy as np
import pytest

from gestprop import tensor as T
from gestprop.gradcheck import numeric_grad, relative_error
from gestprop.tensor import Tensor
from autodiff_reference import weighted_sum


def check_grad(build, *arrays, tol=1e-6):
    """build(*tensors) -> scalar Tensor; compare backward against FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        analytic = t.grad if t.grad is not None else np.zeros_like(a)
        numeric = numeric_grad(lambda: build(*(Tensor(x) for x in arrays)).item(), a)
        err = relative_error(analytic, numeric)
        assert err < tol, f"arg {i}: max relative error {err:.3g}"


def wsum(y, seed=7):
    """y weighted by fixed random weights and summed, as one scalar node."""
    return weighted_sum(y, np.random.default_rng(seed).normal(size=y.shape))


RNG = np.random.default_rng(20240416)


def test_linear_value_and_grads_are_exact():
    x = RNG.normal(size=(5, 4))
    w = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3,))
    g = RNG.normal(size=(5, 3))
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.linear(xt, wt, bt)
    assert np.array_equal(out.data, x @ w + b)
    weighted_sum(out, g).backward()
    assert np.array_equal(xt.grad, g @ w.T)
    assert np.array_equal(wt.grad, x.T @ g)
    assert np.array_equal(bt.grad, g.sum(axis=0))


@pytest.mark.parametrize("n_out", [1, 3])
def test_linear_grads(n_out):
    # n_out = 1 is the presence head
    x = RNG.normal(size=(5, 4))
    w = RNG.normal(size=(4, n_out))
    b = RNG.normal(size=(n_out,))
    check_grad(lambda a, c, e: wsum(T.linear(a, c, e)), x, w, b)


def test_relu_grad_and_value():
    a = RNG.normal(size=(4, 5)) + 0.2
    a[np.abs(a) < 0.05] = 0.5    # keep FD away from the kink
    out = T.relu(Tensor(a))
    assert np.array_equal(out.data, np.maximum(a, 0.0))
    check_grad(lambda x: wsum(T.relu(x)), a)


def test_sigmoid_grad_and_range():
    a = RNG.normal(size=(3, 4)) * 3.0
    y = T.sigmoid(Tensor(a)).data
    assert np.all((y > 0.0) & (y < 1.0))
    assert np.allclose(y, 1.0 / (1.0 + np.exp(-a)))
    check_grad(lambda x: wsum(T.sigmoid(x)), a)


def test_sigmoid_stable_at_extremes():
    y = T.sigmoid(Tensor(np.array([-800.0, 800.0]))).data
    assert y[0] == 0.0 and y[1] == 1.0


def test_softmax_rows_and_grad():
    a = RNG.normal(size=(4, 6)) * 2.0
    y = T.softmax(Tensor(a)).data
    assert np.allclose(y.sum(axis=-1), 1.0)
    assert np.all(y > 0)
    check_grad(lambda x: wsum(T.softmax(x)), a)


def test_softmax_shift_invariant():
    a = RNG.normal(size=(2, 5))
    assert np.allclose(T.softmax(Tensor(a)).data, T.softmax(Tensor(a + 1000.0)).data)


def test_concat_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 2))
    check_grad(lambda x, y: wsum(T.concat([x, y])), a, b)


def test_select_time_grad():
    a = RNG.normal(size=(2, 7, 3))
    out = T.select_time(Tensor(a), 3)
    assert np.array_equal(out.data, a[:, 3, :])
    check_grad(lambda x: wsum(T.select_time(x, 3)), a)


def test_dropout_eval_identity_and_train_scaling():
    a = RNG.normal(size=(200, 50))
    x = Tensor(a)
    assert T.dropout(x, 0.4, None, training=False) is x
    assert T.dropout(x, 0.0, None, training=True) is x
    out = T.dropout(x, 0.4, np.random.default_rng(0), training=True).data
    scale = 1.0 / 0.6
    kept = out != 0.0
    assert np.allclose(out[kept], a[kept] * scale)
    assert abs(kept.mean() - 0.6) < 0.02
    with pytest.raises(ValueError, match="rng"):
        T.dropout(x, 0.4, None, training=True)


def test_diamond_graph_accumulates():
    # x feeds concat twice, so its gradient is the sum of both halves'
    x = Tensor(np.array([[3.0, -1.0]]), requires_grad=True)
    weighted_sum(T.concat([x, x]), np.array([[1.0, 2.0, 10.0, 20.0]])).backward()
    assert np.array_equal(x.grad, [[11.0, 22.0]])


def test_no_grad_leaves_stay_none():
    x = Tensor(np.ones((2, 2)))
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3))
    weighted_sum(T.linear(x, w, b), np.ones((2, 3))).backward()
    assert x.grad is None and b.grad is None
    assert np.array_equal(w.grad, np.full((2, 3), 2.0))


# ------------------------------------------------------------------ convolution

def conv_oracle(x, w, b, dilation):
    """Direct triple loop over the definition; x is (B, T, C_in)."""
    B, Tn, _ = x.shape
    k, _, c_out = w.shape
    center = (k - 1) // 2
    y = np.tile(b, (B, Tn, 1)).astype(np.float64)
    for t in range(Tn):
        for j in range(k):
            s = t + (j - center) * dilation
            if 0 <= s < Tn:
                y[:, t, :] += x[:, s, :] @ w[j]
    return y


@pytest.mark.parametrize("kernel,dilation", [(3, 1), (3, 2), (5, 1), (5, 3)])
def test_conv_matches_oracle(kernel, dilation):
    x = RNG.normal(size=(2, 11, 3))
    w = RNG.normal(size=(kernel, 3, 4))
    b = RNG.normal(size=(4,))
    got = T.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation).data
    assert np.allclose(got, conv_oracle(x, w, b, dilation), atol=1e-12)


def test_conv_impulse_offsets():
    # an input impulse at t0 must echo kernel tap j at t0 - (j - center) * d
    Tn, d = 15, 2
    x = np.zeros((1, Tn, 1))
    x[0, 7, 0] = 1.0
    w = np.arange(1.0, 4.0).reshape(3, 1, 1)     # taps 1, 2, 3
    y = T.conv1d_dilated(Tensor(x), Tensor(w), Tensor(np.zeros(1)), d).data[0, :, 0]
    expect = np.zeros(Tn)
    expect[7 + d] = 1.0      # tap j=0, offset -(0-1)*d
    expect[7] = 2.0
    expect[7 - d] = 3.0
    assert np.array_equal(y, expect)


def test_conv_grads():
    x = RNG.normal(size=(2, 8, 3))
    w = RNG.normal(size=(3, 3, 4))
    b = RNG.normal(size=(4,))
    check_grad(lambda a, c, e: wsum(T.conv1d_dilated(a, c, e, 2)), x, w, b)


@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_conv_rows_match_full_conv(kernel, dilation):
    # rows at both ends reach into the zero padding; rows need not be sorted.
    # A matmul over fewer rows may sum its products in another order, so
    # equal means equal to a few float64 ulps.
    x = RNG.normal(size=(2, 11, 3))
    w = RNG.normal(size=(kernel, 3, 4))
    b = RNG.normal(size=(4,))
    full = T.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation).data
    for rows in ([5], [0, 10], [1, 3, 5, 7, 9], [10, 0, 4], list(range(11))):
        got = T.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation, rows=rows).data
        np.testing.assert_allclose(got, full[:, rows, :], rtol=1e-13, atol=1e-13)


def test_conv_rows_grads():
    x = RNG.normal(size=(2, 9, 3))
    w = RNG.normal(size=(5, 3, 2))
    b = RNG.normal(size=(2,))
    check_grad(lambda a, c, e: wsum(
        T.conv1d_dilated(a, c, e, 2, rows=[0, 3, 4, 8])), x, w, b)
    check_grad(lambda a, c, e: wsum(
        T.conv1d_dilated(a, c, e, 1, rows=[1, 6])), x[1:], w, b)


def conv_fancy_index(x, w, b, dilation, rows):
    """The conv as it gathered before: fancy indexing, then a mask multiply,
    whether or not a tap falls outside; values and the (x, w, b) gradients
    for an output gradient g."""
    B, Tn, _ = x.shape
    k, c_in, c_out = w.shape
    rows = np.asarray(rows)
    idx = rows[:, None] + ((np.arange(k) - (k - 1) // 2) * dilation)[None, :]
    valid = (idx >= 0) & (idx < Tn)
    cols = x[:, np.clip(idx, 0, Tn - 1), :] * valid[None, :, :, None]
    y = cols.reshape(B, len(rows), k * c_in) @ w.reshape(k * c_in, c_out) + b

    def grads(g):
        gw = (cols.reshape(B * len(rows), k * c_in).T
              @ g.reshape(B * len(rows), c_out)).reshape(k, c_in, c_out)
        dx = np.zeros_like(x)
        for j in range(k):
            ok = valid[:, j]
            dx[:, idx[ok, j], :] += g[:, ok, :] @ w[j].T
        return dx, gw, g.sum(axis=(0, 1))
    return y, grads, valid


SMALL = (4, 3, 5)                    # batch, C_in, C_out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,dilation,rows,dims", [
    # every tap inside: no mask multiply
    pytest.param(3, 1, [3, 5, 7], SMALL, id="3-1-rows0"),
    pytest.param(3, 2, [0, 1, 9, 10], SMALL, id="3-2-rows1"),   # taps off both ends
    pytest.param(5, 2, list(range(11)), SMALL, id="5-2-rows2"),
    pytest.param(3, 1, [5], SMALL, id="3-1-rows3"),
    # taps tile the input: it is the columns
    pytest.param(3, 1, [1, 4, 7], SMALL, id="3-1-rows4"),
    pytest.param(5, 1, [2], SMALL, id="5-1-rows5"),       # one row whose taps are the input
    # 11 frames per product: 6 products, the last of 9 frames
    pytest.param(3, 1, [3, 5, 7], (64, 301, 32), id="multi-block"),
])
def test_conv_is_bit_equal_to_the_fancy_index_gather(dtype, kernel, dilation, rows, dims):
    # rows whose taps tile 0..R*k-1 run on exactly that many steps
    tiled = dilation == 1 and rows == list(range(kernel // 2, len(rows) * kernel, kernel))
    steps = len(rows) * kernel if tiled else 11
    batch, c_in, c_out = dims
    x = RNG.normal(size=(batch, steps, c_in)).astype(dtype)
    w = RNG.normal(size=(kernel, c_in, c_out)).astype(dtype)
    b = RNG.normal(size=(c_out,)).astype(dtype)
    g = RNG.normal(size=(batch, len(rows), c_out)).astype(dtype)
    want, grads, valid = conv_fancy_index(x, w, b, dilation, rows)
    assert valid.all() == (rows in ([3, 5, 7], [5], [1, 4, 7], [2]))  # every gather is covered
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv1d_dilated(xt, wt, bt, dilation, rows=rows)
    weighted_sum(out, g).backward()
    assert out.data.dtype == want.dtype and np.array_equal(out.data, want)
    for got, ref in zip((xt.grad, wt.grad, bt.grad), grads(g)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [7, 64, 65])
@pytest.mark.parametrize("kernel,c_in,c_out,frames", [
    (3, 301, 32, 11),       # criterion 7's text conv0
    (3, 5, 32, 694),        # its audio conv0
    (5, 301, 128, 1),       # SEARCH_SPACE's widest first layer
], ids=["text-conv0", "audio-conv0", "widest"])
def test_conv_blocks_of_frames_equal_the_per_frame_product(dtype, batch, kernel, c_in,
                                                           c_out, frames):
    # a first layer's three rows, whose taps tile the window: each product
    # holds `frames` frames, so a batch spans several and ends in a partial one.
    # SMALL_GEMM was measured with scipy-openblas 0.3.31 on its SkylakeX
    # kernel; a BLAS or kernel that switches elsewhere fails here
    assert max(T.SMALL_GEMM // (3 * kernel * c_in * c_out), 1) == frames
    x = RNG.normal(size=(batch, 3 * kernel, c_in)).astype(dtype)
    w = RNG.normal(size=(kernel, c_in, c_out)).astype(dtype)
    b = RNG.normal(size=(c_out,)).astype(dtype)
    out = T.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b),
                           rows=[kernel // 2 + kernel * i for i in range(3)])
    per_frame = x.reshape(batch, 3, kernel * c_in) @ w.reshape(kernel * c_in, c_out) + b
    assert out.data.dtype == per_frame.dtype and np.array_equal(out.data, per_frame)


def test_conv_validation():
    with pytest.raises(ValueError, match=r"\(B, T, C\)"):
        T.conv1d_dilated(Tensor(np.zeros((5, 2))), Tensor(np.zeros((3, 2, 2))),
                         Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="odd"):
        T.conv1d_dilated(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((2, 2, 2))),
                         Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="channels"):
        T.conv1d_dilated(Tensor(np.zeros((1, 5, 3))), Tensor(np.zeros((3, 2, 2))),
                         Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="dilation"):
        T.conv1d_dilated(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((3, 2, 2))),
                         Tensor(np.zeros(2)), 0)


def test_stacked_receptive_field():
    # three k=3 layers at dilations 1, 2, 4 reach +-7 frames: 15-frame field
    Tn = 31
    center = Tn // 2
    ws = [RNG.normal(size=(3, 1, 1)) for _ in range(3)]
    bs = [np.zeros(1) for _ in range(3)]

    def center_out(x):
        h = Tensor(x)
        for i, (w, b) in enumerate(zip(ws, bs)):
            h = T.conv1d_dilated(h, Tensor(w), Tensor(b), 2 ** i)
        return h.data[0, center, 0]

    base = np.zeros((1, Tn, 1))
    ref = center_out(base)
    for shift in range(1, 11):
        for side in (-1, 1):
            x = base.copy()
            x[0, center + side * shift, 0] = 1.0
            changed = center_out(x) != ref
            assert changed == (shift <= 7), f"offset {side * shift}"
