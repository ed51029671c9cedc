"""Reverse-mode automatic differentiation over numpy arrays.

Each Tensor wraps an ndarray value, the tensors it was computed from, and a
backward closure that routes the output gradient to those parents.
Tensor.backward() topologically sorts the graph and runs the closures in
reverse. Only the layers the gesture models run are implemented, each as one
node: dilated 1-D convolution over (B, T, C), picking one time step, the
dense layer x @ w + b, ReLU, sigmoid, softmax and concatenation along the
last axis, and inverted-scale dropout; there is no general elementwise
arithmetic. The training loss is one node of its own, built in
training.loss_batch.

Gradients are only computed for branches that contain a requires_grad leaf;
inputs default to requires_grad=False, parameters to True.

A conv layer that computes R > 1 rows per frame multiplies its forward in
blocks of whole frames, each one 2-D product of at most SMALL_GEMM (10^6)
multiply-adds. The bound is where OpenBLAS switches kernels, as measured
with scipy-openblas 0.3.31 (numpy 2.4.6's wheel) on its SkylakeX kernel, at
K x N of 903x32, 15x32, 903x8, 903x64, 1505x16, 1505x128 and 96x32: below
it every output was one sequential dot, so a block gave each frame the
floats its own (R, k*C_in) product would; above it the blocked kernel
summed in another order. Another BLAS, or another OpenBLAS kernel for
another CPU, may switch elsewhere; tests/test_tensor.py checks the bound.
"""

from __future__ import annotations

import numpy as np

SMALL_GEMM = 10**6         # largest M*K*N OpenBLAS 0.3.31 (SkylakeX) ran in its small kernel


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, _prev=()):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _prev)
        self._backward = None
        self._prev = _prev

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is not None:
            self.grad += g
        else:           # a fresh array is kept; a view (concat's split) or dtype change copied
            self.grad = g if g.base is None and g.dtype == self.data.dtype \
                else np.array(g, dtype=self.data.dtype)

    def backward(self):
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        return float(self.data)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x (B, k) @ w (k, n) + b (n,), as one node."""
    out = Tensor(x.data @ w.data + b.data, _prev=(x, w, b))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    out._backward = _bw
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0))

    out._backward = _bw
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y, _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * y * (1.0 - y))

    out._backward = _bw
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate(y * (g - inner))

    out._backward = _bw
    return out


def concat(tensors: list[Tensor]) -> Tensor:
    """Concatenation along the last axis."""
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1),
                 _prev=tuple(tensors))
    splits = np.cumsum([t.data.shape[-1] for t in tensors])[:-1]

    def _bw(g):
        parts = np.split(g, splits, axis=-1)
        for t, p in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(p)

    out._backward = _bw
    return out


def select_time(x: Tensor, index: int) -> Tensor:
    """Pick one time step from (B, T, C) -> (B, C)."""
    out = Tensor(x.data[:, index, :], _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, index, :] = g
            x._accumulate(full)

    out._backward = _bw
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    out = Tensor(x.data * keep, _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * keep)

    out._backward = _bw
    return out


def conv1d_dilated(x: Tensor, w: Tensor, b: Tensor, dilation: int = 1,
                   rows=None) -> Tensor:
    """Dilated 1-D convolution with zero padding, at the given output rows.

    x: (B, T, C_in); w: (k, C_in, C_out) with odd k; b: (C_out,).
    Output row t sees input positions t + (j - (k-1)/2) * dilation; those
    outside [0, T) read zero. rows are the distinct output positions to
    compute, in order; the default, all T of them, keeps the length.

    At R > 1 rows the forward multiplies blocks of as many frames as keep
    rows * (k * C_in) * C_out <= SMALL_GEMM (the small-matrix bound measured
    for OpenBLAS, see the module docstring), one frame where a single one is
    over it: bit-equal to one product per frame, in fewer calls. At one row
    it keeps that per-frame product, which numpy runs as a matrix-vector
    product and sums in another order.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ValueError(f"conv input must be (B, T, C), got {xd.shape}")
    k, c_in, c_out = w.data.shape
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if xd.shape[2] != c_in:
        raise ValueError(
            f"conv expects {c_in} input channels, got {xd.shape[2]} (weight {w.data.shape})"
        )
    B, T, _ = xd.shape
    rows = np.arange(T) if rows is None else np.asarray(rows)
    R = len(rows)
    offsets = (np.arange(k) - (k - 1) // 2) * dilation
    idx = rows[:, None] + offsets[None, :]                  # (R, k)
    valid = (idx >= 0) & (idx < T)
    if idx.size == T and (idx.ravel() == np.arange(T)).all():
        cols = xd                   # the taps are the input in order: it is the columns
    else:
        cols = np.take(xd, np.clip(idx, 0, T - 1), axis=1)  # (B, R, k, C_in), C-contiguous
        if not valid.all():
            cols *= valid[None, :, :, None]
    cols = cols.reshape(B, R, k * c_in)
    wm = w.data.reshape(k * c_in, c_out)
    if R == 1:                  # numpy multiplies each frame as a matrix-vector product
        y = cols @ wm + b.data
    else:
        y = np.empty((B, R, c_out), np.result_type(cols, wm, b.data))
        step = max(SMALL_GEMM // (R * k * c_in * c_out), 1)     # frames per product
        for lo in range(0, B, step):
            np.matmul(cols[lo:lo + step].reshape(-1, k * c_in), wm,
                      out=y[lo:lo + step].reshape(-1, c_out))
        y += b.data
    out = Tensor(y, _prev=(x, w, b))

    def _bw(g):                                             # (B, R, C_out)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 1)))
        if w.requires_grad:
            cm = cols.reshape(B * R, k * c_in)
            w._accumulate((cm.T @ g.reshape(B * R, c_out)).reshape(k, c_in, c_out))
        if x.requires_grad:
            # one scatter per tap; within a tap the input positions are
            # distinct, so a plain indexed add cannot drop a term
            dx = np.zeros_like(xd)
            for j in range(k):
                ok = valid[:, j]
                dx[:, idx[ok, j], :] += g[:, ok, :] @ w.data[j].T
            x._accumulate(dx)

    out._backward = _bw
    return out
