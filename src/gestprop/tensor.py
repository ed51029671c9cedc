"""Reverse-mode automatic differentiation over numpy arrays.

Each Tensor wraps an ndarray value, the tensors it was computed from, and a
backward closure that routes the output gradient to those parents.
Tensor.backward() topologically sorts the graph and runs the closures in
reverse. Only the operations the gesture models need are implemented:
broadcasting add/mul, matmul against 2-D weights, dilated 1-D convolution,
ReLU, sigmoid, softmax, slicing along time, concatenation, inverted-scale
dropout, and a full sum. The training loss is one node of its own, built in
training.loss_batch.

Gradients are only computed for branches that contain a requires_grad leaf;
inputs default to requires_grad=False, parameters to True.
"""

from __future__ import annotations

import numpy as np


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
        if self.grad is None:      # a copy: g may be a view (add, concat)
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    bt = b if isinstance(b, Tensor) else None
    bdata = b.data if bt is not None else np.asarray(b, dtype=a.data.dtype)
    out = Tensor(a.data + bdata, _prev=(a, bt) if bt is not None else (a,))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(g, bt.data.shape))

    out._backward = _bw
    return out


def mul(a: Tensor, b) -> Tensor:
    bt = b if isinstance(b, Tensor) else None
    bdata = bt.data if bt is not None else np.asarray(b, dtype=a.data.dtype)
    out = Tensor(a.data * bdata, _prev=(a, bt) if bt is not None else (a,))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * bdata, a.data.shape))
        if bt is not None and bt.requires_grad:
            bt._accumulate(_unbroadcast(g * a.data, bt.data.shape))

    out._backward = _bw
    return out


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """a (..., m, k) @ w (k, n); weights are always 2-D here."""
    if w.data.ndim != 2:
        raise ValueError(f"matmul weight must be 2-D, got shape {w.data.shape}")
    out = Tensor(a.data @ w.data, _prev=(a, w))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ w.data.T)
        if w.requires_grad:
            k = a.data.shape[-1]
            n = g.shape[-1]
            w._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))

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
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(y, _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * y * (1.0 - y))

    out._backward = _bw
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate(y * (g - inner))

    out._backward = _bw
    return out


def tsum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), _prev=(x,))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g))

    out._backward = _bw
    return out


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 _prev=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        parts = np.split(g, splits, axis=axis)
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
    return mul(x, keep)


def conv1d_dilated(x: Tensor, w: Tensor, b: Tensor, dilation: int = 1,
                   rows=None) -> Tensor:
    """Dilated 1-D convolution with zero padding, at the given output rows.

    x: (B, T, C_in) or (T, C_in); w: (k, C_in, C_out) with odd k; b: (C_out,).
    Output row t sees input positions t + (j - (k-1)/2) * dilation; those
    outside [0, T) read zero. rows are the distinct output positions to
    compute, in order; the default, all T of them, keeps the length.
    """
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3:
        raise ValueError(f"conv input must be (B, T, C) or (T, C), got {x.data.shape}")
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
    idx_c = np.clip(idx, 0, T - 1)

    cols = xd[:, idx_c, :] * valid[None, :, :, None]        # (B, R, k, C_in)
    w2 = w.data.reshape(k * c_in, c_out)
    y = cols.reshape(B, R, k * c_in) @ w2 + b.data
    out = Tensor(y[0] if squeeze else y, _prev=(x, w, b))

    def _bw(g):
        gd = g[None] if squeeze else g                       # (B, R, C_out)
        if b.requires_grad:
            b._accumulate(gd.sum(axis=(0, 1)))
        if w.requires_grad:
            cm = cols.reshape(B * R, k * c_in)
            w._accumulate((cm.T @ gd.reshape(B * R, c_out)).reshape(k, c_in, c_out))
        if x.requires_grad:
            # one scatter per tap; within a tap the input positions are
            # distinct, so a plain indexed add cannot drop a term
            dx = np.zeros_like(xd)
            for j in range(k):
                ok = valid[:, j]
                dx[:, idx[ok, j], :] += gd[:, ok, :] @ w.data[j].T
            x._accumulate(dx[0] if squeeze else dx)

    out._backward = _bw
    return out
