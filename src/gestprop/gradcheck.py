"""Finite-difference verification of the backward pass.

Central differences with eps = 1e-5 in float64, run over the flat parameter
vector of a small dual-encoder model under each head and loss kind. The largest
relative error is the health metric; anything at or above 1e-4 means a
broken gradient (a correct one lands far below, around 1e-9).
"""

from __future__ import annotations

import numpy as np

from .net import DecoderSpec, EncoderSpec, ModelSpec, forward, init_params
from .training import LossSpec, loss_batch

DEFAULT_EPS = 1e-5
PASS_THRESHOLD = 1e-4


def numeric_grad(value_fn, x: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Central-difference gradient of value_fn() with respect to x, in place.

    value_fn must recompute the scalar from x's current contents; x is
    restored before returning.
    """
    if x.dtype != np.float64:
        raise ValueError(f"finite differences need float64 buffers, got {x.dtype}")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = value_fn()
        flat[i] = orig - eps
        lo = value_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-4): tiny gradients compare absolutely."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _small_spec(head: str) -> ModelSpec:
    return ModelSpec(
        head=head, n_labels=4,
        audio=EncoderSpec(layers=2, channels=4, kernel=3, dropout=0.0, out_dim=5),
        text=EncoderSpec(layers=1, channels=4, kernel=3, dropout=0.0, out_dim=5),
        decoder=DecoderSpec(hidden=6, layers=1, dropout=0.0),
        audio_channels=3, audio_frames=9, text_dim=6, text_slots=5, speaker_dim=2,
    )


def check_model_case(head: str, loss: LossSpec, seed: int = 0,
                     eps: float = DEFAULT_EPS) -> float:
    """Max relative error across all parameters for one head/loss pairing."""
    spec = _small_spec(head)
    params = init_params(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    batch = 3
    audio = rng.normal(size=(batch, len(params.taps["audio"]), spec.audio_channels))
    text = rng.normal(size=(batch, len(params.taps["text"]), spec.text_dim))
    speaker = np.zeros((batch, spec.speaker_dim))
    speaker[np.arange(batch), rng.integers(0, spec.speaker_dim, batch)] = 1.0
    if head == "softmax":
        targets = np.zeros((batch, spec.n_labels))
        targets[np.arange(batch), rng.integers(0, spec.n_labels, batch)] = 1.0
    else:
        targets = rng.integers(0, 2, size=(batch, spec.n_labels)).astype(np.float64)
    counts = targets.sum(axis=0) + 1.0
    exclusive = head == "softmax"

    def value() -> float:
        probs = forward(spec, params, audio=audio, text=text, speaker=speaker)
        return loss_batch(probs, targets, loss, exclusive, counts)

    value().backward()              # into params.grad, zero in fresh params
    return relative_error(params.grad, numeric_grad(lambda: value().item(), params.flat, eps))


def run_gradcheck(seed: int = 0, eps: float = DEFAULT_EPS) -> dict:
    """All head/loss pairings; returns per-case and overall max errors."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    cases = {}
    for head in ("sigmoid", "softmax"):
        for loss in (LossSpec("cross_entropy"),
                     LossSpec("focal", gamma=2.0),
                     LossSpec("class_balanced_focal", gamma=2.0, beta=0.99)):
            key = f"{head}/{loss.kind}"
            cases[key] = check_model_case(head, loss, seed=seed, eps=eps)
    max_error = max(cases.values())
    return {"cases": cases, "max_error": max_error, "eps": eps,
            "passed": bool(max_error < PASS_THRESHOLD)}
