"""Losses, optimizer, class balancing, and the training loop.

Three frame-loss variants share one form. With p_t the probability assigned
to the true outcome (the target class under a softmax head; per label, p or
1-p under a sigmoid head):

    cross_entropy:          -ln(p_t)
    focal:                  (1 - p_t)^gamma * -ln(p_t)
    class_balanced_focal:   (1-beta)/(1-beta^n_l) * focal, n_l = training
                            count of label l

Probabilities are clamped to [1e-7, 1 - 1e-7] before the log, with no
gradient at or beyond the clamp. A batch loss, the sum of its frame losses,
is one graph node with a hand-written backward. Adam updates the one flat
parameter vector. Optional balancing duplicates frames positive for an
underrepresented label (with replacement, seeded) until that label's
positive count reaches half its majority side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import PropertyReport
from .net import ModelParams, ModelSpec, forward, init_params
from .tensor import Tensor

log = logging.getLogger(__name__)

PROB_EPS = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOSS_KINDS = ("cross_entropy", "focal", "class_balanced_focal")


@dataclass(frozen=True)
class LossSpec:
    kind: str = "cross_entropy"
    gamma: float = 2.0
    beta: float = 0.999

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; choose from {LOSS_KINDS}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")


def class_balance_weights(loss: LossSpec, class_counts: np.ndarray) -> np.ndarray:
    """(1 - beta) / (1 - beta^n_l) per label; labels with n=0 get weight 1."""
    counts = np.asarray(class_counts, dtype=np.float64)
    weights = np.ones_like(counts)
    pos = counts > 0
    weights[pos] = (1.0 - loss.beta) / (1.0 - loss.beta ** counts[pos])
    return weights


def _loss_weights(loss: LossSpec, n_labels: int,
                  class_counts: np.ndarray | None) -> np.ndarray:
    if loss.kind != "class_balanced_focal":
        return np.ones(n_labels)
    if class_counts is None:
        raise ValueError("class_balanced_focal needs class_counts")
    if len(class_counts) != n_labels:
        raise ValueError(
            f"class_counts has {len(class_counts)} entries for {n_labels} labels")
    return class_balance_weights(loss, class_counts)


def loss_batch(probs: Tensor, targets: np.ndarray, loss: LossSpec,
               exclusive: bool, class_counts: np.ndarray | None = None) -> Tensor:
    """Differentiable batch loss, the sum of frame losses, as one graph node.

    The backward takes the forward's steps in reverse, each with the same
    array operations in the same dtype. Under cross-entropy gamma is 0, so
    the focal factor is exactly 1 and its gradient term exactly 0.
    """
    x = probs.data
    y = np.asarray(targets, dtype=x.dtype)
    w = _loss_weights(loss, x.shape[-1], class_counts).astype(x.dtype)
    gamma = loss.gamma if loss.kind != "cross_entropy" else 0.0
    p = np.clip(x, PROB_EPS, 1.0 - PROB_EPS)
    if exclusive:
        pt = (p * y).sum(axis=-1)                            # (B,)
        w = (y @ w).astype(x.dtype)
    else:
        pt = p * y + (1.0 - p) * (1.0 - y)
    nll = -np.log(pt) * w
    one_minus = 1.0 - pt
    focus = one_minus ** gamma                               # 1 at gamma = 0
    term = nll * focus
    out = Tensor(term.sum(), _prev=(probs,))

    def _bw(g):
        d_term = np.full_like(term, g)
        d_pt = (-(d_term * focus * w) / pt
                - d_term * nll * gamma * one_minus ** (gamma - 1.0))
        d_p = d_pt[:, None] * y if exclusive else d_pt * y - d_pt * (1.0 - y)
        if probs.requires_grad:
            probs._accumulate(d_p * ((x > PROB_EPS) & (x < 1.0 - PROB_EPS)))

    out._backward = _bw
    return out


# ------------------------------------------------------------------ optimizer

class Adam:
    """Standard Adam with bias correction, over one flat parameter vector.

    A step allocates nothing: it updates m, v and flat in place through two
    scratch vectors made here, with the operations, order and dtype of

        m += (1 - beta1) * (grad - m)
        v += (1 - beta2) * (grad * grad - v)
        flat -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
    """

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._a = np.empty_like(flat)
        self._b = np.empty_like(flat)

    def step(self, grad: np.ndarray) -> None:
        """Update flat in place from grad, laid out like it in its dtype."""
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        a, b = self._a, self._b
        np.subtract(grad, self.m, out=a)
        a *= 1.0 - ADAM_BETA1
        self.m += a
        np.multiply(grad, grad, out=a)
        a -= self.v
        a *= 1.0 - ADAM_BETA2
        self.v += a
        np.divide(self.m, b1c, out=a)
        a *= self.lr
        np.divide(self.v, b2c, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        self.flat -= a


# ------------------------------------------------------------------ balancing

def upsample(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Index multiset balancing each label to half its majority side.

    Returns indices into `labels`: the originals in order, then seeded
    duplicates of frames positive for each deficient label. Labels with no
    positive frame are left untouched with a warning. Duplicating whole
    frames keeps one-hot rows one-hot.
    """
    labels = np.asarray(labels)
    n, n_labels = labels.shape
    indices = list(range(n))
    for l in range(n_labels):
        col = labels[np.asarray(indices), l]
        n_pos = int(col.sum())
        n_neg = len(indices) - n_pos
        if n_pos == 0:
            if n_neg:
                log.warning("upsample: label %d has no positive frames; skipping", l)
            continue
        target = int(np.ceil(max(n_pos, n_neg) / 2.0))
        if n_pos >= target:
            continue
        pool = np.asarray(indices)[col.astype(bool)]
        extra = rng.choice(pool, size=target - n_pos, replace=True)
        indices.extend(int(i) for i in extra)
    return np.asarray(indices, dtype=np.int64)


# ------------------------------------------------------------------ training loop

@dataclass(frozen=True)
class TrainConfig:
    steps: int = 800
    batch: int = 64
    lr: float = 2e-3
    loss: LossSpec = field(default_factory=LossSpec)
    upsample: bool = False
    evals: int = 4

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be positive")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 1 <= self.evals <= self.steps:
            raise ValueError(f"evals must be in [1, steps={self.steps}], got {self.evals}")


@dataclass
class RunRecord:
    """Validation curve and outcome of one training run."""

    curve: list[tuple[int, float]] = field(default_factory=list)
    loss_curve: list[float] = field(default_factory=list)
    final_score: float = 0.0
    failed: bool = False
    report: PropertyReport | None = None


def train(spec: ModelSpec, provider, train_idx: np.ndarray, config: TrainConfig,
          seed: int, score) -> tuple[ModelParams, RunRecord]:
    """Train one model on one fold.

    provider supplies `.batch(indices, params.taps)` -> dict with keys audio/text
    (windows at the taps)/speaker, each maybe None, and labels, plus `.exclusive` and `.labels_at`.
    A step zeroes params.grad, backward() adds its gradients there, and Adam steps on it.
    score(params) -> PropertyReport scores weights on the validation frames;
    at evenly spaced eval points its result becomes `record.report` and its
    headline extends the validation curve. `record.report` always describes
    the returned weights.

    Divergence (non-finite loss) aborts the run and marks it failed. The
    final-step weights are returned; there is no early stopping.
    """
    ss = np.random.SeedSequence([int(seed)])
    s_init, s_batch, s_drop, s_up = (int(c.generate_state(1)[0]) for c in ss.spawn(4))
    params = init_params(spec, seed=s_init)
    opt = Adam(params.flat, lr=config.lr)
    rng_batch = np.random.default_rng(s_batch)
    rng_drop = np.random.default_rng(s_drop)

    pool = np.asarray(train_idx)
    if len(pool) == 0:
        raise ValueError("empty training set")
    if config.upsample:
        rows = provider.labels_at(pool)
        pool = pool[upsample(rows, np.random.default_rng(s_up))]
    class_counts = provider.labels_at(pool).sum(axis=0)
    if config.loss.kind == "class_balanced_focal" and (class_counts == 0).any():
        log.warning("class-balanced weights: %d label(s) have zero positives; using 1.0",
                    int((class_counts == 0).sum()))

    eval_steps = sorted({
        (config.steps * (i + 1)) // config.evals for i in range(config.evals)
    })
    record = RunRecord()
    seg_losses: list[float] = []
    for step in range(1, config.steps + 1):
        idx = pool[rng_batch.integers(0, len(pool), size=config.batch)]
        batch = provider.batch(idx, params.taps)
        params.grad.fill(-0.0)          # -0.0 + g is g bit for bit; +0.0 + -0.0 is +0.0
        probs = forward(spec, params, audio=batch.get("audio"), text=batch.get("text"),
                        speaker=batch.get("speaker"), training=True, rng=rng_drop)
        loss = loss_batch(probs, batch["labels"], config.loss,
                          provider.exclusive, class_counts)
        value = loss.item()
        if not np.isfinite(value):
            log.warning("training diverged at step %d (loss=%r); aborting", step, value)
            record.failed = True
            record.report = score(params)
            break
        seg_losses.append(value / len(idx))
        loss.backward()
        opt.step(params.grad)
        del batch, probs, loss              # the step's graph dies before validation scoring
        if step in eval_steps:
            record.report = score(params)
            record.curve.append((step, record.report.headline()))
            record.loss_curve.append(float(np.mean(seg_losses)))
            seg_losses = []
    record.final_score = record.curve[-1][1] if record.curve else 0.0
    return params, record

