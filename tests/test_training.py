"""Losses (graph vs reference), Adam, balancing, and the training loop."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from gestprop.evaluation import PropertyReport, binarize, evaluate_property
from gestprop.gradcheck import numeric_grad, relative_error
from gestprop.net import (DecoderSpec, EncoderSpec, ModelSpec, forward, input_taps,
                          from_fields, init_params, predict_probs)
from gestprop.tensor import Tensor
from gestprop.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LOSS_KINDS, PROB_EPS, Adam,
                               LossSpec, TrainConfig,
                               class_balance_weights, loss_batch, train, upsample)

RNG = np.random.default_rng(99)


def loss_frame(probs, target, loss, exclusive, class_counts=None):
    """Reference frame loss on plain arrays (loss_batch must match it)."""
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(target, dtype=np.float64)
    w = class_balance_weights(loss, class_counts) \
        if loss.kind == "class_balanced_focal" else np.ones(len(p))
    gamma = loss.gamma if loss.kind != "cross_entropy" else 0.0
    if exclusive:
        ti = int(np.argmax(y))
        pt = p[ti]
        return float(w[ti] * (1.0 - pt) ** gamma * -np.log(pt))
    pt = p * y + (1.0 - p) * (1.0 - y)
    return float(np.sum(w * (1.0 - pt) ** gamma * -np.log(pt)))


def test_cross_entropy_goldens():
    ce = LossSpec("cross_entropy")
    assert loss_frame([0.5], [1], ce, exclusive=False) == pytest.approx(math.log(2))
    assert loss_frame([0.9, 0.2], [1, 0], ce, exclusive=False) == pytest.approx(
        -math.log(0.9) - math.log(0.8))
    assert loss_frame([0.2, 0.5, 0.3], [0, 1, 0], ce, exclusive=True) == pytest.approx(
        -math.log(0.5))


def test_focal_golden_quarter_log_two():
    focal = LossSpec("focal", gamma=2.0)
    value = loss_frame([0.5], [1], focal, exclusive=False)
    assert value == pytest.approx(0.17328679513998632, abs=1e-15)
    assert value == pytest.approx(0.25 * math.log(2))


def test_focal_gamma_zero_is_cross_entropy():
    ce = LossSpec("cross_entropy")
    f0 = LossSpec("focal", gamma=0.0)
    for _ in range(20):
        p = RNG.uniform(0.01, 0.99, size=4)
        y = RNG.integers(0, 2, size=4)
        assert loss_frame(p, y, f0, False) == pytest.approx(loss_frame(p, y, ce, False))
    p = RNG.dirichlet(np.ones(4))
    y = np.eye(4)[2]
    assert loss_frame(p, y, f0, True) == pytest.approx(loss_frame(p, y, ce, True))


def test_probability_clamp_keeps_loss_finite():
    ce = LossSpec("cross_entropy")
    v = loss_frame([0.0], [1], ce, exclusive=False)
    assert v == pytest.approx(-math.log(1e-7))
    assert np.isfinite(loss_frame([1.0], [0], ce, exclusive=False))


def test_class_balance_weights():
    loss = LossSpec("class_balanced_focal", beta=0.999)
    w = class_balance_weights(loss, np.array([10, 1000]))
    assert w[0] == pytest.approx(0.001 / (1 - 0.999 ** 10))
    assert w[1] == pytest.approx(0.001 / (1 - 0.999 ** 1000))
    assert w[0] > w[1]    # rarer label weighs more


def test_class_balance_zero_count_clamps_to_one():
    loss = LossSpec("class_balanced_focal", beta=0.99)
    w = class_balance_weights(loss, np.array([0, 50]))
    assert w[0] == 1.0


@pytest.mark.parametrize("exclusive", [False, True])
@pytest.mark.parametrize("kind", ["cross_entropy", "focal", "class_balanced_focal"])
def test_batch_loss_matches_frame_sum(kind, exclusive):
    rng = np.random.default_rng(hash((kind, exclusive)) % 2 ** 31)
    n, L = 17, 4
    if exclusive:
        probs = rng.dirichlet(np.ones(L), size=n)
        targets = np.eye(L)[rng.integers(0, L, n)]
    else:
        probs = rng.uniform(0.001, 0.999, size=(n, L))
        targets = rng.integers(0, 2, size=(n, L)).astype(float)
    counts = targets.sum(axis=0) + 1
    loss = LossSpec(kind, gamma=2.0, beta=0.99)
    expected = sum(loss_frame(probs[i], targets[i], loss, exclusive, counts)
                   for i in range(n))
    got = loss_batch(Tensor(probs), targets, loss, exclusive, counts).item()
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("exclusive", [False, True])
@pytest.mark.parametrize("kind", ["cross_entropy", "focal", "class_balanced_focal"])
def test_batch_loss_gradient_matches_central_differences(kind, exclusive):
    rng = np.random.default_rng([LOSS_KINDS.index(kind), exclusive])
    n, L = 6, 4
    if exclusive:
        probs = rng.dirichlet(np.full(L, 4.0), size=n)
        targets = np.eye(L)[rng.integers(0, L, n)]
    else:
        probs = rng.uniform(0.05, 0.95, size=(n, L))
        targets = rng.integers(0, 2, size=(n, L)).astype(float)
    # the loss is flat at or beyond the clamp: rows 0-3 hold 0, PROB_EPS,
    # 1 - PROB_EPS and 1 at the target class (softmax) or on the diagonal
    # (sigmoid), and a sigmoid row 0 holds all four
    for i, value in enumerate((0.0, PROB_EPS, 1.0 - PROB_EPS, 1.0)):
        probs[i, np.argmax(targets[i]) if exclusive else i] = value
    if not exclusive:
        probs[0] = (0.0, PROB_EPS, 1.0 - PROB_EPS, 1.0)
    clamped = (probs <= PROB_EPS) | (probs >= 1.0 - PROB_EPS)
    counts = targets.sum(axis=0) + 1
    loss = LossSpec(kind, gamma=2.0, beta=0.99)
    x = Tensor(probs, requires_grad=True)
    loss_batch(x, targets, loss, exclusive, counts).backward()
    assert x.grad.dtype == np.float64
    assert np.all(x.grad[clamped] == 0.0)

    def value():
        return sum(loss_frame(probs[i], targets[i], loss, exclusive, counts)
                   for i in range(n))

    numeric = numeric_grad(value, probs)
    assert relative_error(x.grad[~clamped], numeric[~clamped]) < 1e-7


def test_batch_loss_gradient_is_finite():
    probs = Tensor(RNG.uniform(0.05, 0.95, size=(6, 3)), requires_grad=True)
    targets = RNG.integers(0, 2, size=(6, 3)).astype(float)
    loss_batch(probs, targets, LossSpec("focal"), exclusive=False).backward()
    assert probs.grad is not None
    assert np.all(np.isfinite(probs.grad))


def test_loss_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        LossSpec("hinge")
    with pytest.raises(ValueError, match="gamma"):
        LossSpec("focal", gamma=-1)
    with pytest.raises(ValueError, match="beta"):
        LossSpec("class_balanced_focal", beta=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_float_settings_reject_non_finite_values(value):
    # a comparison with NaN is false, so `lr <= 0` let NaN through
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=value)
    with pytest.raises(ValueError, match="gamma"):
        LossSpec("focal", gamma=value)
    with pytest.raises(ValueError, match="beta"):
        LossSpec("class_balanced_focal", beta=value)


def test_adam_first_step_size_is_lr():
    for scale in (1.0, 1e3):
        w = np.zeros(3)
        Adam(w, lr=0.01).step(np.array([scale, -scale, 0.0]))
        assert w == pytest.approx([-0.01, 0.01, 0.0], rel=1e-3)


def test_adam_minimizes_quadratic():
    w = np.array([10.0, -4.0])
    opt = Adam(w, lr=0.3)
    for _ in range(300):
        opt.step(2 * (w - 3.0))
    assert w == pytest.approx([3.0, 3.0], abs=1e-3)


def test_adam_updates_the_params_views():
    spec = ModelSpec(head="sigmoid", n_labels=2, audio=None,
                     text=EncoderSpec(layers=1, channels=3, out_dim=3),
                     decoder=DecoderSpec(hidden=3), text_dim=4)
    params = init_params(spec, seed=0)
    before = {name: arr.copy() for name, arr in params.tensors.items()}
    Adam(params.flat, lr=0.1).step(np.ones_like(params.flat))
    for name, arr in params.tensors.items():
        np.testing.assert_allclose(arr, before[name] - 0.1, rtol=0, atol=1e-6)


def _adam_reference(flat, m, v, t, lr, grad):
    """One Adam step as out-of-place expressions, each temporary a new array."""
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    m += (1.0 - ADAM_BETA1) * (grad - m)
    v += (1.0 - ADAM_BETA2) * (grad * grad - v)
    flat -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_step_is_bit_identical_to_the_expressions(dtype):
    # the step runs through two scratch vectors; the expressions are the
    # reference, compared as bytes, so a zero's sign counts too
    spec = ModelSpec(head="sigmoid", n_labels=2, audio=EncoderSpec(layers=2, channels=8),
                     text=None, decoder=DecoderSpec(hidden=16))
    params = init_params(spec, seed=0, dtype=dtype)
    flat, head = params.flat, params.tensors["head.w"]
    ref = [flat.copy(), np.zeros_like(flat), np.zeros_like(flat)]
    opt = Adam(flat, lr=3e-3)
    rng = np.random.default_rng(12)
    for t in range(1, 26):
        grad = (rng.normal(size=flat.shape) * 10.0 ** rng.uniform(-6, 3)).astype(dtype)
        grad[rng.random(flat.size) < 0.1] = 0.0
        grad[rng.random(flat.size) < 0.1] = -0.0
        head_before = head.copy()
        opt.step(grad)
        _adam_reference(*ref, t, 3e-3, grad)
        assert opt.flat is flat and not np.array_equal(head, head_before)
        for got, want in zip((opt.flat, opt.m, opt.v), ref):
            assert got.tobytes() == want.tobytes(), t


def _alloc_guard_spec():
    # 24 decoder layers of 160 units, 620k parameters: no tensor is over 5% of
    # them, and the graph of one frame is small beside them, so a step's
    # gradients and graph peak at about a third of the guards' bound
    return ModelSpec(head="sigmoid", n_labels=1,
                     audio=EncoderSpec(layers=1, channels=8, out_dim=160), text=None,
                     decoder=DecoderSpec(hidden=160, layers=24))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_step_allocates_no_parameter_sized_temporaries():
    params = init_params(_alloc_guard_spec(), seed=0)
    assert params.flat.size >= 100_000
    opt = Adam(params.flat, lr=1e-3)
    grad = np.random.default_rng(0).normal(size=params.flat.shape).astype(np.float32)
    opt.step(grad)
    assert _traced_peak(lambda: opt.step(grad)) < params.flat.nbytes / 4


def test_gradients_zero_and_bind_allocate_no_parameter_sized_vector():
    spec = _alloc_guard_spec()
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(1, len(params.taps["audio"]), spec.audio_channels)
                       ).astype(np.float32)

    def step():                 # train's step: zero params.grad, then add into it
        params.grad.fill(-0.0)
        probs = forward(spec, params, audio=audio, training=True, rng=rng)
        loss_batch(probs, np.ones((1, 1), dtype=np.float32), LossSpec(),
                   exclusive=False).backward()

    step()
    assert _traced_peak(step) < params.flat.nbytes / 4
    assert np.count_nonzero(params.grad)


def test_upsample_reaches_half_majority():
    labels = np.zeros((100, 1))
    labels[:10, 0] = 1
    idx = upsample(labels, np.random.default_rng(0))
    assert np.array_equal(idx[:100], np.arange(100))     # originals kept in order
    assert np.all(labels[idx[100:], 0] == 1)             # only positives duplicated
    assert labels[idx, 0].sum() == 45                    # ceil(90 / 2)


def test_upsample_balanced_input_is_identity():
    labels = np.zeros((40, 1))
    labels[:20, 0] = 1
    idx = upsample(labels, np.random.default_rng(0))
    assert np.array_equal(idx, np.arange(40))


def test_upsample_skips_empty_label(caplog):
    labels = np.zeros((30, 2))
    labels[:15, 1] = 1
    with caplog.at_level("WARNING"):
        idx = upsample(labels, np.random.default_rng(0))
    assert np.array_equal(idx, np.arange(30))
    assert "no positive frames" in caplog.text


def test_upsample_deterministic_and_label_order():
    labels = np.zeros((60, 2))
    labels[:5, 0] = 1
    labels[10:18, 1] = 1
    a = upsample(labels, np.random.default_rng(7))
    b = upsample(labels, np.random.default_rng(7))
    c = upsample(labels, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a[:60], np.arange(60))
    # labels balance one at a time: after the label-0 pass the multiset holds
    # 60 + 23 entries with 28 positives, and the label-1 pass starts from it
    assert labels[a[60:83], 0].sum() == 23
    assert labels[a[:83], 0].sum() == 28          # ceil(55 / 2)
    n_pos_1 = labels[a[:83], 1].sum()
    target_1 = np.ceil((83 - n_pos_1) / 2)
    assert labels[a, 1].sum() == target_1
    assert np.all(labels[a[83:], 1] == 1)


def test_train_config_roundtrip():
    cfg = TrainConfig(steps=50, batch=16, lr=1e-3,
                      loss=LossSpec("focal", gamma=1.5), upsample=True, evals=2)
    assert from_fields(TrainConfig, asdict(cfg)) == cfg
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    # no eval point would give final_score 0.0; more evals than steps
    # would silently give fewer curve points
    for steps, evals in ((10, 0), (2, 4)):
        with pytest.raises(ValueError, match="evals"):
            TrainConfig(steps=steps, evals=evals)


class ArrayProvider:
    """Minimal in-memory provider for the training loop: audio holds 41
    frames of context per frame, which batches gather at the audio taps, as
    WindowProvider does."""

    def __init__(self, audio, labels, exclusive=False):
        self.audio = audio
        self.labels = labels
        self.exclusive = exclusive

    def batch(self, idx, taps):
        pos = np.clip(taps["audio"], 0, 40)
        return {"audio": self.audio[idx][:, pos] * (pos == taps["audio"])[:, None],
                "labels": self.labels[idx]}

    def labels_at(self, idx):
        return self.labels[idx]


def separable_provider(n=400, seed=0):
    rng = np.random.default_rng(seed)
    audio = rng.normal(size=(n, 41, 5)).astype(np.float32)
    labels = (audio[:, 20, 0] > 0).astype(np.float64)[:, None]
    return ArrayProvider(audio, labels)


def score_on(spec, provider, idx):
    """A validation scorer over the frames idx, as run_cv builds one."""
    batch = provider.batch(idx, input_taps(spec))

    def score(params):
        probs = predict_probs(spec, params, audio=batch["audio"])
        return evaluate_property(binarize(probs, False), batch["labels"], ["0"], False)
    return score


def small_model():
    return ModelSpec(head="sigmoid", n_labels=1,
                     audio=EncoderSpec(layers=1, channels=8, kernel=3, out_dim=8),
                     text=None, decoder=DecoderSpec(hidden=8, layers=1),
                     audio_channels=5, audio_frames=41)


def test_train_learns_separable_data():
    provider = separable_provider()
    idx = np.arange(400)
    cfg = TrainConfig(steps=300, batch=32, lr=1e-2, evals=5)
    spec = small_model()
    params, record = train(spec, provider, idx[:320], cfg, 1,
                           score_on(spec, provider, idx[320:]))
    assert not record.failed
    assert len(record.curve) == 5
    assert record.curve[-1][0] == 300
    assert record.final_score > 0.9


def test_train_loss_decreases_early():
    provider = separable_provider()
    idx = np.arange(400)
    cfg = TrainConfig(steps=150, batch=32, lr=5e-3, evals=5)
    spec = small_model()
    _, record = train(spec, provider, idx[:320], cfg, 1,
                      score_on(spec, provider, idx[320:]))
    # mean batch loss drops monotonically across the five early segments
    assert all(a > b for a, b in zip(record.loss_curve, record.loss_curve[1:]))


def test_train_deterministic_per_seed():
    provider = separable_provider()
    idx = np.arange(400)
    cfg = TrainConfig(steps=40, batch=16, lr=5e-3, evals=2)
    spec = small_model()
    score = score_on(spec, provider, idx[320:])
    p1, r1 = train(spec, provider, idx[:320], cfg, 3, score)
    p2, r2 = train(spec, provider, idx[:320], cfg, 3, score)
    p3, r3 = train(spec, provider, idx[:320], cfg, 4, score)
    assert r1.curve == r2.curve
    for k in p1.tensors:
        assert np.array_equal(p1.tensors[k], p2.tensors[k])
    assert any(not np.array_equal(p1.tensors[k], p3.tensors[k]) for k in p1.tensors)


def test_train_flags_divergence():
    provider = separable_provider(n=64)
    idx = np.arange(64)
    cfg = TrainConfig(steps=30, batch=16, lr=1e30, evals=1)
    spec = small_model()
    with np.errstate(over="ignore", invalid="ignore"):
        _, record = train(spec, provider, idx[:48], cfg, 0,
                          score_on(spec, provider, idx[48:]))
    assert record.failed


def test_diverged_run_reports_the_returned_weights():
    # diverges before the only eval point, so the report can only come
    # from scoring the returned weights after the loop
    provider = separable_provider(n=64)
    idx = np.arange(64)
    cfg = TrainConfig(steps=30, batch=16, lr=1e30, evals=1)
    spec = small_model()
    score = score_on(spec, provider, idx[48:])
    with np.errstate(over="ignore", invalid="ignore"):
        params, record = train(spec, provider, idx[:48], cfg, 0, score)
        assert record.failed and record.curve == []
        assert record.report == score(params)


@pytest.mark.parametrize("kind,warnings", [("class_balanced_focal", 1), ("cross_entropy", 0)])
def test_zero_positive_labels_warn_once_per_train(kind, warnings, caplog):
    # the counts are fixed per fold, so one warning covers every step
    rng = np.random.default_rng(0)
    audio = rng.normal(size=(40, 41, 5)).astype(np.float32)
    labels = np.zeros((40, 2))
    labels[:10, 1] = 1.0                 # label 0 has no positive frame
    provider = ArrayProvider(audio, labels)
    spec = ModelSpec(head="sigmoid", n_labels=2,
                     audio=EncoderSpec(layers=1, channels=4, out_dim=4), text=None,
                     decoder=DecoderSpec(hidden=4), audio_channels=5, audio_frames=41)
    cfg = TrainConfig(steps=5, batch=8, evals=1, loss=LossSpec(kind))
    with caplog.at_level("WARNING", logger="gestprop.training"):
        train(spec, provider, np.arange(40), cfg, 0, lambda params: PropertyReport({}, 0, False))
    hits = [r for r in caplog.records if "zero positives" in r.getMessage()]
    assert len(hits) == warnings


def test_training_step_builds_20_op_nodes():
    # criterion 7's model: both encoders at 2 conv layers, one decoder layer
    # and the presence head. Each layer is one node, and so is the loss.
    enc = EncoderSpec(layers=2, channels=32, out_dim=32)
    spec = ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=enc,
                     decoder=DecoderSpec(hidden=48))
    rng = np.random.default_rng(0)
    taps = input_taps(spec)
    probs = forward(spec, init_params(spec, seed=0),
                    audio=rng.normal(size=(4, len(taps["audio"]), spec.audio_channels)),
                    text=rng.normal(size=(4, len(taps["text"]), spec.text_dim)),
                    training=True, rng=rng)
    loss = loss_batch(probs, np.ones((4, 1)), LossSpec(), exclusive=False)
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    assert sum(1 for node in seen.values() if node._prev) == 20
    assert len(seen) == 38             # plus 2 inputs and 16 parameter tensors


def test_train_rejects_empty_pool():
    provider = separable_provider(n=16)
    with pytest.raises(ValueError, match="empty"):
        spec = small_model()
        train(spec, provider, np.array([], dtype=int), TrainConfig(steps=1, evals=1),
              0, score_on(spec, provider, np.arange(4)))

