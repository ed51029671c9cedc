"""Release acceptance suite: one test per shipping criterion.

Each test is self-contained (synthetic corpus generation included in its own
clock) and pins both the tolerance and the runtime budget it must meet, so a
plain `pytest -v` run of this module reads as a pass/fail line per criterion.
"""

import math
import time

import numpy as np

from gestprop import cli, gradcheck, synth
from gestprop import tensor as T
from gestprop.corpus import (
    CATEGORY,
    PHASE,
    PRESENCE,
    SEMANTICS,
    AnnotationTier,
    Recording,
    build_frame_table,
    encode_labels,
    load_manifest,
    make_folds_between,
    make_folds_within,
    rasterize,
)
from gestprop.evaluation import (
    ConfusionCounts,
    baseline_predict,
    compute_priors,
    evaluate_property,
    f1_scores,
)
from gestprop.experiment import ExperimentConfig, run_baselines, run_cv, run_features
from gestprop.features import load_dataset
from gestprop.prosody import (
    AudioClip,
    ProsodyTrack,
    downsample_by_mean,
    estimate_f0,
    extract_prosody,
    transform_energy,
    transform_pitch,
)
from gestprop.tensor import Tensor
from gestprop.training import LossSpec, TrainConfig, loss_batch
from autodiff_reference import weighted_sum

SCHEMA_CYCLE = (PHASE, CATEGORY, SEMANTICS, PRESENCE)


# ------------------------------------------------------------- shared helpers

def _naive_scores(tp, fp, fn, tn):
    """Scalar precision/recall/F1 pair from first principles, zero-safe."""
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    prec_n = tn / (tn + fn) if tn + fn else 0.0
    rec_n = tn / (tn + fp) if tn + fp else 0.0
    f1_neg = 2 * prec_n * rec_n / (prec_n + rec_n) if prec_n + rec_n else 0.0
    return prec, rec, f1, f1_neg, (f1 + f1_neg) / 2.0


def _config(corpus, out, **kw):
    out.mkdir(parents=True, exist_ok=True)
    return ExperimentConfig(
        manifest=str(corpus / "manifest.json"),
        embeddings=str(corpus / "vectors.txt"),
        out_dir=str(out),
        features_dir=str(corpus / "features"),
        **kw,
    )


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_metrics_match_naive_recount():
    t0 = time.monotonic()
    rng = np.random.default_rng(9001)
    worst = 0.0
    for i in range(1000):
        schema = SCHEMA_CYCLE[i % len(SCHEMA_CYCLE)]
        n = int(rng.integers(1, 501))
        n_labels = schema.n_labels
        if schema.exclusive:
            pred = np.zeros((n, n_labels), dtype=np.uint8)
            pred[np.arange(n), rng.integers(0, n_labels, n)] = 1
            pred[rng.random(n) < 0.2] = 0
            target = np.zeros((n, n_labels), dtype=np.uint8)
            target[np.arange(n), rng.integers(0, n_labels, n)] = 1
            target[rng.random(n) < 0.2] = 0
        else:
            pred = (rng.random((n, n_labels)) < 0.3).astype(np.uint8)
            target = (rng.random((n, n_labels)) < 0.3).astype(np.uint8)
        has_g = rng.random(n) < 0.7
        all_frames = i % 3 == 0
        rep = evaluate_property(pred, target, schema.labels, schema.exclusive,
                                has_gesture=has_g, eval_on_all_frames=all_frames)
        keep = np.ones(n, dtype=bool) if all_frames else has_g
        p_kept, t_kept = pred[keep], target[keep]
        assert rep.n_frames == len(p_kept)
        for j, name in enumerate(schema.labels):
            tp = fp = fn = tn = 0
            for a, b in zip(p_kept[:, j].tolist(), t_kept[:, j].tolist()):
                if a:
                    tp += b
                    fp += 1 - b
                else:
                    fn += b
                    tn += 1 - b
            expected = _naive_scores(tp, fp, fn, tn)
            got = rep.labels[name]
            assert (got.counts.tp, got.counts.fp, got.counts.fn, got.counts.tn) \
                == (tp, fp, fn, tn)
            direct = f1_scores(ConfusionCounts(tp, fp, fn, tn))
            for k, (e, g, d) in enumerate(zip(
                    expected,
                    (got.precision, got.recall, got.f1, got.f1_neg, got.macro_f1),
                    (direct.precision, direct.recall, direct.f1, direct.f1_neg,
                     direct.macro_f1))):
                worst = max(worst, abs(g - e), abs(d - e))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12, f"max metric deviation {worst:.3g}"
    assert elapsed < 10.0, f"recount comparison took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_constant_baseline_closed_forms():
    n, p = 10000, 0.13
    target = np.zeros((n, 1), dtype=np.int64)
    target[: int(round(n * p)), 0] = 1

    zeros = baseline_predict("always_zero", n, 1, exclusive=False)
    rep = evaluate_property(zeros, target, PRESENCE.labels, False,
                            eval_on_all_frames=True)
    expected = (1.0 - p) / (2.0 - p)
    got = rep.labels["gesture"].macro_f1
    assert abs(got - expected) < 1e-9, f"always-zero macro-F1 {got} != {expected}"

    ones = baseline_predict("always_one", n, 1, exclusive=False)
    rep = evaluate_property(ones, target, PRESENCE.labels, False,
                            eval_on_all_frames=True)
    assert rep.labels["gesture"].recall == 1.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_informed_random_tracks_priors():
    t0 = time.monotonic()
    rng = np.random.default_rng(314)
    n = 100_000
    for p in (0.05, 0.13, 0.41):
        target = np.zeros((n, 1), dtype=np.int64)
        target[: int(round(n * p)), 0] = 1
        priors = compute_priors(target)
        pred = baseline_predict("informed_random", n, 1, exclusive=False,
                                priors=priors, rng=rng)
        rep = evaluate_property(pred, target, ("one",), False,
                                eval_on_all_frames=True)
        f1 = rep.labels["one"].f1
        assert abs(f1 - p) < 0.02, f"informed-random F1 {f1:.4f} at prior {p}"

    # uneven exclusive mix: per-label F1 should land on each relative frequency
    freqs = (0.45, 0.25, 0.15, 0.10, 0.05)
    counts = [int(round(f * n)) for f in freqs]
    counts[0] += n - sum(counts)
    target = np.zeros((n, len(freqs)), dtype=np.int64)
    lo = 0
    for j, c in enumerate(counts):
        target[lo:lo + c, j] = 1
        lo += c
    priors = compute_priors(target)
    pred = baseline_predict("informed_random", n, len(freqs), exclusive=True,
                            priors=priors, rng=rng)
    rep = evaluate_property(pred, target, PHASE.labels, True,
                            eval_on_all_frames=True)
    for name, freq in zip(PHASE.labels, freqs):
        f1 = rep.labels[name].f1
        assert abs(f1 - freq) < 0.02, f"{name}: F1 {f1:.4f} vs frequency {freq}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"baseline sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_gradient_checks():
    t0 = time.monotonic()
    eps = 1e-5
    rng = np.random.default_rng(20240801)
    errors = {}

    def wsum(y, seed=7):
        return weighted_sum(y, np.random.default_rng(seed).normal(size=y.data.shape))

    def fd_case(name, build, *arrays):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        build(*tensors).backward()
        err = 0.0
        for tns, arr in zip(tensors, arrays):
            analytic = tns.grad if tns.grad is not None else np.zeros_like(arr)
            numeric = gradcheck.numeric_grad(
                lambda: build(*(Tensor(x) for x in arrays)).item(), arr, eps)
            err = max(err, gradcheck.relative_error(analytic, numeric))
        errors[name] = err

    x3 = rng.normal(size=(2, 9, 3))
    wc = 0.5 * rng.normal(size=(3, 3, 4))
    bc = 0.1 * rng.normal(size=4)
    fd_case("conv", lambda x, w, b: wsum(T.conv1d_dilated(x, w, b, dilation=2)),
            x3, wc, bc)

    xd = rng.normal(size=(4, 6))
    wd = rng.normal(size=(6, 5))
    bd = rng.normal(size=5)
    fd_case("dense", lambda x, w, b: wsum(T.linear(x, w, b)), xd, wd, bd)

    act = rng.normal(size=(5, 7))
    act[np.abs(act) < 0.05] = 0.3    # keep finite differences off the relu kink
    fd_case("relu", lambda x: wsum(T.relu(x)), act)
    fd_case("sigmoid", lambda x: wsum(T.sigmoid(x)), act)
    fd_case("softmax", lambda x: wsum(T.softmax(x)), act)
    fd_case("dropout", lambda x: wsum(
        T.dropout(x, 0.4, np.random.default_rng(11), training=True)), act)

    pool = rng.normal(size=(3, 9, 4))
    fd_case("pool_center", lambda x: wsum(T.select_time(x, 4)), pool)

    logits = rng.normal(size=(6, 4))
    multi = (rng.random((6, 4)) < 0.4).astype(np.float64)
    onehot = np.zeros((6, 4))
    onehot[np.arange(6), rng.integers(0, 4, 6)] = 1.0
    for loss in (LossSpec("cross_entropy"), LossSpec("focal", gamma=2.0),
                 LossSpec("class_balanced_focal", gamma=2.0, beta=0.99)):
        fd_case(f"loss_sigmoid_{loss.kind}",
                lambda x, s=loss: loss_batch(T.sigmoid(x), multi, s, False,
                                             multi.sum(axis=0) + 1.0), logits)
        fd_case(f"loss_softmax_{loss.kind}",
                lambda x, s=loss: loss_batch(T.softmax(x), onehot, s, True,
                                             onehot.sum(axis=0) + 1.0), logits)

    full = gradcheck.run_gradcheck(seed=0, eps=eps)
    assert full["passed"]
    for key, err in full["cases"].items():
        errors[f"model_{key}"] = err

    worst = max(errors.values())
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"max relative error {worst:.3e} in {errors}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_text_predicts_semantics(tmp_path):
    t0 = time.monotonic()
    corpus = tmp_path / "corpus"
    synth.generate_synthetic_corpus(synth.preset("text_coupling"), seed=101,
                                    out_dir=corpus)
    shared = dict(prop="semantics", cv="within", folds=5, seed=1)
    model = {"enc_layers": 2, "enc_channels": 32, "enc_out": 32, "dec_hidden": 48}
    built, failures = run_features(
        _config(corpus, tmp_path / "feat", modality="text", **shared))
    assert not failures

    text = run_cv(_config(
        corpus, tmp_path / "text", modality="text", model=model,
        train=TrainConfig(steps=1200, batch=64, lr=3e-3, evals=4, upsample=True),
        **shared), write_checkpoints=False)
    audio = run_cv(_config(
        corpus, tmp_path / "audio", modality="audio", model=model,
        train=TrainConfig(steps=800, batch=64, lr=2e-3, evals=4, upsample=True),
        **shared), write_checkpoints=False)

    text_f1 = text["aggregate"]["headline"]["mean"]
    audio_f1 = audio["aggregate"]["headline"]["mean"]
    elapsed = time.monotonic() - t0
    assert text_f1 >= 0.90, f"text semantics macro-F1 {text_f1:.4f} < 0.90"
    assert audio_f1 <= 0.55, f"audio semantics macro-F1 {audio_f1:.4f} > 0.55"
    assert elapsed < 300.0, f"text-coupling run took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_audio_predicts_stroke(tmp_path):
    t0 = time.monotonic()
    corpus = tmp_path / "corpus"
    synth.generate_synthetic_corpus(synth.preset("audio_coupling"), seed=202,
                                    out_dir=corpus)
    shared = dict(prop="phase", cv="within", folds=5, seed=2)
    model = {"enc_layers": 2, "enc_channels": 32, "enc_out": 32, "dec_hidden": 48}
    train = TrainConfig(steps=1200, batch=64, lr=3e-3, evals=4, upsample=True)
    built, failures = run_features(
        _config(corpus, tmp_path / "feat", modality="audio", **shared))
    assert not failures

    bl = run_baselines(_config(corpus, tmp_path / "bl", modality="audio", **shared))
    informed = bl["baselines"]["informed_random"]["labels"]["stroke"]["f1"]["mean"]
    audio = run_cv(_config(corpus, tmp_path / "audio", modality="audio",
                           model=model, train=train, **shared),
                   write_checkpoints=False)
    text = run_cv(_config(corpus, tmp_path / "text", modality="text",
                          model=model, train=train, **shared),
                  write_checkpoints=False)

    audio_stroke = audio["aggregate"]["labels"]["stroke"]["f1"]["mean"]
    text_stroke = text["aggregate"]["labels"]["stroke"]["f1"]["mean"]
    elapsed = time.monotonic() - t0
    assert audio_stroke >= informed + 0.15, \
        f"audio stroke F1 {audio_stroke:.4f} vs informed {informed:.4f}"
    assert abs(text_stroke - informed) <= 0.05, \
        f"text stroke F1 {text_stroke:.4f} vs informed {informed:.4f}"
    assert elapsed < 300.0, f"audio-coupling run took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_both_modalities_beat_baselines(tmp_path):
    t0 = time.monotonic()
    corpus = tmp_path / "corpus"
    synth.generate_synthetic_corpus(synth.preset("combined"), seed=303,
                                    out_dir=corpus)
    shared = dict(prop="presence", cv="within", folds=5, seed=3)
    model = {"enc_layers": 2, "enc_channels": 32, "enc_out": 32, "dec_hidden": 48}
    built, failures = run_features(
        _config(corpus, tmp_path / "feat", modality="both", **shared))
    assert not failures

    bl = run_baselines(_config(corpus, tmp_path / "bl", modality="both", **shared))
    assert len(bl["baselines"]) == 4
    rep = run_cv(_config(corpus, tmp_path / "model", modality="both", model=model,
                         train=TrainConfig(steps=800, batch=64, lr=2e-3, evals=4),
                         **shared), write_checkpoints=False)

    headline = rep["aggregate"]["headline"]["mean"]
    elapsed = time.monotonic() - t0
    for kind, agg in bl["baselines"].items():
        floor = agg["headline"]["mean"] + 0.10
        assert headline >= floor, \
            f"presence macro-F1 {headline:.4f} under {kind} floor {floor:.4f}"
    assert elapsed < 300.0, f"combined run took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_prosody_goldens():
    assert transform_pitch(math.e ** 4 - 1) == 0.0
    assert transform_energy(math.e ** 3) == 0.0

    sr = 16000
    t = np.arange(int(0.5 * sr)) / sr
    clip = AudioClip(samples=0.4 * np.sin(2 * np.pi * 220.0 * t), sample_rate=sr)
    for start in (0, 1600, 6400):
        f0 = estimate_f0(clip.samples[start:start + 640], sr)
        assert f0 is not None
        assert abs(f0 - 220.0) <= 0.03 * 220.0, f"window at {start}: {f0:.2f} Hz"
    # full pipeline agrees once the log transform is inverted
    track = extract_prosody(clip)
    voiced = track.rows[:, 0] == 1.0
    assert voiced.sum() >= 5
    f0_hat = np.exp(track.rows[voiced, 1] + 4.0) - 1.0
    assert np.all(np.abs(f0_hat - 220.0) <= 0.03 * 220.0)

    rng = np.random.default_rng(77)
    rows = rng.normal(size=(203, 5))
    down = downsample_by_mean(ProsodyTrack(fps=200, rows=rows), factor=10)
    oracle = np.array([rows[lo:lo + 10].mean(axis=0)
                       for lo in range(0, len(rows), 10)])
    assert down.fps == 20
    assert down.rows.shape == oracle.shape
    assert np.max(np.abs(down.rows - oracle)) < 1e-12


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_label_encoding_invariants():
    assert encode_labels("beat-iconic", CATEGORY).tolist() == [0, 1, 1, 0]

    rng = np.random.default_rng(4242)
    schemas = {"phase": PHASE, "category": CATEGORY, "semantics": SEMANTICS}
    for trial in range(1000):
        n = int(rng.integers(10, 81))
        dur = n / 20.0
        tiers = []
        for name, schema in schemas.items():
            intervals = []
            cursor = 0.0
            while cursor < dur - 0.1:
                seg = float(rng.uniform(0.05, 0.8))
                if rng.random() < 0.75:
                    picks = rng.choice(schema.labels,
                                       size=1 if schema.exclusive else rng.integers(1, 3),
                                       replace=False)
                    label = "-".join(picks)
                else:
                    label = ""
                intervals.append((cursor, min(cursor + seg, dur), label))
                cursor += seg + float(rng.uniform(0.0, 0.4))
            # a few overlapping intervals to exercise precedence resolution
            for _ in range(int(rng.integers(0, 3))):
                a = float(rng.uniform(0.0, dur - 0.05))
                b = min(dur, a + float(rng.uniform(0.05, 0.5)))
                intervals.append((a, b, str(rng.choice(schema.labels))))
            tiers.append(AnnotationTier(name, intervals))
        rec = Recording(rec_id=trial, speaker="s0", tiers=tiers)

        phase = rasterize(rec, PHASE, n)
        sums = phase.sum(axis=1)
        assert ((sums == 0) | (sums == 1)).all(), f"trial {trial}: phase not one-hot"

        table = build_frame_table(rec, duration=dur)
        expected = (table.phase.any(axis=1) | table.category.any(axis=1)
                    | table.semantics.any(axis=1))
        assert np.array_equal(table.has_gesture.astype(bool), expected)


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism_and_fold_partitions(tmp_path):
    corpus = tmp_path / "corpus"
    out = tmp_path / "run"
    spec = synth.SynthSpec(name="tiny", n_speakers=2, duration=15.0)
    synth.generate_synthetic_corpus(spec, seed=11, out_dir=corpus)
    common = ["--manifest", str(corpus / "manifest.json"),
              "--embeddings", str(corpus / "vectors.txt"), "--out", str(out)]
    assert cli.main(["features"] + common) == 0

    eval_args = (["eval"] + common +
                 ["--property", "presence", "--modality", "audio",
                  "--cv", "within", "--folds", "2", "--steps", "12",
                  "--batch", "16", "--evals", "2", "--seed", "5"])
    assert cli.main(eval_args) == 0
    first = (out / "report.json").read_bytes()
    assert cli.main(eval_args) == 0
    second = (out / "report.json").read_bytes()
    assert first == second, "same config and seed must give identical reports"

    # frames, eligibility and window extents as the folds read them
    ds = load_dataset(load_manifest(corpus / "manifest.json"), out / "features",
                      corpus / "vectors.txt")
    rec_ids, starts = np.unique(ds.rec_ids, return_index=True)
    assert rec_ids.tolist() == [0, 1]
    offsets = np.append(starts, ds.n_frames)

    plan = make_folds_within(ds, k=5)
    eligible = np.flatnonzero(ds.eligible)
    assert np.array_equal(np.sort(np.concatenate(plan.val)), eligible)
    for train_idx, val_idx in zip(plan.train, plan.val):
        assert not np.intersect1d(train_idx, val_idx).size
        assert np.isin(train_idx, eligible).all()
        # training windows must never read a validation frame's time span
        for row in range(len(rec_ids)):
            lo, hi = offsets[row], offsets[row + 1]
            tr = train_idx[(train_idx >= lo) & (train_idx < hi)]
            va = val_idx[(val_idx >= lo) & (val_idx < hi)]
            if not tr.size or not va.size:
                continue
            overlap = ((ds.win_lo[tr][:, None] <= ds.t[va][None, :] + 1e-9)
                       & (ds.win_hi[tr][:, None] >= ds.t[va][None, :] - 1e-9))
            assert not overlap.any()

    plan_b = make_folds_between(ds)
    speakers = ds.speakers[starts]
    for train_idx, val_idx in zip(plan_b.train, plan_b.val):
        val_rows = np.searchsorted(offsets, val_idx, side="right") - 1
        train_rows = np.searchsorted(offsets, train_idx, side="right") - 1
        held_out = set(speakers[val_rows])
        assert len(held_out) == 1
        assert held_out.isdisjoint(speakers[train_rows])
        # the held-out speaker's eligible frames appear exactly once
        speaker_mask = np.isin(
            np.searchsorted(offsets, eligible, side="right") - 1,
            np.flatnonzero(speakers == next(iter(held_out))))
        assert np.array_equal(np.sort(val_idx), eligible[speaker_mask])
