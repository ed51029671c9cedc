"""Scores, baselines, and fold aggregation."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from gestprop.evaluation import (BASELINE_KINDS, PREDICTABLE_MARGIN, ConfusionCounts,
                                 LabelScores, aggregate_folds, baseline_predict, binarize,
                                 compute_priors, evaluate_property,
                                 f1_scores, flag_predictable, write_atomic,
                                 write_json, write_predictions_csv, write_scores_csv)


def test_confusion_counts():
    pred = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    target = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    c = ConfusionCounts.from_binary(pred, target)
    assert (c.tp, c.fp, c.fn, c.tn) == (3, 2, 1, 6)
    with pytest.raises(ValueError, match="shape"):
        ConfusionCounts.from_binary(pred, target[:5])


def test_f1_hand_computed_fixture():
    s = f1_scores(ConfusionCounts(tp=3, fp=2, fn=1, tn=6))
    assert s.precision == pytest.approx(0.6)
    assert s.recall == pytest.approx(0.75)
    assert s.f1 == pytest.approx(2 / 3)
    assert s.f1_neg == pytest.approx(0.8)
    assert s.macro_f1 == pytest.approx(11 / 15)
    assert s.support == 4


def test_f1_zero_denominators_are_zero():
    s = f1_scores(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
    assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0
    assert s.f1_neg == 1.0
    assert s.macro_f1 == 0.5
    empty = f1_scores(ConfusionCounts(0, 0, 0, 0))
    assert empty.f1 == 0.0 and empty.f1_neg == 0.0 and empty.macro_f1 == 0.0


def test_binarize_threshold_and_argmax():
    probs = np.array([[0.5, 0.49], [0.1, 0.9]])
    assert np.array_equal(binarize(probs, exclusive=False),
                          [[1, 0], [0, 1]])          # threshold is inclusive
    exc = binarize(np.array([[0.4, 0.4, 0.2], [0.1, 0.2, 0.7]]), exclusive=True)
    assert np.array_equal(exc, [[1, 0, 0], [0, 0, 1]])   # ties pick lowest index
    assert np.all(exc.sum(axis=1) == 1)
    with pytest.raises(ValueError, match="frames, labels"):
        binarize(np.zeros(4), exclusive=False)


def test_evaluate_property_gesture_restriction():
    pred = np.array([[1], [1], [0], [0]])
    target = np.array([[1], [0], [1], [0]])
    has_gesture = np.array([1, 1, 0, 0], dtype=bool)
    masked = evaluate_property(pred, target, ["x"], False, has_gesture=has_gesture)
    assert masked.n_frames == 2
    assert masked.labels["x"].counts == ConfusionCounts(1, 1, 0, 0)
    full = evaluate_property(pred, target, ["x"], False, has_gesture=has_gesture,
                             eval_on_all_frames=True)
    assert full.n_frames == 4
    assert full.labels["x"].counts == ConfusionCounts(1, 1, 1, 1)


def test_headline_definition():
    pred = np.array([[1, 0], [0, 1], [1, 1]])
    target = np.array([[1, 0], [1, 1], [1, 0]])
    rep = evaluate_property(pred, target, ["a", "b"], False)
    vals = [rep.labels[n].macro_f1 for n in ("a", "b")]
    assert rep.headline() == pytest.approx(np.mean(vals))
    exc = evaluate_property(pred, target, ["a", "b"], True)
    vals = [exc.labels[n].f1 for n in ("a", "b")]
    assert exc.headline() == pytest.approx(np.mean(vals))


def test_recount_oracle_many_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, L = int(rng.integers(5, 60)), int(rng.integers(1, 5))
        pred = rng.integers(0, 2, (n, L))
        target = rng.integers(0, 2, (n, L))
        rep = evaluate_property(pred, target, [f"l{i}" for i in range(L)], False)
        for i in range(L):
            tp = fp = fn = tn = 0
            for f in range(n):
                if pred[f, i] and target[f, i]:
                    tp += 1
                elif pred[f, i]:
                    fp += 1
                elif target[f, i]:
                    fn += 1
                else:
                    tn += 1
            s = rep.labels[f"l{i}"]
            p = tp / (tp + fp) if tp + fp else 0
            r = tp / (tp + fn) if tp + fn else 0
            assert s.precision == pytest.approx(p, abs=1e-12)
            assert s.recall == pytest.approx(r, abs=1e-12)
            f1 = 2 * p * r / (p + r) if p + r else 0
            assert s.f1 == pytest.approx(f1, abs=1e-12)


# ------------------------------------------------------------------ baselines

def test_always_zero_closed_form():
    n = 10000
    target = np.zeros((n, 1), dtype=np.int8)
    target[:1300] = 1                                    # prior exactly 0.13
    pred = baseline_predict("always_zero", n, 1, exclusive=False)
    rep = evaluate_property(pred, target, ["x"], False)
    assert rep.labels["x"].macro_f1 == pytest.approx(0.87 / 1.87, abs=1e-12)
    assert rep.labels["x"].macro_f1 == pytest.approx(0.4652406417112299, abs=1e-9)


def test_always_one_recall_is_one():
    n = 200
    target = np.zeros((n, 2), dtype=np.int8)
    target[:30, 0] = 1
    target[:80, 1] = 1
    pred = baseline_predict("always_one", n, 2, exclusive=False)
    rep = evaluate_property(pred, target, ["a", "b"], False)
    for name, p in (("a", 0.15), ("b", 0.4)):
        s = rep.labels[name]
        assert s.recall == 1.0
        assert s.precision == pytest.approx(p)
        assert s.f1 == pytest.approx(2 * p / (1 + p))
        assert s.f1_neg == 0.0


def test_constant_baselines_reject_exclusive():
    for kind in ("always_zero", "always_one"):
        with pytest.raises(ValueError, match="exclusive"):
            baseline_predict(kind, 10, 5, exclusive=True)


def test_uniform_random_baseline():
    rng = np.random.default_rng(0)
    pred = baseline_predict("uniform_random", 4000, 3, exclusive=False, rng=rng)
    assert pred.shape == (4000, 3)
    assert abs(pred.mean() - 0.5) < 0.03
    exc = baseline_predict("uniform_random", 4000, 5, exclusive=True, rng=rng)
    assert np.all(exc.sum(axis=1) == 1)
    assert abs(exc[:, 0].mean() - 0.2) < 0.03


def test_informed_random_tracks_priors():
    rng = np.random.default_rng(1)
    n = 100000
    priors = np.array([0.05, 0.13, 0.41])
    pred = baseline_predict("informed_random", n, 3, exclusive=False,
                            priors=priors, rng=rng)
    assert np.all(np.abs(pred.mean(axis=0) - priors) < 0.01)
    target = (rng.random((n, 3)) < priors).astype(np.int8)
    rep = evaluate_property(pred, target, ["a", "b", "c"], False)
    for name, p in zip(("a", "b", "c"), priors):
        assert abs(rep.labels[name].f1 - p) < 0.02


def test_informed_random_exclusive_leaves_mass_for_none():
    rng = np.random.default_rng(2)
    priors = np.array([0.2, 0.1, 0.05])        # sums to 0.35
    pred = baseline_predict("informed_random", 50000, 3, exclusive=True,
                            priors=priors, rng=rng)
    sums = pred.sum(axis=1)
    assert set(np.unique(sums)) <= {0, 1}
    assert abs((sums == 0).mean() - 0.65) < 0.01
    assert np.all(np.abs(pred.mean(axis=0) - priors) < 0.01)
    with pytest.raises(ValueError, match="sum"):
        baseline_predict("informed_random", 10, 2, exclusive=True,
                         priors=np.array([0.8, 0.7]), rng=rng)


def test_baseline_validation():
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_predict("coin", 5, 2, exclusive=False)
    with pytest.raises(ValueError, match="rng"):
        baseline_predict("uniform_random", 5, 2, exclusive=False)
    with pytest.raises(ValueError, match="priors"):
        baseline_predict("informed_random", 5, 2, exclusive=False,
                         rng=np.random.default_rng(0))
    assert sorted(BASELINE_KINDS) == ["always_one", "always_zero",
                                      "informed_random", "uniform_random"]


def test_compute_priors():
    labels = np.array([[1, 0], [1, 0], [0, 0], [1, 1]])
    assert np.allclose(compute_priors(labels), [0.75, 0.25])
    with pytest.raises(ValueError, match="nonempty"):
        compute_priors(np.zeros((0, 2)))


# ------------------------------------------------------------------ aggregation

def fold_report(pred, target):
    return evaluate_property(np.asarray(pred), np.asarray(target), ["x"], False)


def test_aggregate_folds_mean_and_population_std():
    r1 = fold_report([[1], [0], [1], [0]], [[1], [0], [1], [0]])   # perfect
    r2 = fold_report([[1], [1], [0], [0]], [[1], [0], [1], [0]])   # half right
    agg = aggregate_folds([r1, r2])
    f1s = [r1.labels["x"].f1, r2.labels["x"].f1]
    assert agg["labels"]["x"]["f1"]["mean"] == pytest.approx(np.mean(f1s))
    assert agg["labels"]["x"]["f1"]["std"] == pytest.approx(np.std(f1s))  # ddof=0
    assert agg["n_folds"] == 2
    assert agg["per_fold"] == [r1.headline(), r2.headline()]
    assert agg["labels"]["x"]["support"] == 4
    with pytest.raises(ValueError, match="no fold"):
        aggregate_folds([])


def test_flag_predictable_margin():
    assert PREDICTABLE_MARGIN == 0.10
    baselines = {"always_zero": 0.45, "informed_random": 0.52}
    assert flag_predictable(0.63, baselines)
    assert not flag_predictable(0.61, baselines)
    assert flag_predictable(0.62, baselines)   # boundary inclusive


def test_write_json_canonical(tmp_path):
    path = tmp_path / "report.json"
    write_json(str(path), {"b": 2, "a": {"z": 1, "y": [1, 2]}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 2, "a": {"z": 1, "y": [1, 2]}}
    write_json(str(path), {"b": 2, "a": {"y": [1, 2], "z": 1}})
    assert path.read_text() == text                     # byte identical
    with pytest.raises(ValueError):
        write_json(str(path), {"x": float("nan")})


def test_write_atomic_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("old\n")

    def fail(tmp):
        Path(tmp).write_text("partial")
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, fail)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]

    write_atomic(path, lambda tmp: Path(tmp).write_text("new\n"))
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask    # as open() would create it


def test_write_scores_csv(tmp_path):
    agg = aggregate_folds([fold_report([[1], [0]], [[1], [0]])])
    path = tmp_path / "scores.csv"
    write_scores_csv(str(path), agg)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,metric,mean,std"
    assert len(lines) == 6                              # header + 5 metrics
    assert lines[3].startswith("x,f1,1,")


def test_write_predictions_csv(tmp_path):
    t = np.array([0.0, 0.05])
    probs = np.array([[0.9, 0.2], [0.1, 0.6]])
    dec = (probs >= 0.5).astype(int)
    truth = np.array([[1, 0], [0, 0]])
    path = tmp_path / "trace.csv"
    write_predictions_csv(str(path), t, ["stroke", "beat"], probs, dec, truth)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,label,prob,decision,truth"
    assert lines[1] == "0,stroke,0.9,1,1"
    assert lines[4] == "0.05,beat,0.6,1,0"
    assert len(lines) == 5
    with pytest.raises(ValueError, match="align"):
        write_predictions_csv(str(path), t, ["stroke"], probs, dec, truth)
