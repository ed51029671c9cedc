"""Scoring: per-label F1, Macro-F1, chance baselines, fold aggregation.

All scores treat one label as a binary task. Zero-denominator precision,
recall, or F1 is defined as 0. Macro-F1 for a label is the mean of the F1
of the positive task and the F1 of the negated task; for a label no model
ever predicts, this degrades gracefully instead of dividing by zero.

Property scores are computed on gesture-present frames only, unless the
caller asks for all frames (the right choice for gesture presence itself).
Exclusive schemas are scored one-vs-rest after an argmax; ties pick the
lowest label index.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASELINE_KINDS = ("always_zero", "always_one", "uniform_random", "informed_random")
# a label is predictable when the model's mean macro-F1 clears every
# baseline's by this much
PREDICTABLE_MARGIN = 0.10


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_binary(cls, pred: np.ndarray, target: np.ndarray) -> "ConfusionCounts":
        pred = np.asarray(pred).astype(bool)
        target = np.asarray(target).astype(bool)
        if pred.shape != target.shape:
            raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
        return cls(tp=int((pred & target).sum()),
                   fp=int((pred & ~target).sum()),
                   fn=int((~pred & target).sum()),
                   tn=int((~pred & ~target).sum()))


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class LabelScores:
    precision: float
    recall: float
    f1: float
    f1_neg: float
    macro_f1: float
    support: int
    counts: ConfusionCounts


def f1_scores(counts: ConfusionCounts) -> LabelScores:
    precision, recall, f1 = _prf(counts.tp, counts.fp, counts.fn)
    _, _, f1_neg = _prf(counts.tn, counts.fn, counts.fp)
    return LabelScores(precision=precision, recall=recall, f1=f1, f1_neg=f1_neg,
                       macro_f1=(f1 + f1_neg) / 2.0,
                       support=counts.tp + counts.fn, counts=counts)


def binarize(probs: np.ndarray, exclusive: bool, threshold: float = 0.5) -> np.ndarray:
    """Probabilities -> 0/1 predictions (argmax one-hot for exclusive heads)."""
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"probs must be (frames, labels), got shape {probs.shape}")
    if exclusive:
        out = np.zeros(probs.shape, dtype=np.int8)
        out[np.arange(len(probs)), np.argmax(probs, axis=1)] = 1
        return out
    return (probs >= threshold).astype(np.int8)


@dataclass(frozen=True)
class PropertyReport:
    labels: dict            # name -> LabelScores
    n_frames: int
    exclusive: bool

    def headline(self) -> float:
        vals = [s.f1 if self.exclusive else s.macro_f1 for s in self.labels.values()]
        return float(np.mean(vals)) if vals else 0.0


def evaluate_property(pred: np.ndarray, target: np.ndarray, label_names,
                      exclusive: bool, has_gesture: np.ndarray | None = None,
                      eval_on_all_frames: bool = False) -> PropertyReport:
    """Score binary predictions against targets, one row per frame."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.shape[1] != len(label_names):
        raise ValueError(f"{pred.shape[1]} columns for {len(label_names)} labels")
    if has_gesture is not None and not eval_on_all_frames:
        mask = np.asarray(has_gesture).astype(bool)
        pred, target = pred[mask], target[mask]
    scores = {
        name: f1_scores(ConfusionCounts.from_binary(pred[:, i], target[:, i]))
        for i, name in enumerate(label_names)
    }
    return PropertyReport(labels=scores, n_frames=len(pred), exclusive=exclusive)


# ------------------------------------------------------------------ baselines

def compute_priors(labels: np.ndarray) -> np.ndarray:
    """Per-label positive rate over the given frames."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or len(labels) == 0:
        raise ValueError(f"labels must be a nonempty (frames, labels) array, got {labels.shape}")
    return labels.mean(axis=0)


def baseline_predict(kind: str, n_frames: int, n_labels: int, exclusive: bool,
                     priors: np.ndarray | None = None,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Binary predictions for one chance baseline.

    always_zero / always_one emit a constant per label and are undefined for
    exclusive schemas (a constant all-zero or all-one row is not a valid
    one-hot choice). uniform_random flips a fair coin per label, or picks a
    label uniformly when exclusive. informed_random matches training priors;
    for exclusive schemas the leftover mass emits an all-zero row.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}; choose from {BASELINE_KINDS}")
    if kind in ("always_zero", "always_one"):
        if exclusive:
            raise ValueError(f"{kind} baseline is undefined for an exclusive schema")
        value = 0 if kind == "always_zero" else 1
        return np.full((n_frames, n_labels), value, dtype=np.int8)
    if rng is None:
        raise ValueError(f"{kind} baseline needs an rng")
    if kind == "uniform_random":
        if exclusive:
            out = np.zeros((n_frames, n_labels), dtype=np.int8)
            out[np.arange(n_frames), rng.integers(0, n_labels, size=n_frames)] = 1
            return out
        return rng.integers(0, 2, size=(n_frames, n_labels)).astype(np.int8)
    # informed_random
    if priors is None:
        raise ValueError("informed_random baseline needs priors")
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (n_labels,):
        raise ValueError(f"priors shape {priors.shape} != ({n_labels},)")
    if exclusive:
        total = priors.sum()
        if total > 1.0 + 1e-9:
            raise ValueError(f"exclusive priors sum to {total:.6f} > 1")
        cum = np.cumsum(priors)
        idx = np.searchsorted(cum, rng.random(n_frames), side="right")
        out = np.zeros((n_frames, n_labels), dtype=np.int8)
        hit = idx < n_labels
        out[np.flatnonzero(hit), idx[hit]] = 1
        return out
    return (rng.random((n_frames, n_labels)) < priors).astype(np.int8)


# ------------------------------------------------------------------ aggregation

def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def aggregate_folds(reports: list[PropertyReport]) -> dict:
    """Mean and population std of every metric across folds."""
    if not reports:
        raise ValueError("no fold reports to aggregate")
    exclusive = reports[0].exclusive
    names = list(reports[0].labels)
    for r in reports[1:]:
        if list(r.labels) != names or r.exclusive != exclusive:
            raise ValueError("fold reports disagree on labels or schema kind")
    metrics = ("precision", "recall", "f1", "f1_neg", "macro_f1")
    labels = {
        name: {m: _mean_std([getattr(r.labels[name], m) for r in reports])
               for m in metrics}
        for name in names
    }
    for name in names:
        labels[name]["support"] = int(sum(r.labels[name].support for r in reports))
    per_fold = [r.headline() for r in reports]
    return {
        "exclusive": exclusive,
        "labels": labels,
        "headline": _mean_std(per_fold),
        "per_fold": [float(v) for v in per_fold],
        "n_folds": len(reports),
    }


def flag_predictable(model_mean: float, baseline_means: dict) -> bool:
    """True when the model clears every baseline by at least PREDICTABLE_MARGIN."""
    if not baseline_means:
        raise ValueError("no baseline scores given")
    return all(model_mean >= b + PREDICTABLE_MARGIN for b in baseline_means.values())


# ------------------------------------------------------------------ reports

def write_atomic(path, write_fn) -> None:
    """Have write_fn(tmp_path) write a temporary file beside path, then move it
    onto path: a failed write leaves the old file and no temporary behind."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-", suffix=os.path.splitext(path)[1])
    os.close(fd)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)        # mkstemp's 0600 would outlive the move
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Canonical JSON: sorted keys, 2-space indent, atomic replace."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    write_atomic(path, lambda tmp: Path(tmp).write_text(text, encoding="utf-8", newline="\n"))


def _write_csv(path: str, header, rows) -> None:
    """Atomically write a header row, then rows (streamed from any iterable)."""
    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    write_atomic(path, write)


def write_scores_csv(path: str, aggregate: dict) -> None:
    """Flat per-label table: label,metric,mean,std."""
    rows = []
    for name in sorted(aggregate["labels"]):
        entry = aggregate["labels"][name]
        for metric in ("precision", "recall", "f1", "f1_neg", "macro_f1"):
            rows.append((name, metric,
                         f"{entry[metric]['mean']:.9g}",
                         f"{entry[metric]['std']:.9g}"))
    _write_csv(path, ("label", "metric", "mean", "std"), rows)


def write_predictions_csv(path: str, t: np.ndarray, label_names,
                          probs: np.ndarray, decisions: np.ndarray,
                          truth: np.ndarray) -> None:
    """Per-frame trace, one row per frame x label: t,label,prob,decision,truth."""
    probs = np.asarray(probs)
    if probs.shape != (len(t), len(label_names)) or probs.shape != \
            np.asarray(decisions).shape or probs.shape != np.asarray(truth).shape:
        raise ValueError("t, labels, probs, decisions and truth must align")
    _write_csv(path, ("t", "label", "prob", "decision", "truth"),
               ((f"{ti:.9g}", name, f"{probs[i, j]:.9g}", int(decisions[i, j]),
                 int(truth[i, j])) for i, ti in enumerate(t)
                for j, name in enumerate(label_names)))
