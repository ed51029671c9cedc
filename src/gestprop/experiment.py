"""Experiment orchestration: cross-validated training, baselines, random search.

One ExperimentConfig drives every run. All artifacts land under its output
directory: cached features in features/, per-fold checkpoints in
checkpoints/, report.json + scores.csv for model runs (the report also
scores the chance systems on its folds and gives each label's verdict),
baselines.json for the chance systems alone, hpsearch.json + runrecord.csv
for the search, and an index.json naming what each command wrote. A single
master seed fans out to per-fold training seeds, per-baseline sampling
streams and per-run search draws, so rerunning a command with the same config
and seed reproduces every file byte for byte.

A cross-validation (eval, and each search run) trains one contiguous range
of folds per CPU this process may use, at most one per fold: the first
here, each other in a child forked after the corpus loads
(forked.run_ranges), which sends back each fold's weights, run record and
normalization. Every fold has its own seed, pool, normalization and scorer,
and this process writes every file in fold order, so the output is
byte-identical at any worker count. Without a BLAS thread control the folds
train here.

The search is plain random search over SEARCH_SPACE: each run draws every
setting once and cross-validates the drawn model, batch size and learning
rate like eval does.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import forked
from . import gradcheck as gradcheck_mod
from .corpus import SCHEMAS, load_manifest, make_folds_between, make_folds_within
from .evaluation import (BASELINE_KINDS, PropertyReport, aggregate_folds,
                         baseline_predict, binarize, compute_priors,
                         evaluate_property, flag_predictable, write_atomic,
                         write_json, write_predictions_csv, write_scores_csv)
from .features import (MODALITIES, WindowProvider, build_features,
                       feature_paths, load_dataset)
from .net import (DecoderSpec, EncoderSpec, ModelParams, ModelSpec, from_fields,
                  input_taps, load_checkpoint, predict_probs, receptive_field,
                  save_checkpoint, typed)
from .training import TrainConfig, train

log = logging.getLogger(__name__)

CV_MODES = ("within", "within_id", "between")
PROPERTIES = tuple(SCHEMAS)

# config.model key -> EncoderSpec / DecoderSpec field
ENCODER_KEYS = {"enc_layers": "layers", "enc_channels": "channels",
                "kernel": "kernel", "enc_dropout": "dropout", "enc_out": "out_dim"}
DECODER_KEYS = {"dec_hidden": "hidden", "dec_layers": "layers",
                "dec_dropout": "dropout"}
MODEL_KEYS = (*ENCODER_KEYS, *DECODER_KEYS)

# hpsearch's random search (Bergstra & Bengio 2012): each setting's draw from
# one run's generator. A run draws the settings in sorted name order; the
# draws replace config.model and the train batch and lr.
SEARCH_SPACE = {
    "enc_layers": lambda rng: int(rng.integers(1, 4 + 1)),
    "enc_channels": lambda rng: (16, 32, 64, 128)[int(rng.integers(0, 4))],
    "kernel": lambda rng: (3, 5)[int(rng.integers(0, 2))],
    "enc_dropout": lambda rng: float(rng.uniform(0.0, 0.5)),
    "enc_out": lambda rng: (16, 32, 64, 128)[int(rng.integers(0, 4))],
    "dec_hidden": lambda rng: int(rng.integers(32, 256 + 1)),
    "dec_layers": lambda rng: int(rng.integers(1, 3 + 1)),
    "dec_dropout": lambda rng: float(rng.uniform(0.0, 0.5)),
    "batch": lambda rng: (32, 64, 128)[int(rng.integers(0, 3))],
    "lr": lambda rng: float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2)))),
}

FEATURES_SUBDIR = "features"
CHECKPOINT_SUBDIR = "checkpoints"
# Frames per inference batch, whatever the recording length: one default
# training batch, so scoring peaks no higher than a training step.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: str
    embeddings: str
    out_dir: str
    prop: str = field(default="presence", metadata={"key": "property"})
    modality: str = "both"
    cv: str = "within"
    folds: int = 20
    train: TrainConfig = field(default_factory=TrainConfig)
    model: dict = field(default_factory=dict)
    seed: int = 0
    threshold: float = 0.5
    eval_on_all_frames: bool = False
    features_dir: str | None = None     # defaults to <out_dir>/features

    def features_path(self) -> Path:
        if self.features_dir is not None:
            return Path(self.features_dir)
        return Path(self.out_dir) / FEATURES_SUBDIR

    def validate(self) -> None:
        if self.prop not in PROPERTIES:
            raise ValueError(f"unknown property {self.prop!r}; choose from {PROPERTIES}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}; choose from {MODALITIES}")
        if self.cv not in CV_MODES:
            raise ValueError(f"unknown cv mode {self.cv!r}; choose from {CV_MODES}")
        if self.cv != "between" and self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _model_parts(self.model)        # a bad model entry fails before any work
        for name in ("manifest", "embeddings"):
            path = Path(getattr(self, name))
            if not path.exists():
                raise FileNotFoundError(f"{name} file not found: {path}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["property"] = d.pop("prop")
        return d

    @classmethod
    def from_dict(cls, d, source: str = "") -> "ExperimentConfig":
        """The config a JSON object from source describes (see from_fields)."""
        return from_fields(cls, d, source=source)


# ------------------------------------------------------------------ plumbing

def _out_dir(path: str | Path) -> Path:
    """A command's output directory, created before the command does any
    work, so a missing directory never fails a finished run."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _register(out_dir: str | Path, command: str, paths: list[str]) -> None:
    """Track what each command wrote in the run directory's index."""
    index_path = Path(out_dir) / "index.json"
    index = json.loads(index_path.read_text()) if index_path.exists() else {}
    index[command] = sorted(paths)
    write_json(str(index_path), index)


def _fold_seed(master: int, fold: int) -> int:
    return int(np.random.SeedSequence([int(master), 7, int(fold)])
               .generate_state(1, dtype=np.uint32)[0])


def _load_corpus(config: ExperimentConfig):
    return load_dataset(load_manifest(config.manifest), config.features_path(),
                        config.embeddings)


def _make_plan(dataset, config: ExperimentConfig):
    if config.cv == "between":
        return make_folds_between(dataset)
    return make_folds_within(dataset, k=config.folds)


def _training_pool(dataset, prop: str, idx: np.ndarray) -> np.ndarray:
    """Property models see only gesture frames; phase needs a phase bit too."""
    if prop == "presence":
        return idx
    keep = dataset.has_gesture[idx].astype(bool)
    if prop == "phase":
        keep &= dataset.phase[idx].any(axis=1)
    return idx[keep]


def _model_parts(model: dict) -> tuple[EncoderSpec, DecoderSpec]:
    """The encoder and decoder that config.model's entries set; an unknown
    entry, or one without its spec field's type, is a ValueError naming it."""
    unknown = sorted(set(model) - set(MODEL_KEYS))
    if unknown:
        raise ValueError(f"unknown model keys {unknown}; choose from {MODEL_KEYS}")

    def pick(cls, keys: dict):
        hints = get_type_hints(cls)
        return cls(**{field: typed(model[key], hints[field], f"model.{key}")
                      for key, field in keys.items() if key in model})
    return pick(EncoderSpec, ENCODER_KEYS), pick(DecoderSpec, DECODER_KEYS)


def _model_spec(config: ExperimentConfig, provider: WindowProvider,
                text_dim: int) -> ModelSpec:
    encoder, decoder = _model_parts(config.model)
    return ModelSpec(
        head="softmax" if provider.exclusive else "sigmoid",
        n_labels=provider.n_labels,
        audio=encoder if provider.uses_audio else None,
        text=encoder if provider.uses_text else None,
        decoder=decoder,
        text_dim=text_dim,
        speaker_dim=provider.speaker_dim,
    )


def _eval_pool(dataset, config, idx: np.ndarray) -> np.ndarray:
    """The one rule for which frames of a fold are scored: gesture frames,
    or every frame for presence and with eval_on_all_frames. The validation
    curve, the fold report and the baselines all use it."""
    if config.prop == "presence" or config.eval_on_all_frames:
        return idx
    return idx[dataset.has_gesture[idx].astype(bool)]


def _score_chance(dataset, config: ExperimentConfig, plan) -> dict:
    """Per-kind aggregates of the chance systems on the plan's folds: each
    fold's informed_random takes its priors from the fold's training pool,
    and every system is scored on the fold's eval pool. A fold whose
    training pool is empty is a ValueError naming it."""
    exclusive = SCHEMAS[config.prop].exclusive
    labels_all = dataset.labels_for(config.prop)
    names = SCHEMAS[config.prop].labels
    kinds = [k for k in BASELINE_KINDS
             if not (exclusive and k in ("always_zero", "always_one"))]

    per_kind: dict[str, list] = {k: [] for k in kinds}
    for fold in range(plan.n_folds):
        pool = _training_pool(dataset, config.prop, plan.train[fold])
        if not len(pool):
            raise ValueError(f"fold {fold}: no training frames for property "
                             f"{config.prop!r} in the annotations")
        val_eval = _eval_pool(dataset, config, plan.val[fold])
        truth = labels_all[val_eval].astype(np.int64)
        priors = compute_priors(labels_all[pool])
        for k_i, kind in enumerate(kinds):
            rng = np.random.default_rng(
                np.random.SeedSequence([int(config.seed), 11, fold, k_i]))
            pred = baseline_predict(kind, len(val_eval), len(names), exclusive,
                                    priors=priors, rng=rng)
            per_kind[kind].append(evaluate_property(pred, truth, names, exclusive))
    return {kind: aggregate_folds(reports) for kind, reports in per_kind.items()}


def _predict(spec: ModelSpec, params, provider: WindowProvider,
             idx: np.ndarray) -> np.ndarray:
    """Inference-mode probabilities at the frames idx, PREDICT_CHUNK at a time.

    A chunk's inputs are gathered only when it runs, with the provider's
    normalization at that moment, so memory does not grow with len(idx).
    """
    taps = input_taps(spec)
    outs = []
    for lo in range(0, len(idx), PREDICT_CHUNK):
        batch = provider.batch(idx[lo:lo + PREDICT_CHUNK], taps)
        outs.append(predict_probs(spec, params, audio=batch["audio"],
                                  text=batch["text"], speaker=batch["speaker"]))
        del batch                   # a block's taps die before the next is gathered
    return np.concatenate(outs) if outs else np.zeros((0, spec.n_labels))


def _scorer(spec: ModelSpec, provider: WindowProvider, idx: np.ndarray,
            config: ExperimentConfig):
    """score(params) -> PropertyReport on the frames idx, at config.threshold."""
    truth = provider.labels_at(idx).astype(np.int64)
    names = SCHEMAS[config.prop].labels

    def score(params) -> PropertyReport:
        probs = _predict(spec, params, provider, idx)
        return evaluate_property(binarize(probs, provider.exclusive, config.threshold),
                                 truth, names, provider.exclusive)
    return score


# ------------------------------------------------------------------ commands

def run_features(config: ExperimentConfig, force: bool = False):
    """Build cached features for every recording in the manifest."""
    config.validate()
    out = _out_dir(config.out_dir)
    recordings = load_manifest(config.manifest)
    fdir = config.features_path()
    built, failures = build_features(recordings, fdir, force=force)
    failed_ids = {rid for rid, _ in failures}
    files = [str(p.relative_to(out)) if p.is_relative_to(out) else str(p)
             for rec in recordings if rec.rec_id not in failed_ids
             for p in feature_paths(fdir, rec.rec_id).values()]
    _register(out, "features", files)
    return built, failures


def run_cv(config: ExperimentConfig, write_checkpoints: bool = True) -> dict:
    """Cross-validated training of one property/modality condition.

    Returns the report dict, which is also written to report.json along
    with scores.csv (and one checkpoint per fold when requested).
    """
    config.validate()
    return _cross_validate(config, _load_corpus(config), write_checkpoints)


def _cross_validate(config: ExperimentConfig, dataset, write_checkpoints: bool,
                    baselines: dict | None = None) -> dict:
    """run_cv on a loaded dataset. The chance systems are scored on the same
    folds first, unless given, and a label is predictable when the model's
    mean macro-F1 clears every one of theirs by PREDICTABLE_MARGIN."""
    out = _out_dir(config.out_dir)
    if write_checkpoints:
        (out / CHECKPOINT_SUBDIR).mkdir(exist_ok=True)
    plan = _make_plan(dataset, config)
    baselines = _score_chance(dataset, config, plan) if baselines is None else baselines
    provider = WindowProvider(dataset, config.prop, config.modality,
                              speakers=dataset.speaker_list
                              if config.cv == "within_id" else None)
    spec = _model_spec(config, provider, dataset.emb_matrix.shape[1] + 1)

    def train_folds(lo: int, hi: int) -> list:
        """(n_train, params.flat, RunRecord, norm state) of folds lo..hi-1."""
        done = []
        for fold in range(lo, hi):
            pool = _training_pool(dataset, config.prop, plan.train[fold])
            provider.fit_norm(plan.train[fold])
            score = _scorer(spec, provider, _eval_pool(dataset, config, plan.val[fold]),
                            config)
            params, record = train(spec, provider, pool, config.train,
                                   _fold_seed(config.seed, fold), score)
            done.append((len(pool), params.flat, record, provider.norm_state()))
        return done

    workers = min(forked.usable_cpus(), plan.n_folds) \
        if forked.blas_threads() is not None else 1
    trained = [done for part in forked.run_ranges(train_folds, plan.n_folds, workers,
                                                   "fold worker for folds")
               for done in part]
    folds, reports, files = [], [], []
    for fold, (n_train, flat, record, norm) in enumerate(trained):
        seed = _fold_seed(config.seed, fold)
        report = record.report
        reports.append(report)

        entry = {
            "fold": fold,
            "seed": seed,
            "n_train": n_train,
            "n_val": int(len(plan.val[fold])),
            "curve": [[int(s), float(v)] for s, v in record.curve],
            "loss_curve": [float(v) for v in record.loss_curve],
            "final_score": record.final_score,
            "failed": record.failed,
            "report": {**asdict(report), "headline": report.headline()},
        }
        if write_checkpoints:
            name = f"{CHECKPOINT_SUBDIR}/fold_{fold:02d}.ckpt"
            save_checkpoint(out / name, spec, ModelParams(spec, flat), meta={
                "fold": fold, "seed": seed, "property": config.prop,
                "modality": config.modality, "norm": norm,
                "speakers": provider.speakers, "config": config.to_dict(),
            })
            entry["checkpoint"] = name
            files.append(name)
        folds.append(entry)
        log.info("fold %d/%d: headline %.3f", fold + 1, plan.n_folds,
                 report.headline())

    aggregate = aggregate_folds(reports)
    result = {
        "kind": "cv",
        "config": config.to_dict(),
        "seed": config.seed,
        "model_spec": spec.to_dict(),
        "receptive_field": receptive_field(spec),
        "n_folds": plan.n_folds,
        "folds": folds,
        "aggregate": aggregate,
        "baselines": baselines,
        "predictable": {
            label: flag_predictable(entry["macro_f1"]["mean"], {
                kind: agg["labels"][label]["macro_f1"]["mean"]
                for kind, agg in baselines.items()})
            for label, entry in aggregate["labels"].items()},
    }
    write_json(str(out / "report.json"), result)
    write_scores_csv(str(out / "scores.csv"), result["aggregate"])
    _register(out, "eval", files + ["report.json", "scores.csv"])
    return result


def run_baselines(config: ExperimentConfig) -> dict:
    """Score the chance systems on the folds eval uses, without training."""
    config.validate()
    out = _out_dir(config.out_dir)
    dataset = _load_corpus(config)
    result = {
        "kind": "baselines",
        "config": config.to_dict(),
        "seed": config.seed,
        "baselines": _score_chance(dataset, config, _make_plan(dataset, config)),
    }
    write_json(str(out / "baselines.json"), result)
    _register(out, "baselines", ["baselines.json"])
    return result


def run_hpsearch(config: ExperimentConfig, n_runs: int) -> dict:
    """Random search over SEARCH_SPACE; the best run is the first with the
    highest mean headline.

    The corpus loads once, and chance is scored once, with the search's seed,
    on the folds every run uses. Run i draws from its own generator, seeded
    by (seed, i), and retrains the full CV grid under runs/NN/; one row per
    (run, fold, eval step) lands in runrecord.csv.
    """
    config.validate()
    if n_runs < 1:
        raise ValueError(f"need at least 1 run, got {n_runs}")
    out = _out_dir(config.out_dir)
    dataset = _load_corpus(config)
    baselines = _score_chance(dataset, config, _make_plan(dataset, config))
    runs, rows = [], ["run,fold,step,score,loss"]
    for i in range(n_runs):
        rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), i]))
        sample = {name: SEARCH_SPACE[name](rng) for name in sorted(SEARCH_SPACE)}
        report = _cross_validate(replace(
            config, model={k: v for k, v in sample.items() if k in MODEL_KEYS},
            train=replace(config.train, batch=sample["batch"], lr=sample["lr"]),
            out_dir=str(out / "runs" / f"{i:02d}"),
            features_dir=str(config.features_path()),
            seed=_fold_seed(config.seed, 100_000 + i)), dataset, write_checkpoints=False,
            baselines=baselines)
        runs.append({"run": i, "sample": sample,
                     "score": float(report["aggregate"]["headline"]["mean"])})
        for f in report["folds"]:
            for (step, score), loss in zip(f["curve"], f["loss_curve"]):
                rows.append(f"{i},{f['fold']},{step},{score:.9g},{loss:.9g}")
    write_atomic(out / "runrecord.csv", lambda p: Path(p).write_text("\n".join(rows) + "\n"))

    best = max(runs, key=lambda r: r["score"])
    result = {
        "kind": "hpsearch",
        "config": config.to_dict(),
        "seed": config.seed,
        "n_runs": n_runs,
        "best_run": best["run"],
        "best_sample": best["sample"],
        "runs": runs,
    }
    write_json(str(out / "hpsearch.json"), result)
    _register(out, "hpsearch",
              ["hpsearch.json", "runrecord.csv"]
              + [f"runs/{i:02d}/report.json" for i in range(n_runs)])
    return result


def run_predict(config: ExperimentConfig, checkpoint: str | Path) -> list[str]:
    """Per-frame probability traces for every recording, one CSV each.

    The config's property and modality must be those the checkpoint was
    trained for; the check runs before any corpus data is read.
    """
    config.validate()
    spec, params, meta = load_checkpoint(checkpoint)
    for key, value in (("property", config.prop), ("modality", config.modality)):
        if meta.get(key, value) != value:
            raise ValueError(f"{checkpoint}: the model was trained for {key} "
                             f"{meta[key]!r}, not {value!r}")
    if spec.audio is not None and "norm" not in meta:
        raise ValueError(f"{checkpoint}: an audio model needs a norm in its meta")
    out = _out_dir(config.out_dir)
    (out / "predictions").mkdir(exist_ok=True)
    dataset = _load_corpus(config)
    provider = WindowProvider(dataset, config.prop, config.modality,
                              speakers=meta.get("speakers") if spec.speaker_dim else None)
    if spec.audio is not None:
        try:
            provider.set_norm(meta["norm"])
        except ValueError as exc:
            raise ValueError(f"{checkpoint}: {exc}") from None
    names = SCHEMAS[config.prop].labels

    written = []
    for rec_id in np.unique(dataset.rec_ids):
        idx = np.flatnonzero(dataset.eligible & (dataset.rec_ids == rec_id))
        probs = _predict(spec, params, provider, idx)
        decisions = binarize(probs, provider.exclusive, config.threshold)
        name = f"predictions/rec_{rec_id:05d}.csv"
        write_predictions_csv(
            str(out / name), dataset.t[idx], names, probs,
            decisions, provider.labels_at(idx).astype(np.int64))
        written.append(name)
    _register(out, "predict", written)
    return written


def run_gradcheck(seed: int = 0, eps: float = gradcheck_mod.DEFAULT_EPS,
                  out_dir: str | Path | None = None) -> dict:
    result = gradcheck_mod.run_gradcheck(seed=seed, eps=eps)
    if out_dir is not None:
        out = _out_dir(out_dir)
        write_json(str(out / "gradcheck.json"), result)
        _register(out, "gradcheck", ["gradcheck.json"])
    return result
