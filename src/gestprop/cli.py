"""Command-line entry points.

Every subcommand reads the shared experiment flags, optionally seeded from
a JSON config file (explicit flags win over the file, the file wins over
defaults; predict's property and modality default to the checkpoint's).
Exit code 0 means all requested outputs were written; feature failures and
a failing gradient check exit 1, bad configuration exits 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from .experiment import (CV_MODES, PROPERTIES, ExperimentConfig, run_baselines,
                         run_cv, run_features, run_gradcheck, run_hpsearch,
                         run_predict)
from .features import MODALITIES
from .gradcheck import DEFAULT_EPS, PASS_THRESHOLD
from .net import load_checkpoint
from .synth import PRESETS, generate_synthetic_corpus, preset
from .training import LOSS_KINDS

log = logging.getLogger(__name__)

# the top-level config keys; an experiment flag's dest is the dotted config
# path it sets, under one of them
SETTINGS = {f.metadata.get("key", f.name) for f in fields(ExperimentConfig)}


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with experiment settings; "
                                    "explicit flags override it")
    p.add_argument("--manifest", help="corpus manifest JSON")
    p.add_argument("--embeddings", help="word-vector text file")
    p.add_argument("--out", dest="out_dir", help="run output directory")
    p.add_argument("--property", choices=PROPERTIES)
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--cv", choices=CV_MODES)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--eval-all-frames", dest="eval_on_all_frames",
                   action="store_true", default=None)
    p.add_argument("--features-dir", dest="features_dir",
                   help="reuse features cached outside the run directory")
    p.add_argument("--steps", dest="train.steps", type=int, help="training steps")
    p.add_argument("--batch", dest="train.batch", type=int, help="batch size")
    p.add_argument("--lr", dest="train.lr", type=float, help="learning rate")
    p.add_argument("--loss", dest="train.loss.kind", choices=LOSS_KINDS)
    p.add_argument("--gamma", dest="train.loss.gamma", type=float, help="focal exponent")
    p.add_argument("--beta", dest="train.loss.beta", type=float, help="class-balance beta")
    p.add_argument("--upsample", dest="train.upsample", action="store_true", default=None)
    p.add_argument("--evals", dest="train.evals", type=int, help="validation curve points")


def _put(settings, path: str, value) -> None:
    """Set the entry at the dotted path, adding objects on the way; an entry
    on the way that is not an object is left for the loader to name."""
    *parents, key = path.split(".")
    for name in parents:
        settings = settings.setdefault(name, {}) if isinstance(settings, dict) else None
    if isinstance(settings, dict):
        settings[key] = value


def _config_from_args(args, defaults: dict | None = None) -> ExperimentConfig:
    """Settings from defaults, then the --config file, then explicit flags."""
    settings = dict(defaults or {})
    if args.config:
        try:
            file = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
        settings = {**settings, **file} if isinstance(file, dict) else file
    for path, value in vars(args).items():
        if value is not None and path.split(".")[0] in SETTINGS:
            _put(settings, path, value)
    return ExperimentConfig.from_dict(settings, source=args.config or "")


# ------------------------------------------------------------------ commands

def _cmd_features(args) -> int:
    config = _config_from_args(args)
    built, failures = run_features(config, force=args.force)
    print(f"features: {len(built)} recording(s) built, "
          f"{len(failures)} failed, cached under {config.features_path()}")
    for rec_id, msg in failures:
        print(f"  recording {rec_id}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    report = run_cv(config)
    agg = report["aggregate"]["headline"]
    print(f"eval: {report['n_folds']} folds, headline "
          f"{agg['mean']:.3f} +- {agg['std']:.3f}; "
          f"report.json + checkpoints under {config.out_dir}")
    for label, ok in sorted(report["predictable"].items()):
        verdict = "clears all baselines" if ok else "not above chance"
        print(f"  {label}: {verdict}")
    return 0


def _cmd_baselines(args) -> int:
    config = _config_from_args(args)
    result = run_baselines(config)
    for kind, agg in sorted(result["baselines"].items()):
        h = agg["headline"]
        print(f"baseline {kind}: headline {h['mean']:.3f} +- {h['std']:.3f}")
    return 0


def _cmd_hpsearch(args) -> int:
    config = _config_from_args(args)
    result = run_hpsearch(config, n_runs=args.runs)
    best = result["runs"][result["best_run"]]
    print(f"hpsearch: best run {result['best_run']} "
          f"score {best['score']:.3f}: {json.dumps(best['sample'], sort_keys=True)}")
    print(f"curves in {Path(config.out_dir) / 'runrecord.csv'}")
    return 0


def _cmd_predict(args) -> int:
    meta = load_checkpoint(args.checkpoint)[2]
    trained = {k: meta[k] for k in ("property", "modality") if k in meta}
    config = _config_from_args(args, defaults=trained)
    written = run_predict(config, args.checkpoint)
    print(f"predict: wrote {len(written)} trace file(s) under "
          f"{Path(config.out_dir) / 'predictions'}")
    return 0


def _cmd_synth(args) -> int:
    overrides = {"n_speakers": args.n_speakers, "duration": args.duration}
    spec = replace(preset(args.preset), **{k: v for k, v in overrides.items() if v is not None})
    recordings = generate_synthetic_corpus(spec, seed=args.seed, out_dir=args.out)
    print(f"synth: {len(recordings)} recording(s) in {args.out} "
          f"(preset {args.preset}, seed {args.seed})")
    return 0


def _cmd_gradcheck(args) -> int:
    result = run_gradcheck(seed=args.seed, eps=args.eps, out_dir=args.out)
    print(f"gradcheck: max relative error {result['max_error']:.3e} "
          f"over {len(result['cases'])} cases "
          f"(threshold {PASS_THRESHOLD:.0e}, eps {result['eps']:.0e})")
    return 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gestprop",
        description="Gesture-property prediction from speech prosody and text")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract and cache per-recording features")
    _add_experiment_flags(p)
    p.add_argument("--force", action="store_true", help="rebuild existing files")
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("eval", help="cross-validated training: report and "
                                    "one checkpoint per fold")
    _add_experiment_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("baselines", help="score the four chance systems")
    _add_experiment_flags(p)
    p.set_defaults(fn=_cmd_baselines)

    p = sub.add_parser("hpsearch", help="random hyperparameter search")
    _add_experiment_flags(p)
    p.add_argument("--runs", type=int, default=50, help="number of sampled configs")
    p.set_defaults(fn=_cmd_hpsearch)

    p = sub.add_parser("predict", help="per-frame probability traces")
    _add_experiment_flags(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speakers", dest="n_speakers", type=int, help="override speaker count")
    p.add_argument("--duration", type=float, help="override seconds per recording")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--out", help="also write gradcheck.json here")
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
