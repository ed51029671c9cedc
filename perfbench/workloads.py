"""The benchmark's workloads: set-up, the timed call and its output checks.

Each workload drives one public `gestprop.experiment.run_*` entry point, the
same calls the acceptance suite makes, on a `combined` corpus that synth
generates from the benchmark's seed. Set-up writes everything under
`<root>/`; the timed call reads it from there.

Sizes: "full" keeps criterion 7's model, batch size, preset and recording
length (120 s) for training, uses a 240 s recording for feature extraction,
and shortens recording count and training steps so one run fits the
benchmark's time budget. "tiny" exists for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

# entry points are looked up on their modules at call time, so a traced
# run sees the wrappers the tracer installs there
from gestprop import experiment, synth
from gestprop.evaluation import evaluate_property
from gestprop.experiment import ExperimentConfig
from gestprop.training import TrainConfig

FPS = 20                  # label and feature frames per second
EXPERIMENT_SEED = 3       # criterion 7's seed for folds, training and baselines
FLOOR_MARGIN = 0.10       # criterion 7: the model beats every baseline by this much
CV_MODEL = {"enc_layers": 2, "enc_channels": 32, "enc_out": 32, "dec_hidden": 48}
BATCH = 64

SIZES = {
    "full": {
        "cv_combined": {"recordings": 1, "duration": 120.0, "folds": 5,
                        "steps": 80, "evals": 4},
        "features_long": {"recordings": 1, "duration": 240.0},
    },
    "tiny": {
        "cv_combined": {"recordings": 1, "duration": 30.0, "folds": 2,
                        "steps": 30, "evals": 2},
        "features_long": {"recordings": 1, "duration": 24.0},
    },
}


def digest(paths, base: Path) -> str:
    """sha256 over each file's path relative to base and its bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def fingerprint(directory: Path) -> str:
    """Digest of every file under directory: the input a workload runs on."""
    return digest((p for p in directory.rglob("*") if p.is_file()), directory)


def _presence_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    return evaluate_property(pred.reshape(-1, 1).astype(np.int64),
                             truth.reshape(-1, 1).astype(np.int64),
                             ["presence"], exclusive=False,
                             eval_on_all_frames=True).headline()


class Workload:
    """One workload bound to its set-up directory and size."""

    name = ""

    def __init__(self, root: Path, size: str):
        self.root = Path(root)
        self.params = SIZES[size][self.name]
        self.corpus = self.root / "corpus"

    def config(self, out: str, **kw) -> ExperimentConfig:
        (self.root / out).mkdir(parents=True, exist_ok=True)
        return ExperimentConfig(
            manifest=str(self.corpus / "manifest.json"),
            embeddings=str(self.corpus / "vectors.txt"),
            out_dir=str(self.root / out),
            features_dir=str(self.root / "features"),
            prop="presence", modality="both", cv="within",
            seed=EXPERIMENT_SEED, **kw)

    def generate(self, seed: int) -> None:
        spec = replace(synth.preset("combined"),
                       n_speakers=self.params["recordings"],
                       duration=self.params["duration"])
        synth.generate_synthetic_corpus(spec, seed=seed, out_dir=self.corpus)

    def prepare(self) -> None:
        """Set-up after corpus generation: what the timed call needs."""


    def call(self):
        """The timed call; returns what `outcome` needs."""
        raise NotImplementedError

    def outcome(self, result) -> tuple[int, int, float]:
        """(operations attempted, operations failed, work units) of a call."""
        raise NotImplementedError

    def outputs(self, result) -> list[Path]:
        """Files the call wrote; they must be byte-identical on every call."""
        raise NotImplementedError

    def check(self, result) -> tuple[list[str], float]:
        """(problems found in the outputs, headline Macro-F1)."""
        raise NotImplementedError


class CvCombined(Workload):
    name = "cv_combined"

    def prepare(self) -> None:
        built, failures = experiment.run_features(self.config("setup_features"))
        if failures:
            raise RuntimeError(f"set-up features failed: {failures}")
        experiment.run_baselines(self.config("baselines",
                                             folds=self.params["folds"]))

    def call(self):
        train = TrainConfig(steps=self.params["steps"], batch=BATCH, lr=2e-3,
                            evals=self.params["evals"])
        config = self.config("model", folds=self.params["folds"], model=CV_MODEL,
                             train=train)
        return experiment.run_cv(config, write_checkpoints=False)

    def outcome(self, report):
        diverged = sum(f["failed"] for f in report["folds"])
        return report["n_folds"], diverged, report["n_folds"] * self.params["steps"]

    def outputs(self, report):
        return [self.root / "model" / "report.json"]

    def check(self, report):
        problems = []
        headline = report["aggregate"]["headline"]["mean"]
        baselines = json.loads((self.root / "baselines" / "baselines.json")
                               .read_text())["baselines"]
        for kind, agg in sorted(baselines.items()):
            floor = agg["headline"]["mean"] + FLOOR_MARGIN
            if headline < floor:
                problems.append(f"headline {headline:.4f} under the {kind} "
                                f"floor {floor:.4f}")
        return problems, headline


class FeaturesLong(Workload):
    name = "features_long"

    def call(self):
        return experiment.run_features(self.config("features_run"), force=True)

    def outcome(self, result):
        built, failures = result
        n = self.params["recordings"]
        return n, n - len(built), len(built) * self.params["duration"]

    def outputs(self, result):
        return sorted(p for p in (self.root / "features").iterdir() if p.is_file())

    def check(self, result):
        problems = [f"recording {rid}: {why}" for rid, why in result[1]]
        manifest = json.loads((self.corpus / "manifest.json").read_text())
        vuv, gesture = [], []
        for entry in manifest:
            stem = self.root / "features" / f"rec_{entry['id']:05d}"
            sr, samples = wavfile.read(self.corpus / entry["audio"], mmap=True)
            want = len(samples) * FPS // sr
            prosody = np.loadtxt(f"{stem}.prosody.csv", delimiter=",",
                                 skiprows=1, ndmin=2)
            frames = np.loadtxt(f"{stem}.frames.csv", delimiter=",",
                                skiprows=2, ndmin=2)
            if len(prosody) != want or len(frames) != want:
                problems.append(f"recording {entry['id']}: {len(prosody)} prosody "
                                f"and {len(frames)} frame rows, want {want}")
                continue
            vuv.append(prosody[:, 1])
            gesture.append(frames[:, 2])
        # the combined preset plants a tone under every gesture, so the
        # voicing bit alone recovers presence when prosody is intact
        f1 = _presence_f1(np.concatenate(vuv), np.concatenate(gesture)) if vuv else 0.0
        return problems, f1


WORKLOADS = {w.name: w for w in (CvCombined, FeaturesLong)}
