"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install()` replaces each traced public function of gestprop with a
wrapper that records one span: (call id, span id, parent span id, name,
start, end, counts). Module-level functions are replaced in every gestprop
module that holds them, so names bound by `from .x import f` are traced
too; methods are replaced on their class. `uninstall()` puts the originals
back, so untraced calls run the unmodified program.

Spans stay in memory. `layer_metrics()` turns the spans of one timed call
into the per-layer metrics; self time is a span's duration minus that of
its direct child spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

MB = 1e6

# (module, attribute path) of every traced function; the span is named
# "<module>.<attribute path>".
TRACED = (
    ("prosody", "read_wav"),
    ("prosody", "frame_signal"),
    ("prosody", "extract_prosody"),
    ("textfeat", "select_window"),
    ("corpus", "build_frame_table"),
    ("corpus", "make_folds_within"),
    ("features", "build_features"),
    ("features", "load_dataset"),
    ("features", "WindowProvider.batch"),
    ("tensor", "conv1d_dilated"),
    ("tensor", "Tensor.backward"),
    ("net", "forward"),
    ("net", "predict_probs"),
    ("training", "train"),
    ("training", "loss_batch"),
    ("training", "Adam.step"),
    ("evaluation", "evaluate_property"),
    ("experiment", "run_cv"),
    ("experiment", "run_features"),
)

CONV_BWD = "tensor.conv1d_dilated.bwd"

# Per-layer metrics and how each is obtained: "timed" from span clocks,
# "computed" from argument or result shapes, "count" by counting spans.
LAYER_METRICS = {
    "prosody.extract_prosody.self_s": ("s", "timed"),
    "prosody.extract_prosody.s_per_audio_min": ("s/min", "timed"),
    "prosody.frame_signal.s": ("s", "timed"),
    "prosody.frame_signal.max_mb": ("MB", "computed"),
    "prosody.read_wav.s": ("s", "timed"),
    "textfeat.select_window.calls": ("count", "count"),
    "textfeat.select_window.s": ("s", "timed"),
    "corpus.build_frame_table.s": ("s", "timed"),
    "corpus.make_folds_within.s": ("s", "timed"),
    "features.build_features.self_s": ("s", "timed"),
    "features.load_dataset.s": ("s", "timed"),
    "features.WindowProvider.batch.s": ("s", "timed"),
    "features.WindowProvider.batch.frames": ("count", "computed"),
    "features.WindowProvider.batch.mb": ("MB", "computed"),
    "tensor.conv1d_dilated.fwd_s": ("s", "timed"),
    "tensor.conv1d_dilated.bwd_s": ("s", "timed"),
    "tensor.conv1d_dilated.calls": ("count", "count"),
    "tensor.conv1d_dilated.gflop": ("GFLOP", "computed"),
    "tensor.conv1d_dilated.rows_per_readout": ("rows", "computed"),
    "tensor.Tensor.backward.s": ("s", "timed"),
    "tensor.Tensor.backward.calls": ("count", "count"),
    "net.forward.train_s": ("s", "timed"),
    "net.predict_probs.score_s": ("s", "timed"),
    "net.predict_probs.score_frames": ("count", "computed"),
    "net.predict_probs.report_s": ("s", "timed"),
    "training.train.s": ("s", "timed"),
    "training.steps": ("count", "count"),
    "training.loss_batch.s": ("s", "timed"),
    "training.Adam.step.s": ("s", "timed"),
    "training.diverged": ("count", "computed"),
    "evaluation.evaluate_property.s": ("s", "timed"),
    "experiment.run_cv.self_s": ("s", "timed"),
    "experiment.run_features.self_s": ("s", "timed"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"gestprop.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _counts(name, args, kwargs, result):
    """Work counts recorded with a span, computed from arguments and result."""
    if name == "tensor.conv1d_dilated":
        shape, (k, c_in, c_out) = args[0].data.shape, args[1].data.shape
        batch, steps = (1, shape[0]) if len(shape) == 2 else shape[:2]
        return {"flop": 2 * batch * steps * k * c_in * c_out,
                "rows": batch * steps, "readouts": batch}
    if name == "features.WindowProvider.batch":
        return {"frames": len(args[1]),
                "bytes": sum(v.nbytes for v in result.values() if v is not None)}
    if name == "prosody.frame_signal":
        return {"bytes": result.nbytes}
    if name == "prosody.extract_prosody":
        return {"audio_s": args[0].duration}
    if name == "net.predict_probs":
        audio = kwargs.get("audio", args[2] if len(args) > 2 else None)
        text = kwargs.get("text", args[3] if len(args) > 3 else None)
        return {"frames": len(audio) if audio is not None else len(text)}
    if name == "training.train":
        return {"diverged": int(result[1].failed)}
    return None


class Tracer:
    """Records spans of traced calls; one instance per measuring process."""

    def __init__(self):
        self.spans: list[list] = []   # [call, id, parent, name, start, end, counts]
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self.call_id, len(self.spans), parent, name,
                time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[6] = _counts(name, args, kwargs, result)
            if name == "tensor.conv1d_dilated" and result._backward is not None:
                result._backward = tracer._wrap(result._backward, CONV_BWD)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, path in TRACED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, f"{module}.{path}")
            if isinstance(owner, type):
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("gestprop") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _ancestors(span, by_id):
    parent = span[2]
    while parent is not None:
        p = by_id[parent]
        yield p[3]
        parent = p[2]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one timed call, from its spans."""
    by_id = {s[1]: s for s in spans}
    dur = {s[1]: s[5] - s[4] for s in spans}
    child_time: dict[int, float] = {}
    named: dict[str, list] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + dur[s[1]]
        named.setdefault(s[3], []).append(s)

    def g(name):
        return named.get(name, [])

    def total(group):
        return sum(dur[s[1]] for s in group)

    def self_time(group):
        return sum(dur[s[1]] - child_time.get(s[1], 0.0) for s in group)

    def counted(group, key):
        return sum(s[6][key] for s in group)

    # predict_probs serves validation scoring inside train and the final
    # fold report in run_cv
    role = {"score": [], "report": []}
    for s in g("net.predict_probs"):
        role["score" if "training.train" in _ancestors(s, by_id)
             else "report"].append(s)
    train_forward = [s for s in g("net.forward")
                     if "net.predict_probs" not in _ancestors(s, by_id)]

    prosody = g("prosody.extract_prosody")
    audio_min = counted(prosody, "audio_s") / 60.0
    conv = g("tensor.conv1d_dilated")
    readouts = counted(conv, "readouts")
    batch = g("features.WindowProvider.batch")
    return {
        "prosody.extract_prosody.self_s": self_time(prosody),
        "prosody.extract_prosody.s_per_audio_min":
            total(prosody) / audio_min if audio_min else 0.0,
        "prosody.frame_signal.s": total(g("prosody.frame_signal")),
        "prosody.frame_signal.max_mb": max(
            (s[6]["bytes"] for s in g("prosody.frame_signal")), default=0) / MB,
        "prosody.read_wav.s": total(g("prosody.read_wav")),
        "textfeat.select_window.calls": len(g("textfeat.select_window")),
        "textfeat.select_window.s": total(g("textfeat.select_window")),
        "corpus.build_frame_table.s": total(g("corpus.build_frame_table")),
        "corpus.make_folds_within.s": total(g("corpus.make_folds_within")),
        "features.build_features.self_s": self_time(g("features.build_features")),
        "features.load_dataset.s": total(g("features.load_dataset")),
        "features.WindowProvider.batch.s": total(batch),
        "features.WindowProvider.batch.frames": counted(batch, "frames"),
        "features.WindowProvider.batch.mb": counted(batch, "bytes") / MB,
        "tensor.conv1d_dilated.fwd_s": total(conv),
        "tensor.conv1d_dilated.bwd_s": total(g(CONV_BWD)),
        "tensor.conv1d_dilated.calls": len(conv),
        "tensor.conv1d_dilated.gflop": counted(conv, "flop") / 1e9,
        "tensor.conv1d_dilated.rows_per_readout":
            counted(conv, "rows") / readouts if readouts else 0.0,
        "tensor.Tensor.backward.s": total(g("tensor.Tensor.backward")),
        "tensor.Tensor.backward.calls": len(g("tensor.Tensor.backward")),
        "net.forward.train_s": total(train_forward),
        "net.predict_probs.score_s": total(role["score"]),
        "net.predict_probs.score_frames": counted(role["score"], "frames"),
        "net.predict_probs.report_s": total(role["report"]),
        "training.train.s": total(g("training.train")),
        "training.steps": len(g("training.Adam.step")),
        "training.loss_batch.s": total(g("training.loss_batch")),
        "training.Adam.step.s": total(g("training.Adam.step")),
        "training.diverged": counted(g("training.train"), "diverged"),
        "evaluation.evaluate_property.s": total(g("evaluation.evaluate_property")),
        "experiment.run_cv.self_s": self_time(g("experiment.run_cv")),
        "experiment.run_features.self_s": self_time(g("experiment.run_features")),
    }


def median_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Median over timed calls of each call's per-layer metrics."""
    calls: dict[int, list] = {}
    for s in spans:
        calls.setdefault(s[0], []).append(s)
    per_call = [layer_metrics(group) for _, group in sorted(calls.items())]
    return {name: statistics.median(c[name] for c in per_call)
            for name in LAYER_METRICS}
