"""The benchmark must still run on the program: the span tracer finds every
function it wraps, and the workloads call gestprop the way it is today."""

import importlib
import importlib.util
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from gestprop import forked, tensor
from gestprop.net import DecoderSpec, EncoderSpec, ModelSpec, forward, init_params, input_taps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path in spans.TRACED:
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"gestprop.{module}.{path}"


@pytest.mark.parametrize("audio_layers,text_layers", [(2, 1), (3, None), (None, 2)])
def test_forward_calls_the_traced_conv_once_per_layer(monkeypatch, audio_layers,
                                                      text_layers):
    # the tracer times the convs by rebinding tensor.conv1d_dilated in every
    # gestprop module that holds it; a forward that convolves some other way
    # would make the benchmark read zero conv time
    original = tensor.conv1d_dilated
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gestprop") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)

    def enc(layers):
        return None if layers is None else EncoderSpec(layers=layers, channels=4,
                                                       out_dim=4)

    spec = ModelSpec(head="sigmoid", n_labels=2, audio=enc(audio_layers),
                     text=enc(text_layers), decoder=DecoderSpec(hidden=4),
                     text_dim=5)
    rng = np.random.default_rng(0)
    taps = {name: len(t) for name, t in input_taps(spec).items()}
    forward(spec, init_params(spec, seed=0),
            audio=rng.normal(size=(2, taps.get("audio", 0), spec.audio_channels)),
            text=rng.normal(size=(2, taps.get("text", 0), spec.text_dim)))
    assert len(calls) == (audio_layers or 0) + (text_layers or 0)


@pytest.mark.parametrize("workload", ["cv_combined", "features_long"])
def test_tiny_workloads_pass(monkeypatch, tmp_path, workload):
    # a keyword or name the workloads pass that gestprop no longer takes
    # breaks the benchmark; run its set-up and timed loop at the tiny size
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as is
    modules = ("spans", "workloads", "worker")      # perfbench's top-level names
    for name in modules:
        monkeypatch.delitem(sys.modules, name, raising=False)
    worker = importlib.import_module("worker")
    try:
        root = str(tmp_path / "work")
        worker.setup(Namespace(workload=workload, root=root, size="tiny", seed=7,
                               reps=1))
        result = worker.measure(Namespace(workload=workload, root=root, size="tiny",
                                          seconds=0, trace=0, spans=None))
        if workload == "cv_combined":
            # the tracer records spans only in its own process, so the traced
            # call trains every fold here; the untraced one above forks
            monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
            traced = worker.measure(Namespace(workload=workload, root=root, size="tiny",
                                              seconds=0, trace=1,
                                              spans=str(tmp_path / "spans.json")))
    finally:
        for name in modules:
            sys.modules.pop(name, None)
    assert result["failed"] == 0
    assert result["problems"] == []
    if workload == "cv_combined":
        # the tracer counts the frames net.predict_probs scores from its
        # audio=/text= keywords, and files a call under train as validation
        # scoring; every fold's report comes from that scorer
        layers = traced["layers"]
        assert traced["failed"] == 0
        assert layers["net.predict_probs.score_frames"] > 0
        assert layers["net.predict_probs.report_s"] == 0
        # the tracer counts a step per Adam.step call and times the loss and
        # the update there: 2 folds of 30 steps, one backward each
        assert layers["training.steps"] == 2 * 30
        assert layers["tensor.Tensor.backward.calls"] == layers["training.steps"]
        assert layers["training.loss_batch.s"] > 0 and layers["training.Adam.step.s"] > 0
