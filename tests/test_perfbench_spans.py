"""The benchmark's span tracer must find every function it wraps."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gestprop import tensor
from gestprop.net import DecoderSpec, EncoderSpec, ModelSpec, forward, init_params

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    forward(spec, init_params(spec, seed=0),
            audio=rng.normal(size=(2, spec.audio_frames, spec.audio_channels)),
            text=rng.normal(size=(2, spec.text_slots, spec.text_dim)))
    assert len(calls) == (audio_layers or 0) + (text_layers or 0)
