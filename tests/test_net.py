"""Model construction, forward pass and checkpoints."""

import copy
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from gestprop import tensor as T
from gestprop import training
from gestprop.net import (CHECKPOINT_MAGIC, DecoderSpec, EncoderSpec, ModelParams,
                          ModelSpec, _layer_dims, conv_stack, field_width, forward,
                          from_fields, init_params, input_taps, load_checkpoint,
                          predict_probs, receptive_field, save_checkpoint)
from gestprop.tensor import Tensor
from gestprop.training import loss_batch
from autodiff_reference import weighted_sum
from window_reference import conv_stack_on_windows, gather_taps

RNG = np.random.default_rng(8)


def small_spec(head="sigmoid", n_labels=4, speaker_dim=0):
    return ModelSpec(
        head=head, n_labels=n_labels,
        audio=EncoderSpec(layers=2, channels=6, kernel=3, out_dim=8),
        text=EncoderSpec(layers=1, channels=6, kernel=3, out_dim=8),
        decoder=DecoderSpec(hidden=10, layers=1),
        audio_channels=5, audio_frames=41, text_dim=13, text_slots=7,
        speaker_dim=speaker_dim,
    )


def batch_for(spec, n=3, rng=RNG):
    out = {}
    taps = input_taps(spec)
    if spec.audio is not None:
        out["audio"] = rng.normal(size=(n, len(taps["audio"]), spec.audio_channels))
    if spec.text is not None:
        out["text"] = rng.normal(size=(n, len(taps["text"]), spec.text_dim))
    if spec.speaker_dim:
        sp = np.zeros((n, spec.speaker_dim))
        sp[np.arange(n), rng.integers(0, spec.speaker_dim, n)] = 1.0
        out["speaker"] = sp
    return out


def test_init_deterministic_and_seed_sensitive():
    spec = small_spec()
    a = init_params(spec, seed=5)
    b = init_params(spec, seed=5)
    c = init_params(spec, seed=6)
    assert set(a.tensors) == set(b.tensors)
    for k in a.tensors:
        assert np.array_equal(a.tensors[k], b.tensors[k])
    assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)


def test_init_bounds_and_zero_biases():
    spec = small_spec()
    params = init_params(spec, seed=0)
    w = params.tensors["audio.conv0.w"]
    bound = np.sqrt(6.0 / (3 * 5))       # kernel * in_channels
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound
    for name, arr in params.tensors.items():
        if name.endswith(".b"):
            assert np.array_equal(arr, np.zeros_like(arr))
        assert arr.dtype == np.float32


def test_parameter_names_and_shapes():
    spec = small_spec(speaker_dim=3)
    params = init_params(spec, seed=0)
    shapes = {k: v.shape for k, v in params.tensors.items()}
    assert shapes["audio.conv0.w"] == (3, 5, 6)
    assert shapes["audio.conv1.w"] == (3, 6, 6)
    assert shapes["audio.proj.w"] == (6, 8)
    assert shapes["text.conv0.w"] == (3, 13, 6)
    assert shapes["text.proj.w"] == (6, 8)
    assert shapes["dec.fc0.w"] == (8 + 8 + 3, 10)
    assert shapes["head.w"] == (10, 4)
    assert shapes["head.b"] == (4,)


def test_forward_shapes_and_ranges():
    spec = small_spec("sigmoid")
    params = init_params(spec, seed=1)
    probs = forward(spec, params, **batch_for(spec, 5))
    assert probs.shape == (5, 4)
    assert np.all((probs.data > 0) & (probs.data < 1))

    soft = small_spec("softmax", n_labels=5)
    sparams = init_params(soft, seed=1)
    sprobs = forward(soft, sparams, **batch_for(soft, 5))
    assert np.allclose(sprobs.data.sum(axis=1), 1.0, atol=1e-6)


def test_forward_deterministic_without_dropout():
    spec = small_spec()
    params = init_params(spec, seed=2)
    batch = batch_for(spec, 4)
    a = forward(spec, params, **batch)
    b = forward(spec, params, **batch)
    assert np.array_equal(a.data, b.data)


def test_dropout_needs_rng_and_changes_output():
    spec = ModelSpec(head="sigmoid", n_labels=2,
                     audio=EncoderSpec(layers=1, channels=4, dropout=0.5, out_dim=4),
                     text=None, decoder=DecoderSpec(hidden=4, layers=0),
                     audio_channels=5, audio_frames=41)
    params = init_params(spec, seed=3)
    batch = batch_for(spec, 4)
    with pytest.raises(ValueError, match="rng"):
        forward(spec, params, **batch, training=True)
    a = forward(spec, params, **batch, training=True, rng=np.random.default_rng(0))
    b = forward(spec, params, **batch, training=True, rng=np.random.default_rng(0))
    c = forward(spec, params, **batch, training=True, rng=np.random.default_rng(1))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    eval_a = forward(spec, params, **batch)
    eval_b = forward(spec, params, **batch)
    assert np.array_equal(eval_a.data, eval_b.data)


def test_shape_errors_name_the_tensor():
    spec = small_spec()
    params = init_params(spec, seed=0)
    batch = batch_for(spec, 3)
    assert batch["audio"].shape == (3, 9, 5)        # 2 layers of k=3: 3 rows of 3 taps
    for frames in (7, 41):
        with pytest.raises(ValueError, match=rf"audio taps must be \(B, 9, 5\), "
                                             rf"got \(3, {frames}, 5\)"):
            forward(spec, params, audio=RNG.normal(size=(3, frames, 5)), text=batch["text"])
    with pytest.raises(ValueError, match="text taps"):
        forward(spec, params, audio=batch["audio"], text=batch["text"][:, :, :5])
    with pytest.raises(ValueError, match="no audio"):
        forward(spec, params, text=batch["text"])
    sp = small_spec(speaker_dim=2)
    spp = init_params(sp, seed=0)
    with pytest.raises(ValueError, match="speaker"):
        forward(sp, spp, **batch_for(small_spec(), 3))
    with pytest.raises(ValueError, match=r"speaker one-hots must be \(B, 2\)"):
        forward(sp, spp, **batch_for(small_spec(speaker_dim=3), 3,
                                     np.random.default_rng(0)))


def test_spec_validation():
    with pytest.raises(ValueError, match="head"):
        ModelSpec(head="linear", n_labels=2)
    with pytest.raises(ValueError, match="encoder"):
        ModelSpec(head="sigmoid", n_labels=2, audio=None, text=None)
    with pytest.raises(ValueError, match="odd"):
        EncoderSpec(kernel=4)


def test_spec_roundtrip_via_dict():
    spec = small_spec("softmax", n_labels=5, speaker_dim=8)
    again = from_fields(ModelSpec, spec.to_dict())
    assert again == spec
    no_audio = ModelSpec(head="sigmoid", n_labels=2, audio=None,
                         text=EncoderSpec())
    assert from_fields(ModelSpec, no_audio.to_dict()) == no_audio


def test_spec_from_dict_names_unknown_keys():
    d = small_spec().to_dict()
    with pytest.raises(ValueError, match=r"unknown ModelSpec keys \['depth'\]"):
        from_fields(ModelSpec, {**d, "depth": 2})
    with pytest.raises(ValueError, match=r"unknown EncoderSpec keys \['reduce'\] in audio"):
        from_fields(ModelSpec, {**d, "audio": {**d["audio"], "reduce": "center"}})
    with pytest.raises(ValueError, match=r"unknown DecoderSpec keys \['width'\] in decoder"):
        from_fields(ModelSpec, {**d, "decoder": {**d["decoder"], "width": 3}})


@pytest.mark.parametrize("edit,message", [
    ({"n_labels": True}, "n_labels must be an integer, got true"),
    ({"n_labels": 2.0}, "n_labels must be an integer, got 2.0"),
    ({"head": None}, "head must be a string, got null"),
    ({"audio": {"dropout": "0"}}, 'audio.dropout must be a number, got "0"'),
    ({"decoder": None}, "decoder must be a JSON object, got null"),
    ({"text": []}, "text must be a JSON object, got []"),
    ({"head": ""}, "missing required settings: head"),
], ids=["bool_for_int", "float_for_int", "null_for_str", "str_for_float",
        "null_for_object", "array_for_object", "empty_required"])
def test_from_fields_rejects_wrong_json_types_naming_the_key(edit, message):
    d = {**small_spec().to_dict(), **edit}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_fields(ModelSpec, d)
    with pytest.raises(ValueError, match=f"^x.json: {re.escape(message)}$"):
        from_fields(ModelSpec, d, source="x.json")


def test_from_fields_takes_ints_for_floats_and_null_for_optional_objects():
    d = small_spec().to_dict()
    spec = from_fields(ModelSpec, {**d, "audio": None, "decoder": {"dropout": 0}})
    assert spec.audio is None and spec.decoder == DecoderSpec(dropout=0)
    # range errors are the spec's own, not the loader's, so no source prefix
    with pytest.raises(ValueError, match="^need >= 1 label, got 0$"):
        from_fields(ModelSpec, {**d, "n_labels": 0}, source="x.json")


def full_stack_center(prefix, enc, x, pt):
    """Reference: every row at dilations 1, 2, 4, ..., then the center row."""
    h = x
    for i in range(enc.layers):
        h = T.relu(T.conv1d_dilated(h, pt[f"{prefix}.conv{i}.w"], pt[f"{prefix}.conv{i}.b"],
                                    dilation=2 ** i))
    return T.select_time(h, h.shape[1] // 2)


def rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("frames", [1, 2, 6, 7, 8, 41])
def test_conv_stack_matches_full_length_stack(frames, layers, kernel):
    # the pruned stack computes only the center's receptive-field tree; its
    # output and every gradient must equal the full-length stack's up to
    # float summation order, also when the field is wider than the window
    rng = np.random.default_rng([frames, layers, kernel])
    enc = EncoderSpec(layers=layers, channels=4, kernel=kernel, out_dim=4)
    x = rng.normal(size=(3, frames, 2))
    arrays = {f"audio.conv{i}.{p}": rng.normal(size=shape)
              for i in range(layers)
              for p, shape in (("w", (kernel, 2 if i == 0 else 4, 4)), ("b", (4,)))}
    weights = rng.normal(size=(3, 4))
    taps = input_taps(ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=None,
                                audio_frames=frames))["audio"]

    def tapped_stack(prefix, enc, x, pt):
        return conv_stack(prefix, enc, gather_taps(x, taps), pt)

    results = []
    for stack in (tapped_stack, full_stack_center):
        pt = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        xt = Tensor(x, requires_grad=True)
        out = stack("audio", enc, xt, pt)
        weighted_sum(out, weights).backward()
        results.append((out.data, xt.grad, {k: t.grad for k, t in pt.items()}))
    (got, gx, grads), (want, wx, want_grads) = results
    assert got.shape == (3, 4)
    assert rel_diff(got, want) <= 1e-12
    assert rel_diff(gx, wx) <= 1e-12
    for name in arrays:
        assert rel_diff(grads[name], want_grads[name]) <= 1e-12, name


def test_center_readout_sees_only_center_window():
    # moving a frame outside the receptive field must not change the center
    # embedding; moving the field's edge frame must
    spec = small_spec()
    pt = {k: Tensor(v) for k, v in init_params(spec, seed=4).tensors.items()}
    x = RNG.normal(size=(1, 41, 5))
    taps = input_taps(spec)["audio"]

    def embed(audio):
        return conv_stack("audio", spec.audio, gather_taps(Tensor(audio), taps), pt).data

    for frame, changes in ((16, False), (17, True), (20, True), (23, True), (24, False)):
        moved = x.copy()
        moved[0, frame, :] += 10.0       # the field is frames 17..23 of 0..40
        assert np.array_equal(embed(moved), embed(x)) != changes, frame


@pytest.mark.parametrize("layers,kernel", [
    (layers, kernel) for layers in (1, 2, 3, 4) for kernel in (3, 5)])
def test_conv_stack_reads_the_same_on_the_cropped_window(layers, kernel):
    # forward takes only the taps of the frames the encoder reads; on them
    # conv_stack must give bit for bit what the stack gave on the full 41
    spec = ModelSpec(head="sigmoid", n_labels=1, text=None,
                     audio=EncoderSpec(layers=layers, channels=4, kernel=kernel, out_dim=4))
    width = field_width(spec.audio, 41)
    assert width == min(2 * (kernel // 2) * (2 ** layers - 1) + 1, 41)
    pt = {k: Tensor(v) for k, v in init_params(spec, seed=layers).tensors.items()}
    full = np.random.default_rng([layers, kernel]).normal(size=(8, 41, 5)).astype(np.float32)
    lo = (41 - width) // 2
    taps = input_taps(spec)["audio"]
    assert set(np.clip(taps, 0, 40)) == set(range(lo, lo + width))
    cropped = conv_stack("audio", spec.audio, gather_taps(Tensor(full), taps), pt).data
    want = conv_stack_on_windows("audio", spec.audio, Tensor(full), pt).data
    assert np.array_equal(cropped, want)
    assert (width < 41) == ((layers, kernel) != (4, 5))   # k=5 at 4 layers reads all 41


@pytest.mark.parametrize("audio,text,want", [
    (EncoderSpec(layers=2), EncoderSpec(layers=2),
     {"audio_half_frames": 3, "audio_half_s": 0.15, "text_slots": 7}),
    (EncoderSpec(layers=4, kernel=5), EncoderSpec(layers=1),
     {"audio_half_frames": 20, "audio_half_s": 1.0, "text_slots": 3}),
    (None, EncoderSpec(layers=3),
     {"audio_half_frames": None, "audio_half_s": None, "text_slots": 7}),
])
def test_receptive_field_states_what_the_encoders_read(audio, text, want):
    spec = ModelSpec(head="sigmoid", n_labels=1, audio=audio, text=text)
    assert receptive_field(spec) == want


def test_checkpoint_roundtrip_and_byte_identity(tmp_path):
    spec = small_spec("softmax", n_labels=5, speaker_dim=2)
    params = init_params(spec, seed=11)
    p1 = tmp_path / "model.ckpt"
    p2 = tmp_path / "model2.ckpt"
    save_checkpoint(p1, spec, params, meta={"fold": 3})
    save_checkpoint(p2, spec, params, meta={"fold": 3})
    assert p1.read_bytes() == p2.read_bytes()
    spec2, params2, meta = load_checkpoint(p1)
    assert spec2 == spec
    assert meta == {"fold": 3}
    assert set(params2.tensors) == set(params.tensors)
    for k in params.tensors:
        assert np.array_equal(params2.tensors[k], params.tensors[k])
        assert params2.tensors[k].dtype == params.tensors[k].dtype
    again = predict_probs(spec2, params2, **batch_for(spec, 4, np.random.default_rng(1)))
    ref = predict_probs(spec, params, **batch_for(spec, 4, np.random.default_rng(1)))
    assert np.array_equal(again, ref)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)
    spec = small_spec()
    params = init_params(spec, seed=0)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, spec, params)
    blob = good.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:-40])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "cut.ckpt")

    # cuts inside the length field and inside the JSON header, and headers
    # without the parameter list or an entry's dtype, each fail naming the file
    magic = len(CHECKPOINT_MAGIC)
    (blob_len,) = struct.unpack("<Q", blob[magic:magic + 8])
    header = json.loads(blob[magic + 8:magic + 8 + blob_len])

    def framed(h):
        text = json.dumps(h).encode()
        return (blob[:magic] + struct.pack("<Q", len(text)) + text
                + blob[magic + 8 + blob_len:])

    cases = {"magic_only": blob[:magic], "cut_length": blob[:magic + 3],
             "cut_header": blob[:magic + 8 + blob_len // 2],
             "no_params": framed({k: v for k, v in header.items() if k != "params"}),
             "no_dtype": framed({**header,
                                 "params": [{"name": "head.b", "shape": [4]}]})}
    for name, data in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"{name}.ckpt: truncated or corrupt header"):
            load_checkpoint(path)
    (tmp_path / "no_head.ckpt").write_bytes(framed({**header, "spec": {}}))
    with pytest.raises(ValueError, match="no_head.ckpt: missing required settings: "
                                         "spec.head, spec.n_labels"):
        load_checkpoint(tmp_path / "no_head.ckpt")
    (tmp_path / "str_labels.ckpt").write_bytes(
        framed({**header, "spec": {**header["spec"], "n_labels": "2"}}))
    with pytest.raises(ValueError, match='str_labels.ckpt: spec.n_labels must be an '
                                         'integer, got "2"'):
        load_checkpoint(tmp_path / "str_labels.ckpt")


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    spec = small_spec()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, spec, init_params(spec, seed=0))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="model.ckpt.*trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_with_unknown_spec_keys_names_the_file(tmp_path):
    spec = small_spec()

    class OldSpec:           # a spec written with a field the model no longer has
        def to_dict(self):
            d = spec.to_dict()
            d["audio"]["reduce"] = "center"
            return d

    path = tmp_path / "old.ckpt"
    save_checkpoint(path, OldSpec(), init_params(spec, seed=0))
    with pytest.raises(ValueError, match=r"old.ckpt: unknown EncoderSpec keys \['reduce'\]"):
        load_checkpoint(path)


def frame(header: dict, body: bytes = b"") -> bytes:
    """Checkpoint bytes: magic, header length, the JSON header, then the buffer."""
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + body


def entries_of(params, dtype="float32"):
    return [{"name": name, "shape": list(arr.shape), "dtype": dtype}
            for name, arr in params.tensors.items()]


def test_params_are_named_views_of_one_vector():
    spec = small_spec(speaker_dim=2)
    params = init_params(spec, seed=3)
    assert list(params.tensors) == [name for name, _, _ in _layer_dims(spec)]
    assert np.array_equal(np.concatenate([a.ravel() for a in params.tensors.values()]),
                          params.flat)
    params.flat[:] = 2.0
    assert all(np.all(a == 2.0) for a in params.tensors.values())
    with pytest.raises(ValueError, match=f"has {params.flat.size} parameters"):
        ModelParams(spec, params.flat[:-1])


class _GatheredProvider:
    """Frames whose windows are already gathered at a spec's taps, for train."""

    def __init__(self, windows, labels, exclusive):
        self.windows, self.labels, self.exclusive = windows, labels, exclusive

    def batch(self, idx, taps):
        return {**{k: v[idx] for k, v in self.windows.items()}, "labels": self.labels[idx]}

    def labels_at(self, idx):
        return self.labels[idx]


@pytest.mark.parametrize("modality", ["audio", "text", "both"])
@pytest.mark.parametrize("head", ["sigmoid", "softmax"])
def test_gradients_bound_into_one_vector_equal_the_per_tensor_grads(modality, head,
                                                                    monkeypatch):
    # ModelParams binds each leaf's .grad to its view of one vector laid out
    # like .flat, and train fills that vector with -0.0 before each step
    # (-0.0 + g is g bit for bit): with it NaN at first, every step's
    # gradient Adam sees equals, as bytes, the per-tensor .grads of a second
    # ModelParams on that step's weights whose leaves' .grad start unbound,
    # under one dropout stream. The fill is checked as bytes on its own, as
    # numpy's sums and BLAS yield no -0.0 that a +0.0 fill would flip
    enc = EncoderSpec(layers=2, channels=6, kernel=3, dropout=0.3, out_dim=8)
    spec = ModelSpec(head=head, n_labels=3,
                     audio=enc if modality != "text" else None,
                     text=enc if modality != "audio" else None,
                     decoder=DecoderSpec(hidden=10, layers=2, dropout=0.3),
                     audio_channels=5, audio_frames=41, text_dim=13, text_slots=7,
                     speaker_dim=3)
    rng = np.random.default_rng(6)
    windows = {k: v.astype(np.float32) for k, v in batch_for(spec, 32, rng).items()}
    labels = np.zeros((32, 3))
    labels[np.arange(32), rng.integers(0, 3, 32)] = 1.0
    steps = []
    init, step = training.init_params, training.Adam.step

    def nan_init(*args, **kw):
        params = init(*args, **kw)
        params.grad[:] = np.nan
        return params

    def recording_forward(spec, params, **kw):
        steps.append({"filled": params.grad.tobytes(), "flat": params.flat.copy(),
                      "kw": {**kw, "rng": copy.deepcopy(kw["rng"])}})
        return forward(spec, params, **kw)

    def recording_loss(probs, *args):
        steps[-1]["loss"] = args
        return loss_batch(probs, *args)

    def recording_step(opt, grad):
        steps[-1]["grad"] = grad.tobytes()
        step(opt, grad)

    monkeypatch.setattr(training, "init_params", nan_init)
    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "loss_batch", recording_loss)
    monkeypatch.setattr(training.Adam, "step", recording_step)
    training.train(spec, _GatheredProvider(windows, labels, head == "softmax"), np.arange(32),
                   training.TrainConfig(steps=3, batch=16, lr=1e-2, evals=1), seed=4,
                   score=lambda params: SimpleNamespace(headline=lambda: 0.0))
    assert len(steps) == 3
    for got in steps:
        unbound = ModelParams(spec, got["flat"])
        for leaf in unbound.leaves.values():
            leaf.grad = None
        loss_batch(forward(spec, unbound, **got["kw"]), *got["loss"]).backward()
        want = np.concatenate([unbound.leaves[name].grad.ravel()
                               for name, _, _ in _layer_dims(spec)])
        assert got["filled"] == np.full_like(want, -0.0).tobytes()
        assert got["grad"] == want.tobytes()
        assert np.count_nonzero(want) > 0.5 * want.size


def test_the_taps_are_read_only():
    # every forward and batch of a model reads one params.taps; a write to
    # it would move the windows of every later step
    params = init_params(small_spec(), seed=0)
    assert set(params.taps) == {"audio", "text"}
    for taps in params.taps.values():
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0


def test_checkpoint_format_is_a_header_then_each_parameter_in_turn(tmp_path):
    # the layout checkpoints had when every parameter was its own array: the
    # header lists name, shape and dtype in _layer_dims order, then each
    # parameter's little-endian bytes follow in that order
    spec = small_spec("softmax", speaker_dim=2)
    rng = np.random.default_rng(4)
    tensors = {name: rng.normal(size=shape).astype(np.float32)
               for name, shape, _ in _layer_dims(spec)}
    header = {"spec": spec.to_dict(), "meta": {"fold": 1},
              "params": [{"name": name, "shape": list(arr.shape), "dtype": "float32"}
                         for name, arr in tensors.items()]}
    data = frame(header, b"".join(arr.astype("<f4").tobytes() for arr in tensors.values()))
    path = tmp_path / "per_tensor.ckpt"
    path.write_bytes(data)
    spec2, params, meta = load_checkpoint(path)
    assert spec2 == spec and meta == {"fold": 1}
    assert list(params.tensors) == list(tensors)
    for name, arr in tensors.items():
        assert params.tensors[name].dtype == np.float32
        assert np.array_equal(params.tensors[name], arr)
    save_checkpoint(tmp_path / "again.ckpt", spec2, params, meta)
    assert (tmp_path / "again.ckpt").read_bytes() == data


def test_checkpoint_rejects_params_that_do_not_fit_the_spec(tmp_path):
    spec = small_spec()
    params = init_params(spec, seed=0)
    entries = entries_of(params)
    body = params.flat.astype("<f4").tobytes()
    wide = {"name": "head.w", "shape": [10, 5], "dtype": "float32"}
    cases = {
        "misshapen": [wide if e["name"] == "head.w" else e for e in entries],
        "missing": [e for e in entries if e["name"] != "dec.fc0.b"],
        "extra": entries + [{"name": "dec.fc9.b", "shape": [3], "dtype": "float32"}],
    }
    for name, listed in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(frame({"spec": spec.to_dict(), "meta": {}, "params": listed},
                               body))
        with pytest.raises(ValueError, match=f"{name}.ckpt.*misshapen for the model spec"):
            load_checkpoint(path)

    swapped = entries[1::-1] + entries[2:]
    path = tmp_path / "swapped.ckpt"
    path.write_bytes(frame({"spec": spec.to_dict(), "meta": {}, "params": swapped}, body))
    with pytest.raises(ValueError, match="swapped.ckpt: parameters are out of order"):
        load_checkpoint(path)

    # one float64 entry among float32 ones: nothing writes it, and one
    # buffer cannot hold it
    mixed = [{**e, "dtype": "float64"} if e["name"] == "head.b" else e for e in entries]
    path = tmp_path / "mixed.ckpt"
    path.write_bytes(frame({"spec": spec.to_dict(), "meta": {}, "params": mixed},
                           body + bytes(4 * spec.n_labels)))
    with pytest.raises(ValueError, match=r"mixed.ckpt: .*mixed dtypes \['float32', 'float64'\]"):
        load_checkpoint(path)
