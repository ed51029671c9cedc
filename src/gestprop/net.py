"""Dual-encoder gesture-property classifier.

Each modality gets its own encoder: a stack of zero-padded dilated 1-D
convolutions (dilation doubling per layer, ReLU + dropout after each), a
readout of the activation at the center time step, the position being
predicted, and a linear projection. Only the center's receptive-field tree
is computed: layer i of L is needed at the frames center + m * 2**(i+1)
for |m| <= (kernel // 2) * (2**(L-1-i) - 1), so each layer keeps every
second row of the grid the layer below kept (see conv_stack). Embeddings
from the active modalities (plus an optional speaker one-hot) are
concatenated and decoded by an MLP; the head is a sigmoid per label for
non-exclusive properties and gesture presence, or a softmax across labels
for the exclusive phase property.

Weights initialize uniform in [-a, a] with a = sqrt(6 / fan_in); biases
start at zero.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import tensor as T
from .corpus import AUDIO_CONTEXT_FRAMES, FPS
from .evaluation import write_atomic
from .prosody import PROSODY_COLUMNS
from .tensor import Tensor
from .textfeat import WINDOW_SLOTS

TEXT_DIM = 301             # 300-d embedding + timing offset

CHECKPOINT_MAGIC = b"GPROPCKPT1\n"


# the JSON type of each settings field type, named for messages
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "a JSON object"}


def _settings_error(source: str, message: str) -> ValueError:
    return ValueError(f"{source}: {message}" if source else message)


def typed(value, tp, path: str, source: str = ""):
    """value as a setting of type tp, a dataclass or one of _JSON_TYPES, either
    maybe `| None`; else a ValueError naming path, and source (the file the
    value came from) when given. A bool is not an int; an int is a float."""
    if type(None) in get_args(tp):                      # X | None
        if value is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        return from_fields(tp, value, path, source)
    if isinstance(value, (int, float) if tp is float else tp) \
            and isinstance(value, bool) == (tp is bool):
        return value
    raise _settings_error(source, f"{path or 'the config'} must be {_JSON_TYPES[tp]}, "
                                  f"got {json.dumps(value, default=repr)}")


def from_fields(cls, d, path: str = "", source: str = ""):
    """The settings dataclass cls from the JSON object d found at path, each
    value typed by its field's type. A field's JSON key is its name, or the
    "key" of its metadata. An unknown key, or a missing required one (an
    empty string counts as missing), is a ValueError naming path and source
    like typed's; range errors are cls's own."""
    d = typed(d, dict, path, source)
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise _settings_error(source, f"unknown {cls.__name__} keys {unknown}"
                                      f"{' in ' + path if path else ''}; "
                                      f"choose from {sorted(keys)}")
    hints = get_type_hints(cls)
    kw = {keys[key].name: typed(value, hints[keys[key].name], f"{path}.{key}".lstrip("."),
                                source)
          for key, value in d.items()}
    missing = [f"{path}.{key}".lstrip(".") for key, f in keys.items()
               if f.default is MISSING and f.default_factory is MISSING
               and kw.get(f.name) in (None, "")]
    if missing:
        raise _settings_error(source, f"missing required settings: {', '.join(missing)}")
    return cls(**kw)


@dataclass(frozen=True)
class EncoderSpec:
    layers: int = 3
    channels: int = 24
    kernel: int = 3
    dropout: float = 0.0
    out_dim: int = 24

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"encoder needs >= 1 layer, got {self.layers}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class DecoderSpec:
    hidden: int = 48
    layers: int = 1
    dropout: float = 0.0

    def __post_init__(self):
        if self.layers < 0:
            raise ValueError(f"decoder layers must be >= 0, got {self.layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class ModelSpec:
    head: str
    n_labels: int
    audio: EncoderSpec | None = field(default_factory=EncoderSpec)
    text: EncoderSpec | None = field(default_factory=EncoderSpec)
    decoder: DecoderSpec = field(default_factory=DecoderSpec)
    audio_channels: int = len(PROSODY_COLUMNS)
    audio_frames: int = 2 * AUDIO_CONTEXT_FRAMES + 1     # +-1 s at 20 fps
    text_dim: int = TEXT_DIM
    text_slots: int = WINDOW_SLOTS
    speaker_dim: int = 0

    def __post_init__(self):
        if self.head not in ("sigmoid", "softmax"):
            raise ValueError(f"head must be 'sigmoid' or 'softmax', got {self.head!r}")
        if self.n_labels < 1:
            raise ValueError(f"need >= 1 label, got {self.n_labels}")
        if self.audio is None and self.text is None:
            raise ValueError("at least one encoder must be active")

    def to_dict(self) -> dict:
        return asdict(self)


def _layer_dims(spec: ModelSpec):
    """Yield (name, shape, fan_in) for every parameter tensor in order."""
    dec_in = 0
    for prefix, enc, c_in in (("audio", spec.audio, spec.audio_channels),
                              ("text", spec.text, spec.text_dim)):
        if enc is None:
            continue
        for i in range(enc.layers):
            cin = c_in if i == 0 else enc.channels
            yield f"{prefix}.conv{i}.w", (enc.kernel, cin, enc.channels), enc.kernel * cin
            yield f"{prefix}.conv{i}.b", (enc.channels,), None
        yield f"{prefix}.proj.w", (enc.channels, enc.out_dim), enc.channels
        yield f"{prefix}.proj.b", (enc.out_dim,), None
        dec_in += enc.out_dim
    dec_in += spec.speaker_dim
    width = dec_in
    for i in range(spec.decoder.layers):
        yield f"dec.fc{i}.w", (width, spec.decoder.hidden), width
        yield f"dec.fc{i}.b", (spec.decoder.hidden,), None
        width = spec.decoder.hidden
    yield "head.w", (width, spec.n_labels), width
    yield "head.b", (spec.n_labels,), None


def _n_params(spec: ModelSpec) -> int:
    return sum(math.prod(shape) for _, shape, _ in _layer_dims(spec))


class ModelParams:
    """A model's parameters and the layout forward runs on, built once:
    .flat, every parameter in one vector in _layer_dims order; .grad, one
    vector laid out like .flat, zero at first; .leaves, the graph's parameter
    tensors, each on its view of .flat with its .grad bound to its view of
    .grad, so an update of .flat updates them all and backward() adds every
    gradient into .grad; .taps, input_taps(spec), read-only."""

    def __init__(self, spec: ModelSpec, flat: np.ndarray):
        if flat.shape != (_n_params(spec),):
            raise ValueError(f"the model has {_n_params(spec)} parameters, "
                             f"got a vector of shape {flat.shape}")
        self.flat, self.grad = flat, np.zeros_like(flat)
        self.leaves, end = {}, 0
        for name, shape, _ in _layer_dims(spec):
            start, end = end, end + math.prod(shape)
            self.leaves[name] = leaf = Tensor(flat[start:end].reshape(shape), requires_grad=True)
            leaf.grad = self.grad[start:end].reshape(shape)
        self.taps = input_taps(spec)
        for arr in self.taps.values():
            arr.setflags(write=False)

    @property
    def tensors(self) -> dict[str, np.ndarray]:
        """Each parameter by name: its leaf's view of .flat."""
        return {name: leaf.data for name, leaf in self.leaves.items()}


def init_params(spec: ModelSpec, seed: int, dtype=np.float32) -> ModelParams:
    """Uniform(-a, a) weights with a = sqrt(6 / fan_in); zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    params = ModelParams(spec, np.zeros(_n_params(spec), dtype=dtype))
    for name, shape, fan_in in _layer_dims(spec):
        if fan_in is not None:
            a = np.sqrt(6.0 / fan_in)
            params.leaves[name].data[...] = rng.uniform(-a, a, size=shape)
    return params


def field_width(enc: EncoderSpec, steps: int) -> int:
    """Steps of a centered odd-length window that enc's readout reads: its receptive
    field, 2 * (kernel // 2) * (2**layers - 1) + 1, clipped to the window."""
    return min(2 * (enc.kernel // 2) * (2 ** enc.layers - 1) + 1, steps)


def receptive_field(spec: ModelSpec) -> dict:
    """Audio frames and seconds each side of the predicted frame, and text
    slots, that the encoders read; None for an absent encoder."""
    half = field_width(spec.audio, spec.audio_frames) // 2 if spec.audio else None
    return {"audio_half_frames": half, "audio_half_s": None if half is None else half / FPS,
            "text_slots": field_width(spec.text, spec.text_slots) if spec.text else None}


def _grid_rows(enc: EncoderSpec, n: int, layer: int) -> np.ndarray:
    """Rows n // 2 + 2m, |m| <= (kernel // 2) * (2**(layers-1-layer) - 1), of n."""
    reach = enc.kernel // 2 * (2 ** (enc.layers - 1 - layer) - 1)
    rows = n // 2 + 2 * np.arange(-reach, reach + 1)
    return rows[(rows >= 0) & (rows < n)]


def input_taps(spec: ModelSpec) -> dict[str, np.ndarray]:
    """Per encoder, the window position each tap of its first layer reads, row
    by row: audio on audio_frames, text on text_slots, a tap off the window
    outside 0..steps-1. ModelParams holds them as .taps."""
    encoders = {"audio": (spec.audio, spec.audio_frames), "text": (spec.text, spec.text_slots)}
    return {name: (_grid_rows(enc, steps, 0)[:, None] + np.arange(enc.kernel)
                   - enc.kernel // 2).ravel()
            for name, (enc, steps) in encoders.items() if enc is not None}


def conv_stack(prefix: str, enc: EncoderSpec, x: Tensor, pt: dict[str, Tensor],
               training: bool = False, rng=None) -> Tensor:
    """Conv, ReLU, then dropout per layer, read out at the center step.

    x is a window gathered at enc's first-layer taps (input_taps), and the
    result (B, channels) the length-preserving stack at dilations 1, 2, 4,
    ... read at the window's center, computing only the rows of its
    receptive-field tree: layer i those of _grid_rows on its input grid, at
    dilation 1 on it, keeping a grid spaced 2**(i+1) frames; layer 0 reads
    each row's kernel taps in turn from x. A tap off the window reads zero,
    as the padding does. Every grid's center is its row len // 2: clipping
    drops at most one row more on the right than on the left.
    """
    h = x
    k = enc.kernel
    for i in range(enc.layers):
        n = h.shape[1]
        rows = k // 2 + k * np.arange(n // k) if i == 0 else _grid_rows(enc, n, i)
        h = T.relu(T.conv1d_dilated(h, pt[f"{prefix}.conv{i}.w"], pt[f"{prefix}.conv{i}.b"],
                                    rows=rows))
        h = T.dropout(h, enc.dropout, rng, training)
    return T.select_time(h, 0)


def _encode(prefix: str, enc: EncoderSpec, x: Tensor, pt: dict[str, Tensor],
            training: bool, rng) -> Tensor:
    e = conv_stack(prefix, enc, x, pt, training, rng)
    e = T.relu(T.linear(e, pt[f"{prefix}.proj.w"], pt[f"{prefix}.proj.b"]))
    return T.dropout(e, enc.dropout, rng, training)


def _checked(what: str, x, shape: tuple) -> np.ndarray:
    """x as an array of shape (B, *shape), else a ValueError naming the input."""
    dims = ", ".join(str(d) for d in ("B",) + shape)
    if x is None:
        raise ValueError(f"no {what} given; the model expects ({dims})")
    x = np.asarray(x)
    if x.shape[1:] != shape:
        raise ValueError(f"{what} must be ({dims}), got {x.shape}")
    return x


def forward(spec: ModelSpec, params: ModelParams,
            audio: np.ndarray | None = None,
            text: np.ndarray | None = None,
            speaker: np.ndarray | None = None,
            training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Class probabilities (B, n_labels) of a batch of frames: a sigmoid per
    label or a softmax row, by the head. audio: (B, taps, 5) and text: (B,
    taps, 301) are windows gathered at params.taps; speaker: (B, speaker_dim)
    one-hot. The graph's parameter tensors are params.leaves, so backward()
    on a loss of probs adds its gradients into params.grad."""
    pt, taps = params.leaves, params.taps
    embeddings = []
    if spec.audio is not None:
        a = _checked("audio taps", audio, (len(taps["audio"]), spec.audio_channels))
        embeddings.append(_encode("audio", spec.audio, Tensor(a), pt, training, rng))
    if spec.text is not None:
        x = _checked("text taps", text, (len(taps["text"]), spec.text_dim))
        embeddings.append(_encode("text", spec.text, Tensor(x), pt, training, rng))
    if spec.speaker_dim:
        embeddings.append(Tensor(_checked("speaker one-hots", speaker,
                                          (spec.speaker_dim,))))

    h = embeddings[0] if len(embeddings) == 1 else T.concat(embeddings)
    for i in range(spec.decoder.layers):
        h = T.relu(T.linear(h, pt[f"dec.fc{i}.w"], pt[f"dec.fc{i}.b"]))
        h = T.dropout(h, spec.decoder.dropout, rng, training)
    logits = T.linear(h, pt["head.w"], pt["head.b"])
    return T.sigmoid(logits) if spec.head == "sigmoid" else T.softmax(logits)


def predict_probs(spec: ModelSpec, params: ModelParams,
                  audio: np.ndarray | None = None,
                  text: np.ndarray | None = None,
                  speaker: np.ndarray | None = None) -> np.ndarray:
    """Inference-mode probabilities of one batch, as an array; the inputs
    are forward's, gathered at params.taps."""
    return forward(spec, params, audio=audio, text=text, speaker=speaker).data


# ------------------------------------------------------------------ checkpoints

def save_checkpoint(path: str | Path, spec: ModelSpec, params: ModelParams,
                    meta: dict | None = None) -> None:
    """Versioned binary checkpoint: a JSON header listing each parameter's
    name, shape and dtype, then params.flat as one little-endian buffer."""
    entries = [
        {"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype)}
        for name, arr in params.tensors.items()
    ]
    header = {
        "spec": spec.to_dict(),
        "meta": meta or {},
        "params": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    flat = params.flat
    data = (CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
            + flat.astype(flat.dtype.newbyteorder("<")).tobytes())
    write_atomic(path, lambda tmp: Path(tmp).write_bytes(data))


def load_checkpoint(path: str | Path) -> tuple[ModelSpec, ModelParams, dict]:
    """The spec, parameters and meta; the header must list the spec's
    parameters in order, with their shapes and one dtype."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        try:
            (blob_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(blob_len).decode("utf-8"))
            spec_dict = header["spec"]
            listed = [(e["name"], tuple(e["shape"])) for e in header["params"]]
            dtypes = sorted({str(np.dtype(e["dtype"])) for e in header["params"]})
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: truncated or corrupt header "
                             f"({type(exc).__name__}: {exc})") from None
        try:
            spec = from_fields(ModelSpec, spec_dict, "spec")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        want = [(name, shape) for name, shape, _ in _layer_dims(spec)]
        if listed != want:
            bad = sorted({name for name, _ in set(listed) ^ set(want)})
            why = f"{bad} are missing, extra or misshapen" if bad else "are out of order"
            raise ValueError(f"{path}: parameters {why} for the model spec")
        if len(dtypes) != 1:
            raise ValueError(f"{path}: parameters of mixed dtypes {dtypes}")
        dtype = np.dtype(dtypes[0])
        size = _n_params(spec) * dtype.itemsize
        buf = fh.read(size)
        if len(buf) != size:
            raise ValueError(f"{path}: truncated parameter buffer")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last buffer")
    flat = np.frombuffer(buf, dtype=dtype.newbyteorder("<")).astype(dtype)
    return spec, ModelParams(spec, flat), header.get("meta", {})
