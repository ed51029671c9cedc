"""Gesture label schemas, frame-level encoding, and the CV fold protocol.

Thirteen binary labels over three properties describe each 20 fps frame:
phase (mutually exclusive: retraction, preparation, pre-hold, stroke,
post-hold), category (non-exclusive: deictic, beat, iconic, discourse) and
semantics (non-exclusive: amount, shape, direction, size). A frame carries a
gesture when any of the thirteen bits is set. Left- and right-hand tiers are
merged with a per-frame logical OR; phase conflicts after the merge resolve
by precedence (stroke > preparation > pre-hold > post-hold > retraction).
The manifest is the one source of each recording's speaker and tiers:
build_frame_table rasterizes them whenever a dataset loads, and
write_frame_csv writes the same table for people to read; nothing reads it
back.

Cross-validation is within-speaker (k contiguous blocks per speaker, one
block per fold) or between-speaker (hold one speaker out); within_id is
within-speaker with a speaker one-hot appended to the model input. Folds are
planned on the loaded FrameDataset, whose frames, eligibility and input-window
extents are already concatenated in rec-id order. Training frames whose input
window crosses a validation block of the same recording are excluded, as are
frames whose audio window crosses the recording edge.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .textfeat import WordToken, read_lines, read_rows, read_transcript

if TYPE_CHECKING:
    from .features import FrameDataset

log = logging.getLogger(__name__)

AUDIO_CONTEXT_FRAMES = 20     # +-1 s at 20 fps
FPS = 20


@dataclass(frozen=True)
class PropertySchema:
    """A named group of binary labels; exclusive groups are one-hot."""

    name: str
    labels: tuple[str, ...]
    exclusive: bool

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


PHASE = PropertySchema("phase", ("retraction", "preparation", "pre-hold", "stroke", "post-hold"), True)
CATEGORY = PropertySchema("category", ("deictic", "beat", "iconic", "discourse"), False)
SEMANTICS = PropertySchema("semantics", ("amount", "shape", "direction", "size"), False)
PRESENCE = PropertySchema("presence", ("gesture",), False)

SCHEMAS = {s.name: s for s in (PHASE, CATEGORY, SEMANTICS, PRESENCE)}

PHASE_PRECEDENCE = ("stroke", "preparation", "pre-hold", "post-hold", "retraction")

# tier names are matched case-insensitively on these substrings
TIER_KEYS = {"phase": "phase", "category": "phrase", "semantics": "semantic"}


@dataclass
class AnnotationTier:
    name: str
    intervals: list[tuple[float, float, str]]   # (start_s, end_s, label)


@dataclass
class Recording:
    rec_id: int
    speaker: str
    audio_path: Path | None = None
    words: list[WordToken] = field(default_factory=list)
    tiers: list[AnnotationTier] = field(default_factory=list)
    interlocutor: list[tuple[float, float]] = field(default_factory=list)


def encode_labels(label: str, schema: PropertySchema) -> np.ndarray:
    """Binary vector for a (possibly hyphen-joined) label string.

    Matching is case-insensitive; the empty string encodes to all zeros.
    Hyphenated schema labels like "pre-hold" are recognized before the
    hyphen is treated as a joiner, so "beat-iconic" sets two bits while
    "pre-hold" sets one. Unknown tokens raise ValueError.
    """
    vec = np.zeros(schema.n_labels, dtype=np.uint8)
    text = label.strip().lower()
    if not text:
        return vec
    parts = text.split("-")
    i = 0
    while i < len(parts):
        tok = parts[i]
        if i + 1 < len(parts) and f"{tok}-{parts[i + 1]}" in schema.labels:
            tok = f"{tok}-{parts[i + 1]}"
            i += 2
        elif tok in schema.labels:
            i += 1
        else:
            raise ValueError(f"unknown {schema.name} label token {tok!r} in {label!r}")
        vec[schema.index(tok)] = 1
    if schema.exclusive and vec.sum() > 1:
        raise ValueError(f"{schema.name} is exclusive but {label!r} sets {int(vec.sum())} bits")
    return vec


def _tier_matches(tier_name: str, schema: PropertySchema) -> bool:
    return TIER_KEYS[schema.name] in tier_name.lower()


def rasterize(rec: Recording, schema: PropertySchema, n_frames: int) -> np.ndarray:
    """Per-frame label matrix (n_frames, n_labels) for one schema.

    Frame f (time f/20 s) takes the OR of encoded labels of every interval
    covering it, across all tiers whose name matches the schema. Phase rows
    left with more than one bit resolve by precedence. Intervals reaching
    outside [0, n_frames/20) are clipped with a warning.
    """
    out = np.zeros((n_frames, schema.n_labels), dtype=np.uint8)
    for tier in rec.tiers:
        if not _tier_matches(tier.name, schema):
            continue
        for start, end, label in tier.intervals:
            if end <= start:
                continue
            enc = encode_labels(label, schema)
            if not enc.any():
                continue
            f_lo = int(np.ceil(start * FPS - 1e-9))
            f_hi = int(np.ceil(end * FPS - 1e-9)) - 1
            if f_lo < 0 or f_hi > n_frames - 1:
                log.warning(
                    "interval (%.3f, %.3f) of tier %r exceeds the %d-frame grid; clipping",
                    start, end, tier.name, n_frames,
                )
            f_lo, f_hi = max(f_lo, 0), min(f_hi, n_frames - 1)
            if f_lo <= f_hi:
                out[f_lo:f_hi + 1] |= enc
    if schema.exclusive:
        conflicts = np.flatnonzero(out.sum(axis=1) > 1)
        if len(conflicts):
            order = np.array([schema.index(p) for p in PHASE_PRECEDENCE])
            winners = order[np.argmax(out[conflicts][:, order], axis=1)]
            out[conflicts] = 0
            out[conflicts, winners] = 1
            log.warning("resolved %d phase conflicts by precedence (rec %s)",
                        len(conflicts), rec.rec_id)
    return out


@dataclass
class FrameTable:
    """All 13 label bits plus presence at 20 fps."""

    rec_id: int
    speaker: str
    t: np.ndarray                 # frame times, f / 20
    phase: np.ndarray             # (n, 5) uint8
    category: np.ndarray          # (n, 4) uint8
    semantics: np.ndarray         # (n, 4) uint8
    has_gesture: np.ndarray       # (n,) uint8

    @property
    def n_frames(self) -> int:
        return len(self.t)

    def eligible(self) -> np.ndarray:
        """Frames whose +-1 s audio window lies inside the recording."""
        n = self.n_frames
        f = np.arange(n)
        return (f >= AUDIO_CONTEXT_FRAMES) & (f <= n - 1 - AUDIO_CONTEXT_FRAMES)


def build_frame_table(rec: Recording, duration: float) -> FrameTable:
    """Rasterize all three schemas for a recording onto the 20 fps grid."""
    n = int(duration * FPS)
    phase = rasterize(rec, PHASE, n)
    category = rasterize(rec, CATEGORY, n)
    semantics = rasterize(rec, SEMANTICS, n)
    has_gesture = ((phase.any(axis=1)) | (category.any(axis=1))
                   | (semantics.any(axis=1))).astype(np.uint8)
    return FrameTable(rec_id=rec.rec_id, speaker=rec.speaker, t=np.arange(n) / FPS,
                      phase=phase, category=category, semantics=semantics,
                      has_gesture=has_gesture)


FRAME_CSV_COLUMNS = (
    ["frame", "t", "has_gesture"]
    + [f"phase_{l}" for l in PHASE.labels]
    + [f"category_{l}" for l in CATEGORY.labels]
    + [f"semantics_{l}" for l in SEMANTICS.labels]
)


def write_frame_csv(table: FrameTable, path: str | Path) -> None:
    """One row per frame: its time, has_gesture and the 13 label bits."""
    line = "%d,%.9g" + ",%d" * (len(FRAME_CSV_COLUMNS) - 2) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# rec_id={table.rec_id} speaker={table.speaker}\n")
        fh.write(",".join(FRAME_CSV_COLUMNS) + "\n")
        rows = zip(table.t, table.has_gesture, table.phase, table.category, table.semantics)
        fh.writelines(line % (i, t, g, *phase.tolist(), *category.tolist(), *semantics.tolist())
                      for i, (t, g, phase, category, semantics) in enumerate(rows))


# ------------------------------------------------------------------ annotation IO

def _read_interval(path, lineno: int, start_ms: str, end_ms: str) -> tuple[float, float]:
    """(start, end) in seconds from a row's millisecond fields; a time that
    is not a finite number, or an end not after the start, is a ValueError
    naming the file and line."""
    try:
        start, end = float(start_ms) / 1000.0, float(end_ms) / 1000.0
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"{path}: line {lineno}: non-finite time ({start_ms}, {end_ms})")
    if end <= start:
        raise ValueError(f"{path}: line {lineno}: empty or inverted interval "
                         f"({start}, {end})")
    return start, end


def read_annotations(path: str | Path) -> list[AnnotationTier]:
    """Read `tier<TAB>start_ms<TAB>end_ms<TAB>label` rows grouped by tier. A
    label that a schema whose tier name matches cannot encode is a ValueError
    naming the file and line."""
    tiers: dict[str, AnnotationTier] = {}
    for lineno, (name, start_ms, end_ms, label) in read_rows(path, 4):
        start, end = _read_interval(path, lineno, start_ms, end_ms)
        for prop in TIER_KEYS:
            if _tier_matches(name, SCHEMAS[prop]):
                try:
                    encode_labels(label, SCHEMAS[prop])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
        tier = tiers.setdefault(name, AnnotationTier(name=name, intervals=[]))
        tier.intervals.append((start, end, label))
    return list(tiers.values())


def write_annotations(tiers: list[AnnotationTier], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tier in tiers:
            for start, end, label in tier.intervals:
                fh.write(f"{tier.name}\t{round(start * 1000)}\t{round(end * 1000)}\t{label}\n")


def read_interlocutor(path: str | Path) -> list[tuple[float, float]]:
    """Read `start_ms<TAB>end_ms` rows; each must end after it starts."""
    return [_read_interval(path, lineno, *parts) for lineno, parts in read_rows(path, 2)]


def write_interlocutor(intervals: list[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for start, end in intervals:
            fh.write(f"{round(start * 1000)}\t{round(end * 1000)}\n")


# ------------------------------------------------------------------ manifest

def read_json(path: str | Path):
    """The JSON value of a UTF-8 file (see read_lines); text that is not
    JSON is a ValueError naming the file."""
    try:
        return json.loads("\n".join(line for _, line in read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path: str | Path) -> list[Recording]:
    """Load a corpus manifest (JSON array of per-recording objects).

    Each entry: {"id": int, "speaker": str, "audio": path, "transcript":
    path, "annotations": path, "interlocutor": path or null}. Relative
    paths resolve against the manifest's directory. Audio is not loaded
    here. An entry that is not an object, lacks a key other than
    interlocutor, has a non-integer id or an empty speaker, has a path that
    is not a nonempty string, or repeats an earlier id is a ValueError
    naming the file and the entry's index.
    """
    path = Path(path)
    base = path.parent
    entries = read_json(path)
    if not isinstance(entries, list):
        raise ValueError(f"{path}: manifest must be a JSON array")
    recs, first = [], {}         # first: rec id -> index of the entry that has it
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"{path}: entry {i} must be a JSON object, "
                             f"got {type(e).__name__}")
        missing = [k for k in ("id", "speaker", "audio", "transcript", "annotations")
                   if k not in e]
        if missing:
            raise ValueError(f"{path}: entry {i} lacks {', '.join(missing)}")
        rec_id, speaker = e["id"], e["speaker"]
        if type(rec_id) is not int or not isinstance(speaker, str) or not speaker:
            raise ValueError(f"{path}: entry {i} needs an integer id and a nonempty "
                             f"speaker string, got {rec_id!r} and {speaker!r}")
        if rec_id in first:
            raise ValueError(f"{path}: entry {i} repeats id {rec_id} "
                             f"of entry {first[rec_id]}")
        first[rec_id] = i
        for key in ("audio", "transcript", "annotations", "interlocutor"):
            value = e.get(key)
            if key == "interlocutor" and value is None:
                continue
            if not isinstance(value, str) or not value:
                or_null = " or null" if key == "interlocutor" else ""
                raise ValueError(f"{path}: entry {i} {key} must be a nonempty path"
                                 f"{or_null}, got {value!r}")
        rec = Recording(
            rec_id=rec_id,
            speaker=speaker,
            audio_path=base / e["audio"],
            words=read_transcript(base / e["transcript"]),
            tiers=read_annotations(base / e["annotations"]),
            interlocutor=read_interlocutor(base / e["interlocutor"])
            if e.get("interlocutor") else [],
        )
        recs.append(rec)
    return recs


# ------------------------------------------------------------------ folds

@dataclass
class FoldPlan:
    """Per fold, the dataset's frame indices to validate and to train on."""

    val: list[np.ndarray]
    train: list[np.ndarray]


def _train_mask_for_fold(dataset: FrameDataset, val: np.ndarray) -> np.ndarray:
    """Eligible frames outside the fold, minus window-crossing frames.

    A frame is excluded when its input-window extent [win_lo, win_hi]
    intersects the time span of a validation run in the same recording.
    """
    val_mask = np.zeros(dataset.n_frames, dtype=bool)
    val_mask[val] = True
    keep = dataset.eligible & ~val_mask
    starts = np.flatnonzero(np.diff(dataset.rec_ids)) + 1     # one run per recording
    for lo, hi in zip([0, *starts], [*starts, dataset.n_frames]):
        idx = np.flatnonzero(val_mask[lo:hi]) + lo
        if not len(idx):
            continue
        # contiguous validation runs -> time intervals
        breaks = np.flatnonzero(np.diff(idx) > 1)
        run_starts = np.concatenate([[idx[0]], idx[breaks + 1]])
        run_ends = np.concatenate([idx[breaks], [idx[-1]]])
        win_lo, win_hi = dataset.win_lo[lo:hi], dataset.win_hi[lo:hi]
        crossing = np.zeros(hi - lo, dtype=bool)
        for s, e in zip(run_starts, run_ends):
            crossing |= (win_hi >= dataset.t[s] - 1e-9) & (win_lo <= dataset.t[e] + 1e-9)
        keep[lo:hi] &= ~crossing
    return keep


def make_folds_within(dataset: FrameDataset, k: int = 20) -> FoldPlan:
    """Within-speaker folds: k contiguous blocks of each speaker's frames.

    Each speaker's eligible frames (recordings ordered by id) split into k
    contiguous blocks, sizes differing by at most one with remainders given
    to the earliest blocks; fold j validates on block j of every speaker.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for speaker in dataset.speaker_list:
        frames = np.flatnonzero(dataset.eligible & (dataset.speakers == speaker))
        n = len(frames)
        if n < k:
            raise ValueError(
                f"speaker {speaker!r} has only {n} eligible frames for k={k} folds"
            )
        base, rem = divmod(n, k)
        pos = 0
        for j in range(k):
            size = base + (1 if j < rem else 0)
            fold_members[j].append(frames[pos:pos + size])
            pos += size

    val = [np.sort(np.concatenate(m)) for m in fold_members]
    train = [np.flatnonzero(_train_mask_for_fold(dataset, v)) for v in val]
    return FoldPlan(val=val, train=train)


def make_folds_between(dataset: FrameDataset) -> FoldPlan:
    """Between-speaker folds: hold every speaker out once."""
    speakers = dataset.speaker_list
    if len(speakers) < 2:
        raise ValueError(f"between-speaker CV needs >= 2 speakers, got {len(speakers)}")
    val, train = [], []
    for speaker in speakers:
        held = dataset.speakers == speaker
        val.append(np.flatnonzero(dataset.eligible & held))
        train.append(np.flatnonzero(dataset.eligible & ~held))
    return FoldPlan(val=val, train=train)
