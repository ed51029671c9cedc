"""Gesture label schemas, frame-level encoding, and the CV fold protocol.

Thirteen binary labels over three properties describe each 20 fps frame:
phase (mutually exclusive: retraction, preparation, pre-hold, stroke,
post-hold), category (non-exclusive: deictic, beat, iconic, discourse) and
semantics (non-exclusive: amount, shape, direction, size). A frame carries a
gesture when any of the thirteen bits is set. Left- and right-hand tiers are
merged with a per-frame logical OR; phase conflicts after the merge resolve
by precedence (stroke > preparation > pre-hold > post-hold > retraction).

Cross-validation is within-speaker (k contiguous blocks per speaker, one
block per fold) or between-speaker (hold one speaker out); within_id is
within-speaker with a speaker one-hot appended to the model input. Training
frames whose input window crosses a validation block of the same recording
are excluded, as are frames whose audio window crosses the recording edge.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .textfeat import WordToken, read_transcript, select_window

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
            order = [schema.index(p) for p in PHASE_PRECEDENCE]
            for f in conflicts:
                winner = order[int(np.argmax(out[f, order]))]
                log.debug("phase conflict at frame %d resolved to %r",
                          f, schema.labels[winner])
                out[f] = 0
                out[f, winner] = 1
            log.warning("resolved %d phase conflicts by precedence (rec %s)",
                        len(conflicts), rec.rec_id)
    return out


@dataclass
class FrameTable:
    """All 13 label bits plus presence at 20 fps, with window extents."""

    rec_id: int
    speaker: str
    t: np.ndarray                 # frame times, f / 20
    phase: np.ndarray             # (n, 5) uint8
    category: np.ndarray          # (n, 4) uint8
    semantics: np.ndarray         # (n, 4) uint8
    has_gesture: np.ndarray       # (n,) uint8
    win_lo: np.ndarray            # earliest time the input window touches
    win_hi: np.ndarray            # latest time the input window touches

    @property
    def n_frames(self) -> int:
        return len(self.t)

    def eligible(self) -> np.ndarray:
        """Frames whose +-1 s audio window lies inside the recording."""
        n = self.n_frames
        f = np.arange(n)
        return (f >= AUDIO_CONTEXT_FRAMES) & (f <= n - 1 - AUDIO_CONTEXT_FRAMES)


def _window_extents(words: list[WordToken], t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combined audio+text window extent per frame.

    The audio side always spans t +- 1 s; the text side adds the onset of
    the earliest and offset of the latest word present in the 7-word window.
    With any words at all every window holds at least one of them.
    """
    lo = t - AUDIO_CONTEXT_FRAMES / FPS
    hi = t + AUDIO_CONTEXT_FRAMES / FPS
    if not words:
        return lo, hi
    onsets = np.array([w.onset for w in words])
    slots = select_window(onsets, t)
    first = np.where(slots >= 0, slots, len(words)).min(axis=1)
    last = slots.max(axis=1)
    return (np.minimum(lo, onsets[first]),
            np.maximum(hi, np.array([w.offset for w in words])[last]))


def build_frame_table(rec: Recording, duration: float) -> FrameTable:
    """Rasterize all three schemas for a recording onto the 20 fps grid."""
    n = int(duration * FPS)
    t = np.arange(n) / FPS
    phase = rasterize(rec, PHASE, n)
    category = rasterize(rec, CATEGORY, n)
    semantics = rasterize(rec, SEMANTICS, n)
    has_gesture = ((phase.any(axis=1)) | (category.any(axis=1))
                   | (semantics.any(axis=1))).astype(np.uint8)
    win_lo, win_hi = _window_extents(rec.words, t)
    return FrameTable(rec_id=rec.rec_id, speaker=rec.speaker, t=t,
                      phase=phase, category=category, semantics=semantics,
                      has_gesture=has_gesture, win_lo=win_lo, win_hi=win_hi)


FRAME_CSV_COLUMNS = (
    ["frame", "t", "has_gesture"]
    + [f"phase_{l}" for l in PHASE.labels]
    + [f"category_{l}" for l in CATEGORY.labels]
    + [f"semantics_{l}" for l in SEMANTICS.labels]
    + ["win_lo", "win_hi"]
)


def write_frame_csv(table: FrameTable, path: str | Path) -> None:
    """One row per frame: the 13 label bits plus has_gesture and extents."""
    n = table.n_frames
    cells = np.column_stack([np.arange(n), table.t, table.has_gesture, table.phase,
                             table.category, table.semantics,
                             table.win_lo, table.win_hi]).ravel().tolist()
    # frame and t, then has_gesture and the label bits as ints, then the extents
    row = "%d,%.9g" + ",%d" * (len(FRAME_CSV_COLUMNS) - 4) + ",%.9g,%.9g\n"
    with open(path, "w") as fh:
        fh.write(f"# rec_id={table.rec_id} speaker={table.speaker}\n")
        fh.write(",".join(FRAME_CSV_COLUMNS) + "\n")
        fh.write(row * n % tuple(cells))


def read_frame_csv(path: str | Path) -> FrameTable:
    with open(path) as fh:
        meta = fh.readline().strip()
        if not meta.startswith("# rec_id="):
            raise ValueError(f"{path}: missing metadata line")
        fields = dict(part.split("=", 1) for part in meta[2:].split(" "))
        header = fh.readline().strip().split(",")
        if header != list(FRAME_CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.zeros((0, len(FRAME_CSV_COLUMNS)))
    return FrameTable(
        rec_id=int(fields["rec_id"]), speaker=fields["speaker"],
        t=data[:, 1],
        has_gesture=data[:, 2].astype(np.uint8),
        phase=data[:, 3:8].astype(np.uint8),
        category=data[:, 8:12].astype(np.uint8),
        semantics=data[:, 12:16].astype(np.uint8),
        win_lo=data[:, 16], win_hi=data[:, 17],
    )


# ------------------------------------------------------------------ annotation IO

def read_annotations(path: str | Path) -> list[AnnotationTier]:
    """Read `tier<TAB>start_ms<TAB>end_ms<TAB>label` rows grouped by tier."""
    tiers: dict[str, AnnotationTier] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 tab-separated fields")
            name, start_ms, end_ms, label = parts
            start, end = float(start_ms) / 1000.0, float(end_ms) / 1000.0
            if end <= start:
                raise ValueError(f"{path}: line {lineno}: empty or inverted interval "
                                 f"({start}, {end})")
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
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 tab-separated fields")
            start, end = float(parts[0]) / 1000.0, float(parts[1]) / 1000.0
            if end <= start:
                raise ValueError(f"{path}: line {lineno}: empty or inverted interval "
                                 f"({start}, {end})")
            out.append((start, end))
    return out


def write_interlocutor(intervals: list[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for start, end in intervals:
            fh.write(f"{round(start * 1000)}\t{round(end * 1000)}\n")


# ------------------------------------------------------------------ manifest

def load_manifest(path: str | Path) -> list[Recording]:
    """Load a corpus manifest (JSON array of per-recording objects).

    Each entry: {"id": int, "speaker": str, "audio": path, "transcript":
    path, "annotations": path, "interlocutor": path or null}. Relative
    paths resolve against the manifest's directory. Audio is not loaded
    here.
    """
    path = Path(path)
    base = path.parent
    entries = json.loads(path.read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{path}: manifest must be a JSON array")
    recs = []
    for e in entries:
        rec = Recording(
            rec_id=int(e["id"]),
            speaker=str(e["speaker"]),
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
    """Global-index fold assignments over a concatenated list of tables."""

    val: list[np.ndarray]           # per fold: global frame indices
    train: list[np.ndarray]
    offsets: np.ndarray             # table i owns [offsets[i], offsets[i+1])
    eligible: np.ndarray            # global boolean mask

    @property
    def n_folds(self) -> int:
        return len(self.val)


def _offsets(tables) -> np.ndarray:
    sizes = [t.n_frames for t in tables]
    return np.concatenate([[0], np.cumsum(sizes)])


def _train_mask_for_fold(tables, offsets, eligible, val_global) -> np.ndarray:
    """Eligible frames outside the fold, minus window-crossing frames.

    A frame is excluded when its input-window extent [win_lo, win_hi]
    intersects the time span of a validation run in the same recording.
    """
    n_total = offsets[-1]
    val_mask = np.zeros(n_total, dtype=bool)
    val_mask[val_global] = True
    keep = eligible & ~val_mask
    for i, table in enumerate(tables):
        lo, hi = offsets[i], offsets[i + 1]
        vmask = val_mask[lo:hi]
        if not vmask.any():
            continue
        # contiguous validation runs -> time intervals
        idx = np.flatnonzero(vmask)
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate([[idx[0]], idx[breaks + 1]])
        ends = np.concatenate([idx[breaks], [idx[-1]]])
        crossing = np.zeros(table.n_frames, dtype=bool)
        for s, e in zip(starts, ends):
            t_lo, t_hi = table.t[s], table.t[e]
            crossing |= (table.win_hi >= t_lo - 1e-9) & (table.win_lo <= t_hi + 1e-9)
        keep[lo:hi] &= ~crossing
    return keep


def make_folds_within(tables: list[FrameTable], k: int = 20) -> FoldPlan:
    """Within-speaker folds: k contiguous blocks of each speaker's frames.

    Each speaker's eligible frames (recordings ordered by id) split into k
    contiguous blocks, sizes differing by at most one with remainders given
    to the earliest blocks; fold j validates on block j of every speaker.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    tables = sorted(tables, key=lambda t: t.rec_id)
    offsets = _offsets(tables)
    eligible = np.concatenate([t.eligible() for t in tables]) if tables \
        else np.zeros(0, dtype=bool)

    by_speaker: dict[str, list[int]] = {}
    for i, table in enumerate(tables):
        by_speaker.setdefault(table.speaker, []).append(i)

    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for speaker in sorted(by_speaker):
        globals_ = np.concatenate([
            np.flatnonzero(eligible[offsets[i]:offsets[i + 1]]) + offsets[i]
            for i in by_speaker[speaker]
        ])
        n = len(globals_)
        if n < k:
            raise ValueError(
                f"speaker {speaker!r} has only {n} eligible frames for k={k} folds"
            )
        base, rem = divmod(n, k)
        pos = 0
        for j in range(k):
            size = base + (1 if j < rem else 0)
            fold_members[j].append(globals_[pos:pos + size])
            pos += size

    val = [np.sort(np.concatenate(m)) for m in fold_members]
    train = [
        np.flatnonzero(_train_mask_for_fold(tables, offsets, eligible, v))
        for v in val
    ]
    return FoldPlan(val=val, train=train, offsets=offsets, eligible=eligible)


def make_folds_between(tables: list[FrameTable]) -> FoldPlan:
    """Between-speaker folds: hold every speaker out once."""
    tables = sorted(tables, key=lambda t: t.rec_id)
    offsets = _offsets(tables)
    eligible = np.concatenate([t.eligible() for t in tables]) if tables \
        else np.zeros(0, dtype=bool)
    speakers = sorted({t.speaker for t in tables})
    if len(speakers) < 2:
        raise ValueError(f"between-speaker CV needs >= 2 speakers, got {len(speakers)}")
    spk_per_frame = np.concatenate([
        np.full(t.n_frames, speakers.index(t.speaker)) for t in tables
    ])
    val, train = [], []
    for i, _ in enumerate(speakers):
        held = spk_per_frame == i
        val.append(np.flatnonzero(eligible & held))
        train.append(np.flatnonzero(eligible & ~held))
    return FoldPlan(val=val, train=train, offsets=offsets, eligible=eligible)
