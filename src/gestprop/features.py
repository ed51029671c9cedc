"""Feature construction and the windowed dataset provider.

build_features caches each recording's prosody as a CSV at 20 fps
(interlocutor spans silenced first), written atomically. An existing prosody
CSV is left alone unless force is set, so audio and interlocutor edits need a
forced rebuild. Beside it goes a frame-label CSV for people to read, written
on every run from the current annotations; nothing reads that one back.

load_dataset reads the prosody CSVs and, from the vectors file, only the
vectors of the transcript words, and builds everything else from the
recordings (ordered by id) into one FrameDataset: the speaker and label bits
from the manifest and its annotations, each frame's 7-slot word window and
the extent of its input window from the transcript, which fold plans read.
So annotation, speaker and transcript edits need no rebuild. WindowProvider
then serves batches: the standardized audio frames (of +-1 s) and the text
rows of 301 (embedding plus onset offset; the offset column zeroed for the
no-timing condition) that each encoder's first layer reads, an optional
speaker one-hot, and the label matrix of the property being trained.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (AUDIO_CONTEXT_FRAMES, FPS, Recording, SCHEMAS, build_frame_table,
                     write_frame_csv)
from .evaluation import write_atomic
from .prosody import (PROSODY_COLUMNS, ProsodyTrack, extract_prosody, read_prosody_csv,
                      read_wav, silence_intervals, write_prosody_csv)
from .textfeat import WINDOW_SLOTS, load_embeddings, lookup_word, select_window

log = logging.getLogger(__name__)

ABSENT_ID = -1     # empty window slot: zero embedding, zero offset
OOV_ID = -2        # word present but unknown: zero embedding, real offset

MODALITIES = ("audio", "text", "text_no_timing", "both")
# window positions a batch serves per modality: +-1 s of frames, the word slots
WINDOW_STEPS = {"audio": 2 * AUDIO_CONTEXT_FRAMES + 1, "text": WINDOW_SLOTS}


def feature_paths(feature_dir: str | Path, rec_id: int) -> dict[str, Path]:
    base = Path(feature_dir)
    stem = f"rec_{rec_id:05d}"
    return {"prosody": base / f"{stem}.prosody.csv",
            "frames": base / f"{stem}.frames.csv"}


def build_features(recordings: list[Recording], feature_dir: str | Path,
                   force: bool = False) -> tuple[list[int], list[tuple[int, str]]]:
    """Write each recording's prosody CSV, when missing or forced, and its
    frame-label CSV, which only people read; returns (built ids, failures)."""
    feature_dir = Path(feature_dir)
    feature_dir.mkdir(parents=True, exist_ok=True)
    built: list[int] = []
    failures: list[tuple[int, str]] = []
    for rec in sorted(recordings, key=lambda r: r.rec_id):
        paths = feature_paths(feature_dir, rec.rec_id)
        if force or not paths["prosody"].exists():
            try:    # a bad or missing sample can surface in any decoded span
                track = _recording_prosody(rec)
            except (OSError, ValueError) as exc:
                msg = str(exc)      # name the file once: most read errors name it already
                if str(rec.audio_path) not in msg:
                    msg = f"{rec.audio_path}: {msg}"
                failures.append((rec.rec_id, msg))
                continue
            write_atomic(paths["prosody"], lambda p: write_prosody_csv(track, p))
            built.append(rec.rec_id)
        else:
            log.info("recording %d: prosody exists, skipping", rec.rec_id)
            track = read_prosody_csv(paths["prosody"])
        # the label table has the frames load_dataset builds: one per prosody row
        table = build_frame_table(rec, duration=len(track.rows) / FPS)
        write_atomic(paths["frames"], lambda p: write_frame_csv(table, p))
    return built, failures


def _recording_prosody(rec: Recording) -> ProsodyTrack:
    """Prosody of a recording's audio, interlocutor spans silenced. The
    clip, and with it the open WAV file, is dropped on return."""
    clip = read_wav(rec.audio_path)
    if rec.interlocutor:
        clip = silence_intervals(clip, rec.interlocutor)
    return extract_prosody(clip)


def _word_windows(words, t: np.ndarray, emb_rows: dict[str, int]):
    """Per frame time: 7 window slots as embedding rows (OOV_ID for a word
    without a vector, ABSENT_ID for no word), onset offsets (0 if absent),
    and the earliest and latest time the frame's input window touches.

    The audio side spans t +- 1 s; the text side adds the onset of the
    earliest and the offset of the latest word present in the window.
    """
    # each array ends in the entry slot -1 picks: ABSENT_ID, and times no extent reaches
    found = (lookup_word(emb_rows, w.word) for w in words)
    rows = np.array([OOV_ID if row is None else row for row in found] + [ABSENT_ID],
                    dtype=np.int32)
    onsets = np.array([w.onset for w in words] + [np.inf])
    ends = np.array([w.offset for w in words] + [-np.inf])
    slots = select_window(onsets[:-1], t)
    slot_onsets = onsets[slots]
    offsets = np.where(slots >= 0, slot_onsets - t[:, None], 0.0).astype(np.float32)
    win_lo = np.minimum(t - AUDIO_CONTEXT_FRAMES / FPS, slot_onsets.min(axis=1))
    win_hi = np.maximum(t + AUDIO_CONTEXT_FRAMES / FPS, ends[slots.max(axis=1)])
    return rows[slots], offsets, win_lo, win_hi


@dataclass
class FrameDataset:
    """All recordings concatenated in rec-id order; one row per frame."""

    rec_ids: np.ndarray          # (N,) int
    speakers: np.ndarray         # (N,) str
    t: np.ndarray                # (N,) float
    prosody: np.ndarray          # (N, 5) float32
    phase: np.ndarray            # (N, 5) uint8
    category: np.ndarray         # (N, 4) uint8
    semantics: np.ndarray        # (N, 4) uint8
    has_gesture: np.ndarray      # (N,) uint8
    word_ids: np.ndarray         # (N, 7) int32 into emb_matrix (or sentinels)
    word_offsets: np.ndarray     # (N, 7) float32, 0 on absent slots
    emb_matrix: np.ndarray       # (V, dim) float32, the transcript words with a vector
    eligible: np.ndarray         # (N,) bool, audio window inside recording
    win_lo: np.ndarray           # (N,) float64, earliest time the input window touches
    win_hi: np.ndarray           # (N,) float64, latest time the input window touches

    @property
    def n_frames(self) -> int:
        return len(self.rec_ids)

    @property
    def speaker_list(self) -> list[str]:
        return sorted(set(self.speakers.tolist()))

    def labels_for(self, prop: str) -> np.ndarray:
        if prop not in SCHEMAS:
            raise ValueError(f"unknown property {prop!r}")
        if prop == "presence":
            return self.has_gesture[:, None]
        return getattr(self, prop)


def load_dataset(recordings: list[Recording], feature_dir: str | Path,
                 embeddings: str | Path) -> FrameDataset:
    if not recordings:
        raise ValueError("no recordings to load")
    vocab, emb_matrix = load_embeddings(
        embeddings, {w.word for rec in recordings for w in rec.words})
    emb_rows = {w: i for i, w in enumerate(vocab)}
    tables, pros, windows = [], [], []
    for rec in sorted(recordings, key=lambda r: r.rec_id):
        path = feature_paths(feature_dir, rec.rec_id)["prosody"]
        if not path.exists():
            raise FileNotFoundError(f"recording {rec.rec_id}: missing feature file "
                                    f"{path}; run the features step first")
        track = read_prosody_csv(path)
        table = build_frame_table(rec, duration=len(track.rows) / FPS)
        tables.append(table)
        pros.append(track.rows.astype(np.float32))
        windows.append(_word_windows(rec.words, table.t, emb_rows))

    sizes = [t.n_frames for t in tables]
    word_ids, word_offsets, win_lo, win_hi = map(np.concatenate, zip(*windows))
    return FrameDataset(
        rec_ids=np.concatenate([np.full(n, t.rec_id) for t, n in zip(tables, sizes)]),
        speakers=np.concatenate([np.full(n, t.speaker, dtype=object)
                                 for t, n in zip(tables, sizes)]),
        t=np.concatenate([t.t for t in tables]),
        prosody=np.concatenate(pros),
        phase=np.concatenate([t.phase for t in tables]),
        category=np.concatenate([t.category for t in tables]),
        semantics=np.concatenate([t.semantics for t in tables]),
        has_gesture=np.concatenate([t.has_gesture for t in tables]),
        word_ids=word_ids, word_offsets=word_offsets,
        emb_matrix=emb_matrix,
        eligible=np.concatenate([t.eligible() for t in tables]),
        win_lo=win_lo, win_hi=win_hi,
    )


def compute_norm(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of prosody rows; std floored at 1e-6."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) == 0:
        raise ValueError(f"need a nonempty (frames, channels) array, got {rows.shape}")
    return rows.mean(axis=0).astype(np.float32), \
        np.maximum(rows.std(axis=0), 1e-6).astype(np.float32)


class WindowProvider:
    """Serves model inputs for global frame indices.

    Indices must be eligible frames (>= 20 frames from both recording
    edges), which fold plans guarantee; audio frames are gathered straight
    from the concatenated prosody array, text rows from the embedding table.
    Given a speaker list, batches also carry a one-hot over it, by name.
    """

    def __init__(self, dataset: FrameDataset, prop: str, modality: str,
                 speakers: list[str] | None = None):
        if modality not in MODALITIES:
            raise ValueError(f"unknown modality {modality!r}; choose from {MODALITIES}")
        if prop not in SCHEMAS:
            raise ValueError(f"unknown property {prop!r}")
        self.dataset = dataset
        self.modality = modality
        self.uses_audio = modality in ("audio", "both")
        self.uses_text = modality in ("text", "text_no_timing", "both")
        self.exclusive = SCHEMAS[prop].exclusive
        self.speakers = speakers
        if speakers is not None:
            unknown = sorted(set(dataset.speaker_list) - set(speakers))
            if unknown:
                raise ValueError(f"unknown speakers {unknown}; the model knows {speakers}")
            names, inverse = np.unique(dataset.speakers.astype(str), return_inverse=True)
            self._spk_col = np.array([speakers.index(n) for n in names])[inverse]
        self.norm_mean = np.zeros(len(PROSODY_COLUMNS), dtype=np.float32)
        self.norm_std = np.ones(len(PROSODY_COLUMNS), dtype=np.float32)
        self._labels = dataset.labels_for(prop).astype(np.float32)
        if self.uses_text:   # embeddings with a zero timing column, then a zero row
            self._text_table = np.pad(dataset.emb_matrix, ((0, 1), (0, 1))).astype(np.float32)

    @property
    def n_labels(self) -> int:
        return self._labels.shape[1]

    @property
    def speaker_dim(self) -> int:
        return 0 if self.speakers is None else len(self.speakers)

    def fit_norm(self, train_idx: np.ndarray) -> None:
        """Standardize audio channels with statistics of the training frames."""
        self.norm_mean, self.norm_std = compute_norm(self.dataset.prosody[train_idx])

    def norm_state(self) -> dict:
        return {"mean": self.norm_mean.tolist(), "std": self.norm_std.tolist()}

    def set_norm(self, state: dict) -> None:
        """Use saved statistics: finite, one per channel, every std > 0."""
        if not isinstance(state, dict):
            raise ValueError(f"norm must be a JSON object with a mean and a std, got {state!r}")
        mean = np.asarray(state.get("mean"), dtype=np.float32)
        std = np.asarray(state.get("std"), dtype=np.float32)
        n = len(PROSODY_COLUMNS)
        if not (mean.shape == std.shape == (n,) and np.isfinite(mean).all()
                and (np.isfinite(std) & (std > 0)).all()):
            raise ValueError(f"norm needs {n} finite means and {n} finite stds > 0, "
                             f"got mean {mean.tolist()} and std {std.tolist()}")
        self.norm_mean, self.norm_std = mean, std

    def labels_at(self, idx: np.ndarray) -> np.ndarray:
        return self._labels[np.asarray(idx)]

    def _audio(self, idx: np.ndarray, pos: np.ndarray) -> np.ndarray:
        if not self.dataset.eligible[idx].all():
            raise ValueError("audio window crosses a recording edge; "
                             "only eligible frames can be batched")
        frames = self.dataset.prosody[idx[:, None] + pos - AUDIO_CONTEXT_FRAMES]
        return (frames - self.norm_mean) / self.norm_std

    def _text(self, idx: np.ndarray, pos: np.ndarray) -> np.ndarray:
        ids = self.dataset.word_ids[idx[:, None], pos]
        rows = np.where(ids >= 0, ids, len(self._text_table) - 1)    # absent, OOV: zero row
        out = np.take(self._text_table, rows, axis=0)
        if self.modality != "text_no_timing":
            out[:, :, -1] = self.dataset.word_offsets[idx[:, None], pos]
        return out

    def batch(self, idx: np.ndarray, taps: dict[str, np.ndarray]) -> dict:
        """Windows at frames idx gathered at a model's ModelParams.taps, the
        positions taps names per modality, (B, len(taps), C); a tap off the
        window reads the clipped position times zero, as a conv's padding does."""
        idx = np.asarray(idx)
        out = {"labels": self._labels[idx], "audio": None, "text": None, "speaker": None}
        for name, used, gather in (("audio", self.uses_audio, self._audio),
                                   ("text", self.uses_text, self._text)):
            if used:
                out[name] = gather(idx, np.clip(taps[name], 0, WINDOW_STEPS[name] - 1))
                inside = (taps[name] >= 0) & (taps[name] < WINDOW_STEPS[name])
                if not inside.all():
                    out[name] *= inside[:, None]
        if self.speakers is not None:
            out["speaker"] = np.zeros((len(idx), len(self.speakers)), dtype=np.float32)
            out["speaker"][np.arange(len(idx)), self._spk_col[idx]] = 1.0
        return out
