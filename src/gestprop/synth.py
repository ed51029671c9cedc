"""Synthetic gesture corpora with planted, verifiable couplings.

Each recording is a stream of gesture events over a noise-floor audio track
plus a filler word stream. Two optional couplings plant the structure the
toolkit is supposed to recover:

  text coupling   trigger words mark gesture semantics: each semantics label
                  owns a small trigger vocabulary, and the label is active
                  for +-0.3 s around every trigger onset, clipped to gesture
                  events.
  audio coupling  a soft tone spans every gesture event and a loud burst
                  spans the stroke, so presence is audible everywhere and
                  the stroke is audible precisely when it happens.

With a coupling off, the corresponding structure is decoupled: semantics
intervals are planted at random inside events, and the audio becomes
event-independent tone segments. All interval times are quantized to 1 ms
before any synthesis so the written files are exactly reproducible.

Fixed generation constants: audio at SAMPLE_RATE (16 kHz), about
WORDS_PER_SEC (3) words a second, each a trigger word with probability
TRIGGER_PROB (0.15), and EMBEDDING_DIM (300)-wide word vectors.

Output layout: manifest.json, vectors.txt (word embeddings), coupling.json
(ground truth for self-verification), and one directory per recording with
audio.wav, transcript.tsv, annotations.tsv, and optional interlocutor.tsv.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import (AnnotationTier, Recording, load_manifest,
                     write_annotations, write_interlocutor)
from .evaluation import write_json
from .prosody import AudioClip, write_wav
from .textfeat import WordToken, write_transcript

FILLER_WORDS = (
    "the", "and", "then", "you", "we", "it", "is", "was", "a", "to",
    "of", "on", "at", "this", "that", "with", "for", "from", "they", "there",
    "but", "or", "so", "if", "now", "well", "uh", "um", "okay", "like",
)

TRIGGER_WORDS = {
    "amount": ("many", "few", "several"),
    "shape": ("round", "circle", "curved"),
    "direction": ("left", "right", "straight"),
    "size": ("big", "small", "huge"),
}

SAMPLE_RATE = 16000
WORDS_PER_SEC = 3.0
TRIGGER_PROB = 0.15
EMBEDDING_DIM = 300

TRIGGER_HALF_WINDOW = 0.4      # semantics extends +-0.4 s around a trigger onset

PHASE_PLAN = (                  # (phase, lo, hi) duration bounds in seconds
    ("preparation", 0.70, 1.00),
    ("pre-hold", 0.08, 0.12),   # optional, see PRE_HOLD_PROB
    ("stroke", 0.13, 0.18),
    ("post-hold", 1.00, 1.50),
    ("retraction", 1.50, 2.00),
)
PRE_HOLD_PROB = 0.3
DEICTIC_PROB = 0.3              # right-hand deictic overlay per event
GAP_RANGE = (1.2, 3.2)

NOISE_FLOOR = 0.008
TONE_AMP = 0.12
STROKE_AMP = 0.55
TONE_FREQ_RANGE = (140.0, 260.0)


@dataclass(frozen=True)
class SynthSpec:
    """What the presets and the `synth` command set: corpus size and which
    couplings are planted. Sample rate, word rate, trigger probability and
    embedding width are the module constants SAMPLE_RATE, WORDS_PER_SEC,
    TRIGGER_PROB and EMBEDDING_DIM."""

    name: str
    n_speakers: int = 8
    duration: float = 120.0
    text_coupling: bool = True
    audio_coupling: bool = True
    interlocutor: bool = False

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ValueError(f"need >= 1 speaker, got {self.n_speakers}")
        if not 12.0 <= self.duration < math.inf:
            raise ValueError("duration must be finite and cover at least one event cycle, "
                             f"got {self.duration}")


PRESETS = {
    "text_coupling": SynthSpec(name="text_coupling", text_coupling=True,
                               audio_coupling=False),
    "audio_coupling": SynthSpec(name="audio_coupling", text_coupling=False,
                                audio_coupling=True),
    "combined": SynthSpec(name="combined", text_coupling=True,
                          audio_coupling=True, interlocutor=True),
}


def preset(name: str) -> SynthSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def _ms(x: float) -> float:
    return round(float(x), 3)


def _sample_events(spec: SynthSpec, rng: np.random.Generator) -> list[dict]:
    """Gesture events: contiguous phase segments separated by gaps."""
    events = []
    t = 1.0 + rng.uniform(0.0, 0.8)
    while True:
        segments = []
        cur = t
        for phase, lo, hi in PHASE_PLAN:
            if phase == "pre-hold" and rng.random() >= PRE_HOLD_PROB:
                continue
            d = rng.uniform(lo, hi)
            segments.append([phase, cur, cur + d])
            cur += d
        if cur > spec.duration - 1.0:
            break
        segments = [(p, _ms(s), _ms(e)) for p, s, e in segments]
        events.append({"start": segments[0][1], "end": segments[-1][2],
                       "segments": segments})
        t = cur + rng.uniform(*GAP_RANGE)
    return events


def _sample_words(spec: SynthSpec, rng: np.random.Generator):
    """Filler stream with occasional trigger words; ~WORDS_PER_SEC rate."""
    words, triggers = [], {label: [] for label in TRIGGER_WORDS}
    step = 1.0 / WORDS_PER_SEC
    t = 0.3 + rng.uniform(0.0, 0.2)
    while t < spec.duration - 0.6:
        dur = rng.uniform(0.5 * step, 0.85 * step)
        if rng.random() < TRIGGER_PROB:
            label = sorted(TRIGGER_WORDS)[rng.integers(0, len(TRIGGER_WORDS))]
            word = TRIGGER_WORDS[label][rng.integers(0, len(TRIGGER_WORDS[label]))]
            triggers[label].append(_ms(t))
        else:
            word = FILLER_WORDS[rng.integers(0, len(FILLER_WORDS))]
        words.append(WordToken(word=word, onset=_ms(t), offset=_ms(t + dur)))
        t += dur + rng.uniform(0.35 * step, 0.65 * step)
    return words, triggers


def _clip_to_events(lo: float, hi: float, events: list[dict]):
    for ev in events:
        s = max(lo, ev["start"])
        e = min(hi, ev["end"])
        if e - s >= 0.05:
            yield _ms(s), _ms(e)


def _semantic_intervals(spec: SynthSpec, events: list[dict], triggers: dict,
                        rng: np.random.Generator) -> list[tuple]:
    intervals = []
    if spec.text_coupling:
        for label in sorted(triggers):
            for onset in triggers[label]:
                for s, e in _clip_to_events(onset - TRIGGER_HALF_WINDOW,
                                            onset + TRIGGER_HALF_WINDOW, events):
                    intervals.append((s, e, label))
    else:
        # decoupled: random spans inside events, independent of the words
        for ev in events:
            for label in sorted(TRIGGER_WORDS):
                if rng.random() < 0.5 and ev["end"] - ev["start"] > 0.8:
                    s = rng.uniform(ev["start"], ev["end"] - 0.6)
                    intervals.append((_ms(s), _ms(s + 0.6), label))
    return intervals


def _render_audio(spec: SynthSpec, events: list[dict],
                  rng: np.random.Generator) -> np.ndarray:
    sr = SAMPLE_RATE
    n = int(round(spec.duration * sr))
    signal = rng.normal(0.0, NOISE_FLOOR, size=n)

    def add_tone(start: float, end: float, freq: float, amp: float):
        i0, i1 = int(round(start * sr)), min(int(round(end * sr)), n)
        ts = (np.arange(i0, i1) - i0) / sr
        signal[i0:i1] += amp * np.sin(2.0 * np.pi * freq * ts)

    if spec.audio_coupling:
        for ev in events:
            freq = rng.uniform(*TONE_FREQ_RANGE)
            add_tone(ev["start"], ev["end"], freq, TONE_AMP)
            for phase, s, e in ev["segments"]:
                if phase == "stroke":
                    add_tone(s, e, freq, STROKE_AMP)
    else:
        # event-independent voiced stretches keep the track non-degenerate
        t = rng.uniform(0.5, 1.5)
        while t < spec.duration - 1.0:
            dur = rng.uniform(1.0, 3.0)
            add_tone(_ms(t), _ms(min(t + dur, spec.duration)),
                     rng.uniform(*TONE_FREQ_RANGE), TONE_AMP)
            t += dur + rng.uniform(0.5, 1.5)
    return np.clip(signal, -1.0, 1.0).astype(np.float32)


def _interlocutor_intervals(spec: SynthSpec, events: list[dict],
                            rng: np.random.Generator) -> list[tuple]:
    if not spec.interlocutor:
        return []
    out = []
    bounds = [(a["end"], b["start"]) for a, b in zip(events, events[1:])]
    for lo, hi in bounds:
        if hi - lo >= 1.8 and rng.random() < 0.25:
            out.append((_ms(lo + 0.3), _ms(hi - 0.3)))
    return out


def _write_embeddings(path: Path, rng: np.random.Generator):
    vocab = list(FILLER_WORDS)
    for label in sorted(TRIGGER_WORDS):
        vocab.extend(TRIGGER_WORDS[label])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vocab)} {EMBEDDING_DIM}\n")
        for word in vocab:
            vec = rng.normal(0.0, 0.4, size=EMBEDDING_DIM)
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def generate_synthetic_corpus(spec: SynthSpec, seed: int,
                              out_dir: str | Path) -> list[Recording]:
    """Write a complete corpus directory and return the loaded recordings."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root_ss = np.random.SeedSequence([int(seed)])
    _write_embeddings(out / "vectors.txt", np.random.default_rng(root_ss.spawn(1)[0]))

    manifest, coupling = [], []
    for i in range(spec.n_speakers):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1000 + i]))
        rec_dir = out / f"rec_{i:02d}"
        rec_dir.mkdir(exist_ok=True)

        events = _sample_events(spec, rng)
        words, triggers = _sample_words(spec, rng)
        semantics = _semantic_intervals(spec, events, triggers, rng)
        interloc = _interlocutor_intervals(spec, events, rng)

        phase_iv, cat_left, cat_right = [], [], []
        for ev in events:
            phase_iv.extend((s, e, p) for p, s, e in ev["segments"])
            cat_left.append((ev["start"], ev["end"], "iconic"))
            if rng.random() < DEICTIC_PROB:
                cat_right.append((ev["start"], ev["end"], "deictic"))
        tiers = [AnnotationTier("R.G.Left Phase", phase_iv),
                 AnnotationTier("R.G.Left Phrase", cat_left),
                 AnnotationTier("R.G.Left Semantic", semantics)]
        if cat_right:
            tiers.append(AnnotationTier("R.G.Right Phrase", cat_right))

        write_wav(rec_dir / "audio.wav",
                  AudioClip(_render_audio(spec, events, rng), SAMPLE_RATE))
        write_transcript(words, rec_dir / "transcript.tsv")
        write_annotations(tiers, rec_dir / "annotations.tsv")
        entry = {"id": i, "speaker": f"s{i:02d}",
                 "audio": f"rec_{i:02d}/audio.wav",
                 "transcript": f"rec_{i:02d}/transcript.tsv",
                 "annotations": f"rec_{i:02d}/annotations.tsv",
                 "interlocutor": None}
        if interloc:
            write_interlocutor(interloc, rec_dir / "interlocutor.tsv")
            entry["interlocutor"] = f"rec_{i:02d}/interlocutor.tsv"
        manifest.append(entry)
        coupling.append({
            "id": i,
            "events": [[ev["start"], ev["end"]] for ev in events],
            "strokes": [[s, e] for ev in events
                        for p, s, e in ev["segments"] if p == "stroke"],
            "triggers": triggers,
        })

    write_json(str(out / "manifest.json"), manifest)
    write_json(str(out / "coupling.json"),
               {"spec": asdict(spec), "seed": int(seed), "recordings": coupling})
    return load_manifest(out / "manifest.json")

