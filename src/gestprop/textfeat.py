"""Lexical features from word vectors and a time-aligned transcript.

The feature for a prediction target at time t is a 7-slot word window: the
current word (latest onset <= t), three words back and three ahead. Each
present slot contributes its embedding concatenated with a timing offset,
onset - t in seconds (negative for words that started before the target);
absent slots are all-zero rows including the timing column.

select_window is the one implementation of that window. It takes the sorted
word onsets and an array of target times and returns, per time, the 7 slot
indices into the word list with -1 for an absent slot. load_dataset derives
both the dataset's word windows and each frame's input-window extent from one
call per recording.

load_embeddings streams the word-vector file once and keeps only the vectors
lookup_word can reach from the transcript words, so the vectors held follow
the corpus's vocabulary, not the file's. It still checks every line, and
remembers each word of the file (not its vector) for the duplicate rule.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PAST_WORDS = 3
FUTURE_WORDS = 3
WINDOW_SLOTS = PAST_WORDS + 1 + FUTURE_WORDS


@dataclass(frozen=True)
class WordToken:
    word: str
    onset: float
    offset: float

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise ValueError(f"word {self.word!r}: non-finite time "
                             f"({self.onset}, {self.offset})")
        if self.offset < self.onset:
            raise ValueError(f"word {self.word!r}: offset {self.offset} < onset {self.onset}")


def lookup_word(entries: dict, word: str):
    """The entry for a word, else for its lowercase form, else None."""
    found = entries.get(word)
    return found if found is not None else entries.get(word.lower())


def load_embeddings(path: str | Path, words) -> tuple[list[str], np.ndarray]:
    """Stream a text word-vector file, keeping only what lookup_word can
    reach from the given words: each word and its lowercase form.

    Returns the kept words in file order and their vectors as one float32
    (V, dim) matrix. Lines are `word v1 .. vd` separated by spaces. An
    optional first line `<count> <dim>` (two integer tokens) is a header:
    every vector line must then have dim values, and there must be count of
    them. Without one, the first vector line sets the width. Every line is
    checked, kept or not: malformed lines and non-finite values raise
    ValueError naming the line number, and duplicate words keep the last
    vector with a warning.
    """
    wanted = {form for word in words for form in (word, word.lower())}
    kept: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    dim = count = None
    n_vectors = 0
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        parts = line.split(" ")
        if lineno == 1 and len(parts) == 2:
            try:
                count, dim = int(parts[0]), int(parts[1])
                continue                      # header line
            except ValueError:
                pass
        word, values = parts[0], parts[1:]
        if not values:
            raise ValueError(f"{path}: line {lineno}: no vector values")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {lineno}: non-finite vector value")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValueError(f"{path}: line {lineno}: expected {dim} values, got {len(vec)}")
        n_vectors += 1
        if word in seen:
            log.warning("duplicate vector for %r (line %d); keeping the last", word, lineno)
        seen.add(word)
        if word in wanted:
            kept[word] = vec.astype(np.float32)
    if not n_vectors:
        raise ValueError(f"{path}: no vectors found")
    if count is not None and n_vectors != count:
        raise ValueError(f"{path}: the header gives {count} vectors, the file has {n_vectors}")
    matrix = np.stack(list(kept.values())) if kept else np.zeros((0, dim), np.float32)
    return list(kept), matrix


def read_lines(path: str | Path):
    """Yield (line number, line) of a UTF-8 text file, less a leading byte-order
    mark and each newline; a byte that is not UTF-8 is a ValueError naming the line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):         # a bad byte b reads as 0xDC00 + b
            bad = not line.isascii() and re.search("[\udc80-\udcff]", line)
            if bad:
                raise ValueError(f"{path}: line {lineno}: byte "
                                 f"0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
            yield lineno, line.rstrip("\n")


def read_rows(path: str | Path, n_fields: int):
    """Yield (line number, fields) for each non-blank line of a tab-separated
    file (read_lines); a line without n_fields fields is a ValueError naming it."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise ValueError(f"{path}: line {lineno}: expected {n_fields} tab-separated fields")
        yield lineno, parts


def read_transcript(path: str | Path) -> list[WordToken]:
    """Read `onset_ms<TAB>offset_ms<TAB>word` rows sorted by onset."""
    words = []
    for lineno, (onset_ms, offset_ms, word) in read_rows(path, 3):
        try:
            words.append(WordToken(word=word, onset=float(onset_ms) / 1000.0,
                                   offset=float(offset_ms) / 1000.0))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    words.sort(key=lambda w: (w.onset, w.offset))
    return words


def write_transcript(words: list[WordToken], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for w in words:
            fh.write(f"{round(w.onset * 1000)}\t{round(w.offset * 1000)}\t{w.word}\n")


def select_window(onsets, t) -> np.ndarray:
    """Word indices of the 7 window slots per target time; -1 marks an absent slot.

    onsets: word onsets sorted ascending. t: (N,) target times, giving an
    (N, 7) int array (a scalar t gives (7,)). Slot 3 is the current word,
    the latest onset <= t (a word starting exactly at t counts); slots 0-2
    are the three words before it, slots 4-6 the three after. When t
    precedes every onset there is no current word and slots 4-6 hold the
    first words.
    """
    onsets = np.asarray(onsets, dtype=np.float64)
    cur = np.searchsorted(onsets, t, side="right") - 1
    idx = cur[..., None] + np.arange(-PAST_WORDS, FUTURE_WORDS + 1)
    return np.where((idx >= 0) & (idx < len(onsets)), idx, -1)
