"""Per-word, per-time references for the lexical features.

The dataset path keeps only the corpus's vectors, maps every word to an
embedding row once, when features.load_dataset builds the word windows, and
gathers windows with WindowProvider; these loops read the whole vectors file
into a dict and build the same values one word and one target time at a
time, so tests can compare the two.
"""

import numpy as np

from gestprop.textfeat import WINDOW_SLOTS, WordToken, lookup_word, select_window


def read_vectors(path) -> dict[str, np.ndarray]:
    """{word: float64 vector} for every vector line of a well-formed file,
    the optional `<count> <dim>` header skipped; a repeated word keeps its
    last vector."""
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or (lineno == 1 and len(parts) == 2
                             and all(v.isdigit() for v in parts)):
                continue
            vectors[parts[0]] = np.array(parts[1:], dtype=np.float64)
    return vectors


def embed_word(vectors: dict[str, np.ndarray], word: str) -> np.ndarray:
    """Vector for a word by lookup_word's rule; a zero vector when unknown."""
    vec = lookup_word(vectors, word)
    return np.zeros(len(next(iter(vectors.values())))) if vec is None else vec


def assemble_text_window(vectors: dict[str, np.ndarray], words: list[WordToken],
                         t: float) -> np.ndarray:
    """(7, dim+1) feature matrix for target time t.

    Row = [embedding, onset - t] for present slots, zeros otherwise.
    """
    dim = len(next(iter(vectors.values())))
    out = np.zeros((WINDOW_SLOTS, dim + 1))
    for i, j in enumerate(select_window([w.onset for w in words], t)):
        if j < 0:
            continue
        tok = words[j]
        out[i, :dim] = embed_word(vectors, tok.word)
        out[i, dim] = tok.onset - t
    return out
