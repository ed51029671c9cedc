"""Per-word, per-time references for the lexical features.

The dataset path maps every word to an embedding row once, when
features.load_dataset builds the word windows, and gathers windows with
WindowProvider; these loops build the same values one word and
one target time at a time, so tests can compare the two.
"""

import numpy as np

from gestprop.textfeat import (WINDOW_SLOTS, EmbeddingTable, WordToken, lookup_word,
                               select_window)


def embed_word(table: EmbeddingTable, word: str) -> np.ndarray:
    """Vector for a word by lookup_word's rule; a zero vector when unknown."""
    vec = lookup_word(table.vectors, word)
    return np.zeros(table.dim) if vec is None else vec


def assemble_text_window(table: EmbeddingTable, words: list[WordToken],
                         t: float) -> np.ndarray:
    """(7, dim+1) feature matrix for target time t.

    Row = [embedding, onset - t] for present slots, zeros otherwise.
    """
    out = np.zeros((WINDOW_SLOTS, table.dim + 1))
    for i, j in enumerate(select_window([w.onset for w in words], t)):
        if j < 0:
            continue
        tok = words[j]
        out[i, :table.dim] = embed_word(table, tok.word)
        out[i, table.dim] = tok.onset - t
    return out
