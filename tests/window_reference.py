"""The windows-then-gather path for model inputs, kept to test the taps against.

Batches used to carry each frame's whole window: the audio frames around it,
standardized, and the 7 word slots as embedding rows with onset offsets.
conv_stack ran on that window, and its first conv gathered its columns from
it: np.take at the tap positions clipped to the window, times the tap mask.
WindowProvider.batch now gathers those columns itself, at net.input_taps.
"""

import numpy as np

from gestprop import tensor as T
from gestprop.corpus import AUDIO_CONTEXT_FRAMES
from gestprop.tensor import Tensor
from gestprop.textfeat import WINDOW_SLOTS

# every step of the whole windows, as WindowProvider.batch taps
WHOLE = {"audio": np.arange(2 * AUDIO_CONTEXT_FRAMES + 1), "text": np.arange(WINDOW_SLOTS)}


def audio_windows(provider, idx, frames=2 * AUDIO_CONTEXT_FRAMES + 1):
    """Standardized prosody of the frames centered on idx, (B, frames, 5)."""
    span = np.arange(-(frames // 2), frames // 2 + 1)
    windows = provider.dataset.prosody[np.asarray(idx)[:, None] + span[None, :]]
    return (windows - provider.norm_mean) / provider.norm_std


def text_windows(provider, idx):
    """The 7-slot word windows at idx, (B, 7, 301): an absent or OOV slot
    takes the table's zero row, and the timing column the onset offsets."""
    ids = provider.dataset.word_ids[idx]
    rows = np.where(ids >= 0, ids, len(provider._text_table) - 1)
    out = np.take(provider._text_table, rows, axis=0)
    if provider.modality != "text_no_timing":
        out[:, :, -1] = provider.dataset.word_offsets[idx]
    return out


def _grid_rows(enc, n, layer):
    reach = enc.kernel // 2 * (2 ** (enc.layers - 1 - layer) - 1)
    rows = n // 2 + 2 * np.arange(-reach, reach + 1)
    return rows[(rows >= 0) & (rows < n)]


def first_conv_columns(windows, enc):
    """The columns conv_stack's first conv gathered from whole windows, row
    by row: (B, rows * kernel, C)."""
    n = windows.shape[1]
    half = enc.kernel // 2
    idx = _grid_rows(enc, n, 0)[:, None] + np.arange(-half, half + 1)[None, :]
    valid = (idx >= 0) & (idx < n)
    cols = np.take(windows, np.clip(idx, 0, n - 1), axis=1)
    if not valid.all():
        cols *= valid[None, :, :, None]
    return cols.reshape(len(windows), -1, windows.shape[2])


def conv_stack_on_windows(prefix, enc, x, pt):
    """conv_stack as it ran on whole windows, without dropout: every layer
    at the rows of its receptive-field tree, read out at the center."""
    h = x
    for i in range(enc.layers):
        h = T.relu(T.conv1d_dilated(h, pt[f"{prefix}.conv{i}.w"], pt[f"{prefix}.conv{i}.b"],
                                    rows=_grid_rows(enc, h.shape[1], i)))
    return T.select_time(h, 0)


def gather_taps(x, taps):
    """x (B, T, C) at the positions taps, as a graph node: (B, len(taps), C),
    a tap off 0..T-1 reading the clipped position times zero. The backward
    adds each tap's gradient at its position."""
    inside = (taps >= 0) & (taps < x.shape[1])
    pos = np.clip(taps, 0, x.shape[1] - 1)
    out = Tensor(x.data[:, pos] * inside[:, None], _prev=(x,))

    def _bw(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), pos[inside]), g[:, inside])
        x._accumulate(dx)

    out._backward = _bw
    return out
