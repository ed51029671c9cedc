"""Whole-track references for the prosody post-processing.

extract_prosody builds the 200 fps rows a block at a time, each block with
its context rows and its bracketing voiced windows; these functions build
them from the whole F0 track at once, so tests can compare the two bit for
bit.
"""

import numpy as np

from gestprop.prosody import (RAW_FPS, ProsodyTrack, downsample_by_mean, finite_diff,
                              transform_energy, transform_pitch)


def interpolate_whole(values: np.ndarray, voiced: np.ndarray) -> np.ndarray:
    """Linear across unvoiced runs, constant at the edges; all zeros with no
    voiced frame."""
    values = np.asarray(values, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    if voiced.all():
        return values.copy()
    if not voiced.any():
        return np.zeros_like(values)
    idx = np.arange(len(values))
    return np.interp(idx, idx[voiced], values[voiced])


def prosody_rows(f0: np.ndarray, voiced: np.ndarray, rms: np.ndarray) -> np.ndarray:
    """The 20 fps rows of a 200 fps F0 track whose length is a multiple of 10."""
    raw = np.empty((len(f0), 5))
    raw[:, 0] = voiced
    raw[:, 1] = interpolate_whole(transform_pitch(f0), voiced)
    raw[:, 2] = transform_energy(rms)
    raw[:, 3] = finite_diff(raw[:, 1], RAW_FPS)
    raw[:, 4] = finite_diff(raw[:, 2], RAW_FPS)
    return downsample_by_mean(ProsodyTrack(fps=RAW_FPS, rows=raw)).rows
