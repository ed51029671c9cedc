"""Prosodic feature extraction.

Five per-frame features are computed from mono audio: a voiced/unvoiced flag,
a transformed log-F0, a transformed log-energy, and central-difference
derivatives of the latter two. Analysis runs on a 200 fps grid (5 ms hop,
40 ms windows) and is mean-downsampled to the 20 fps grid shared with the
gesture annotations.

Pitch is tracked with the cumulative mean normalized difference function
(CMNDF) of the YIN family: candidate periods are searched in the 75-600 Hz
band, a frame is voiced when the normalized difference minimum falls below
0.15 and frame RMS is at least 1e-4, and the chosen lag is refined by
parabolic interpolation. Unvoiced gaps in the pitch feature are filled by
linear interpolation (constant extension at the edges) before derivatives
are taken.

Transforms:
    pitch_feat  = max(0, ln(f0 + 1) - 4)        (f0 in Hz, 0 when unvoiced)
    energy_feat = ln(max(rms, 1e-10)) - 3
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

log = logging.getLogger(__name__)

RAW_FPS = 200
OUT_FPS = 20
FRAME_LEN = 0.040
F0_MIN = 75.0
F0_MAX = 600.0
VOICING_THRESHOLD = 0.15
F0_CHUNK = 1024          # analysis frames per CMNDF batch; bounds the F0 tracker's memory
ENERGY_GATE = 1e-4
ENERGY_FLOOR = 1e-10

PROSODY_COLUMNS = ("vuv", "pitch", "energy", "d_pitch", "d_energy")


@dataclass(frozen=True)
class AudioClip:
    """Mono audio in [-1, 1] float samples."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("audio contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def n_windows(self) -> int:
        """Analysis windows on the RAW_FPS grid: floor(n_samples * RAW_FPS / sr)."""
        return len(self.samples) * RAW_FPS // self.sample_rate


@dataclass
class ProsodyTrack:
    """Per-frame prosodic features, one row per frame.

    Columns: vuv, pitch, energy, d_pitch, d_energy.
    """

    fps: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(PROSODY_COLUMNS):
            raise ValueError(f"expected (n, 5) rows, got shape {rows.shape}")
        self.rows = rows

    @property
    def n_frames(self) -> int:
        return len(self.rows)


def read_wav(path: str | Path) -> AudioClip:
    """Read a WAV file (PCM16 or float32; stereo is averaged to mono)."""
    sr, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(sr))


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV."""
    wavfile.write(str(path), clip.sample_rate, clip.samples.astype(np.float32))


def silence_intervals(clip: AudioClip, intervals) -> AudioClip:
    """Return a copy of the clip with the given (start, end) seconds zeroed.

    Intervals reaching past the clip are clipped with a warning.
    """
    samples = clip.samples.copy()
    n = len(samples)
    for start, end in intervals:
        if end <= start:
            raise ValueError(f"empty or inverted interval ({start}, {end})")
        lo = int(round(start * clip.sample_rate))
        hi = int(round(end * clip.sample_rate))
        if lo < 0 or hi > n:
            log.warning(
                "silence interval (%.3f, %.3f) exceeds clip of %.3f s; clipping",
                start, end, clip.duration,
            )
        samples[max(lo, 0):min(hi, n)] = 0.0
    return AudioClip(samples=samples, sample_rate=clip.sample_rate)


def frame_signal(clip: AudioClip, lo: int, hi: int) -> np.ndarray:
    """Analysis windows lo..hi-1 of a clip, each FRAME_LEN long.

    Window i is centred at sample round(i * sr / RAW_FPS), computed in
    integers, so the grid stays on RAW_FPS at rates like 44.1 kHz where a
    hop is not a whole number of samples; samples outside the clip are
    zero. Returns a (hi - lo, L) array gathered from one padded copy of
    the samples those windows cover, so a long clip taken a slice at a
    time costs one slice's memory.
    """
    sr = clip.sample_rate
    frame_s = max(1, int(round(FRAME_LEN * sr)))
    # clip sample where window i starts: its centre, rounded half up, less half a window
    starts = (np.arange(lo, hi) * sr + RAW_FPS // 2) // RAW_FPS - frame_s // 2
    if len(starts) == 0:
        return np.zeros((0, frame_s))
    first, end = starts[0], starts[-1] + frame_s
    span = np.zeros(end - first)
    a, b = max(first, 0), min(end, len(clip.samples))
    span[a - first:b - first] = clip.samples[a:b]
    return np.lib.stride_tricks.sliding_window_view(span, frame_s)[starts - first]


def _cmndf_track(frames: np.ndarray, energy: np.ndarray,
                 sample_rate: int) -> tuple[np.ndarray, int, int]:
    """CMNDF values for lags 1..tau_max for every frame.

    energy is the running sum of squares along each frame,
    energy[i, k] = sum_{j<=k} x_ij^2. Returns (nd, tau_min, tau_max) where
    nd[i, t-1] is the normalized difference of frame i at lag t.

    The difference function over an integration window of W = L - tau_max
    samples, d(t) = sum_{j<W} (x_j - x_{j+t})^2, expands to e0 + e_t - 2 r(t)
    (YIN, de Cheveigne & Kawahara 2002, steps 2-3). The energies e0 and e_t
    are differences of the running sum; r(t) = sum_{j<W} x_j x_{j+t} is a
    circular FFT correlation of length L. It needs no zero padding: with
    j < W and t <= tau_max, j + t <= L - 1 never wraps, so lags 0..tau_max
    of the circular correlation equal the linear ones.
    """
    L = frames.shape[1]
    tau_min = max(1, int(sample_rate / F0_MAX))
    tau_max = int(np.ceil(sample_rate / F0_MIN))
    if tau_max > L // 2:
        raise ValueError(
            f"window of {L} samples too short for fmin={F0_MIN} Hz "
            f"at {sample_rate} Hz (needs >= {2 * tau_max})"
        )
    W = L - tau_max

    xcorr = np.fft.rfft(frames[:, :W], L)
    np.conjugate(xcorr, out=xcorr)
    xcorr *= np.fft.rfft(frames, L)
    corr = np.fft.irfft(xcorr, L)[:, 1:tau_max + 1]
    del xcorr

    # lag t in column t - 1: e_t = sum_{j=t}^{t+W-1} x_j^2, e0 = sum_{j<W} x_j^2
    d = energy[:, W:] - energy[:, :tau_max]
    d += energy[:, W - 1:W]
    corr *= 2.0
    d -= corr
    np.maximum(d, 0.0, out=d)
    cum_d = np.cumsum(d, axis=1)
    nd = d                       # normalized in place
    nd *= np.arange(1, tau_max + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        nd /= cum_d
    nd[~np.isfinite(nd)] = 1.0     # digital silence: d == 0 everywhere
    return nd, tau_min, tau_max


def _pick_period(nd: np.ndarray, tau_min: int,
                 tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the period lag per frame from CMNDF values.

    Absolute-threshold rule: the first lag in band dipping below the
    threshold, walked forward to the local minimum; frames that never dip
    use the global band minimum. Returns (lag, nd_at_lag).
    """
    n = len(nd)
    band = nd[:, tau_min - 1:tau_max]        # lag tau at column tau - tau_min
    width = band.shape[1]
    below = band < VOICING_THRESHOLD
    has_dip = below.any(axis=1)
    first = np.where(has_dip, below.argmax(axis=1), band.argmin(axis=1))
    # local minimum at-or-after the first dip: nd[i] <= nd[i+1]
    is_min = np.ones_like(band, dtype=bool)
    is_min[:, :-1] = band[:, :-1] <= band[:, 1:]
    after = np.arange(width)[None, :] >= first[:, None]
    trough = (is_min & after).argmax(axis=1)
    pick = np.where(has_dip, trough, first)
    lags = pick + tau_min
    return lags, band[np.arange(n), pick]


def _refine_parabolic(nd: np.ndarray, lags: np.ndarray,
                      tau_min: int, tau_max: int) -> np.ndarray:
    """Sub-sample period estimates via parabolic interpolation on CMNDF."""
    lags = lags.astype(np.float64)
    inner = (lags > tau_min) & (lags < tau_max)
    li = lags[inner].astype(int)
    rows = np.flatnonzero(inner)
    a = nd[rows, li - 2]       # nd column for lag t is t-1
    b = nd[rows, li - 1]
    c = nd[rows, li]
    denom = a - 2.0 * b + c
    shift = np.zeros_like(a)
    ok = np.abs(denom) > 1e-12
    shift[ok] = 0.5 * (a[ok] - c[ok]) / denom[ok]
    shift = np.clip(shift, -0.5, 0.5)
    refined = lags.copy()
    refined[rows] = li + shift
    return refined


def _f0_track(frames: np.ndarray,
              sample_rate: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F0 (Hz, 0 where unvoiced), voicing flags and RMS for a frame stack.

    The stack is squared once: the squares give the RMS that gates voicing,
    then become the CMNDF's running energy sum in place. Memory grows with
    the stack, so extract_prosody passes F0_CHUNK frames at a time.
    """
    energy = frames * frames
    rms = np.sqrt(np.mean(energy, axis=1))
    np.cumsum(energy, axis=1, out=energy)
    nd, tau_min, tau_max = _cmndf_track(frames, energy, sample_rate)
    lags, nd_min = _pick_period(nd, tau_min, tau_max)
    period = _refine_parabolic(nd, lags, tau_min, tau_max)
    cand = sample_rate / period
    voiced = (nd_min < VOICING_THRESHOLD) & (rms >= ENERGY_GATE) \
        & (cand >= F0_MIN) & (cand <= F0_MAX)
    return np.where(voiced, cand, 0.0), voiced, rms


def estimate_f0(window: np.ndarray, sample_rate: int) -> float | None:
    """Fundamental frequency of one analysis window, or None if unvoiced.

    Args:
        window: 1-D sample array, at least two periods of F0_MIN long.
        sample_rate: sampling rate in Hz.

    Returns:
        F0 in Hz within [F0_MIN, F0_MAX], or None when the frame fails the
        voicing test (CMNDF minimum >= threshold or RMS < 1e-4).
    """
    f0, voiced, _ = _f0_track(np.asarray(window, dtype=np.float64)[None, :], sample_rate)
    return float(f0[0]) if voiced[0] else None


def transform_pitch(f0):
    """max(0, ln(f0 + 1) - 4); accepts scalars or arrays."""
    return np.maximum(0.0, np.log(np.asarray(f0, dtype=np.float64) + 1.0) - 4.0)


def transform_energy(x):
    """ln(max(x, 1e-10)) - 3; accepts scalars or arrays."""
    return np.log(np.maximum(np.asarray(x, dtype=np.float64), ENERGY_FLOOR)) - 3.0


def interpolate_unvoiced(values: np.ndarray, voiced: np.ndarray) -> np.ndarray:
    """Linearly interpolate across unvoiced runs, constant at the edges.

    With no voiced frame at all the result is all zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    if voiced.all():
        return values.copy()
    if not voiced.any():
        return np.zeros_like(values)
    idx = np.arange(len(values))
    return np.interp(idx, idx[voiced], values[voiced])


def finite_diff(seq: np.ndarray, fps: float) -> np.ndarray:
    """Central differences scaled to per-second units; one-sided at the edges.

    A length-1 sequence has derivative 0.
    """
    seq = np.asarray(seq, dtype=np.float64)
    n = len(seq)
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.zeros(1)
    out = np.empty(n)
    out[1:-1] = (seq[2:] - seq[:-2]) * (fps / 2.0)
    out[0] = (seq[1] - seq[0]) * fps
    out[-1] = (seq[-1] - seq[-2]) * fps
    return out


def downsample_by_mean(track: ProsodyTrack, factor: int = 10) -> ProsodyTrack:
    """Average consecutive groups of `factor` rows; a partial trailing group
    is averaged over its actual size."""
    rows = track.rows
    n = len(rows)
    n_full = n // factor
    out = []
    if n_full:
        out.append(rows[:n_full * factor].reshape(n_full, factor, -1).mean(axis=1))
    if n % factor:
        out.append(rows[n_full * factor:].mean(axis=0, keepdims=True))
    merged = np.concatenate(out) if out else np.zeros((0, rows.shape[1]))
    return ProsodyTrack(fps=track.fps // factor, rows=merged)


def extract_prosody(clip: AudioClip) -> ProsodyTrack:
    """Full 5-channel prosody pipeline at 20 fps.

    Frames at 200 fps, estimates F0/voicing and RMS, applies the log
    transforms, interpolates the pitch feature across unvoiced gaps, takes
    central-difference derivatives at 200 fps, then mean-downsamples to
    20 fps. The raw track is trimmed to a multiple of 10 rows first, so the
    output has floor(n_samples * 20 / sr) rows, aligned with the label grid
    at every sample rate.
    """
    n_raw = clip.n_windows - clip.n_windows % 10
    if n_raw == 0:
        return ProsodyTrack(fps=OUT_FPS, rows=np.zeros((0, 5)))
    f0, voiced, rms = map(np.concatenate, zip(*(
        _f0_track(frame_signal(clip, lo, min(lo + F0_CHUNK, n_raw)), clip.sample_rate)
        for lo in range(0, n_raw, F0_CHUNK))))

    pitch = transform_pitch(np.where(voiced, f0, 0.0))
    pitch = interpolate_unvoiced(pitch, voiced)
    energy = transform_energy(rms)

    raw = np.column_stack([
        voiced.astype(np.float64),
        pitch,
        energy,
        finite_diff(pitch, RAW_FPS),
        finite_diff(energy, RAW_FPS),
    ])
    return downsample_by_mean(ProsodyTrack(fps=RAW_FPS, rows=raw))


def write_prosody_csv(track: ProsodyTrack, path: str | Path) -> None:
    """Write `frame,vuv,pitch,energy,d_pitch,d_energy` with 9 significant digits."""
    n = track.n_frames
    cells = np.column_stack([np.arange(n), track.rows]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("frame," + ",".join(PROSODY_COLUMNS) + "\n")
        fh.write(("%d" + ",%.9g" * len(PROSODY_COLUMNS) + "\n") * n % tuple(cells))


def read_prosody_csv(path: str | Path) -> ProsodyTrack:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return ProsodyTrack(fps=OUT_FPS, rows=np.zeros((0, 5)))
    return ProsodyTrack(fps=OUT_FPS, rows=data[:, 1:6])
