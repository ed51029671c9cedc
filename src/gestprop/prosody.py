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

Memory grows with recording length only by the F0 track (f0, RMS and
voicing: 17 B per 5 ms window, 3.4 KB per audio second) and the output rows
(0.8 KB per audio second); a 16 kHz clip's traced peak grew 2.5 MB from
240 s to 960 s tracked in this process alone, and 2.1 MB beside one forked
worker. read_wav reads a WAV file's header and keeps the file open,
silence_intervals records the zeroed sample ranges instead of copying the
clip, and frame_signal decodes only the span its windows cover, read from
the file with one positioned read (os.pread, so POSIX only) and decoded to
float64 (PCM16 / 32768, channels averaged, silenced ranges zeroed,
non-finite samples rejected). No page of the file stays mapped.

extract_prosody tracks F0 in one process per CPU this one may use, at most
F0_CHUNK // 64 and no more than gives each a range of F0_FORK_MIN windows.
This process tracks the first contiguous range of windows; a child forked
for each other range (forked.run_ranges) tracks that one. Each worker
takes F0_CHUNK // workers windows at a time, so the windows in flight
total at most F0_CHUNK whatever the worker count. Every window is
transformed on its own, so the rows are bit-identical at any worker count.
Each worker keeps one set of the F0 tracker's work arrays for its whole
range, freed before post-processing. Allocated afresh, each chunk's few-MB
transforms would be mapped and page-faulted anew by the C allocator, which
hands out large blocks from fresh pages until a larger block has been
freed; that cost more time than the smaller chunk saved. The track is then
post-processed and downsampled 10 * F0_CHUNK windows at a time, with the
same bits as the whole at once.
"""

from __future__ import annotations

import logging
import os
import re
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from . import forked
from .evaluation import write_atomic

log = logging.getLogger(__name__)

RAW_FPS = 200
OUT_FPS = 20
FRAME_LEN = 0.040
F0_MIN = 75.0
F0_MAX = 600.0
VOICING_THRESHOLD = 0.15
F0_CHUNK = 256           # analysis frames in flight at once; bounds the F0 tracker's memory
F0_FORK_MIN = 1024       # fewest windows worth a forked F0 worker (see _track_f0)
ENERGY_GATE = 1e-4
ENERGY_FLOOR = 1e-10

PROSODY_COLUMNS = ("vuv", "pitch", "energy", "d_pitch", "d_energy")
CSV_HEADER = "frame," + ",".join(PROSODY_COLUMNS)


class WavData:
    """The stored samples of a WAV file's data chunk, read a span at a time.

    Holds one open descriptor, shared by the clips silence_intervals makes
    from the clip read_wav returned and closed when the last of them is
    collected. A span is one os.pread into a fresh array; pread moves no
    shared file position, so processes forked from this one read spans at
    once. The descriptor means nothing to another process, so a WavData is
    not pickled.
    """

    def __init__(self, path: str | Path, fd: int, offset: int, dtype: np.dtype,
                 size: int, channels: int):
        self.path, self.fd, self.offset = path, fd, offset
        self.dtype, self.size, self.channels = dtype, size, channels
        weakref.finalize(self, os.close, fd)

    def __len__(self) -> int:
        return self.size

    def __reduce__(self):
        raise TypeError(f"{self.path}: an open WAV file is not pickled; "
                        "read_wav it in the process that reads it")

    def __getitem__(self, span: slice) -> np.ndarray:
        """Stored values span.start..span.stop-1, read into a fresh array."""
        lo, hi, _ = span.indices(self.size)
        n = max(hi - lo, 0) * self.dtype.itemsize
        data = os.pread(self.fd, n, self.offset + lo * self.dtype.itemsize)
        if len(data) < n:
            ch = self.channels
            raise ValueError(f"{self.path}: samples {lo // ch}..{(hi - 1) // ch} "
                             "are past the end of the file; was it truncated?")
        return np.frombuffer(data, self.dtype)


@dataclass(frozen=True)
class AudioClip:
    """Audio as stored, decoded to mono float64 one span at a time.

    samples holds the stored values, `channels` of them per instant: float
    in [-1, 1], or int16 PCM, which decodes as / 32768. read_wav passes the
    WAV file's WavData, so a clip holds no sample in memory. Sample ranges
    [lo, hi) in `silenced` decode as zero.
    """

    samples: np.ndarray | WavData
    sample_rate: int
    channels: int = 1
    silenced: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        samples = self.samples
        if not isinstance(samples, WavData):
            samples = np.asarray(samples)
            if samples.dtype not in (np.int16, np.float32):
                samples = samples.astype(np.float64, copy=False)
            if samples.ndim != 1:
                raise ValueError(f"expected 1-D samples, got shape {samples.shape}")
        if self.channels < 1 or len(samples) % self.channels:
            raise ValueError(f"{len(samples)} samples do not split into "
                             f"{self.channels} channel(s)")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return len(self.samples) // self.channels

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def n_windows(self) -> int:
        """Analysis windows on the RAW_FPS grid: floor(n_samples * RAW_FPS / sr)."""
        return self.n_samples * RAW_FPS // self.sample_rate

    def decode(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Mono float64 samples lo..hi-1 (default: all), silenced ranges zeroed.

        Decodes in the order a whole-file read did (to float64, PCM16 scaled,
        channels averaged), so a span equals that slice of the whole. A
        non-finite sample in the span is a ValueError.
        """
        ch = self.channels
        hi = self.n_samples if hi is None else hi
        x = self.samples[lo * ch:hi * ch].astype(np.float64)
        if self.samples.dtype == np.int16:
            x /= 32768.0
        if ch > 1:
            x = x.reshape(-1, ch).mean(axis=1)
        if not np.isfinite(x).all():
            raise ValueError(f"audio contains non-finite samples in {lo}..{hi - 1}")
        for a, b in self.silenced:
            x[max(a - lo, 0):max(b - lo, 0)] = 0.0
        return x


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
    """Open a WAV file (PCM16 or float; stereo is averaged to mono when
    decoded). Only the header is read here; each span is read as decoded.

    The clip keeps the file open, so a file replaced by rename, as write_wav
    does, leaves the clip on the old contents. A file truncated while the
    clip is in use fails the next span read past its end with a ValueError.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        # given a descriptor, not a file object, scipy maps the data chunk
        # rather than reading it; the map is dropped with no page touched
        sr, data = wavfile.read(os.dup(fd), mmap=True)
        if data.dtype not in (np.int16, np.float32, np.float64):
            raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
        channels = data.shape[1] if data.ndim == 2 else 1
        wav = WavData(path, fd, data.offset, data.dtype, data.size, channels)
    except BaseException:
        os.close(fd)
        raise
    return AudioClip(samples=wav, sample_rate=int(sr), channels=channels)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip, decoded, as 32-bit float WAV, replacing path by rename,
    so a clip still reading the old file keeps its samples."""
    samples = clip.decode().astype(np.float32)
    write_atomic(path, lambda tmp: wavfile.write(tmp, clip.sample_rate, samples))


def silence_intervals(clip: AudioClip, intervals) -> AudioClip:
    """The clip with the given (start, end) seconds decoding as zero.

    Only the sample ranges are recorded; no sample is copied. Intervals
    reaching past the clip are clipped with a warning.
    """
    n = clip.n_samples
    ranges = []
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
        ranges.append((max(lo, 0), min(hi, n)))
    return replace(clip, silenced=clip.silenced + tuple(ranges))


def frame_signal(clip: AudioClip, lo: int, hi: int) -> np.ndarray:
    """Analysis windows lo..hi-1 of a clip, each FRAME_LEN long.

    Window i is centred at sample round(i * sr / RAW_FPS), computed in
    integers, so the grid stays on RAW_FPS at rates like 44.1 kHz where a
    hop is not a whole number of samples; samples outside the clip are
    zero. Returns a (hi - lo, L) array gathered from one padded span, of
    which only the samples those windows cover are decoded, so a long clip
    taken a slice at a time costs one slice's memory.
    """
    sr = clip.sample_rate
    frame_s = _frame_len(sr)
    # clip sample where window i starts: its centre, rounded half up, less half a window
    starts = (np.arange(lo, hi) * sr + RAW_FPS // 2) // RAW_FPS - frame_s // 2
    if len(starts) == 0:
        return np.zeros((0, frame_s))
    first, end = starts[0], starts[-1] + frame_s
    span = np.zeros(end - first)
    a, b = max(first, 0), min(end, clip.n_samples)
    span[a - first:b - first] = clip.decode(a, b)
    return np.lib.stride_tricks.sliding_window_view(span, frame_s)[starts - first]


def _frame_len(sample_rate: int) -> int:
    return max(1, int(round(FRAME_LEN * sample_rate)))


def _lag_range(sample_rate: int) -> tuple[int, int]:
    """(tau_min, tau_max): the lags of periods in the F0_MIN..F0_MAX band."""
    return max(1, int(sample_rate / F0_MAX)), int(np.ceil(sample_rate / F0_MIN))


def _f0_buffers(rows: int, frame_len: int, sample_rate: int) -> dict[str, np.ndarray]:
    """Work arrays of the F0 tracker for up to `rows` frames of frame_len.

    Each F0 worker makes one set per recording and hands it to every chunk
    it tracks, so no chunk allocates its multi-MB transforms afresh. The
    last frame_len - W columns of "padded" stay zero (W: see _cmndf_track).
    """
    tau_max = _lag_range(sample_rate)[1]
    spectrum = (rows, frame_len // 2 + 1)
    return {"energy": np.empty((rows, frame_len)), "padded": np.zeros((rows, frame_len)),
            "spec": np.empty(spectrum, complex), "spec_w": np.empty(spectrum, complex),
            "d": np.empty((rows, tau_max)), "cum_d": np.empty((rows, tau_max))}


def _cmndf_track(frames: np.ndarray, energy: np.ndarray, sample_rate: int,
                 buf: dict[str, np.ndarray]) -> tuple[np.ndarray, int, int]:
    """CMNDF values for lags 1..tau_max for every frame.

    energy is the running sum of squares along each frame,
    energy[i, k] = sum_{j<=k} x_ij^2; once the energy terms are taken from
    it, the correlation overwrites it. buf holds work arrays of exactly
    len(frames) rows (see _f0_buffers). Returns (nd, tau_min, tau_max) where
    nd[i, t-1] is the normalized difference of frame i at lag t; nd is a
    view of buf["d"].

    The difference function over an integration window of W = L - tau_max
    samples, d(t) = sum_{j<W} (x_j - x_{j+t})^2, expands to e0 + e_t - 2 r(t)
    (YIN, de Cheveigne & Kawahara 2002, steps 2-3). The energies e0 and e_t
    are differences of the running sum; r(t) = sum_{j<W} x_j x_{j+t} is a
    circular FFT correlation of length L of the frame with its first W
    samples, copied into buf["padded"], whose zero tail fills them to L. It
    needs no longer transform: with j < W and t <= tau_max, j + t <= L - 1
    never wraps, so lags 0..tau_max of the circular correlation equal the
    linear ones.
    """
    L = frames.shape[1]
    tau_min, tau_max = _lag_range(sample_rate)
    if tau_max > L // 2:
        raise ValueError(
            f"window of {L} samples too short for fmin={F0_MIN} Hz "
            f"at {sample_rate} Hz (needs >= {2 * tau_max})"
        )
    W = L - tau_max

    # lag t in column t - 1: e_t = sum_{j=t}^{t+W-1} x_j^2, e0 = sum_{j<W} x_j^2
    d = np.subtract(energy[:, W:], energy[:, :tau_max], out=buf["d"])
    d += energy[:, W - 1:W]

    padded = buf["padded"]                 # its columns W.. stay zero
    padded[:, :W] = frames[:, :W]
    xcorr = np.fft.rfft(padded, out=buf["spec_w"])
    np.conjugate(xcorr, out=xcorr)
    xcorr *= np.fft.rfft(frames, L, out=buf["spec"])
    corr = np.fft.irfft(xcorr, L, out=energy)[:, 1:tau_max + 1]
    corr *= 2.0
    d -= corr
    np.maximum(d, 0.0, out=d)
    cum_d = np.cumsum(d, axis=1, out=buf["cum_d"])
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


def _f0_track(frames: np.ndarray, sample_rate: int, buffers: dict[str, np.ndarray],
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F0 (Hz, 0 where unvoiced), voicing flags and RMS for a frame stack.

    The stack is squared once: the squares give the RMS that gates voicing,
    then become the CMNDF's running energy sum in place. Work arrays are the
    first len(frames) rows of `buffers` (see _f0_buffers), which grow with
    the stack, so extract_prosody passes at most F0_CHUNK frames at a time.
    """
    buf = {k: v[:len(frames)] for k, v in buffers.items()}
    energy = np.multiply(frames, frames, out=buf["energy"])
    rms = np.sqrt(np.mean(energy, axis=1))
    np.cumsum(energy, axis=1, out=energy)
    nd, tau_min, tau_max = _cmndf_track(frames, energy, sample_rate, buf)
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
    frames = np.asarray(window, dtype=np.float64)[None, :]
    f0, voiced, _ = _f0_track(frames, sample_rate, _f0_buffers(1, len(window), sample_rate))
    return float(f0[0]) if voiced[0] else None


def transform_pitch(f0):
    """max(0, ln(f0 + 1) - 4); accepts scalars or arrays."""
    return np.maximum(0.0, np.log(np.asarray(f0, dtype=np.float64) + 1.0) - 4.0)


def transform_energy(x):
    """ln(max(x, 1e-10)) - 3; accepts scalars or arrays."""
    return np.log(np.maximum(np.asarray(x, dtype=np.float64), ENERGY_FLOOR)) - 3.0


def interpolate_unvoiced(at: np.ndarray, voiced_at: np.ndarray,
                         voiced_values: np.ndarray) -> np.ndarray:
    """Values at positions `at`, linear between the voiced points
    (voiced_at, voiced_values) and constant beyond the first and last.

    With no voiced point at all the result is all zeros. Each value depends
    only on the voiced points bracketing its position, so a block of a track
    given its own voiced points and the nearest one on each side gets the
    bits the whole track would.
    """
    if len(voiced_at) == 0:
        return np.zeros(len(at))
    return np.interp(at, voiced_at, voiced_values)


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


def _track_range(clip: AudioClip, lo: int, hi: int,
                 step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F0 (Hz, 0 where unvoiced), voicing flags and RMS of windows lo..hi-1,
    tracked `step` windows at a time through one set of work arrays."""
    sr = clip.sample_rate
    f0, rms = np.empty(hi - lo), np.empty(hi - lo)
    voiced = np.empty(hi - lo, dtype=bool)
    buffers = _f0_buffers(min(step, hi - lo), _frame_len(sr), sr)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        f0[a - lo:b - lo], voiced[a - lo:b - lo], rms[a - lo:b - lo] = \
            _f0_track(frame_signal(clip, a, b), sr, buffers)
    return f0, voiced, rms


def _track_f0(clip: AudioClip, n_raw: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F0 (Hz, 0 where unvoiced), voicing flags and RMS of windows 0..n_raw-1.

    One contiguous range of windows per worker (forked.run_ranges), each
    child handed the clip by the fork and not pickled. One and two workers
    both took 18 ms on 1024 windows on 2 vCPUs, and two won from 2048 on.
    """
    workers = min(forked.usable_cpus(), F0_CHUNK // 64, max(n_raw // F0_FORK_MIN, 1))
    step = F0_CHUNK // workers
    parts = forked.run_ranges(lambda lo, hi: _track_range(clip, lo, hi, step),
                              n_raw, workers, "F0 worker for windows")
    return tuple(np.concatenate(column) for column in zip(*parts))


def extract_prosody(clip: AudioClip) -> ProsodyTrack:
    """Full 5-channel prosody pipeline at 20 fps.

    Frames at 200 fps, estimates F0/voicing and RMS, applies the log
    transforms, interpolates the pitch feature across unvoiced gaps, takes
    central-difference derivatives at 200 fps, then mean-downsamples to
    20 fps. The raw track is trimmed to a multiple of 10 rows first, so the
    output has floor(n_samples * 20 / sr) rows, aligned with the label grid
    at every sample rate.

    The 200 fps rows are built in blocks of 10 * F0_CHUNK, each with one row
    of context on either side for the central differences and with the
    nearest voiced window on either side for the interpolation, so the
    rows are those of the whole track at once.
    """
    n_raw = clip.n_windows - clip.n_windows % 10
    if n_raw == 0:
        return ProsodyTrack(fps=OUT_FPS, rows=np.zeros((0, 5)))
    f0, voiced, rms = _track_f0(clip, n_raw)
    out = np.empty((n_raw // 10, len(PROSODY_COLUMNS)))
    block = 10 * F0_CHUNK
    for lo in range(0, n_raw, block):
        hi = min(lo + block, n_raw)
        a, b = max(lo - 1, 0), min(hi + 1, n_raw)       # with the context rows
        # the voiced windows in a..b-1 and the nearest one on either side
        points = np.flatnonzero(voiced[a:b]) + a
        left, right = voiced[:a][::-1], voiced[b:]
        if left.any():
            points = np.insert(points, 0, a - 1 - left.argmax())
        if right.any():
            points = np.append(points, b + right.argmax())
        raw = np.empty((b - a, len(PROSODY_COLUMNS)))
        raw[:, 0] = voiced[a:b]
        raw[:, 1] = interpolate_unvoiced(np.arange(a, b), points, transform_pitch(f0[points]))
        raw[:, 2] = transform_energy(rms[a:b])
        raw[:, 3] = finite_diff(raw[:, 1], RAW_FPS)
        raw[:, 4] = finite_diff(raw[:, 2], RAW_FPS)
        rows = raw[lo - a:hi - a]
        out[lo // 10:hi // 10] = downsample_by_mean(ProsodyTrack(fps=RAW_FPS, rows=rows)).rows
    return ProsodyTrack(fps=OUT_FPS, rows=out)


def write_prosody_csv(track: ProsodyTrack, path: str | Path) -> None:
    """Write `frame,vuv,pitch,energy,d_pitch,d_energy` with 9 significant digits."""
    line = "%d" + ",%.9g" * len(PROSODY_COLUMNS) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(line % (i, *row.tolist()) for i, row in enumerate(track.rows))


def read_prosody_csv(path: str | Path) -> ProsodyTrack:
    """Read a file write_prosody_csv wrote. A header other than
    write_prosody_csv's, a row without 6 cells, or a cell that is not a
    finite number is a ValueError naming the file and the data row."""
    cells = len(PROSODY_COLUMNS) + 1

    def rows(fh):
        for row, line in enumerate(fh, 1):
            if line.count(",") != cells - 1:
                raise ValueError(f"{path}: data row {row}: {line.count(',') + 1} cells, "
                                 f"want {cells}")
            yield line

    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != CSV_HEADER:
            raise ValueError(f"{path}: header {first!r}, want {CSV_HEADER!r}")
        try:
            data = np.loadtxt(rows(fh), delimiter=",", ndmin=2)
        except ValueError as exc:       # numpy counts the rows from 0; rows() names its own
            at = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))
            if at is None:
                raise
            raise ValueError(f"{path}: data row {int(at[2]) + 1}, column {at[3]}: "
                             f"{at[1]}") from None
    if data.size == 0:
        return ProsodyTrack(fps=OUT_FPS, rows=np.zeros((0, 5)))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: data row {bad[0] + 1}: non-finite value")
    return ProsodyTrack(fps=OUT_FPS, rows=data[:, 1:])
