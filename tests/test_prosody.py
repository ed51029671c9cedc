import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gestprop import prosody
from gestprop.prosody import (
    F0_CHUNK,
    F0_MAX,
    F0_MIN,
    PROSODY_COLUMNS,
    AudioClip,
    ProsodyTrack,
    _cmndf_track,
    _f0_buffers,
    _f0_track,
    downsample_by_mean,
    estimate_f0,
    extract_prosody,
    finite_diff,
    frame_signal,
    interpolate_unvoiced,
    read_prosody_csv,
    read_wav,
    silence_intervals,
    transform_energy,
    transform_pitch,
    write_prosody_csv,
    write_wav,
)
from prosody_reference import prosody_rows


def sine(freq, dur, sr, amp=1.0):
    t = np.arange(int(dur * sr)) / sr
    return AudioClip(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


# ---------------------------------------------------------------- clip / framing

def test_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros((10, 2)), sample_rate=16000)
    with pytest.raises(ValueError):     # found where the span is decoded
        AudioClip(samples=np.array([0.0, np.nan]), sample_rate=16000).decode()
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros(10), sample_rate=0)


def test_frame_counts():
    clip = sine(100, 1.0, 16000)
    assert clip.n_windows == 200
    frames = frame_signal(clip, 0, clip.n_windows)
    assert frames.shape == (200, 640)
    # a slice of windows is the same slice of all of them
    assert np.array_equal(frame_signal(clip, 50, 70), frames[50:70])
    assert np.array_equal(frame_signal(clip, 199, 200), frames[199:])
    assert AudioClip(np.zeros(0), 16000).n_windows == 0
    assert frame_signal(AudioClip(np.zeros(0), 16000), 0, 0).shape == (0, 640)
    # 40 ms window at 48 kHz is 1920 samples
    clip = sine(100, 0.5, 48000)
    assert frame_signal(clip, 0, clip.n_windows).shape == (100, 1920)


@pytest.mark.parametrize("sr,hop", [(22050, 110.25), (44100, 220.5)])
def test_window_grid_stays_on_200_fps_at_fractional_hops(sr, hop):
    # a hop of round(sr / 200) samples falls 0.45 windows a second behind here
    clip = AudioClip(np.arange(sr * 61) / (sr * 61), sr)   # each sample holds its index / n
    assert clip.n_windows == 61 * 200
    for lo in (100, 6000, clip.n_windows - 100):
        frames = frame_signal(clip, lo, lo + 50)
        centres = frames[:, frames.shape[1] // 2] * (sr * 61)
        assert np.all(np.abs(centres - np.arange(lo, lo + 50) * hop) <= 0.5 + 1e-6)


def test_frames_are_centred():
    sr = 16000
    x = np.zeros(sr)
    x[8000] = 1.0   # spike at t = 0.5 s
    frames = frame_signal(AudioClip(x, sr), 0, 200)
    # window 100 is centred at 0.5 s: spike lands mid-window
    assert frames[100, 320] == 1.0
    # first window is half zero-padded
    assert np.all(frames[0, :320] == 0.0)


# ---------------------------------------------------------------- pitch

@pytest.mark.parametrize("sr", [16000, 48000])
def test_estimate_f0_sine(sr):
    clip = sine(220.0, 0.1, sr)
    f0 = estimate_f0(clip.samples[: int(0.04 * sr)], sr)
    assert f0 is not None
    assert abs(f0 - 220.0) <= 0.03 * 220.0


def test_estimate_f0_silence_and_noise():
    sr = 16000
    assert estimate_f0(np.zeros(640), sr) is None
    rng = np.random.default_rng(7)
    absent = 0
    n = 200
    for _ in range(n):
        if estimate_f0(rng.normal(0, 0.5, 640), sr) is None:
            absent += 1
    assert absent >= 0.95 * n


def test_estimate_f0_window_too_short():
    with pytest.raises(ValueError):
        estimate_f0(np.zeros(100), 16000)


def cmndf_reference(frame, tau_max):
    """YIN steps 2-3 in the time domain: d(t) = sum_{j<W} (x_j - x_{j+t})^2
    over W = L - tau_max samples, then d(t) * t / sum_{s<=t} d(s), with 1
    where that sum is zero."""
    W = len(frame) - tau_max
    d = np.array([np.sum((frame[:W] - frame[t:t + W]) ** 2)
                  for t in range(1, tau_max + 1)])
    cum = np.cumsum(d)
    nd = np.ones(tau_max)
    live = cum > 0
    nd[live] = d[live] * np.arange(1, tau_max + 1)[live] / cum[live]
    return nd


@pytest.mark.parametrize("sr", [16000, 22050])
def test_cmndf_matches_time_domain_reference(sr):
    L = int(round(0.040 * sr))
    tau_max = int(np.ceil(sr / F0_MIN))
    t = np.arange(L) / sr
    rng = np.random.default_rng(9)
    tail_only = np.zeros(L)
    tail_only[-tau_max:] = rng.normal(size=tau_max)    # past the window: a short transform wraps here
    frames = np.stack([
        *rng.normal(size=(4, L)),
        np.sin(2 * np.pi * F0_MIN * t),
        0.3 * np.sin(2 * np.pi * F0_MAX * t),
        tail_only,
        np.zeros(L),
    ])
    nd, _, got_tau_max = _cmndf_track(frames, np.cumsum(frames * frames, axis=1), sr,
                                      _f0_buffers(len(frames), L, sr))
    assert got_tau_max == tau_max and nd.shape == (len(frames), tau_max)
    want = np.stack([cmndf_reference(f, tau_max) for f in frames])
    assert np.max(np.abs(nd - want)) < 1e-9
    assert np.all(nd[-1] == 1.0)                        # digital silence


def test_f0_track_peak_memory_on_one_chunk():
    # a chunk of 2048 x 640 frames peaked at 91.8 MB with the correlation
    # padded to 1024 points, and at 31.6 MB with it at the frame length;
    # 1024 frames peaked at 15.8 MB and 256 at 6.6 MB
    frames = np.random.default_rng(2).normal(0, 0.1, (F0_CHUNK, 640))
    tracemalloc.start()
    try:
        _f0_track(frames, 16000, _f0_buffers(F0_CHUNK, 640, 16000))
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 10.0


# ---------------------------------------------------------------- transforms

def test_transform_pitch_goldens():
    assert transform_pitch(math.e**4 - 1) == 0.0
    assert transform_pitch(0.0) == 0.0           # ln(1) - 4 clamps to 0
    assert transform_pitch(200.0) == pytest.approx(1.3033049080590757, abs=1e-15)
    # monotone above the clamp knee
    grid = np.linspace(60.0, 600.0, 200)
    vals = transform_pitch(grid)
    assert np.all(np.diff(vals) >= 0.0)


def test_transform_energy_goldens():
    assert transform_energy(math.e**3) == 0.0
    assert transform_energy(0.0) == pytest.approx(-26.025850929940457, abs=1e-12)
    assert transform_energy(1e-300) == transform_energy(0.0)   # floor at 1e-10


# ---------------------------------------------------------------- interpolation

def test_interpolate_unvoiced():
    at = np.arange(4)
    assert np.allclose(interpolate_unvoiced(at, np.array([0, 3]), np.array([1.0, 4.0])),
                       [1, 2, 3, 4])
    assert np.all(interpolate_unvoiced(np.arange(5), np.zeros(0, int), np.zeros(0)) == 0.0)
    assert np.allclose(interpolate_unvoiced(np.arange(3), np.array([1]), np.array([2.0])),
                       [2, 2, 2])

    # identity on fully voiced input
    rng = np.random.default_rng(0)
    v = rng.normal(size=50)
    assert np.array_equal(interpolate_unvoiced(np.arange(50), np.arange(50), v), v)

    # positions between voiced points outside them, as a block's are
    assert np.allclose(interpolate_unvoiced(np.arange(10, 13), np.array([0, 20]),
                                            np.array([0.0, 2.0])), [1.0, 1.1, 1.2])


# ---------------------------------------------------------------- derivatives

def test_finite_diff():
    assert np.all(finite_diff(np.full(10, 3.0), 200) == 0.0)
    ramp = np.arange(10) / 200.0
    assert np.allclose(finite_diff(ramp, 200), 1.0)
    assert np.array_equal(finite_diff(np.array([5.0]), 200), [0.0])


# ---------------------------------------------------------------- downsampling

def downsample_oracle(rows, factor=10):
    out = []
    for lo in range(0, len(rows), factor):
        out.append(rows[lo:lo + factor].mean(axis=0))
    return np.array(out)


def test_downsample_golden():
    rows = np.arange(1.0, 11.0)[:, None] * np.ones((1, 5))
    track = downsample_by_mean(ProsodyTrack(fps=200, rows=rows))
    assert track.fps == 20
    assert np.allclose(track.rows, 5.5)


def test_downsample_partial_group_and_oracle():
    rng = np.random.default_rng(3)
    for n in [25, 10, 9, 31, 200]:
        rows = rng.normal(size=(n, 5))
        got = downsample_by_mean(ProsodyTrack(fps=200, rows=rows)).rows
        want = downsample_oracle(rows)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
    assert len(downsample_by_mean(ProsodyTrack(fps=200, rows=rng.normal(size=(25, 5)))).rows) == 3


def test_downsample_linearity():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(37, 5))
    b = rng.normal(size=(37, 5))
    da = downsample_by_mean(ProsodyTrack(200, a)).rows
    db = downsample_by_mean(ProsodyTrack(200, b)).rows
    dab = downsample_by_mean(ProsodyTrack(200, 2.0 * a + 3.0 * b)).rows
    assert np.max(np.abs(dab - (2.0 * da + 3.0 * db))) < 1e-9


# ---------------------------------------------------------------- silencing

def test_silence_intervals():
    clip = sine(220, 1.0, 16000)
    same = silence_intervals(clip, [])
    assert np.array_equal(same.decode(), clip.decode())

    gone = silence_intervals(clip, [(0.0, 1.0)])
    assert np.all(gone.decode() == 0.0)

    half = silence_intervals(clip, [(0.0, 0.5)])
    assert np.all(half.decode()[:8000] == 0.0)
    assert np.array_equal(half.decode()[8000:], clip.decode()[8000:])

    with pytest.raises(ValueError):
        silence_intervals(clip, [(0.5, 0.5)])


def test_silence_clips_overlong_interval(caplog):
    clip = sine(220, 0.5, 16000)
    with caplog.at_level("WARNING"):
        out = silence_intervals(clip, [(0.4, 2.0)])
    assert np.all(out.decode()[int(0.4 * 16000):] == 0.0)
    assert any("clipping" in r.message for r in caplog.records)


# ---------------------------------------------------------------- full pipeline

def test_extract_prosody_row_count():
    assert extract_prosody(sine(220, 1.0, 16000)).n_frames == 20
    rng = np.random.default_rng(11)
    for dur in [0.05, 0.07, 0.124, 0.5, 1.33]:
        n = int(dur * 16000)
        clip = AudioClip(rng.normal(0, 0.1, n), 16000)
        assert extract_prosody(clip).n_frames == int(clip.duration * 20)


@pytest.mark.parametrize("sr", [22050, 44100])
def test_prosody_stays_on_the_label_grid_at_fractional_hops(sr):
    # a 200.45 fps analysis grid gave 2 rows a minute too many, and put a
    # tone starting at 50 s over two frames late
    n = int(55.3 * sr) + 7
    x = np.zeros(n)
    t = np.arange(n - 50 * sr) / sr
    x[50 * sr:] = 0.3 * np.sin(2 * np.pi * 200.0 * t)
    track = extract_prosody(AudioClip(x, sr))
    assert track.n_frames == n * 20 // sr
    first_voiced = int(np.argmax(track.rows[:, 0] > 0.5))
    assert abs(first_voiced - 50 * 20) <= 1


def test_extract_prosody_sine():
    track = extract_prosody(sine(220, 2.0, 16000))
    vuv, pitch = track.rows[:, 0], track.rows[:, 1]
    # interior frames fully voiced with stable pitch near ln(221) - 4
    inner = slice(2, -2)
    assert vuv[inner].mean() > 0.97
    lo = math.log(220 * 0.97 + 1) - 4
    hi = math.log(220 * 1.03 + 1) - 4
    assert np.all(pitch[inner] >= lo) and np.all(pitch[inner] <= hi)


def test_extract_prosody_silence():
    track = extract_prosody(AudioClip(np.zeros(16000), 16000))
    assert track.n_frames == 20
    assert np.all(track.rows[:, 0] == 0.0)          # unvoiced
    assert np.all(track.rows[:, 1] == 0.0)          # pitch zero
    assert np.all(track.rows[:, 3] == 0.0)          # flat derivative
    assert np.allclose(track.rows[:, 2], transform_energy(0.0))


def test_extract_prosody_memory_stays_flat_as_the_clip_grows(monkeypatch):
    # a frame matrix copied whole holds each sample 8 times (40 ms windows
    # every 5 ms): over 100 MB more at 120 s than at 30 s. With the 200 fps
    # rows built whole and the work arrays alive through them, the peak grew
    # 10.6 MB from 240 s to 960 s; built in blocks, 4.5 MB, of which the F0
    # track (17 B a window) is 2.4 MB and the thread pool's futures 2.1 MB
    monkeypatch.setattr(prosody, "_usable_cpus", lambda: 2)   # fixes the futures' count
    rng = np.random.default_rng(5)

    def peak_mb(seconds):
        x = (rng.normal(0, 0.1, seconds * 16000) * 32767).astype(np.int16)
        clip = AudioClip(x, 16000)
        tracemalloc.start()
        try:
            extract_prosody(clip)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    assert peak_mb(960) - peak_mb(240) < 7.0


PEAK_RSS_CHILD = """
import resource, sys
from gestprop import prosody
path = sys.argv[1]
mapped = []
track_chunk = prosody._f0_track

def f0_track(*args):
    try:
        with open("/proc/self/maps") as fh:
            mapped.append(path in fh.read())
    except FileNotFoundError:
        pass
    return track_chunk(*args)

prosody._f0_track = f0_track
prosody.extract_prosody(prosody.read_wav(path))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak if sys.platform == "darwin" else peak * 1024, any(mapped))
"""

# a child keeps the peak of the process that started it in ru_maxrss, so the
# measured child is started from this small one rather than from pytest
LAUNCHER = ("import subprocess, sys; "
            "sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)")


def test_extract_prosody_resident_memory_stays_flat_as_the_wav_grows(tmp_path):
    # tracemalloc does not see file pages: mapped, every page the chunks
    # decoded stayed resident, so the peak grew by the whole file
    from scipy.io import wavfile
    env = dict(os.environ, PYTHONPATH=str(Path(prosody.__file__).parents[1]),
               **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})
    rng = np.random.default_rng(8)

    def peak_bytes(seconds):
        path = tmp_path / f"{seconds}.wav"
        wavfile.write(path, 16000, rng.normal(0, 0.1, seconds * 16000).astype(np.float32))
        out = subprocess.run([sys.executable, "-c", LAUNCHER, PEAK_RSS_CHILD, str(path)],
                             env=env, capture_output=True, text=True, timeout=300,
                             check=True)
        peak, mapped = out.stdout.split()
        assert mapped == "False"          # no page of the WAV is mapped
        return int(peak)

    file_growth = (240 - 30) * 16000 * 4
    assert peak_bytes(240) - peak_bytes(30) < file_growth


def test_extract_prosody_rows_do_not_depend_on_the_chunk(monkeypatch):
    # each window is transformed on its own, so neither the chunk size, the
    # thread count nor the reused buffers' stale rows past a short last
    # chunk change a bit; 2540 windows leave a short last chunk at every
    # size below (85, 128, 256 and 1024 windows per chunk)
    sr = 44100
    rng = np.random.default_rng(13)
    t = np.arange(int(12.7 * sr)) / sr
    x = rng.normal(0, 0.02, len(t)) + 0.3 * np.sin(2 * np.pi * 180.0 * t) * (t % 2 > 1)
    stereo = np.stack([x, 0.5 * x + rng.normal(0, 0.01, len(t))], axis=1)
    pcm = (np.clip(stereo, -1.0, 1.0) * 32767).astype(np.int16).reshape(-1)
    clip = silence_intervals(AudioClip(pcm, sr, channels=2), [(0.5, 1.7), (6.05, 6.3)])
    assert clip.n_windows == 2540
    threads = threading.active_count()
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)        # threads hand over often: a shared buffer shows
    try:
        for cpus, chunk in [(1, 256), (2, 256), (3, 256), (1, 1024)]:
            monkeypatch.setattr(prosody, "_usable_cpus", lambda cpus=cpus: cpus)
            monkeypatch.setattr(prosody, "F0_CHUNK", chunk)
            rows[cpus, chunk] = extract_prosody(clip).rows.tobytes()
            assert threading.active_count() == threads      # the pool is joined
    finally:
        sys.setswitchinterval(interval)
    assert len(set(rows.values())) == 1
    vuv = extract_prosody(clip).rows[:, 0]
    assert 0.2 < vuv.mean() < 0.8      # voiced and unvoiced frames both
    assert not vuv[12:32].any()        # the first silenced range


def voicing(pattern, n, rng):
    """Voicing flags of n windows: random runs with one unvoiced run across
    several blocks, none, all, or only the first or the last window."""
    if pattern == "runs":
        toggles = np.isin(np.arange(n), rng.integers(0, n, max(n // 40, 3)))
        voiced = np.cumsum(toggles) % 2 == 1
        voiced[300:700] = False
        return voiced
    voiced = np.full(n, pattern == "all")
    if pattern in ("first", "last"):
        voiced[0 if pattern == "first" else -1] = True
    return voiced


@pytest.mark.parametrize("n_raw", [10, 1370])
@pytest.mark.parametrize("pattern", ["runs", "none", "all", "first", "last"])
def test_prosody_blocks_give_the_whole_track_bits(monkeypatch, pattern, n_raw):
    # blocks of 10 * F0_CHUNK = 160 windows: 1370 leaves a short last block
    # and 10 is shorter than one; each block interpolates between voiced
    # windows up to 700 windows away and takes central differences across
    # its edges
    rng = np.random.default_rng(21)
    voiced = voicing(pattern, n_raw, rng)
    f0 = np.where(voiced, rng.uniform(F0_MIN, F0_MAX, n_raw), 0.0)
    rms = rng.uniform(0.0, 0.3, n_raw) * (rng.random(n_raw) > 0.1)
    monkeypatch.setattr(prosody, "F0_CHUNK", 16)
    monkeypatch.setattr(prosody, "_track_f0", lambda clip, n: (f0, voiced, rms))
    clip = AudioClip(np.zeros(n_raw * 80), 16000)
    assert clip.n_windows == n_raw
    got = extract_prosody(clip).rows
    assert got.tobytes() == prosody_rows(f0, voiced, rms).tobytes()


def test_prosody_blocks_give_the_whole_track_bits_on_a_tracked_clip(monkeypatch):
    # 44.1 kHz stereo PCM16 with silenced ranges: 2540 windows in blocks of 640
    sr = 44100
    rng = np.random.default_rng(13)
    t = np.arange(int(12.7 * sr)) / sr
    x = rng.normal(0, 0.02, len(t)) + 0.3 * np.sin(2 * np.pi * 180.0 * t) * (t % 4 > 2.5)
    stereo = np.stack([x, 0.5 * x + rng.normal(0, 0.01, len(t))], axis=1)
    pcm = (np.clip(stereo, -1.0, 1.0) * 32767).astype(np.int16).reshape(-1)
    clip = silence_intervals(AudioClip(pcm, sr, channels=2), [(0.5, 1.7), (6.05, 9.3)])
    monkeypatch.setattr(prosody, "F0_CHUNK", 64)
    track = prosody._track_f0(clip, clip.n_windows)
    assert 0.1 < track[1].mean() < 0.6
    got = extract_prosody(clip).rows
    assert got.tobytes() == prosody_rows(*track).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_extract_prosody_names_a_nan_sample_mid_clip(monkeypatch, cpus):
    monkeypatch.setattr(prosody, "_usable_cpus", lambda: cpus)
    x = np.random.default_rng(4).normal(0, 0.1, 60 * 16000).astype(np.float32)
    x[456_789] = np.nan
    threads = threading.active_count()
    with pytest.raises(ValueError, match="non-finite samples") as err:
        extract_prosody(AudioClip(x, 16000))
    lo, hi = map(int, re.search(r"in (\d+)\.\.(\d+)", str(err.value)).groups())
    assert lo <= 456_789 <= hi and hi - lo < F0_CHUNK * 80 + 640     # one chunk's span
    assert threading.active_count() == threads


def test_extract_prosody_deterministic():
    clip = sine(150, 0.7, 16000, amp=0.3)
    a = extract_prosody(clip).rows
    b = extract_prosody(clip).rows
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- IO

def test_wav_roundtrip(tmp_path):
    clip = sine(220, 0.25, 16000, amp=0.5)
    p = tmp_path / "t.wav"
    write_wav(p, clip)
    back = read_wav(p)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.decode() - clip.decode())) < 1e-6


def test_a_clip_reads_the_file_it_opened(tmp_path):
    # a clip holds its file open; write_wav replaces the file by rename, so
    # the clip still decodes the old samples and a new read_wav the new ones
    p = tmp_path / "t.wav"
    write_wav(p, sine(220, 0.25, 16000, amp=0.5))
    opened = read_wav(p)
    want = opened.decode()
    write_wav(p, sine(220, 0.01, 16000))
    assert opened.decode().tobytes() == want.tobytes()
    assert read_wav(p).n_samples == 160
    assert [f.name for f in tmp_path.iterdir()] == ["t.wav"]


def test_a_wav_truncated_in_use_fails_naming_the_file_and_span(tmp_path):
    # read through a map, the same file ended the process (SIGBUS)
    p = tmp_path / "t.wav"
    write_wav(p, sine(220, 1.0, 16000, amp=0.5))
    clip = read_wav(p)
    head = clip.decode(0, 8000)
    with open(p, "r+b") as fh:
        fh.truncate(p.stat().st_size - 4 * 4000)      # the last 4000 samples
    assert clip.decode(0, 8000).tobytes() == head.tobytes()
    with pytest.raises(ValueError, match=r"t\.wav: samples 8000\.\.15999 are past the end"):
        clip.decode(8000, 16000)


@pytest.mark.parametrize("stereo", [False, True])
def test_clip_spans_decode_like_the_whole_file(tmp_path, stereo):
    from scipy.io import wavfile
    sr = 8000
    x = np.random.default_rng(9).integers(-32768, 32768, (3 * sr, 2), dtype=np.int16)
    x = x if stereo else x[:, 0]
    wavfile.write(tmp_path / "a.wav", sr, x)
    clip = silence_intervals(read_wav(tmp_path / "a.wav"), [(0.5, 0.75)])
    whole = x.astype(np.float64) / 32768.0
    whole = whole.mean(axis=1) if stereo else whole
    whole[4000:6000] = 0.0
    assert clip.decode().tobytes() == whole.tobytes()
    for lo, hi in [(0, 1), (3999, 6001), (5000, 5000), (23990, 24000)]:
        assert clip.decode(lo, hi).tobytes() == whole[lo:hi].tobytes()


def test_wav_pcm16_and_stereo(tmp_path):
    from scipy.io import wavfile
    sr = 16000
    mono = (np.sin(2 * np.pi * 220 * np.arange(sr // 4) / sr) * 16384).astype(np.int16)
    p = tmp_path / "pcm.wav"
    wavfile.write(p, sr, mono)
    clip = read_wav(p)
    assert np.max(np.abs(clip.decode())) <= 0.5 + 1e-4

    stereo = np.stack([mono, np.zeros_like(mono)], axis=1)
    p2 = tmp_path / "st.wav"
    wavfile.write(p2, sr, stereo)
    clip2 = read_wav(p2)
    assert abs(np.max(np.abs(clip2.decode())) - 0.25) < 1e-3


def write_prosody_csv_by_cell(track, path):
    """The cell-by-cell writer the column-at-once one replaced."""
    with open(path, "w") as fh:
        fh.write("frame," + ",".join(PROSODY_COLUMNS) + "\n")
        for i, row in enumerate(track.rows):
            fh.write(f"{i}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def test_prosody_csv_bytes_match_the_cell_writer(tmp_path):
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-12, 12, size=(300, 5))
    rows[:, 0] = rng.integers(0, 2, size=300)
    rows[:3] = [[0.0, -0.0, 1.0, 1e-300, -123456789.123]]
    track = ProsodyTrack(fps=20, rows=rows)
    write_prosody_csv(track, tmp_path / "columns.csv")
    write_prosody_csv_by_cell(track, tmp_path / "cells.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def write_prosody_csv_whole(track, path):
    """The writer that formatted every cell into one string at once."""
    n = track.n_frames
    cells = np.column_stack([np.arange(n), track.rows]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("frame," + ",".join(PROSODY_COLUMNS) + "\n")
        fh.write(("%d" + ",%.9g" * len(PROSODY_COLUMNS) + "\n") * n % tuple(cells))


def test_prosody_csv_is_written_row_by_row(tmp_path):
    # 4800 rows, 240 s at 20 fps: formatted at once, the cells and the text
    # took a 1.62 MB traced peak
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(4800, 5)) * 10.0 ** rng.integers(-9, 9, size=(4800, 5))
    rows[:, 0] = rng.integers(0, 2, size=4800)
    track = ProsodyTrack(fps=20, rows=rows)
    tracemalloc.start()
    try:
        write_prosody_csv(track, tmp_path / "rows.csv")
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    write_prosody_csv_whole(track, tmp_path / "whole.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert peak_mb < 0.3


def test_prosody_csv_roundtrip(tmp_path):
    track = extract_prosody(sine(220, 0.5, 16000))
    p = tmp_path / "pros.csv"
    write_prosody_csv(track, p)
    header = p.read_text().splitlines()[0]
    assert header == "frame,vuv,pitch,energy,d_pitch,d_energy"
    back = read_prosody_csv(p)
    assert back.rows.shape == track.rows.shape
    assert np.max(np.abs(back.rows - track.rows)) < 1e-6


@pytest.mark.parametrize("line,text,message", [
    (0, "frame,vuv,pitch,energy,d_pitch",
     r"pros\.csv: header 'frame,vuv,pitch,energy,d_pitch', want 'frame,vuv,"),
    (2, "1,0,0,0", r"pros\.csv: data row 2: 4 cells, want 6"),
    (3, "2,0,0,0,0,0,7", r"pros\.csv: data row 3: 7 cells, want 6"),
])
def test_prosody_csv_rejects_a_bad_shape(tmp_path, line, text, message):
    # a 7th value in every row used to load, dropped
    p = tmp_path / "pros.csv"
    write_prosody_csv(ProsodyTrack(fps=20, rows=np.zeros((4, 5))), p)
    lines = p.read_text().splitlines()
    lines[line] = text
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        read_prosody_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_prosody_csv_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "pros.csv"
    write_prosody_csv(ProsodyTrack(fps=20, rows=np.zeros((4, 5))), p)
    lines = p.read_text().splitlines()
    lines[3] = f"2,0,{cell},0,0,0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"pros\.csv: data row 3: non-finite value"):
        read_prosody_csv(p)
