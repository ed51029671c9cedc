"""Feature build, cached dataset, and the window provider."""

import gc
import json
import os
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.io import wavfile

from gestprop import corpus, features, prosody, synth, textfeat
from gestprop.net import (EncoderSpec, ModelSpec, conv_stack, field_width, init_params,
                          input_taps)
from gestprop.tensor import Tensor
from text_reference import assemble_text_window, read_vectors
from window_reference import (audio_windows, conv_stack_on_windows, first_conv_columns,
                              text_windows)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    spec = synth.SynthSpec(name="tiny", n_speakers=2, duration=15.0)
    recs = synth.generate_synthetic_corpus(spec, seed=7, out_dir=root)
    fdir = root / "features"
    new, failures = features.build_features(recs, fdir)
    assert failures == []
    assert new == sorted(r.rec_id for r in recs)
    emb = root / "vectors.txt"
    ds = features.load_dataset(recs, fdir, emb)
    return root, recs, fdir, emb, ds


def first_recording_frames(ds):
    return int((ds.rec_ids == ds.rec_ids[0]).sum())


def test_build_writes_two_files_per_recording(built):
    _, recs, fdir, _, _ = built
    for rec in recs:
        paths = features.feature_paths(fdir, rec.rec_id)
        assert sorted(paths) == ["frames", "prosody"]
        for p in paths.values():
            assert p.exists()
    assert not list(fdir.glob("*.tmp*"))


def test_build_is_idempotent_unless_forced(built):
    # prosody is extracted once; the label tables are rewritten, byte for byte
    _, recs, fdir, _, _ = built
    paths = [features.feature_paths(fdir, r.rec_id) for r in recs]
    stamp = {p["prosody"]: p["prosody"].stat().st_mtime_ns for p in paths}
    tables = {p["frames"]: p["frames"].read_bytes() for p in paths}
    again, failures = features.build_features(recs, fdir)
    assert again == [] and failures == []
    assert all(p.stat().st_mtime_ns == t for p, t in stamp.items())
    assert all(p.read_bytes() == b for p, b in tables.items())

    one = [recs[0]]
    forced, _ = features.build_features(one, fdir, force=True)
    assert forced == [recs[0].rec_id]


def test_missing_audio_is_collected_not_raised(built, tmp_path):
    root, recs, fdir, _, _ = built
    bad = corpus.Recording(rec_id=99, speaker="zz",
                           audio_path=tmp_path / "nope.wav")
    new, failures = features.build_features(list(recs) + [bad], fdir)
    assert new == []                      # the real ones are cached already
    assert len(failures) == 1
    rec_id, msg = failures[0]
    assert rec_id == 99 and "nope.wav" in msg


def tone_and_noise(seconds, sr, seed):
    """Noise with 150-300 Hz tone bursts every other second, so that frames
    are voiced and unvoiced."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * sr)) / sr
    tone = 0.3 * np.sin(2 * np.pi * (150.0 + 150.0 * (t % 7) / 7) * t)
    return rng.normal(0, 0.02, len(t)) + tone * (np.floor(t) % 2 == 1)


def whole_file_prosody(rec):
    """The reference: decode the whole file the old way (float64, PCM16
    / 32768, channel mean), zero the interlocutor spans in place, and
    extract from the in-memory clip."""
    sr, data = wavfile.read(rec.audio_path)
    x = data.astype(np.float64) / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    for start, end in rec.interlocutor:
        x[max(int(round(start * sr)), 0):min(int(round(end * sr)), len(x))] = 0.0
    return prosody.extract_prosody(prosody.AudioClip(x, sr))


@pytest.mark.parametrize("sr,layout", [(44100, "pcm16_stereo"), (16000, "float32")])
def test_built_features_equal_a_whole_file_decode(tmp_path, sr, layout):
    x = tone_and_noise(6.3, sr, seed=sr)
    if layout == "pcm16_stereo":   # channels differ, so the mean matters
        x = np.round(np.stack([x, 0.5 * x[::-1]], axis=1) * 32767).astype(np.int16)
    else:
        x = x.astype(np.float32)
    wavfile.write(tmp_path / "a.wav", sr, x)
    rec = corpus.Recording(rec_id=0, speaker="s", audio_path=tmp_path / "a.wav",
                           interlocutor=[(0.5, 1.25), (3.01, 3.9), (6.0, 9.0)])
    built, failures = features.build_features([rec], tmp_path / "feat")
    assert built == [0] and failures == []

    track = whole_file_prosody(rec)
    prosody.write_prosody_csv(track, tmp_path / "want.prosody.csv")
    corpus.write_frame_csv(corpus.build_frame_table(rec, duration=track.n_frames / 20),
                           tmp_path / "want.frames.csv")
    paths = features.feature_paths(tmp_path / "feat", 0)
    assert paths["prosody"].read_bytes() == (tmp_path / "want.prosody.csv").read_bytes()
    assert paths["frames"].read_bytes() == (tmp_path / "want.frames.csv").read_bytes()


def test_non_finite_sample_fails_only_its_recording(tmp_path):
    recs = []
    for rec_id in (0, 1, 2):
        x = tone_and_noise(3.0, 16000, seed=rec_id).astype(np.float32)
        if rec_id == 1:
            x[30000] = np.nan          # mid-file: found while extracting, not by read_wav
        wavfile.write(tmp_path / f"{rec_id}.wav", 16000, x)
        recs.append(corpus.Recording(rec_id=rec_id, speaker="s",
                                     audio_path=tmp_path / f"{rec_id}.wav"))
    built, failures = features.build_features(recs, tmp_path / "feat")
    assert built == [0, 2]
    assert len(failures) == 1
    rec_id, msg = failures[0]
    assert rec_id == 1 and "1.wav" in msg and "non-finite" in msg
    assert not features.feature_paths(tmp_path / "feat", 1)["prosody"].exists()
    for rec_id in (0, 2):
        assert features.feature_paths(tmp_path / "feat", rec_id)["prosody"].exists()


def test_a_wav_truncated_in_use_fails_only_its_recording(tmp_path, monkeypatch):
    # read through a map, a read past the shortened file ended the process
    recs = []
    for rec_id in (0, 1, 2):
        wavfile.write(tmp_path / f"{rec_id}.wav", 16000,
                      tone_and_noise(3.0, 16000, seed=rec_id).astype(np.float32))
        recs.append(corpus.Recording(rec_id=rec_id, speaker="s",
                                     audio_path=tmp_path / f"{rec_id}.wav"))
    read_wav = prosody.read_wav

    def read_then_truncate(path):
        clip = read_wav(path)
        if path == recs[1].audio_path:
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size // 2)
        return clip

    monkeypatch.setattr(features, "read_wav", read_then_truncate)
    built, failures = features.build_features(recs, tmp_path / "feat")
    assert built == [0, 2]
    assert len(failures) == 1
    rec_id, msg = failures[0]
    assert rec_id == 1 and "1.wav" in msg and "past the end of the file" in msg
    assert not features.feature_paths(tmp_path / "feat", 1)["prosody"].exists()


@pytest.mark.parametrize("case", ["missing", "int32", "truncated_in_use",
                                  "nan_sample", "not_riff"])
def test_each_failure_names_its_file_once(tmp_path, monkeypatch, case):
    # most read errors name the file already; the failure adds it only if not
    path = tmp_path / f"{case}.wav"
    x = tone_and_noise(3.0, 16000, seed=1).astype(np.float32)
    if case == "int32":
        wavfile.write(path, 16000, np.round(x * 2e9).astype(np.int32))
    elif case == "not_riff":
        path.write_bytes(b"not a wave file" * 10)
    elif case != "missing":
        if case == "nan_sample":
            x[30000] = np.nan
        wavfile.write(path, 16000, x)
    read_wav = prosody.read_wav

    def read_then_truncate(p):
        clip = read_wav(p)
        with open(p, "r+b") as fh:
            fh.truncate(p.stat().st_size // 2)
        return clip

    if case == "truncated_in_use":
        monkeypatch.setattr(features, "read_wav", read_then_truncate)
    rec = corpus.Recording(rec_id=0, speaker="s", audio_path=path)
    built, failures = features.build_features([rec], tmp_path / "feat")
    assert built == [] and len(failures) == 1
    assert failures[0][1].count(str(path)) == 1, failures[0][1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_build_leaves_no_wav_open(tmp_path):
    spec = synth.SynthSpec(name="tiny", n_speakers=3, duration=12.0, interlocutor=True)
    recs = synth.generate_synthetic_corpus(spec, seed=3, out_dir=tmp_path)
    assert len(recs) == 3
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    built, failures = features.build_features(recs, tmp_path / "feat")
    assert len(built) == 3 and failures == []
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before


def test_build_memory_stays_flat_as_the_recording_grows(tmp_path):
    # decoding the whole file held two float64 copies of it: 11.8 MB more
    # at 120 s than at 30 s
    rng = np.random.default_rng(12)

    def peak_mb(seconds):
        path = tmp_path / f"{seconds}.wav"
        wavfile.write(path, 16000, rng.normal(0, 0.1, seconds * 16000).astype(np.float32))
        rec = corpus.Recording(rec_id=seconds, speaker="s", audio_path=path,
                               interlocutor=[(seconds - 5.0, seconds + 5.0)])
        tracemalloc.start()
        try:
            built, _ = features.build_features([rec], tmp_path / "feat", force=True)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert built == [seconds]
        return peak

    assert peak_mb(120) - peak_mb(30) < 3.0


def test_frame_counts_agree_across_artifacts(built):
    _, recs, fdir, _, _ = built
    for rec in recs:
        paths = features.feature_paths(fdir, rec.rec_id)
        clip = prosody.read_wav(rec.audio_path)
        n = int(clip.duration * 20)
        assert prosody.read_prosody_csv(paths["prosody"]).n_frames == n
        assert len(np.loadtxt(paths["frames"], delimiter=",", skiprows=2, ndmin=2)) == n


def test_word_windows_match_window_oracle(built):
    _, recs, _, emb, ds = built
    rec = min(recs, key=lambda r: r.rec_id)
    n = first_recording_frames(ds)
    ids, offsets = ds.word_ids[:n], ds.word_offsets[:n]
    vectors = read_vectors(emb)
    for f in range(n):
        t = f / 20.0
        cur = -1                        # linear scan: the latest onset <= t
        for i, w in enumerate(rec.words):
            if w.onset <= t:
                cur = i
        for s in range(7):
            i = cur - 3 + s
            if not 0 <= i < len(rec.words):
                assert ids[f, s] == -1 and offsets[f, s] == 0.0
                continue
            tok = rec.words[i]
            vec = textfeat.lookup_word(vectors, tok.word)
            if vec is None:
                assert ids[f, s] == features.OOV_ID
            else:
                assert np.array_equal(ds.emb_matrix[ids[f, s]], vec.astype(np.float32))
            assert offsets[f, s] == np.float32(tok.onset - t)


def test_dataset_order_matches_fold_plan(built):
    _, recs, _, _, ds = built
    tables = [corpus.build_frame_table(r, duration=prosody.read_wav(r.audio_path).duration)
              for r in sorted(recs, key=lambda r: r.rec_id)]
    assert ds.n_frames == sum(t.n_frames for t in tables)
    rec_ids, offsets = np.unique(ds.rec_ids, return_index=True)
    assert rec_ids.tolist() == sorted(r.rec_id for r in recs)
    assert np.array_equal(offsets, np.cumsum([0] + [t.n_frames for t in tables[:-1]]))
    assert np.array_equal(ds.eligible, np.concatenate([t.eligible() for t in tables]))
    plan = corpus.make_folds_within(ds, k=5)
    for fold in range(plan.n_folds):
        val = plan.val[fold]
        assert ds.eligible[val].all()
        # global index g addresses frame g - offset of its recording
        rec_row = np.searchsorted(offsets, val, side="right") - 1
        assert np.array_equal(ds.rec_ids[val], rec_ids[rec_row])
        assert np.array_equal(ds.t[val], (val - offsets[rec_row]) / 20)


def test_labels_and_flags_per_property(built):
    _, _, _, _, ds = built
    dims = {"phase": 5, "category": 4, "semantics": 4, "presence": 1}
    for prop, dim in dims.items():
        pr = features.WindowProvider(ds, prop, "both")
        assert pr.n_labels == dim
        assert pr.exclusive is (prop == "phase")
        idx = np.arange(0, ds.n_frames, 37)
        assert np.array_equal(pr.labels_at(idx),
                              ds.labels_for(prop)[idx].astype(np.float32))
    with pytest.raises(ValueError, match="property"):
        features.WindowProvider(ds, "color", "both")
    with pytest.raises(ValueError, match="modality"):
        features.WindowProvider(ds, "phase", "video")


def test_audio_windows_are_centered_and_standardized(built):
    _, _, _, _, ds = built
    pr = features.WindowProvider(ds, "presence", "audio")
    train_idx = np.where(ds.eligible)[0][:120]
    pr.fit_norm(train_idx)
    rows = ds.prosody[train_idx].astype(np.float64)
    assert np.allclose(pr.norm_mean, rows.mean(axis=0), atol=1e-6)
    assert np.allclose(pr.norm_std, rows.std(axis=0), atol=1e-6)

    g = int(np.where(ds.eligible)[0][40])
    batch = pr.batch(np.array([g]))
    assert batch["audio"].shape == (1, 41, 5)
    want = (ds.prosody[g - 20:g + 21] - pr.norm_mean) / pr.norm_std
    assert np.allclose(batch["audio"][0], want, atol=1e-6)
    assert batch["text"] is None and batch["speaker"] is None


@pytest.mark.parametrize("layers,kernel,frames", [(2, 3, 7), (4, 5, 41)])
def test_audio_batches_hold_the_frames_the_model_reads(built, layers, kernel, frames):
    # criterion 7's model reads +-3 frames; k=5 at 4 layers reads all +-20
    _, _, _, _, ds = built
    enc = EncoderSpec(layers=layers, channels=32, kernel=kernel, out_dim=32)
    spec = ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=enc)
    pr = features.WindowProvider(ds, "presence", "both")
    pr.fit_norm(np.where(ds.eligible)[0])
    idx = np.where(ds.eligible)[0][[0, 7, -1]]
    taps = input_taps(spec)["audio"]
    batch = pr.batch(idx, input_taps(spec))
    assert batch["audio"].shape == (3, len(taps), 5)
    assert batch["audio"].flags.c_contiguous
    assert field_width(enc, 41) == frames
    lo = 20 - frames // 2
    pos = np.clip(taps, 0, 40)
    assert set(pos) == set(range(lo, lo + frames))
    whole = pr.batch(idx)["audio"]
    assert batch["audio"].tobytes() == (whole[:, pos] * (pos == taps)[:, None]).tobytes()


def text_zeros_and_mask(ds, idx, modality):
    """The text windows as they were built before: zeros, then the present
    slots' embeddings through a boolean mask, then the timing column."""
    ids, off = ds.word_ids[idx], ds.word_offsets[idx]
    dim = ds.emb_matrix.shape[1]
    out = np.zeros((len(ids), 7, dim + 1), dtype=np.float32)
    present = ids >= 0
    out[:, :, :dim][present] = ds.emb_matrix[ids[present]]
    if modality != "text_no_timing":
        out[:, :, dim] = np.where(ids != features.ABSENT_ID, off, 0.0)
    return out


@pytest.mark.parametrize("modality", ["text", "text_no_timing"])
def test_text_windows_are_bit_equal_to_the_masked_build(built, modality):
    _, _, _, _, ds = built
    ids = ds.word_ids.copy()
    ids[::5, 2] = features.OOV_ID                    # unknown words keep their offsets
    ds = replace(ds, word_ids=ids)
    idx = np.arange(0, ds.n_frames, 3)
    got = features.WindowProvider(ds, "semantics", modality).batch(idx)["text"]
    want = text_zeros_and_mask(ds, idx, modality)
    window = ds.word_ids[idx]
    assert all((window == s).any() for s in (features.ABSENT_ID, features.OOV_ID))
    assert (window >= 0).any()
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("modality,layers,kernel", [
    ("text", 2, 3), ("text_no_timing", 2, 3), ("audio", 2, 3), ("both", 4, 5)])
def test_taps_are_bit_equal_to_the_windows_then_conv_gather(built, modality, layers,
                                                              kernel):
    # the taps the provider gathers are the columns the first conv gathered
    # from whole windows, and the encoders read the same from them, bit for
    # bit, signed zeros included; k=5 at 4 layers has taps off both windows,
    # which read the clipped position times zero, as the conv's gather did
    _, _, _, _, ds = built
    ids = ds.word_ids.copy()
    ids[::5, 2] = features.OOV_ID
    ds = replace(ds, word_ids=ids)
    enc = EncoderSpec(layers=layers, channels=4, kernel=kernel, out_dim=4)
    spec = ModelSpec(head="sigmoid", n_labels=1, audio=enc if modality in ("audio", "both")
                     else None, text=None if modality == "audio" else enc)
    pr = features.WindowProvider(ds, "presence", modality)
    pr.fit_norm(np.where(ds.eligible)[0])
    idx = np.where(ds.eligible)[0][::3]
    taps = input_taps(spec)
    batch = pr.batch(idx, taps)
    windows = {"audio": lambda: audio_windows(pr, idx, field_width(enc, 41)),
               "text": lambda: text_windows(pr, idx)}
    params = init_params(spec, seed=layers)
    params.flat[:] = np.random.default_rng([layers, kernel]).normal(size=params.flat.size)
    pt = {k: Tensor(v) for k, v in params.tensors.items()}
    for name in taps:
        whole = windows[name]()
        want = first_conv_columns(whole, getattr(spec, name))
        assert batch[name].dtype == want.dtype and batch[name].tobytes() == want.tobytes()
        right = want[:, taps[name] >= whole.shape[1]]      # zeros signed like the edge
        assert (np.signbit(right).any() and (right == 0).all()) == (kernel == 5)
        got = conv_stack(name, getattr(spec, name), Tensor(batch[name]), pt).data
        ref = conv_stack_on_windows(name, getattr(spec, name), Tensor(whole), pt).data
        assert got.tobytes() == ref.tobytes()
    for name, steps in (("audio", 41), ("text", 7)):
        off = taps.get(name, np.zeros(1))
        assert (off < 0).any() == (off >= steps).any() == (kernel == 5)
    if "text" in taps:
        window = ds.word_ids[idx]
        assert all((window == s).any() for s in (features.ABSENT_ID, features.OOV_ID))


def test_norm_state_roundtrip_and_std_floor(built):
    _, _, _, _, ds = built
    pr = features.WindowProvider(ds, "presence", "audio")
    pr.fit_norm(np.where(ds.eligible)[0])
    state = pr.norm_state()
    pr2 = features.WindowProvider(ds, "presence", "audio")
    pr2.set_norm(state)
    assert np.array_equal(pr.norm_mean, pr2.norm_mean)
    assert np.array_equal(pr.norm_std, pr2.norm_std)

    mean, std = features.compute_norm(np.full((50, 5), 3.25))
    assert np.allclose(mean, 3.25)
    assert np.all(std == pytest.approx(1e-6))
    with pytest.raises(ValueError):
        features.compute_norm(np.zeros((0, 5)))


def test_text_batch_matches_assemble_oracle(built):
    _, recs, _, emb, ds = built
    pr = features.WindowProvider(ds, "semantics", "text")
    rec0 = next(r for r in recs if r.rec_id == ds.rec_ids[0])
    for f in (25, 80, 150):
        got = pr.batch(np.array([f]))["text"][0]
        want = assemble_text_window(read_vectors(emb), rec0.words, f / 20.0)
        assert np.allclose(got, want, atol=1e-5)


def test_text_no_timing_zeroes_offset_column(built):
    _, _, _, _, ds = built
    idx = np.where(ds.word_ids[:, 3] >= 0)[0][:16]   # frames with a current word
    timed = features.WindowProvider(ds, "semantics", "text").batch(idx)["text"]
    plain = features.WindowProvider(ds, "semantics", "text_no_timing").batch(idx)["text"]
    assert np.abs(timed[:, :, 300]).max() > 0
    assert np.all(plain[:, :, 300] == 0.0)
    assert np.array_equal(timed[:, :, :300], plain[:, :, :300])


def test_oov_words_keep_offset_but_zero_embedding(built, tmp_path):
    root, recs, fdir, emb, _ = built
    target = next(w.word for w in recs[0].words)
    slim = tmp_path / "slim.txt"
    slim.write_text("".join(line for line in emb.read_text().splitlines(keepends=True)
                            if line.split(" ", 1)[0] != target))
    ds = features.load_dataset(recs, fdir, slim)
    hit = np.where(ds.word_ids == features.OOV_ID)
    assert len(hit[0]) > 0
    f, s = int(hit[0][0]), int(hit[1][0])
    text = features.WindowProvider(ds, "semantics", "text").batch(
        np.array([f]))["text"][0]
    assert np.all(text[s, :300] == 0.0)
    assert text[s, 300] == pytest.approx(ds.word_offsets[f, s])
    assert ds.word_offsets[f, s] != 0.0 or s == 3


def test_modalities_gate_streams(built):
    _, _, _, _, ds = built
    g = np.where(ds.eligible)[0][:4]
    audio = features.WindowProvider(ds, "presence", "audio").batch(g)
    text = features.WindowProvider(ds, "presence", "text").batch(g)
    both = features.WindowProvider(ds, "presence", "both").batch(g)
    assert audio["audio"] is not None and audio["text"] is None
    assert text["audio"] is None and text["text"] is not None
    assert both["audio"] is not None and both["text"] is not None
    assert np.array_equal(audio["audio"], both["audio"])
    assert np.array_equal(text["text"], both["text"])


def test_ineligible_frame_rejected_for_audio(built):
    _, _, _, _, ds = built
    pr = features.WindowProvider(ds, "presence", "audio")
    with pytest.raises(ValueError, match="eligible"):
        pr.batch(np.array([0]))
    # text-only windows are defined everywhere
    features.WindowProvider(ds, "presence", "text").batch(np.array([0]))


def test_speaker_onehot(built):
    _, _, _, _, ds = built
    pr = features.WindowProvider(ds, "presence", "both", speakers=ds.speaker_list)
    assert pr.speaker_dim == len(ds.speaker_list) == 2
    idx = np.where(ds.eligible)[0]
    batch = pr.batch(idx[[0, -1]])
    order = ds.speaker_list
    for j, g in enumerate(idx[[0, -1]]):
        k = order.index(ds.speakers[g])
        want = np.zeros(len(order), dtype=np.float32)
        want[k] = 1.0
        assert np.array_equal(batch["speaker"][j], want)
    plain = features.WindowProvider(ds, "presence", "both")
    assert plain.speaker_dim == 0
    assert plain.batch(idx[:2])["speaker"] is None


def _copy_corpus(root, tmp_path):
    """The built corpus and features under tmp_path, so tests can edit them."""
    shutil.copytree(root, tmp_path / "c")
    return tmp_path / "c", corpus.load_manifest(tmp_path / "c" / "manifest.json")


def test_shifted_transcript_timings_need_no_rebuild(built, tmp_path):
    root, _, _, emb, ds = built
    copy, recs = _copy_corpus(root, tmp_path)
    rec = min(recs, key=lambda r: r.rec_id)
    path = copy / f"rec_{rec.rec_id:02d}" / "transcript.tsv"
    shifted = [textfeat.WordToken(w.word, w.onset + 0.25, w.offset + 0.25)
               for w in rec.words]
    textfeat.write_transcript(shifted, path)
    recs = corpus.load_manifest(copy / "manifest.json")
    moved = features.load_dataset(recs, copy / "features", emb)
    words = min(recs, key=lambda r: r.rec_id).words
    n = first_recording_frames(ds)
    for f in range(n):
        # the extents follow the shifted words: a linear scan for the
        # current word, then the first present slot's onset and the last's offset
        t = f / 20.0
        cur = sum(w.onset <= t for w in words) - 1
        present = [words[i] for i in range(cur - 3, cur + 4) if 0 <= i < len(words)]
        assert moved.win_lo[f] == min(t - 1.0, present[0].onset)
        assert moved.win_hi[f] == max(t + 1.0, present[-1].offset)
    assert not np.array_equal(moved.win_lo[:n], ds.win_lo[:n])
    assert np.array_equal(moved.win_lo[n:], ds.win_lo[n:])
    assert np.array_equal(moved.win_hi[n:], ds.win_hi[n:])
    assert not np.array_equal(moved.word_offsets[:n], ds.word_offsets[:n])


def assert_same_dataset(a, b):
    for name in features.FrameDataset.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def window_vectors(ds, frames):
    """Each slot's vector (zeros where absent or OOV) and kind (its sentinel,
    or 0 for a word with a vector) at the frames: the word windows without
    their row numbering, which follows the vectors file."""
    ids = ds.word_ids[frames]
    table = np.vstack([ds.emb_matrix, np.zeros((1, ds.emb_matrix.shape[1]), np.float32)])
    return table[np.where(ids >= 0, ids, -1)], np.minimum(ids, 0)


def assert_same_windows(a, b, frames=slice(None)):
    for x, y in zip(window_vectors(a, frames), window_vectors(b, frames)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert np.array_equal(a.word_offsets[frames], b.word_offsets[frames])


def test_unused_vectors_change_no_window_and_cost_no_memory(built, tmp_path):
    # a published vectors file holds a million words the corpus never uses;
    # holding their vectors grew the load's peak by 30.7 MB per 5,000 words
    _, recs, fdir, emb, _ = built
    header, *lines = emb.read_text().splitlines(keepends=True)
    rng = np.random.default_rng(4)
    unused = [f"zzunused{i:04d} " + " ".join(f"{v:.6f}" for v in row) + "\n"
              for i, row in enumerate(rng.normal(0.0, 0.4, size=(5000, 300)))]
    padded = tmp_path / "padded.txt"
    padded.write_text("".join([header] + unused[:2500] + lines + unused[2500:]))

    def load(path):
        tracemalloc.start()
        try:
            loaded = features.load_dataset(recs, fdir, path)
            return loaded, tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    plain, plain_mb = load(emb)
    wide, wide_mb = load(padded)
    assert_same_windows(wide, plain)
    for name in ("rec_ids", "t", "prosody", "phase", "category", "semantics",
                 "has_gesture", "eligible", "win_lo", "win_hi"):
        assert np.array_equal(getattr(wide, name), getattr(plain, name)), name
    for make in (lambda d: corpus.make_folds_within(d, k=5), corpus.make_folds_between):
        a, b = make(wide), make(plain)
        for x, y in zip(a.val + a.train, b.val + b.train):
            assert np.array_equal(x, y)
    assert len(wide.emb_matrix) == len(plain.emb_matrix) <= len(lines)
    assert wide_mb - plain_mb < 2.0


def test_no_word_with_a_vector_gives_zero_embeddings_and_real_offsets(built, tmp_path):
    _, recs, fdir, _, ds = built
    other = tmp_path / "other.txt"
    other.write_text("zzother " + " ".join(["0.5"] * 300) + "\n")
    bare = features.load_dataset(recs, fdir, other)
    assert bare.emb_matrix.shape == (0, 300) and bare.emb_matrix.dtype == np.float32
    present = ds.word_ids != features.ABSENT_ID
    assert present.any()
    assert np.array_equal(bare.word_ids,
                          np.where(present, features.OOV_ID, features.ABSENT_ID))
    idx = np.arange(bare.n_frames)
    text = features.WindowProvider(bare, "semantics", "text").batch(idx)["text"]
    assert text.shape == (bare.n_frames, 7, 301)
    assert not text[:, :, :300].any()
    assert np.array_equal(text[:, :, 300], ds.word_offsets)
    assert np.abs(text[:, :, 300][present]).max() > 0


def test_loading_reads_no_frame_csv(built, tmp_path):
    # an 18-column frames.csv (one an older version wrote) and a deleted one
    # both leave the dataset as it was
    root, _, _, emb, ds = built
    copy, recs = _copy_corpus(root, tmp_path)
    frames = [features.feature_paths(copy / "features", r.rec_id)["frames"] for r in recs]
    meta, header, *rows = frames[0].read_text().splitlines()
    frames[0].write_text("\n".join([meta, header + ",win_lo,win_hi"]
                                   + [row + ",0,0" for row in rows]) + "\n")
    assert_same_dataset(features.load_dataset(recs, copy / "features", emb), ds)
    for path in frames:
        path.unlink()
    assert_same_dataset(features.load_dataset(recs, copy / "features", emb), ds)


def test_annotation_edits_need_no_rebuild(built, tmp_path):
    root, _, _, emb, ds = built
    copy, recs = _copy_corpus(root, tmp_path)
    rec = min(recs, key=lambda r: r.rec_id)
    (copy / f"rec_{rec.rec_id:02d}" / "annotations.tsv").write_text("")
    edited = features.load_dataset(corpus.load_manifest(copy / "manifest.json"),
                                   copy / "features", emb)
    n = first_recording_frames(ds)
    assert ds.has_gesture[:n].sum() > 0
    assert edited.has_gesture[:n].sum() == 0
    for name in ("phase", "category", "semantics"):
        assert not getattr(edited, name)[:n].any()
        assert np.array_equal(getattr(edited, name)[n:], getattr(ds, name)[n:])
    assert np.array_equal(edited.prosody, ds.prosody)


def test_label_tables_follow_annotations_without_a_rebuild(built, tmp_path):
    root, _, _, _, _ = built
    copy, recs = _copy_corpus(root, tmp_path)
    table = features.feature_paths(copy / "features", recs[0].rec_id)["frames"]
    want = table.read_bytes()
    table.unlink()
    assert features.build_features(recs, copy / "features") == ([], [])
    assert table.read_bytes() == want

    (copy / f"rec_{recs[0].rec_id:02d}" / "annotations.tsv").write_text("")
    recs = corpus.load_manifest(copy / "manifest.json")
    assert features.build_features(recs, copy / "features") == ([], [])
    has_gesture = np.loadtxt(table, delimiter=",", skiprows=2, ndmin=2)[:, 2]
    assert len(has_gesture) == want.count(b"\n") - 2 and not has_gesture.any()


def test_speaker_edits_need_no_rebuild(tmp_path):
    spec = synth.SynthSpec(name="three", n_speakers=3, duration=12.0)
    recs = synth.generate_synthetic_corpus(spec, seed=5, out_dir=tmp_path)
    assert features.build_features(recs, tmp_path / "features")[1] == []
    emb = tmp_path / "vectors.txt"
    ds = features.load_dataset(recs, tmp_path / "features", emb)
    assert len(ds.speaker_list) == corpus.make_folds_between(ds).n_folds == 3
    manifest = tmp_path / "manifest.json"
    entries = json.loads(manifest.read_text())
    entries[2]["speaker"] = entries[0]["speaker"]
    manifest.write_text(json.dumps(entries))
    ds = features.load_dataset(corpus.load_manifest(manifest), tmp_path / "features", emb)
    assert len(ds.speaker_list) == corpus.make_folds_between(ds).n_folds == 2


def test_word_only_transcript_edits_need_no_rebuild(built, tmp_path):
    root, _, _, emb, ds = built
    copy, recs = _copy_corpus(root, tmp_path)
    rec = min(recs, key=lambda r: r.rec_id)
    path = copy / f"rec_{rec.rec_id:02d}" / "transcript.tsv"
    unknown = [textfeat.WordToken("zzunknown", w.onset, w.offset) for w in rec.words]
    textfeat.write_transcript(unknown, path)
    edited = features.load_dataset(corpus.load_manifest(copy / "manifest.json"),
                                   copy / "features", emb)
    n = first_recording_frames(ds)
    present = ds.word_ids[:n] != features.ABSENT_ID
    assert present.any() and (ds.word_ids[:n][present] >= 0).all()
    assert np.array_equal(edited.word_ids[:n],
                          np.where(present, features.OOV_ID, features.ABSENT_ID))
    assert_same_windows(edited, ds, slice(n, None))
    assert np.array_equal(edited.word_offsets, ds.word_offsets)


def test_load_requires_built_features(built, tmp_path):
    _, recs, _, emb, _ = built
    with pytest.raises(FileNotFoundError, match="features"):
        features.load_dataset(recs, tmp_path / "empty", emb)
