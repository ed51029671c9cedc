"""Generator invariants: determinism, planted couplings, file formats."""

import dataclasses
import json

import numpy as np
import pytest

from gestprop.corpus import (PHASE, SEMANTICS, build_frame_table, rasterize)
from gestprop.prosody import read_wav
from gestprop import cli, synth
from gestprop.synth import (PRESETS, SynthSpec, TRIGGER_WORDS,
                            generate_synthetic_corpus, preset)
from text_reference import embed_word, read_vectors

SMALL = SynthSpec(name="small", n_speakers=2, duration=40.0)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    recs = generate_synthetic_corpus(SMALL, seed=11, out_dir=out)
    return out, recs


def test_layout_and_manifest(small_corpus):
    out, recs = small_corpus
    assert (out / "manifest.json").exists()
    assert (out / "vectors.txt").exists()
    assert (out / "coupling.json").exists()
    assert len(recs) == 2
    for i, rec in enumerate(recs):
        assert rec.rec_id == i
        assert rec.speaker == f"s{i:02d}"
        assert rec.audio_path.exists()
        assert len(rec.words) > 40 * 2        # ~3 words/s over 40 s
        names = [t.name for t in rec.tiers]
        assert "R.G.Left Phase" in names
        assert "R.G.Left Semantic" in names


def test_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic_corpus(SMALL, seed=3, out_dir=a)
    generate_synthetic_corpus(SMALL, seed=3, out_dir=b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    c = tmp_path / "c"
    generate_synthetic_corpus(SMALL, seed=4, out_dir=c)
    assert (a / "rec_00/audio.wav").read_bytes() != (c / "rec_00/audio.wav").read_bytes()


def test_phase_frames_one_hot_and_coverage(small_corpus):
    out, recs = small_corpus
    for rec in recs:
        table = build_frame_table(rec, duration=SMALL.duration)
        assert np.all(table.phase.sum(axis=1) <= 1)
        coverage = table.has_gesture.mean()
        assert 0.4 < coverage < 0.8
        # within events every frame carries a phase and the iconic category
        assert np.all(table.category[table.phase.any(axis=1), 2] == 1)


def test_text_coupling_ground_truth(small_corpus):
    out, recs = small_corpus
    coupling = json.loads((out / "coupling.json").read_text())
    assert coupling["spec"]["name"] == "small"
    for rec, truth in zip(recs, coupling["recordings"]):
        n = int(SMALL.duration * 20)
        sem = rasterize(rec, SEMANTICS, n)
        events = truth["events"]
        for li, label in enumerate(SEMANTICS.labels):
            onsets = np.asarray(truth["triggers"][label], dtype=float)
            half = synth.TRIGGER_HALF_WINDOW
            for f in np.flatnonzero(sem[:, li]):
                t = f / 20.0
                assert onsets.size and np.min(np.abs(onsets - t)) <= half + 0.051, \
                    f"{label} frame {f} has no nearby trigger"
                assert any(s - 0.051 <= t < e for s, e in events), \
                    f"{label} frame {f} outside every event"


def test_audio_coupling_strokes_are_loud(tmp_path):
    spec = dataclasses.replace(SMALL, text_coupling=False, audio_coupling=True)
    recs = generate_synthetic_corpus(spec, seed=5, out_dir=tmp_path)
    rec = recs[0]
    clip = read_wav(rec.audio_path)
    n = int(spec.duration * 20)
    phase = rasterize(rec, PHASE, n)
    hop = clip.sample_rate // 20
    frames = clip.decode()[: n * hop].reshape(n, hop)
    rms = np.sqrt((frames ** 2).mean(axis=1))
    stroke = phase[:, PHASE.labels.index("stroke")] == 1
    other = phase.any(axis=1) & ~stroke
    # a frame at the stroke edge overlaps the burst only partially, so
    # compare medians rather than the minimum
    assert np.median(rms[stroke]) > 2.5 * rms[other].mean()
    gap = ~phase.any(axis=1)
    assert rms[other].mean() > 3.0 * rms[gap].mean()   # event tone audible


def test_decoupled_audio_is_event_independent(tmp_path):
    # with audio coupling off, loudness inside events matches loudness outside
    spec = dataclasses.replace(SMALL, audio_coupling=False, duration=60.0)
    recs = generate_synthetic_corpus(spec, seed=2, out_dir=tmp_path)
    ratios = []
    for rec in recs:
        clip = read_wav(rec.audio_path)
        n = int(spec.duration * 20)
        hop = clip.sample_rate // 20
        rms = np.sqrt((clip.decode()[: n * hop].reshape(n, hop) ** 2).mean(axis=1))
        gest = build_frame_table(rec, duration=spec.duration).has_gesture == 1
        ratios.append(rms[gest].mean() / rms[~gest].mean())
    assert 0.6 < np.mean(ratios) < 1.6


def test_interlocutor_only_in_gaps(tmp_path):
    spec = dataclasses.replace(SMALL, interlocutor=True, duration=80.0)
    recs = generate_synthetic_corpus(spec, seed=9, out_dir=tmp_path)
    truth = json.loads((tmp_path / "coupling.json").read_text())["recordings"]
    found = 0
    for rec, t in zip(recs, truth):
        for lo, hi in rec.interlocutor:
            found += 1
            for s, e in t["events"]:
                assert hi <= s or lo >= e, "interlocutor overlaps an event"
    assert found > 0


def test_embeddings_cover_transcripts(small_corpus):
    out, recs = small_corpus
    table = read_vectors(out / "vectors.txt")
    assert {len(v) for v in table.values()} == {300}
    for rec in recs:
        for w in rec.words:
            assert np.any(embed_word(table, w.word) != 0.0), w.word
    for words in TRIGGER_WORDS.values():
        for w in words:
            assert np.any(embed_word(table, w) != 0.0)


def test_presets_and_validation():
    assert set(PRESETS) == {"text_coupling", "audio_coupling", "combined"}
    assert preset("text_coupling").audio_coupling is False
    assert preset("audio_coupling").text_coupling is False
    combined = preset("combined")
    assert combined.text_coupling and combined.audio_coupling
    assert combined.interlocutor
    with pytest.raises(ValueError, match="preset"):
        preset("nope")
    with pytest.raises(ValueError, match="duration"):
        SynthSpec(name="x", duration=5.0)


@pytest.mark.parametrize("field,value", [("duration", float("nan")), ("duration", float("inf"))])
def test_spec_rejects_non_finite_or_non_positive_floats(field, value):
    # either would keep an event or word loop from reaching the recording's end
    with pytest.raises(ValueError, match=field):
        SynthSpec(name="x", **{field: value})


def test_every_spec_field_is_set_by_a_preset_or_the_synth_command(monkeypatch):
    # a setting that nothing varies is a module constant, not a field
    seen = []
    monkeypatch.setattr(cli, "generate_synthetic_corpus",
                        lambda spec, seed, out_dir: seen.append(spec) or [])
    assert cli.main(["synth", "--preset", "combined", "--out", "unused",
                     "--speakers", "3", "--duration", "20"]) == 0
    names = [f.name for f in dataclasses.fields(SynthSpec)]
    by_command = {n for n in names if getattr(seen[0], n) != getattr(PRESETS["combined"], n)}
    by_presets = {n for n in names if len({getattr(p, n) for p in PRESETS.values()}) > 1}
    assert by_command | by_presets == set(names)


def test_stroke_rarity(small_corpus):
    # the stroke must stay a rare phase so chance-level F1 sits near zero
    out, recs = small_corpus
    tables = [build_frame_table(r, duration=SMALL.duration) for r in recs]
    stroke = sum(t.phase[:, PHASE.labels.index("stroke")].sum() for t in tables)
    gesture = sum(t.has_gesture.sum() for t in tables)
    assert 0.02 < stroke / gesture < 0.07
