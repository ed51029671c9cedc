import json
import re
import tracemalloc

import numpy as np
import pytest

from gestprop.corpus import (
    CATEGORY,
    FRAME_CSV_COLUMNS,
    PHASE,
    PHASE_PRECEDENCE,
    SEMANTICS,
    AnnotationTier,
    Recording,
    build_frame_table,
    encode_labels,
    load_manifest,
    make_folds_between,
    make_folds_within,
    rasterize,
    read_annotations,
    read_interlocutor,
    write_annotations,
    write_frame_csv,
    write_interlocutor,
)
from gestprop.features import FrameDataset, _word_windows
from gestprop.textfeat import WordToken


def rec(tiers, rec_id=1, speaker="S01", words=()):
    return Recording(rec_id=rec_id, speaker=speaker, tiers=tiers, words=list(words))


# ------------------------------------------------------------------ encoding

def test_encode_category_golden():
    assert np.array_equal(encode_labels("beat-iconic", CATEGORY), [0, 1, 1, 0])
    assert np.array_equal(encode_labels("deictic", CATEGORY), [1, 0, 0, 0])
    assert np.array_equal(encode_labels("", CATEGORY), [0, 0, 0, 0])
    assert np.array_equal(encode_labels("Beat-Iconic", CATEGORY), [0, 1, 1, 0])


def test_encode_phase():
    assert np.array_equal(encode_labels("stroke", PHASE), [0, 0, 0, 1, 0])
    # hyphenated label names are single tokens, not joiners
    assert np.array_equal(encode_labels("pre-hold", PHASE), [0, 0, 1, 0, 0])
    assert np.array_equal(encode_labels("post-hold", PHASE), [0, 0, 0, 0, 1])


def test_encode_unknown_token():
    with pytest.raises(ValueError, match="wobble"):
        encode_labels("beat-wobble", CATEGORY)
    with pytest.raises(ValueError, match="exclusive"):
        encode_labels("stroke-retraction", PHASE)


# ------------------------------------------------------------------ rasterize

def test_rasterize_five_frame_golden():
    # a 0.25 s stroke covers frames 2..6: times 0.10..0.30 all < 0.35
    r = rec([AnnotationTier("R.G.Right.Phase", [(0.10, 0.35, "stroke")])])
    out = rasterize(r, PHASE, 10)
    stroke = PHASE.index("stroke")
    assert out[:, stroke].sum() == 5
    assert np.array_equal(np.flatnonzero(out[:, stroke]), [2, 3, 4, 5, 6])


def test_rasterize_or_merges_hands():
    r = rec([
        AnnotationTier("R.G.Left Phrase", [(0.0, 0.5, "beat")]),
        AnnotationTier("R.G.Right Phrase", [(0.2, 0.5, "iconic")]),
    ])
    out = rasterize(r, CATEGORY, 10)
    assert np.array_equal(out[0], encode_labels("beat", CATEGORY))
    assert np.array_equal(out[5], encode_labels("beat-iconic", CATEGORY))


def test_rasterize_tier_order_invariant():
    tiers = [
        AnnotationTier("R.G.Left.Phase", [(0.0, 0.3, "preparation")]),
        AnnotationTier("R.G.Right.Phase", [(0.25, 0.6, "retraction")]),
    ]
    a = rasterize(rec(tiers), PHASE, 12)
    b = rasterize(rec(tiers[::-1]), PHASE, 12)
    assert np.array_equal(a, b)


def test_rasterize_phase_precedence(caplog):
    # stroke wins over preparation on the overlap
    r = rec([
        AnnotationTier("R.G.Left.Phase", [(0.0, 0.5, "preparation")]),
        AnnotationTier("R.G.Right.Phase", [(0.2, 0.5, "stroke")]),
    ])
    out = rasterize(r, PHASE, 10)
    assert np.array_equal(out[1], encode_labels("preparation", PHASE))
    assert np.array_equal(out[5], encode_labels("stroke", PHASE))
    assert np.all(out.sum(axis=1) <= 1)

    # two hands with many overlapping phases, against a per-frame oracle
    rng = np.random.default_rng(11)
    tiers = []
    for hand in ("Left", "Right"):
        starts = np.sort(rng.uniform(0, 20, size=40))
        tiers.append(AnnotationTier(f"R.G.{hand}.Phase", [
            (float(s), float(s + rng.uniform(0.1, 2.0)), str(rng.choice(PHASE.labels)))
            for s in starts]))
    n = 420
    merged = np.zeros((n, PHASE.n_labels), dtype=np.uint8)
    for tier in tiers:
        for s, e, label in tier.intervals:
            for f in range(n):
                if s <= f / 20 < e:
                    merged[f] |= encode_labels(label, PHASE)
    want = merged.copy()
    for f in range(n):
        if merged[f].sum() > 1:
            winner = next(p for p in PHASE_PRECEDENCE if merged[f, PHASE.index(p)])
            want[f] = encode_labels(winner, PHASE)
    n_conflicts = int((merged.sum(axis=1) > 1).sum())
    assert n_conflicts > 50
    with caplog.at_level("WARNING"):
        out = rasterize(rec(tiers), PHASE, n)
    assert np.array_equal(out, want)
    assert f"resolved {n_conflicts} phase conflicts" in caplog.text


def test_rasterize_empty_and_clipping(caplog):
    assert np.all(rasterize(rec([]), PHASE, 8) == 0)
    r = rec([AnnotationTier("x phase", [(0.3, 9.9, "stroke")])])
    with caplog.at_level("WARNING"):
        out = rasterize(r, PHASE, 10)
    assert np.array_equal(np.flatnonzero(out[:, PHASE.index("stroke")]),
                          np.arange(6, 10))
    assert any("clipping" in m.message for m in caplog.records)


def test_rasterize_ignores_other_tiers():
    r = rec([AnnotationTier("R.G.Right Semantic", [(0.0, 0.5, "shape")])])
    assert np.all(rasterize(r, PHASE, 10) == 0)
    assert rasterize(r, SEMANTICS, 10)[:, SEMANTICS.index("shape")].sum() == 10


def test_rasterize_random_fixtures_one_hot_and_or():
    rng = np.random.default_rng(123)
    for _ in range(200):
        tiers = []
        for hand in ("Left", "Right"):
            n_iv = rng.integers(0, 5)
            ivs = []
            for _ in range(n_iv):
                s = float(rng.uniform(0, 4.5))
                e = s + float(rng.uniform(0.05, 1.5))
                ivs.append((s, e, str(rng.choice(PHASE.labels))))
            tiers.append(AnnotationTier(f"R.G.{hand}.Phase", ivs))
            ivs2 = []
            for _ in range(rng.integers(0, 4)):
                s = float(rng.uniform(0, 4.5))
                e = s + float(rng.uniform(0.05, 1.5))
                ivs2.append((s, e, str(rng.choice(CATEGORY.labels))))
            tiers.append(AnnotationTier(f"R.G.{hand} Phrase", ivs2))
        r = rec(tiers)
        table = build_frame_table(r, duration=5.0)
        # phase rows one-hot or zero
        assert np.all(table.phase.sum(axis=1) <= 1)
        # has_gesture is the OR of all 13 bits
        want = (table.phase.any(1) | table.category.any(1)
                | table.semantics.any(1)).astype(np.uint8)
        assert np.array_equal(table.has_gesture, want)


def test_rasterize_matches_naive_recount():
    # oracle: per-frame scan over intervals
    rng = np.random.default_rng(5)
    ivs = []
    for _ in range(6):
        s = float(rng.uniform(0, 3.0))
        ivs.append((s, s + float(rng.uniform(0.1, 1.0)), "iconic"))
    r = rec([AnnotationTier("g phrase", ivs)])
    out = rasterize(r, CATEGORY, 80)
    for f in range(80):
        t = f / 20.0
        want = any(s <= t < e for s, e, _ in ivs)
        assert bool(out[f, CATEGORY.index("iconic")]) == want


# ------------------------------------------------------------------ frame table

def test_build_frame_table_counts():
    r = rec([AnnotationTier("R.G.Left.Phase", [(0.10, 0.35, "stroke")])])
    table = build_frame_table(r, duration=0.5)
    assert table.n_frames == 10
    assert table.has_gesture.sum() == 5


def test_window_extents():
    words = [WordToken("a", 2.0, 2.2), WordToken("b", 2.5, 2.8)]
    t = build_frame_table(rec([], words=words), duration=5.0).t
    _, _, win_lo, win_hi = _word_windows(words, t, {})
    f = 50                       # t = 2.5: current word = b, past includes a
    assert win_lo[f] == pytest.approx(1.5)    # t - 1 < onset of a
    assert win_hi[f] == pytest.approx(3.5)    # t + 1 > offset of b
    # a frame late in the recording still reaches back to word offsets
    f = 80                       # t = 4.0
    assert win_hi[f] == pytest.approx(5.0)
    assert win_lo[f] == pytest.approx(2.0)    # onset of a (past word)
    # without words the window is the audio's alone
    _, _, win_lo, win_hi = _word_windows([], t, {})
    assert np.array_equal(win_lo, t - 1.0) and np.array_equal(win_hi, t + 1.0)


def test_eligible_mask():
    table = build_frame_table(rec([]), duration=7.0)    # 140 frames
    el = table.eligible()
    assert el.sum() == 100
    assert not el[19] and el[20] and el[119] and not el[120]


def test_frame_csv_roundtrip(tmp_path):
    r = rec([
        AnnotationTier("R.G.Left.Phase", [(0.1, 0.4, "stroke")]),
        AnnotationTier("R.G.Left Semantic", [(0.2, 0.5, "shape")]),
    ], words=[WordToken("a", 0.1, 0.3)])
    table = build_frame_table(r, duration=1.0)
    p = tmp_path / "frames.csv"
    write_frame_csv(table, p)
    meta, header = p.read_text().splitlines()[:2]
    assert meta == f"# rec_id={table.rec_id} speaker={table.speaker}"
    assert header.split(",") == FRAME_CSV_COLUMNS
    back = np.loadtxt(p, delimiter=",", skiprows=2, ndmin=2)
    assert np.array_equal(back[:, 0], np.arange(table.n_frames))
    assert np.array_equal(back[:, 1], table.t)
    assert np.array_equal(back[:, 2], table.has_gesture)
    assert np.array_equal(back[:, 3:], np.hstack([table.phase, table.category,
                                                  table.semantics]))


def write_frame_csv_by_row(table, path):
    """The row-by-row writer the whole-table one replaced."""
    with open(path, "w") as fh:
        fh.write(f"# rec_id={table.rec_id} speaker={table.speaker}\n")
        fh.write(",".join(FRAME_CSV_COLUMNS) + "\n")
        for f in range(table.n_frames):
            bits = np.concatenate([table.phase[f], table.category[f], table.semantics[f]])
            fh.write(
                f"{f},{table.t[f]:.9g},{int(table.has_gesture[f])},"
                + ",".join(str(int(b)) for b in bits) + "\n"
            )


@pytest.mark.parametrize("duration", [0.0, 3.3])
def test_frame_csv_bytes_match_the_row_writer(tmp_path, duration):
    r = rec([
        AnnotationTier("R.G.Left.Phase", [(0.1, 0.4, "stroke"), (1.0, 2.5, "post-hold")]),
        AnnotationTier("R.G.Left Semantic", [(0.2, 0.5, "shape")]),
    ], words=[WordToken("a", 0.1, 0.3), WordToken("b", 1.37, 1.9)])
    table = build_frame_table(r, duration=duration)
    write_frame_csv(table, tmp_path / "table.csv")
    write_frame_csv_by_row(table, tmp_path / "rows.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def write_frame_csv_whole(table, path):
    """The writer that formatted every cell into one string at once."""
    n = table.n_frames
    cells = np.column_stack([np.arange(n), table.t, table.has_gesture, table.phase,
                             table.category, table.semantics]).ravel().tolist()
    row = "%d,%.9g" + ",%d" * (len(FRAME_CSV_COLUMNS) - 2) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# rec_id={table.rec_id} speaker={table.speaker}\n")
        fh.write(",".join(FRAME_CSV_COLUMNS) + "\n")
        fh.write(row * n % tuple(cells))


def test_frame_csv_is_written_row_by_row(tmp_path):
    # 4800 frames, 240 s at 20 fps: formatted at once, the cells and the
    # text took a 3.56 MB traced peak
    rng = np.random.default_rng(9)
    starts = np.sort(rng.uniform(0.0, 238.0, 60))
    r = rec([
        AnnotationTier("R.G.Left.Phase", [(s, s + 1.5, "stroke") for s in starts[::2]]),
        AnnotationTier("R.G.Right Semantic", [(s, s + 0.8, "shape") for s in starts[1::2]]),
    ], words=[WordToken("a", 0.1, 0.3)])
    table = build_frame_table(r, duration=240.0)
    assert table.n_frames == 4800 and 0 < table.has_gesture.mean() < 1
    tracemalloc.start()
    try:
        write_frame_csv(table, tmp_path / "rows.csv")
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    write_frame_csv_whole(table, tmp_path / "whole.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert peak_mb < 0.3


# ------------------------------------------------------------------ annotation IO

def test_annotation_roundtrip(tmp_path):
    tiers = [
        AnnotationTier("R.G.Left.Phase", [(0.1, 0.4, "stroke"), (0.4, 0.6, "retraction")]),
        AnnotationTier("R.G.Left Phrase", [(0.1, 0.6, "beat-iconic")]),
    ]
    p = tmp_path / "ann.tsv"
    write_annotations(tiers, p)
    back = read_annotations(p)
    assert [t.name for t in back] == [t.name for t in tiers]
    assert back[0].intervals[0][:2] == pytest.approx((0.1, 0.4))
    assert back[0].intervals[0][2] == "stroke"
    assert back[1].intervals[0][2] == "beat-iconic"


def test_interlocutor_roundtrip(tmp_path):
    p = tmp_path / "il.tsv"
    write_interlocutor([(0.5, 1.25)], p)
    assert read_interlocutor(p) == [(0.5, 1.25)]


@pytest.mark.parametrize("row", ["2000\t1000", "1000\t1000"])
def test_annotations_reject_inverted_or_empty_rows(tmp_path, row):
    # rasterize would drop such a row, and a gesture with it, without a word
    p = tmp_path / "ann.tsv"
    p.write_text(f"Phase\t0\t500\tstroke\nPhase\t{row}\tretraction\n")
    with pytest.raises(ValueError, match=r"ann\.tsv: line 2: empty or inverted interval"):
        read_annotations(p)


@pytest.mark.parametrize("row", ["1000\t1000", "1000\t500"])
def test_interlocutor_rejects_empty_or_inverted_rows(tmp_path, row):
    p = tmp_path / "il.tsv"
    p.write_text(f"0\t500\n{row}\n")
    with pytest.raises(ValueError, match=r"il\.tsv: line 2: empty or inverted interval"):
        read_interlocutor(p)


@pytest.mark.parametrize("row", ["nan\t1000", "1000\tnan", "1000\tinf", "-inf\t1000"])
def test_annotations_reject_non_finite_times(tmp_path, row):
    # a NaN time used to fail later in rasterize, naming no file
    p = tmp_path / "ann.tsv"
    p.write_text(f"Phase\t0\t500\tstroke\nPhase\t{row}\tretraction\n")
    with pytest.raises(ValueError, match=r"ann\.tsv: line 2: non-finite time"):
        read_annotations(p)


@pytest.mark.parametrize("tier,label,error", [
    ("R.G.Left.Phase", "strokee", "unknown phase label token 'strokee' in 'strokee'"),
    ("R.G.Left.Phase", "stroke-retraction",
     "phase is exclusive but 'stroke-retraction' sets 2 bits"),
    ("R.G.Left Phrase", "beat-iconc", "unknown category label token 'iconc'"),
    ("Semantic", "shape-stroke", "unknown semantics label token 'stroke'"),
])
def test_annotations_reject_labels_their_tier_cannot_encode(tmp_path, tier, label, error):
    # rasterize used to raise these while loading, naming neither file nor line
    p = tmp_path / "ann.tsv"
    p.write_text(f"Gaze\t0\t500\tleft\n{tier}\t500\t900\t{label}\n")
    with pytest.raises(ValueError, match=f"ann\\.tsv: line 2: {error}"):
        read_annotations(p)


def test_annotations_keep_any_label_on_a_tier_no_schema_reads(tmp_path):
    p = tmp_path / "ann.tsv"
    p.write_text("Gaze\t0\t500\tleft-right-up\n")
    assert read_annotations(p)[0].intervals[0][2] == "left-right-up"


@pytest.mark.parametrize("row", ["nan\t1000", "1000\tnan", "1000\tinf", "-inf\t1000"])
def test_interlocutor_rejects_non_finite_times(tmp_path, row):
    p = tmp_path / "il.tsv"
    p.write_text(f"0\t500\n{row}\n")
    with pytest.raises(ValueError, match=r"il\.tsv: line 2: non-finite time"):
        read_interlocutor(p)


# ------------------------------------------------------------------ manifest

FILES = {"audio": "audio.wav", "transcript": "transcript.tsv",
         "annotations": "annotations.tsv"}


@pytest.mark.parametrize("entries,why", [
    ([{"id": 0, "speaker": "S1", **FILES}, [1, "S2"]],
     "entry 1 must be a JSON object, got list"),
    ([{"id": 0, **FILES}], "entry 0 lacks speaker"),
    ([{"speaker": "S1", "transcript": "transcript.tsv"}],
     "entry 0 lacks id, audio, annotations"),
    ([{"id": 1.7, "speaker": "S1", **FILES}],
     "entry 0 needs an integer id and a nonempty speaker string, got 1.7 and 'S1'"),
    ([{"id": 0, "speaker": None, **FILES}],
     "entry 0 needs an integer id and a nonempty speaker string, got 0 and None"),
    ([{"id": 0, "speaker": "S1", **FILES}, {"id": 1, "speaker": "S2", **FILES},
      {"id": 1, "speaker": "S3", **FILES}], "entry 2 repeats id 1 of entry 1"),
    ([{"id": 0, "speaker": "S1", **FILES, "audio": 5}],
     "entry 0 audio must be a nonempty path, got 5"),
    ([{"id": 0, "speaker": "S1", **FILES, "audio": ""}],
     "entry 0 audio must be a nonempty path, got ''"),
    ([{"id": 0, "speaker": "S1", **FILES, "transcript": None}],
     "entry 0 transcript must be a nonempty path, got None"),
    ([{"id": 0, "speaker": "S1", **FILES, "interlocutor": 5}],
     "entry 0 interlocutor must be a nonempty path or null, got 5"),
    ([{"id": 0, "speaker": "S1", **FILES, "annotations": ["x"]}],
     "entry 0 annotations must be a nonempty path, got ['x']"),
], ids=["not_an_object", "no_speaker", "no_id_audio_annotations", "float_id",
        "null_speaker", "repeated_id", "int_audio", "empty_audio", "null_transcript",
        "int_interlocutor", "list_annotations"])
def test_manifest_rejects_bad_entries_naming_file_and_index(tmp_path, entries, why):
    for name in FILES.values():
        (tmp_path / name).write_text("")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {why}")):
        load_manifest(path)


# ------------------------------------------------------------------ folds

def make_dataset(*recordings):
    """A FrameDataset of (rec_id, speaker, n_frames) recordings in rec-id
    order, no labels or words, each input window spanning t +- 1 s."""
    sizes = [n for _, _, n in recordings]
    f = np.concatenate([np.arange(n) for n in sizes])
    last = np.repeat(sizes, sizes) - 1
    t = f / 20.0
    z = np.zeros((len(f), 7), dtype=np.uint8)
    return FrameDataset(
        rec_ids=np.repeat([r for r, _, _ in recordings], sizes),
        speakers=np.repeat(np.array([s for _, s, _ in recordings], dtype=object), sizes),
        t=t, prosody=z[:, :5].astype(np.float32), phase=z[:, :5], category=z[:, :4],
        semantics=z[:, :4], has_gesture=z[:, 0], word_ids=z.astype(np.int32) - 1,
        word_offsets=z.astype(np.float32), emb_matrix=np.zeros((0, 300), np.float32),
        eligible=(f >= 20) & (f <= last - 20), win_lo=t - 1.0, win_hi=t + 1.0)


def test_within_folds_partition():
    ds = make_dataset((1, "A", 140), (2, "B", 150))
    plan = make_folds_within(ds, k=5)
    assert len(plan.val) == len(plan.train) == 5
    all_val = np.concatenate(plan.val)
    # validation sets partition the eligible frames exactly
    assert len(all_val) == len(set(all_val.tolist()))
    assert np.array_equal(np.sort(all_val), np.flatnonzero(ds.eligible))


def test_within_folds_five_percent_blocks():
    ds = make_dataset(*[(i, f"S{i:02d}", 440) for i in range(1, 23)])
    plan = make_folds_within(ds, k=20)
    for v in plan.val:
        assert len(v) == 22 * 20          # 400 eligible per speaker / 20


def test_within_fold_halves():
    plan = make_folds_within(make_dataset((1, "A", 140)), k=2)
    assert len(plan.val[0]) == 50 and len(plan.val[1]) == 50


def test_within_no_window_crossing():
    ds = make_dataset((1, "A", 300), (2, "A", 280))
    plan = make_folds_within(ds, k=4)
    for v, tr in zip(plan.val, plan.train):
        assert len(np.intersect1d(v, tr)) == 0
        # no train frame within 20 frames of a val frame of the same recording
        for lo, hi in ((0, 300), (300, 580)):
            vv = v[(v >= lo) & (v < hi)]
            tt = tr[(tr >= lo) & (tr < hi)]
            if len(vv) and len(tt):
                d = np.min(np.abs(tt[:, None] - vv[None, :]))
                assert d > 20


def test_within_requires_enough_frames():
    with pytest.raises(ValueError, match="eligible frames"):
        make_folds_within(make_dataset((1, "A", 50)), k=20)
    with pytest.raises(ValueError, match="k >= 2"):
        make_folds_within(make_dataset((1, "A", 140)), k=1)


def test_between_folds_isolate_speaker():
    ds = make_dataset((1, "A", 140), (2, "B", 140), (3, "A", 100))
    plan = make_folds_between(ds)
    assert len(plan.val) == len(plan.train) == 2
    for v, tr in zip(plan.val, plan.train):
        assert len(set(ds.speakers[v])) == 1
        assert set(ds.speakers[v]).isdisjoint(set(ds.speakers[tr]))


def test_between_needs_two_speakers():
    with pytest.raises(ValueError, match="2 speakers"):
        make_folds_between(make_dataset((1, "A", 140)))
