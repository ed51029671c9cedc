from bisect import bisect_right

import numpy as np
import pytest

from gestprop import synth
from gestprop.textfeat import (
    WordToken,
    load_embeddings,
    read_transcript,
    select_window,
    write_transcript,
)
from text_reference import assemble_text_window, embed_word, read_vectors


def table(dim=4, words=("ein", "kreis", "Gross")):
    rng = np.random.default_rng(0)
    return {w: rng.normal(size=dim) for w in words}


def tokens(onsets, dur=0.2):
    return [WordToken(word=f"w{i}", onset=o, offset=o + dur)
            for i, o in enumerate(onsets)]


# ------------------------------------------------------------------ loading

def test_load_with_header(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("2 3\nfoo 1 2 3\nbar 4 5 6\n")
    words, mat = load_embeddings(p, ["foo", "bar"])
    assert words == ["foo", "bar"]
    assert mat.shape == (2, 3) and mat.dtype == np.float32
    assert np.array_equal(mat[1], [4, 5, 6])


def test_load_without_header(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("foo 1 2 3\nbar 4 5 6\n")
    words, mat = load_embeddings(p, ["foo", "bar"])
    assert words == ["foo", "bar"] and mat.shape == (2, 3)


def test_load_malformed(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("foo 1 2 3\nbar 4 x 6\n")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(p, ["foo", "bar"])

    p.write_text("foo 1 2 3\nbar 4 5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(p, ["foo", "bar"])

    p.write_text("")
    with pytest.raises(ValueError, match="no vectors"):
        load_embeddings(p, ["foo"])


def test_the_header_sets_the_width(tmp_path):
    # a short first vector line used to set the width and blame the next line
    p = tmp_path / "v.txt"
    p.write_text("3 3\nfoo 1 2\nbar 4 5 6\nbaz 7 8 9\n")
    with pytest.raises(ValueError, match=r"v\.txt: line 2: expected 3 values, got 2"):
        load_embeddings(p, ["foo", "bar"])


@pytest.mark.parametrize("count", [3, 1])
def test_the_header_count_is_checked(tmp_path, count):
    p = tmp_path / "v.txt"
    p.write_text(f"{count} 3\nfoo 1 2 3\nbar 4 5 6\n")
    with pytest.raises(ValueError,
                       match=f"v\\.txt: the header gives {count} vectors, the file has 2"):
        load_embeddings(p, ["foo", "bar"])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "v.txt"
    p.write_text(f"foo 1 2 3\nbar 4 {value} 6\n")
    with pytest.raises(ValueError, match=r"v\.txt: line 2: non-finite vector value"):
        load_embeddings(p, ["foo", "bar"])


def test_load_duplicate_keeps_last(tmp_path, caplog):
    p = tmp_path / "v.txt"
    p.write_text("foo 1 2\nfoo 3 4\n")
    with caplog.at_level("WARNING"):
        words, mat = load_embeddings(p, ["foo"])
    assert words == ["foo"] and np.array_equal(mat, [[3, 4]])
    assert any("duplicate" in r.message for r in caplog.records)


@pytest.mark.parametrize("line,error", [
    ("zz 4 x 6", r"v\.txt: line 2: could not convert"),
    ("zz 4 nan 6", r"v\.txt: line 2: non-finite vector value"),
    ("zz 4 5", r"v\.txt: line 2: expected 3 values, got 2"),
    ("foo 7 8 9", None),                    # a duplicate warns
])
def test_unused_lines_are_checked_like_used_ones(tmp_path, caplog, line, error):
    p = tmp_path / "v.txt"
    p.write_text(f"foo 1 2 3\n{line}\nbar 4 5 6\n")
    if error:
        with pytest.raises(ValueError, match=error):
            load_embeddings(p, ["bar"])
        return
    with caplog.at_level("WARNING"):
        words, mat = load_embeddings(p, ["bar"])
    assert words == ["bar"] and np.array_equal(mat, [[4, 5, 6]])
    assert any("duplicate vector for 'foo' (line 2)" in r.getMessage()
               for r in caplog.records)


def test_load_keeps_each_word_and_its_lowercase_form_in_file_order(tmp_path):
    p = tmp_path / "v.txt"
    rows = {w: np.random.default_rng(i).normal(size=4)
            for i, w in enumerate(["Kreis", "EIN", "ein", "rund", "kreis", "gross"])}
    p.write_text("".join(f"{w} {' '.join(map(str, v.tolist()))}\n" for w, v in rows.items()))
    words, mat = load_embeddings(p, ["ein", "Kreis", "Gross"])
    assert words == ["Kreis", "ein", "kreis", "gross"]     # not EIN, not rund
    assert mat.dtype == np.float32
    want = read_vectors(p)
    assert np.array_equal(mat, np.stack([want[w] for w in words]).astype(np.float32))


def test_load_without_a_wanted_word_gives_an_empty_matrix(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("foo 1 2 3\n")
    words, mat = load_embeddings(p, ["bar"])
    assert words == [] and mat.shape == (0, 3) and mat.dtype == np.float32


# ------------------------------------------------------------------ lookup

def test_embed_word():
    t = table()
    assert np.array_equal(embed_word(t, "kreis"), t["kreis"])
    # exact match wins, uppercase falls back to lowercase, OOV is zero
    assert np.array_equal(embed_word(t, "Gross"), t["Gross"])
    assert np.array_equal(embed_word(t, "KREIS"), t["kreis"])
    assert np.array_equal(embed_word(t, "unbekannt"), np.zeros(4))


# ------------------------------------------------------------------ windows

def window_words(words, t):
    """Word of each of the 7 slots at time t, None for an absent slot."""
    slots = select_window([w.onset for w in words], np.array([t]))
    assert slots.shape == (1, 7)
    return [words[i].word if i >= 0 else None for i in slots[0]]


def bisect_window(onsets, t):
    """Reference: one bisect per target time, then the +-3 slot offsets."""
    cur = bisect_right(list(onsets), t) - 1
    return [cur + j if 0 <= cur + j < len(onsets) else -1 for j in range(-3, 4)]


def test_select_window_middle():
    words = tokens([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    assert window_words(words, 1.6) == [       # current = w3 (onset 1.5)
        "w0", "w1", "w2", "w3", "w4", "w5", "w6"]


def test_select_window_before_first():
    words = tokens([1.0, 1.5, 2.0, 2.5])
    assert window_words(words, 0.2) == [
        None, None, None, None, "w0", "w1", "w2"]


def test_select_window_at_edges():
    words = tokens([0.0, 0.5, 1.0])
    assert window_words(words, 1.2) == [       # current = last word
        None, "w0", "w1", "w2", None, None, None]
    assert window_words([], 1.0) == [None] * 7


def test_select_window_onset_tie():
    # a word starting exactly at t counts as current
    words = tokens([0.0, 1.0])
    assert window_words(words, 1.0)[3] == "w1"


def test_select_window_matches_bisect_reference(tmp_path):
    cases = [
        ([0.5, 1.0, 1.0, 1.0, 2.0], [0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 9.0]),  # tied onsets
        ([], [0.0, 1.0, 5.0]),                                             # no words
        ([2.0, 2.5, 3.0], [0.0, 1.999]),                                   # before the first
        ([0.0, 0.4, 0.8], [0.8, 0.81, 100.0]),                             # after the last
    ]
    spec = synth.SynthSpec(name="tiny", n_speakers=1, duration=15.0)
    rec = synth.generate_synthetic_corpus(spec, seed=11, out_dir=tmp_path)[0]
    cases.append(([w.onset for w in rec.words], np.arange(int(15.0 * 20)) / 20.0))
    for onsets, times in cases:
        got = select_window(onsets, np.asarray(times))
        assert got.shape == (len(times), 7)
        assert got.tolist() == [bisect_window(onsets, t) for t in times]
        assert select_window(onsets, times[-1]).tolist() == bisect_window(onsets, times[-1])


# ------------------------------------------------------------------ assembly

def test_assemble_shapes_and_timing():
    t = table()
    words = [WordToken("kreis", 1.0, 1.2), WordToken("ein", 1.4, 1.6)]
    mat = assemble_text_window(t, words, 1.1)
    assert mat.shape == (7, 5)
    # current = kreis at slot 3: offset = 1.0 - 1.1 = -0.1
    assert np.allclose(mat[3, :4], t["kreis"])
    assert mat[3, 4] == pytest.approx(-0.1)
    # future word at slot 4 with positive offset
    assert mat[4, 4] == pytest.approx(0.3)
    # absent slots all zero including timing
    assert np.all(mat[:3] == 0.0) and np.all(mat[5:] == 0.0)


def test_assemble_empty_transcript():
    assert np.all(assemble_text_window(table(), [], 3.0) == 0.0)


def test_assemble_timing_increases():
    words = tokens(np.cumsum(np.full(12, 0.3)) - 0.3)
    mat = assemble_text_window(table(), words, 1.7)
    offs = mat[:, 4]
    present = select_window([w.onset for w in words], 1.7) >= 0
    vals = offs[present]
    assert np.all(np.diff(vals) > 0)


def test_assemble_translation_consistency():
    # shifting words and target together only changes nothing
    t = table()
    words = tokens([0.2, 0.7, 1.1, 1.9, 2.2])
    a = assemble_text_window(t, words, 1.3)
    shifted = [WordToken(w.word, w.onset + 5.0, w.offset + 5.0) for w in words]
    b = assemble_text_window(t, shifted, 6.3)
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------------------------------ transcript IO

def test_transcript_roundtrip(tmp_path):
    words = [WordToken("ein", 0.15, 0.3), WordToken("kreis", 0.35, 0.62)]
    p = tmp_path / "t.tsv"
    write_transcript(words, p)
    assert p.read_text() == "150\t300\tein\n350\t620\tkreis\n"
    back = read_transcript(p)
    assert [w.word for w in back] == ["ein", "kreis"]
    assert back[0].onset == pytest.approx(0.15)


def test_transcript_malformed(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("100\t200\n")
    with pytest.raises(ValueError, match="line 1"):
        read_transcript(p)
    p.write_text("0\t50\tein\nx1\t200\thello\n")
    with pytest.raises(ValueError, match=r"t\.tsv: line 2: could not convert"):
        read_transcript(p)


def test_transcript_rejects_offset_before_onset(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("0\t50\tein\n100\t50\thello\n")
    with pytest.raises(ValueError,
                       match=r"t\.tsv: line 2: word 'hello': offset 0\.05 < onset 0\.1"):
        read_transcript(p)


@pytest.mark.parametrize("row", ["nan\t200\thello", "100\tnan\thello", "100\tinf\thello"])
def test_transcript_rejects_non_finite_times(tmp_path, row):
    # a NaN onset would leave select_window searching unsorted onsets
    p = tmp_path / "t.tsv"
    p.write_text(f"0\t50\tein\n{row}\n")
    with pytest.raises(ValueError, match=r"t\.tsv: line 2: word 'hello': non-finite time"):
        read_transcript(p)


def test_word_token_validation():
    with pytest.raises(ValueError):
        WordToken("x", 1.0, 0.5)
