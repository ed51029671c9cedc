"""Bad input through the command line, as one table.

Each row plants one defect in a copy of a small corpus (or in the config
file, or in a copy of its cached prosody) and runs one command in-process
through cli.main. An input error exits 2, names the file, and the line or
row where the file has lines, and the command writes no file under --out.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from gestprop import cli


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A 2-speaker, 15 s combined corpus and its cached features."""
    root = tmp_path_factory.mktemp("bad_input")
    corpus = root / "corpus"
    assert cli.main(["synth", "--preset", "combined", "--out", str(corpus), "--seed", "3",
                     "--speakers", "2", "--duration", "15"]) == 0
    assert cli.main(["features", "--manifest", str(corpus / "manifest.json"),
                     "--embeddings", str(corpus / "vectors.txt"),
                     "--out", str(root / "run")]) == 0
    assert json.loads((corpus / "manifest.json").read_text())[0]["id"] == 0
    return corpus, root / "run" / "features"


def rewrite(edit):
    """A planter that rewrites the named file's bytes with edit."""
    def plant(work: Path, path: Path) -> None:
        path.write_bytes(edit(path.read_bytes()))
    return plant


def in_line(n: int, old: bytes, new: bytes):
    """A planter replacing old by new in line n (from 1) of the named file."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        assert old in lines[n - 1], (old, lines[n - 1])
        lines[n - 1] = lines[n - 1].replace(old, new, 1)
        return b"\n".join(lines)
    return rewrite(edit)


def in_cell(n: int, col: int, sep: bytes, new: bytes):
    """A planter setting field col of line n (both from 1) of the named file."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        cells = lines[n - 1].split(sep)
        cells[col - 1] = new
        lines[n - 1] = sep.join(cells)
        return b"\n".join(lines)
    return rewrite(edit)


@rewrite
def swap_times(data: bytes) -> bytes:
    """Line 1's two time fields swapped, so its interval is inverted."""
    first, rest = data.split(b"\n", 1)
    fields = first.split(b"\t")
    i = 1 if len(fields) == 4 else 0            # annotations lead with the tier name
    fields[i], fields[i + 1] = fields[i + 1], fields[i]
    return b"\t".join(fields) + b"\n" + rest


def entries(edit):
    """A planter that edits the manifest's entries as JSON."""
    def plant(work: Path, path: Path) -> None:
        manifest = json.loads((work / "manifest.json").read_text())
        edit(manifest)
        (work / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return plant


def interlocutor(data: bytes):
    """A planter giving rec_00 an interlocutor file of data."""
    def plant(work: Path, path: Path) -> None:
        path.write_bytes(data)
        entries(lambda m: m[0].update(interlocutor="rec_00/interlocutor.tsv"))(work, path)
    return plant


bom = rewrite(lambda data: b"\xef\xbb\xbf" + data)


BAD = b"\xff"

# (file kind, defect, command, file, planter, exit code, message pattern).
# The file is the one the message must name, relative to the corpus copy:
# "config.json" is the --config file and "features/..." the copy of the
# cached features. The pattern must match right after the file's path.
TABLE = [
    # early exits that held at the defect matrix's first run
    ("transcript", "inverted word", "eval", "rec_00/transcript.tsv", swap_times, 2,
     r": line 1: word '\w+': offset [\d.]+ < onset"),
    ("annotations", "inverted interval", "eval", "rec_00/annotations.tsv", swap_times, 2,
     r": line 1: empty or inverted interval"),
    ("interlocutor", "inverted interval", "eval", "rec_00/interlocutor.tsv",
     interlocutor(b"2000\t1000\n"), 2, r": line 1: empty or inverted interval"),
    ("manifest", "duplicate id", "features", "manifest.json",
     entries(lambda m: m[1].update(id=m[0]["id"])), 2, r": entry 1 repeats id 0 of entry 0"),
    ("manifest", "empty speaker", "features", "manifest.json",
     entries(lambda m: m[0].update(speaker="")), 2,
     r": entry 0 needs an integer id and a nonempty speaker"),
    ("manifest", "missing transcript", "features", "rec_00/gone.tsv",
     entries(lambda m: m[0].update(transcript="rec_00/gone.tsv")), 2, r"'$"),
    ("vectors", "non-finite value", "eval", "vectors.txt", in_cell(2, 2, b" ", b"nan"), 2,
     r": line 2: non-finite vector value"),
    # mended since
    ("manifest", "byte not UTF-8", "features", "manifest.json",
     in_line(3, b'"annotations"', b'"annotations' + BAD + b'"'), 2,
     r": line 3: byte 0xff is not UTF-8"),
    ("manifest", "byte-order mark", "eval", "manifest.json", bom, 0, None),
    ("manifest", "not JSON", "features", "manifest.json", rewrite(lambda d: b"{" + d), 2,
     r": not valid JSON: "),
    ("config", "byte not UTF-8", "eval", "config.json", in_line(1, b"4", b"4" + BAD), 2,
     r": line 1: byte 0xff is not UTF-8"),
    ("config", "byte-order mark", "eval", "config.json", bom, 0, None),
    ("transcript", "byte not UTF-8", "eval", "rec_00/transcript.tsv",
     in_line(2, b"\t", b"\t" + BAD), 2, r": line 2: byte 0xff is not UTF-8"),
    ("transcript", "byte-order mark", "eval", "rec_00/transcript.tsv", bom, 0, None),
    ("annotations", "byte not UTF-8", "eval", "rec_00/annotations.tsv",
     in_line(2, b"Phase", b"Phase" + BAD), 2, r": line 2: byte 0xff is not UTF-8"),
    ("interlocutor", "byte not UTF-8", "eval", "rec_00/interlocutor.tsv",
     interlocutor(b"1000\t2000\n3000" + BAD + b"\t4000\n"), 2,
     r": line 2: byte 0xff is not UTF-8"),
    ("vectors", "byte not UTF-8", "eval", "vectors.txt", in_line(3, b" ", BAD + b" "), 2,
     r": line 3: byte 0xff is not UTF-8"),
    ("vectors", "byte-order mark", "eval", "vectors.txt", bom, 0, None),
    ("prosody CSV", "cell not a number", "eval", "features/rec_00000.prosody.csv",
     in_cell(6, 3, b",", b"abc"), 2,
     r": data row 5, column 3: could not convert string 'abc' to float64"),
]


@pytest.mark.parametrize("kind,defect,command,rel,plant,code,pattern", TABLE,
                         ids=[f"{row[0]}-{row[1]}".replace(" ", "_") for row in TABLE])
def test_bad_input_fails_early_naming_the_file(clean, tmp_path, capsys, kind, defect,
                                               command, rel, plant, code, pattern):
    corpus, features = clean
    work = tmp_path / "corpus"
    shutil.copytree(corpus, work)
    shutil.copytree(features, work / "features")
    (work / "config.json").write_text('{"seed": 4}\n')
    path = work / rel
    plant(work, path)

    out = tmp_path / "out"
    argv = [command, "--config", str(work / "config.json"),
            "--manifest", str(work / "manifest.json"),
            "--embeddings", str(work / "vectors.txt"), "--out", str(out)]
    if command == "eval":
        argv += ["--features-dir", str(work / "features"), "--property", "presence",
                 "--modality", "both", "--folds", "2", "--steps", "2", "--batch", "8",
                 "--evals", "1"]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == code, captured.err
    if code == 0:
        assert captured.err == "" and (out / "report.json").exists()
        return
    assert re.search(re.escape(str(path)) + pattern, captured.err.rstrip("\n")), captured.err
    assert not [p for p in out.rglob("*") if p.is_file()]
