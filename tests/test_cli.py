"""End-to-end command-line flows."""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from gestprop import cli, experiment, net


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capfdbinary=None):
    """synth -> features once; later tests layer commands on top."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    run = root / "run"
    rc = cli.main(["synth", "--preset", "combined", "--out", str(corpus),
                   "--seed", "3", "--speakers", "2", "--duration", "15"])
    assert rc == 0
    base = ["--manifest", str(corpus / "manifest.json"),
            "--embeddings", str(corpus / "vectors.txt"),
            "--out", str(run)]
    rc = cli.main(["features"] + base)
    assert rc == 0
    return corpus, run, base


FAST = ["--property", "presence", "--modality", "audio", "--cv", "within",
        "--folds", "2", "--steps", "10", "--batch", "16", "--evals", "2",
        "--seed", "4"]


def test_synth_and_features_outputs(pipeline):
    corpus, run, _ = pipeline
    assert (corpus / "manifest.json").exists()
    assert (corpus / "rec_00" / "audio.wav").exists()
    assert (run / "features" / "rec_00000.prosody.csv").exists()
    assert "features" in json.loads((run / "index.json").read_text())


def test_train_then_predict(pipeline, capsys):
    corpus, run, base = pipeline
    rc = cli.main(["eval"] + base + FAST)
    out = capsys.readouterr().out
    assert rc == 0
    assert "headline" in out
    assert (run / "report.json").exists()
    ckpt = run / "checkpoints" / "fold_00.ckpt"
    assert ckpt.exists()

    rc = cli.main(["predict"] + base + FAST + ["--checkpoint", str(ckpt)])
    assert rc == 0
    assert (run / "predictions" / "rec_00001.csv").exists()


def test_predict_takes_property_and_modality_from_the_checkpoint(
        pipeline, tmp_path, capsys):
    corpus, run, _ = pipeline
    base = ["--manifest", str(corpus / "manifest.json"),
            "--embeddings", str(corpus / "vectors.txt"),
            "--out", str(tmp_path), "--features-dir", str(run / "features")]
    assert cli.main(["eval"] + base + ["--property", "phase", "--modality", "audio",
                                       "--folds", "2", "--steps", "10",
                                       "--batch", "16", "--evals", "2"]) == 0
    ckpt = str(tmp_path / "checkpoints" / "fold_00.ckpt")
    capsys.readouterr()

    assert cli.main(["predict"] + base + ["--checkpoint", ckpt]) == 0
    rows = (tmp_path / "predictions" / "rec_00000.csv").read_text().splitlines()
    assert {r.split(",")[1] for r in rows[1:]} == {
        "retraction", "preparation", "pre-hold", "stroke", "post-hold"}

    # a conflicting flag fails before any feature file is read
    rc = cli.main(["predict", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path / "other"),
                   "--features-dir", str(tmp_path / "no_features"),
                   "--modality", "text", "--checkpoint", ckpt])
    assert rc == 2
    assert "modality 'audio', not 'text'" in capsys.readouterr().err

    # so does a checkpoint cut inside its header
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((tmp_path / "checkpoints" / "fold_00.ckpt").read_bytes()[:30])
    rc = cli.main(["predict", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path / "other"),
                   "--features-dir", str(tmp_path / "no_features"),
                   "--checkpoint", str(cut)])
    assert rc == 2
    assert "cut.ckpt: truncated or corrupt header" in capsys.readouterr().err


@pytest.mark.parametrize("norm,why", [
    (None, "an audio model needs a norm"),
    ({"mean": [0.5], "std": [2.0]}, "got mean [0.5] and std [2.0]"),
    ({"mean": [0.0] * 5, "std": [1.0, 1.0, 0.0, 1.0, 1.0]}, "stds > 0"),
    ({"mean": [0.0, float("nan"), 0.0, 0.0, 0.0], "std": [1.0] * 5}, "got mean [0.0, nan"),
    ([1, 2], "norm must be a JSON object with a mean and a std, got [1, 2]"),
])
def test_predict_rejects_a_norm_it_cannot_apply(pipeline, tmp_path, capsys, norm, why):
    # one mean would broadcast over all five channels and a zero std gives
    # inf windows; neither may reach the model
    corpus, run, _ = pipeline
    spec = net.ModelSpec(head="sigmoid", n_labels=1, text=None)
    meta = {"property": "presence", "modality": "audio"}
    if norm is not None:
        meta["norm"] = norm
    ckpt = tmp_path / "bad_norm.ckpt"
    net.save_checkpoint(ckpt, spec, net.init_params(spec, seed=0), meta)
    rc = cli.main(["predict", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path), "--features-dir", str(run / "features"),
                   "--checkpoint", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_norm.ckpt: " in err and why in err
    assert not (tmp_path / "predictions" / "rec_00000.csv").exists()


def predict_before_load(pipeline, tmp_path, monkeypatch, spec, meta) -> int:
    """predict's exit code for a checkpoint of spec and meta; the corpus
    must not load."""
    corpus, run, _ = pipeline
    ckpt = tmp_path / "reheaded.ckpt"
    net.save_checkpoint(ckpt, spec, net.init_params(spec, seed=0), meta)
    loads = []
    monkeypatch.setattr(experiment, "_load_corpus", loads.append)
    rc = cli.main(["predict", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path), "--features-dir", str(run / "features"),
                   "--checkpoint", str(ckpt)])
    assert loads == []
    return rc


UNIT_NORM = {"mean": [0.0] * 5, "std": [1.0] * 5}


@pytest.mark.parametrize("key,value,served", [
    ("audio_channels", 3, 5), ("audio_frames", 9, 41), ("text_slots", 5, 7)])
def test_predict_refuses_input_shapes_the_data_does_not_give(
        pipeline, tmp_path, capsys, monkeypatch, key, value, served):
    # the provider gathers 5 channels over 41 frames and 7 word slots, so a
    # model built for other windows would read the wrong frames
    spec = net.ModelSpec(head="sigmoid", n_labels=1, **{key: value})
    meta = {"property": "presence", "modality": "both", "norm": UNIT_NORM}
    assert predict_before_load(pipeline, tmp_path, monkeypatch, spec, meta) == 2
    assert (f"reheaded.ckpt: the model reads {key} {value}, but the data gives {served}"
            in capsys.readouterr().err)


def test_predict_refuses_a_speaker_input_without_speaker_names(
        pipeline, tmp_path, capsys, monkeypatch):
    # without names the one-hot columns cannot be mapped to the corpus's speakers
    spec = net.ModelSpec(head="sigmoid", n_labels=1, speaker_dim=2)
    meta = {"property": "presence", "modality": "both", "norm": UNIT_NORM}
    assert predict_before_load(pipeline, tmp_path, monkeypatch, spec, meta) == 2
    assert ("reheaded.ckpt: the model takes 2 speaker(s), but its meta lists 0"
            in capsys.readouterr().err)


def test_predict_refuses_text_rows_the_vectors_do_not_give(
        pipeline, tmp_path, capsys):
    # the width is the word vectors' plus the timing column; it is known once
    # the vectors are read, and no block may be scored before it is checked
    corpus, run, _ = pipeline
    spec = net.ModelSpec(head="sigmoid", n_labels=1, audio=None, text_dim=51)
    ckpt = tmp_path / "narrow.ckpt"
    net.save_checkpoint(ckpt, spec, net.init_params(spec, seed=0),
                        {"property": "presence", "modality": "text"})
    vectors = corpus / "vectors.txt"
    rc = cli.main(["predict", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(vectors), "--out", str(tmp_path),
                   "--features-dir", str(run / "features"), "--checkpoint", str(ckpt)])
    assert rc == 2
    assert (f"narrow.ckpt: the model reads text rows 51 wide, but the vectors in "
            f"{vectors} give 300 + 1 timing = 301") in capsys.readouterr().err
    assert not (tmp_path / "predictions" / "rec_00000.csv").exists()


@pytest.mark.parametrize("settings,named", [
    ({"propery": "phase"}, "propery"),
    ({"train": {"step": 5}}, "step"),
])
def test_unknown_config_keys_exit_2_naming_them(pipeline, tmp_path, capsys,
                                                settings, named):
    corpus, _, _ = pipeline
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "manifest": str(corpus / "manifest.json"),
        "embeddings": str(corpus / "vectors.txt"),
        "out_dir": str(tmp_path / "run"), **settings}))
    assert cli.main(["eval", "--config", str(cfg_path)]) == 2
    assert f"['{named}']" in capsys.readouterr().err


@pytest.mark.parametrize("settings,named", [
    ([1, 2], "the config"),
    ({"train": [1]}, "train"),
    ({"train": {"loss": 3}}, "train.loss"),
    ({"model": None}, "model"),
])
def test_config_entries_that_are_not_objects_exit_2_naming_them(tmp_path, capsys,
                                                                settings, named):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(settings))
    assert cli.main(["eval", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {named} must be a JSON object")


@pytest.mark.parametrize("settings,message", [
    ({"eval_on_all_frames": "false"}, 'eval_on_all_frames must be a boolean, got "false"'),
    ({"train": {"upsample": "no"}}, 'train.upsample must be a boolean, got "no"'),
    ({"seed": "5"}, 'seed must be an integer, got "5"'),
    ({"folds": "5"}, 'folds must be an integer, got "5"'),
    ({"folds": 2.0}, "folds must be an integer, got 2.0"),
    ({"folds": True}, "folds must be an integer, got true"),
    ({"threshold": "0.5"}, 'threshold must be a number, got "0.5"'),
    ({"train": {"lr": "0.1"}}, 'train.lr must be a number, got "0.1"'),
    ({"train": {"loss": {"gamma": "2"}}}, 'train.loss.gamma must be a number, got "2"'),
    ({"model": {"enc_layers": 2.5}}, "model.enc_layers must be an integer, got 2.5"),
    ({"property": 3}, "property must be a string, got 3"),
    # the field is prop, but its JSON key, like report.json's, is property
    ({"prop": "phase"}, "unknown ExperimentConfig keys ['prop']; choose from ['cv', "
                        "'embeddings', 'eval_on_all_frames', 'features_dir', 'folds', "
                        "'manifest', 'modality', 'model', 'out_dir', 'property', 'seed', "
                        "'threshold', 'train']"),
])
def test_config_values_of_the_wrong_type_exit_2_naming_the_key(pipeline, tmp_path, capsys,
                                                               settings, message):
    corpus, run, _ = pipeline
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "manifest": str(corpus / "manifest.json"),
        "embeddings": str(corpus / "vectors.txt"),
        "out_dir": str(tmp_path / "run"), "features_dir": str(run / "features"),
        "modality": "audio", "folds": 2, "train": {"steps": 10, "batch": 16, "evals": 2},
        **settings}))
    assert cli.main(["eval", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_synth_non_finite_duration_exits_2_at_once(tmp_path, duration):
    # the event sampler never reached such an end and grew until memory ran
    # out, so the child runs under a time and an address-space limit
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = subprocess.run([sys.executable, "-m", "gestprop", "synth", "--preset", "combined",
                           "--out", str(tmp_path / "corpus"), "--duration", duration],
                          env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory)
    assert done.returncode == 2, done.stderr
    assert "duration must be finite" in done.stderr and duration in done.stderr
    assert not (tmp_path / "corpus").exists()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "gestprop", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "hpsearch" in done.stdout


def test_subcommands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["baselines", "eval", "features", "gradcheck",
                                   "hpsearch", "predict", "synth"]


def test_eval_is_deterministic_and_config_file_overridable(pipeline, tmp_path):
    corpus, run, base = pipeline
    config = {
        "manifest": str(corpus / "manifest.json"),
        "embeddings": str(corpus / "vectors.txt"),
        "out_dir": str(tmp_path / "evalrun"),
        "features_dir": str(run / "features"),
        "property": "presence",
        "modality": "audio",
        "cv": "within",
        "folds": 2,
        "seed": 9,
        "train": {"steps": 10, "batch": 16, "evals": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    assert cli.main(["eval", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "evalrun" / "report.json").read_bytes()
    assert cli.main(["eval", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "evalrun" / "report.json").read_bytes() == first

    # an explicit flag beats the file
    assert cli.main(["eval", "--config", str(cfg_path), "--seed", "10"]) == 0
    report = json.loads((tmp_path / "evalrun" / "report.json").read_text())
    assert report["seed"] == 10


def test_baselines_command(pipeline, capsys):
    _, _, base = pipeline
    rc = cli.main(["baselines"] + base + FAST)
    out = capsys.readouterr().out
    assert rc == 0
    assert "always_one" in out and "informed_random" in out


VERDICTS = ("clears all baselines", "not above chance")


def test_eval_prints_the_verdict_per_label_and_baselines_none(pipeline, tmp_path, capsys):
    corpus, run, _ = pipeline
    base = ["--manifest", str(corpus / "manifest.json"),
            "--embeddings", str(corpus / "vectors.txt"),
            "--out", str(tmp_path), "--features-dir", str(run / "features")]
    flags = FAST[2:] + ["--property", "semantics"]
    assert cli.main(["eval"] + base + flags) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == [
        "  amount", "  direction", "  shape", "  size"]
    assert all(line.split(": ")[1] in VERDICTS for line in lines)

    assert cli.main(["baselines"] + base + flags) == 0
    out = capsys.readouterr().out
    assert "informed_random" in out and not any(v in out for v in VERDICTS)


def test_empty_training_pool_exits_2_naming_fold_and_property(pipeline, tmp_path, capsys):
    # annotations without a gesture leave phase models nothing to train on;
    # both commands stop before scoring or training anything
    corpus, run, _ = pipeline
    manifest = json.loads((corpus / "manifest.json").read_text())
    (tmp_path / "none.tsv").write_text("")
    for entry in manifest:
        for key in ("audio", "transcript", "interlocutor"):
            if entry.get(key):
                entry[key] = str(corpus / entry[key])
        entry["annotations"] = str(tmp_path / "none.tsv")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    base = ["--manifest", str(tmp_path / "manifest.json"),
            "--embeddings", str(corpus / "vectors.txt"),
            "--out", str(tmp_path / "run"), "--features-dir", str(run / "features")]
    for command in ("baselines", "eval"):
        assert cli.main([command] + base + FAST + ["--property", "phase"]) == 2
        assert capsys.readouterr().err == (
            "error: fold 0: no training frames for property 'phase' in the annotations\n")
    assert not (tmp_path / "run" / "checkpoints" / "fold_00.ckpt").exists()
    assert not (tmp_path / "run" / "baselines.json").exists()


def test_hpsearch_command(pipeline, tmp_path, capsys):
    corpus, run, _ = pipeline
    base = ["--manifest", str(corpus / "manifest.json"),
            "--embeddings", str(corpus / "vectors.txt"),
            "--out", str(tmp_path),
            "--features-dir", str(run / "features")]
    rc = cli.main(["hpsearch"] + base + FAST + ["--runs", "1"])
    assert rc == 0
    assert "best run 0" in capsys.readouterr().out
    assert (tmp_path / "runrecord.csv").exists()


def test_features_failure_lists_recording_and_exits_nonzero(
        pipeline, tmp_path, capsys):
    corpus, _, _ = pipeline
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest[0]["audio"] = "rec_00/gone.wav"
    for entry in manifest:         # keep other paths resolvable from tmp_path
        for key in ("audio", "transcript", "annotations", "interlocutor"):
            if entry.get(key) and not entry[key].startswith("/"):
                entry[key] = str(corpus / entry[key]) \
                    if "gone" not in entry[key] else entry[key]
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    rc = cli.main(["features", "--manifest", str(bad),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "recording 0" in captured.err
    assert "gone.wav" in captured.err


@pytest.mark.parametrize("edit,why", [
    (lambda m: m[1].pop("speaker"), "entry 1 lacks speaker"),
    (lambda m: m[1].update(id=m[0]["id"]), "entry 1 repeats id 0 of entry 0"),
], ids=["no_speaker", "repeated_id"])
def test_bad_manifest_exits_2_naming_the_entry(pipeline, tmp_path, capsys, edit, why):
    corpus, _, _ = pipeline
    manifest = json.loads((corpus / "manifest.json").read_text())
    for entry in manifest:         # resolvable from tmp_path
        for key in ("audio", "transcript", "annotations", "interlocutor"):
            if entry.get(key):
                entry[key] = str(corpus / entry[key])
    edit(manifest)
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    rc = cli.main(["features", "--manifest", str(bad),
                   "--embeddings", str(corpus / "vectors.txt"),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {why}")


def test_missing_embeddings_exits_with_named_path(pipeline, tmp_path, capsys):
    corpus, _, _ = pipeline
    rc = cli.main(["features", "--manifest", str(corpus / "manifest.json"),
                   "--embeddings", str(tmp_path / "no_vectors.txt"),
                   "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "no_vectors.txt" in captured.err


def test_missing_required_settings(tmp_path, capsys):
    assert cli.main(["eval", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: missing required settings: manifest, embeddings")


def test_config_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("not json")
    assert cli.main(["eval", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not valid JSON: ")


def test_gradcheck_command(tmp_path, capsys):
    rc = cli.main(["gradcheck", "--seed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative error" in out
    assert (tmp_path / "gradcheck.json").exists()


@pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf"])
def test_gradcheck_eps_that_is_not_positive_and_finite_exits_2(tmp_path, capsys, eps):
    # eps 0 divided by zero; nan ran every case and reported a nan error,
    # which read as a broken gradient
    assert cli.main(["gradcheck", f"--eps={eps}", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: eps must be positive and finite, got {float(eps)}\n"
    assert captured.out == "" and not (tmp_path / "gradcheck.json").exists()
