"""Experiment runner: config handling, CV reports, baselines, random search."""

import json
import multiprocessing
import os
import shutil
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gestprop import corpus, experiment, forked, net, synth
from gestprop.experiment import (MODEL_KEYS, SEARCH_SPACE, ExperimentConfig, _model_spec,
                                 _predict, run_baselines, run_cv, run_features,
                                 run_gradcheck, run_hpsearch, run_predict)
from gestprop.features import WindowProvider, load_dataset
from gestprop.training import Adam, LossSpec, TrainConfig, loss_batch

FAST_TRAIN = TrainConfig(steps=12, batch=16, lr=2e-3, evals=2)
FAST_MODEL = {"enc_layers": 1, "enc_channels": 8, "enc_out": 8, "dec_hidden": 8}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp_corpus")
    spec = synth.SynthSpec(name="tiny", n_speakers=2, duration=15.0)
    synth.generate_synthetic_corpus(spec, seed=11, out_dir=root)
    return root


def fast_config(corpus_dir, out_dir, **kw) -> ExperimentConfig:
    defaults = dict(
        manifest=str(corpus_dir / "manifest.json"),
        embeddings=str(corpus_dir / "vectors.txt"),
        out_dir=str(out_dir),
        prop="presence",
        modality="audio",
        cv="within",
        folds=2,
        train=FAST_TRAIN,
        model=dict(FAST_MODEL),
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def featured(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp_run")
    config = fast_config(corpus_dir, out)
    built, failures = run_features(config)
    assert failures == [] and built == [0, 1]
    return out


def test_config_validation(corpus_dir, tmp_path):
    good = fast_config(corpus_dir, tmp_path)
    good.validate()
    with pytest.raises(ValueError, match="property"):
        fast_config(corpus_dir, tmp_path, prop="color").validate()
    with pytest.raises(ValueError, match="modality"):
        fast_config(corpus_dir, tmp_path, modality="video").validate()
    with pytest.raises(ValueError, match="cv mode"):
        fast_config(corpus_dir, tmp_path, cv="loo").validate()
    with pytest.raises(ValueError, match="folds"):
        fast_config(corpus_dir, tmp_path, folds=1).validate()
    with pytest.raises(ValueError, match="model keys"):
        fast_config(corpus_dir, tmp_path, model={"depth": 3}).validate()
    with pytest.raises(ValueError, match="model.enc_layers must be an integer, got 2.5"):
        fast_config(corpus_dir, tmp_path, model={"enc_layers": 2.5}).validate()
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        fast_config(corpus_dir, tmp_path, seed=-1).validate()
    with pytest.raises(FileNotFoundError, match="manifest"):
        fast_config(corpus_dir, tmp_path,
                    manifest=str(tmp_path / "none.json")).validate()


def test_config_dict_roundtrip(corpus_dir, tmp_path):
    config = fast_config(corpus_dir, tmp_path,
                         train=TrainConfig(steps=7, loss=LossSpec(kind="focal")))
    d = config.to_dict()
    assert d["property"] == "presence"          # serialized under the JSON key
    assert d["train"]["loss"]["kind"] == "focal"
    assert json.dumps(d)                        # JSON-ready as is
    back = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert back == config


def test_from_dict_names_unknown_keys(corpus_dir, tmp_path):
    d = fast_config(corpus_dir, tmp_path).to_dict()
    with pytest.raises(ValueError, match=r"unknown ExperimentConfig keys \['propery'\]"):
        ExperimentConfig.from_dict({**d, "propery": "phase"})
    with pytest.raises(ValueError, match=r"unknown TrainConfig keys \['step'\]"):
        ExperimentConfig.from_dict({**d, "train": {"step": 5}})
    with pytest.raises(ValueError, match=r"unknown LossSpec keys \['alpha'\]"):
        net.from_fields(TrainConfig, {"loss": {"alpha": 0.25}})


def test_run_features_registers_outputs(corpus_dir, featured):
    config = fast_config(corpus_dir, featured)
    index = json.loads((featured / "index.json").read_text())
    assert len(index["features"]) == 4          # 2 files x 2 recordings
    built, failures = run_features(config)     # cached now
    assert built == [] and failures == []


def test_run_cv_writes_report_and_checkpoints(corpus_dir, featured):
    config = fast_config(corpus_dir, featured)
    report = run_cv(config, write_checkpoints=True)

    assert report["n_folds"] == 2
    assert len(report["folds"]) == 2
    assert list(report["aggregate"]["labels"]) == ["gesture"]
    for entry in report["folds"]:
        assert len(entry["curve"]) == 2         # evals=2 points
        assert not entry["failed"]
        assert entry["n_train"] > 0 and entry["n_val"] > 0

    on_disk = json.loads((featured / "report.json").read_text())
    assert on_disk["aggregate"] == report["aggregate"]
    assert (featured / "scores.csv").read_text().startswith("label,metric,")

    spec, params, meta = net.load_checkpoint(
        featured / report["folds"][0]["checkpoint"])
    assert spec.n_labels == 1 and spec.head == "sigmoid"
    assert spec.text is None                    # audio-only condition
    assert set(meta["norm"]) == {"mean", "std"}
    assert meta["config"]["property"] == "presence"


def test_run_cv_is_deterministic(corpus_dir, featured, tmp_path):
    config = fast_config(corpus_dir, tmp_path,
                         features_dir=str(featured / "features"))
    run_cv(config, write_checkpoints=False)
    first = (tmp_path / "report.json").read_bytes()
    run_cv(config, write_checkpoints=False)
    assert (tmp_path / "report.json").read_bytes() == first


def test_property_runs_restrict_to_gesture_frames(corpus_dir, featured, tmp_path):
    config = fast_config(corpus_dir, tmp_path,
                         features_dir=str(featured / "features"),
                         prop="semantics")
    report = run_cv(config, write_checkpoints=False)
    assert sorted(report["aggregate"]["labels"]) == [
        "amount", "direction", "shape", "size"]

    from gestprop.features import load_dataset
    recs = corpus.load_manifest(config.manifest)
    ds = load_dataset(recs, config.features_path(), config.embeddings)
    plan = corpus.make_folds_within(ds, k=2)
    for entry, val in zip(report["folds"], plan.val):
        # evaluated frames = gesture-present frames of the fold
        n_frames = entry["report"]["n_frames"]
        assert n_frames == int(ds.has_gesture[val].sum())
        assert n_frames < len(val)
        # training pool likewise shrinks to gesture frames
        tr = plan.train[entry["fold"]]
        assert entry["n_train"] == int(ds.has_gesture[tr].sum())


def test_curve_and_report_score_at_the_threshold(corpus_dir, featured, tmp_path):
    # the validation curve, final_score and the fold report are one scorer's
    # results, so a threshold other than 0.5 reaches all three
    config = fast_config(corpus_dir, tmp_path,
                         features_dir=str(featured / "features"),
                         prop="category", threshold=0.3)
    report = run_cv(config, write_checkpoints=False)
    for entry in report["folds"]:
        assert entry["final_score"] == entry["report"]["headline"] == entry["curve"][-1][1]


def test_model_spec_fields_come_from_the_model_keys(corpus_dir, featured):
    config = fast_config(corpus_dir, featured, modality="both", model={})
    ds = load_dataset(corpus.load_manifest(config.manifest),
                      config.features_path(), config.embeddings)
    provider = WindowProvider(ds, config.prop, config.modality)
    spec = _model_spec(config, provider, text_dim=5)
    assert spec.audio == spec.text == net.EncoderSpec()
    assert spec.decoder == net.DecoderSpec()

    model = {key: i + 1 for i, key in enumerate(MODEL_KEYS)}
    model.update(kernel=5, enc_dropout=0.25, dec_dropout=0.5)
    spec = _model_spec(fast_config(corpus_dir, featured, modality="both",
                                   model=model), provider, text_dim=5)
    assert spec.audio == spec.text == net.EncoderSpec(
        layers=model["enc_layers"], channels=model["enc_channels"], kernel=5,
        dropout=0.25, out_dim=model["enc_out"])
    assert spec.decoder == net.DecoderSpec(hidden=model["dec_hidden"],
                                           layers=model["dec_layers"], dropout=0.5)


def test_run_baselines(corpus_dir, featured):
    config = fast_config(corpus_dir, featured)
    result = run_baselines(config)
    assert sorted(result["baselines"]) == [
        "always_one", "always_zero", "informed_random", "uniform_random"]
    one = result["baselines"]["always_one"]["labels"]["gesture"]
    assert one["recall"]["mean"] == pytest.approx(1.0)
    assert (featured / "baselines.json").exists()
    # the report.json in this directory gives baselines.json no verdict
    assert sorted(result) == ["baselines", "config", "kind", "seed"]


def test_run_baselines_exclusive_drops_constants(corpus_dir, featured, tmp_path):
    config = fast_config(corpus_dir, tmp_path,
                         features_dir=str(featured / "features"),
                         prop="phase")
    result = run_baselines(config)
    assert sorted(result["baselines"]) == ["informed_random", "uniform_random"]


def test_eval_alone_gives_the_chance_verdict(corpus_dir, featured, tmp_path):
    # a fresh --out: the verdict needs no earlier baselines run
    config = fast_config(corpus_dir, tmp_path / "run", prop="semantics",
                         features_dir=str(featured / "features"))
    report = run_cv(config, write_checkpoints=False)
    assert sorted(report["predictable"]) == ["amount", "direction", "shape", "size"]
    assert all(isinstance(ok, bool) for ok in report["predictable"].values())
    on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
    assert on_disk["predictable"] == report["predictable"]
    # baselines and eval score chance on the same folds, frames and streams
    assert report["baselines"] == run_baselines(config)["baselines"]


def test_baselines_leave_the_report_unchanged(corpus_dir, featured, tmp_path):
    # eval alone, then baselines after it, then eval again after baselines
    config = fast_config(corpus_dir, tmp_path, features_dir=str(featured / "features"))
    run_cv(config, write_checkpoints=False)
    report = (tmp_path / "report.json").read_bytes()
    run_baselines(config)
    assert (tmp_path / "report.json").read_bytes() == report
    run_cv(config, write_checkpoints=False)
    assert (tmp_path / "report.json").read_bytes() == report


def test_run_hpsearch(corpus_dir, featured, tmp_path):
    config = fast_config(corpus_dir, tmp_path,
                         features_dir=str(featured / "features"))
    result = run_hpsearch(config, n_runs=2)
    assert result["best_run"] in (0, 1)
    assert len(result["runs"]) == 2
    scores = [r["score"] for r in result["runs"]]
    assert result["runs"][result["best_run"]]["score"] == max(scores)
    assert set(result["best_sample"]) == set(SEARCH_SPACE)

    lines = (tmp_path / "runrecord.csv").read_text().strip().splitlines()
    assert lines[0] == "run,fold,step,score,loss"
    assert len(lines) == 1 + 2 * 2 * 2          # runs x folds x eval points
    for run in result["runs"]:                  # the draws replace model, batch and lr
        report = json.loads((tmp_path / "runs" / f"{run['run']:02d}" / "report.json")
                            .read_text())
        sample = run["sample"]
        assert report["config"]["model"] == {k: sample[k] for k in MODEL_KEYS}
        assert report["config"]["train"]["batch"] == sample["batch"]
        assert report["config"]["train"]["lr"] == sample["lr"]
    # chance is scored once, with the search's seed, so every run is judged
    # against the floors baselines gives on the same folds
    run_baselines(config)
    chance = json.loads((tmp_path / "baselines.json").read_text())["baselines"]
    for run in result["runs"]:
        report = json.loads((tmp_path / "runs" / f"{run['run']:02d}" / "report.json")
                            .read_text())
        assert report["baselines"] == chance


def canned_cv(scores, n_folds, n_evals):
    """A _cross_validate stand-in: run i reports headline scores[i], n_folds
    folds of n_evals curve points each, and records the configs it was given."""
    seen = []

    def run(config, dataset, write_checkpoints=True, baselines=None):
        assert not write_checkpoints
        seen.append(config)
        folds = [{"fold": f, "curve": [[step + 1, 0.5] for step in range(n_evals)],
                  "loss_curve": [0.25] * n_evals} for f in range(n_folds)]
        return {"aggregate": {"headline": {"mean": scores[len(seen) - 1]}},
                "folds": folds}
    return run, seen


def test_hpsearch_draws_match_the_recorded_goldens(corpus_dir, featured, tmp_path,
                                                   monkeypatch):
    run, seen = canned_cv([0.0] * 3, n_folds=1, n_evals=1)
    monkeypatch.setattr(experiment, "_cross_validate", run)
    runs = run_hpsearch(fast_config(corpus_dir, tmp_path, seed=9,
                                    features_dir=str(featured / "features")),
                        n_runs=3)["runs"]
    assert runs[0]["sample"] == {
        "batch": 64, "dec_dropout": 0.14340860454377768, "dec_hidden": 227,
        "dec_layers": 1, "enc_channels": 64, "enc_dropout": 0.3887670414600894,
        "enc_layers": 3, "enc_out": 64, "kernel": 5, "lr": 0.0052575970535138185}
    assert runs[2]["sample"] == {
        "batch": 32, "dec_dropout": 0.125538696966289, "dec_hidden": 171,
        "dec_layers": 3, "enc_channels": 128, "enc_dropout": 0.3614214666810537,
        "enc_layers": 2, "enc_out": 64, "kernel": 5, "lr": 0.0004456446386683881}
    assert seen[1].model == {k: runs[1]["sample"][k] for k in MODEL_KEYS}


def test_search_draws_stay_in_their_ranges():
    rng = np.random.default_rng(0)
    draws = [{name: draw(rng) for name, draw in SEARCH_SPACE.items()} for _ in range(300)]
    values = {name: [d[name] for d in draws] for name in SEARCH_SPACE}
    for name, want in (("enc_layers", {1, 2, 3, 4}), ("enc_channels", {16, 32, 64, 128}),
                       ("kernel", {3, 5}), ("enc_out", {16, 32, 64, 128}),
                       ("dec_layers", {1, 2, 3}), ("batch", {32, 64, 128})):
        assert set(values[name]) == want, name
    assert set(values["dec_hidden"]) <= set(range(32, 257))
    for name in ("enc_dropout", "dec_dropout"):
        assert all(0.0 <= v < 0.5 for v in values[name])
    assert all(1e-4 <= v <= 1e-2 for v in values["lr"])
    # log-uniform: about half the draws fall below the geometric midpoint 1e-3
    assert 100 < sum(v < 1e-3 for v in values["lr"]) < 200


def test_search_space_holds_only_settings_a_run_applies():
    # run_hpsearch applies model keys, batch and lr; it would drop any other
    assert set(SEARCH_SPACE) <= {*MODEL_KEYS, "batch", "lr"}


def test_hpsearch_keeps_the_earliest_best_run_and_every_curve_row(
        corpus_dir, featured, tmp_path, monkeypatch):
    run, seen = canned_cv([1.0, 3.0, 2.0, 3.0], n_folds=2, n_evals=3)
    monkeypatch.setattr(experiment, "_cross_validate", run)
    result = run_hpsearch(fast_config(corpus_dir, tmp_path,
                                      features_dir=str(featured / "features")), n_runs=4)
    assert result["best_run"] == 1                  # ties keep the earliest run
    assert result["best_sample"] == result["runs"][1]["sample"]
    assert [r["score"] for r in result["runs"]] == [1.0, 3.0, 2.0, 3.0]
    lines = (tmp_path / "runrecord.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2 * 3              # runs x folds x eval points
    assert [c.out_dir for c in seen] == [str(tmp_path / "runs" / f"{i:02d}")
                                         for i in range(4)]


def test_hpsearch_reads_the_corpus_once(corpus_dir, featured, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "load_dataset",
                        lambda *args: calls.append(args) or load_dataset(*args))
    run, seen = canned_cv([0.0] * 3, n_folds=1, n_evals=1)
    monkeypatch.setattr(experiment, "_cross_validate", run)
    run_hpsearch(fast_config(corpus_dir, tmp_path,
                             features_dir=str(featured / "features")), n_runs=3)
    assert len(calls) == 1 and len(seen) == 3


def test_hpsearch_without_runs_writes_nothing(corpus_dir, tmp_path):
    out = tmp_path / "search"
    with pytest.raises(ValueError, match="at least 1 run, got 0"):
        run_hpsearch(fast_config(corpus_dir, out), n_runs=0)
    assert not out.exists()


def test_run_predict(corpus_dir, featured):
    config = fast_config(corpus_dir, featured)
    written = run_predict(config, featured / "checkpoints" / "fold_00.ckpt")
    assert written == ["predictions/rec_00000.csv", "predictions/rec_00001.csv"]
    lines = (featured / written[0]).read_text().strip().splitlines()
    assert lines[0] == "t,label,prob,decision,truth"
    recs = corpus.load_manifest(config.manifest)
    from gestprop.features import load_dataset
    ds = load_dataset(recs, config.features_path(), config.embeddings)
    n_eligible = int(ds.eligible[ds.rec_ids == 0].sum())
    assert len(lines) == 1 + n_eligible         # one label for presence
    probs = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert np.all((probs >= 0) & (probs <= 1))


def test_predict_chunking_matches(corpus_dir, featured, monkeypatch):
    # BLAS sums a matmul's products in an order that depends on the number
    # of rows, so a window can score differently in its last bits when it
    # lands in another chunk (up to 5.6e-17 seen); 1e-15 is a few float64
    # ulps of a probability
    config = fast_config(corpus_dir, featured, prop="semantics", modality="both")
    recs = corpus.load_manifest(config.manifest)
    ds = load_dataset(recs, config.features_path(), config.embeddings)
    provider = WindowProvider(ds, "semantics", "both")
    spec = _model_spec(config, provider, ds.emb_matrix.shape[1] + 1)
    idx = np.flatnonzero(ds.eligible)
    params = [net.init_params(spec, seed=s) for s in range(5)]
    full = [_predict(spec, p, provider, idx) for p in params]
    monkeypatch.setattr(experiment, "PREDICT_CHUNK", 7)
    for p, want in zip(params, full):
        small = _predict(spec, p, provider, idx)
        assert small.shape == (len(idx), provider.n_labels)
        np.testing.assert_allclose(small, want, rtol=0, atol=1e-15)


def test_predict_memory_is_flat_in_recording_length(tmp_path):
    # predict builds each chunk's windows only when the chunk runs; building
    # a recording's whole batch first peaked ~150 MB higher at 600 s than at
    # 120 s on one recording
    enc = net.EncoderSpec(layers=2, channels=32, out_dim=32)
    spec = net.ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=enc,
                         decoder=net.DecoderSpec(hidden=48))
    ckpt = tmp_path / "model.ckpt"
    net.save_checkpoint(ckpt, spec, net.init_params(spec, seed=0),
                        meta={"property": "presence", "modality": "both",
                              "norm": {"mean": [0.0] * 5, "std": [1.0] * 5}})
    peaks = []
    for seconds in (120.0, 600.0):
        root = tmp_path / f"s{seconds:.0f}"
        synth.generate_synthetic_corpus(
            replace(synth.preset("combined"), n_speakers=1, duration=seconds),
            seed=3, out_dir=root)
        config = ExperimentConfig(manifest=str(root / "manifest.json"),
                                  embeddings=str(root / "vectors.txt"),
                                  out_dir=str(root / "run"))
        run_features(config)
        tracemalloc.start()
        try:
            run_predict(config, ckpt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 15e6, [p / 1e6 for p in peaks]


def test_scoring_memory_is_two_blocks_of_text_windows(corpus_dir, featured):
    # scoring five blocks' frames must peak under two blocks of a frame's
    # taps, 9 x 301 text and 9 x 5 audio values, ~11 KB in float32: a block
    # holds them and its first conv takes them as its columns. Unchunked,
    # the five blocks' taps alone would be 2.5 times that
    config = fast_config(corpus_dir, featured, modality="both")
    recs = corpus.load_manifest(config.manifest)
    ds = load_dataset(recs, config.features_path(), config.embeddings)
    provider = WindowProvider(ds, "presence", "both")
    enc = net.EncoderSpec(layers=2, channels=32, out_dim=32)
    spec = net.ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=enc,
                         decoder=net.DecoderSpec(hidden=48))
    params = net.init_params(spec, seed=0)
    taps = net.input_taps(spec)
    block = experiment.PREDICT_CHUNK * (len(taps["text"]) * 301 + len(taps["audio"]) * 5) * 4
    idx = np.resize(np.flatnonzero(ds.eligible), 5 * experiment.PREDICT_CHUNK + 7)
    tracemalloc.start()
    try:
        probs = _predict(spec, params, provider, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (len(idx), 1)
    assert peak < 2 * block, (peak / 1e6, block / 1e6)


def test_a_training_step_and_a_scoring_block_peak_near_their_text_taps(corpus_dir,
                                                                        featured):
    # criterion 7's model at batch 64: the text taps, 64 x 9 x 301 float32
    # (0.69 MB), are the largest array of a step or a block, and the first
    # conv takes them as its columns. A training step peaks under twice
    # their bytes above its entry, and a scoring block under 1.5 times; with
    # whole windows and a column copy the two peaked at 1.87 and 1.53 MB
    config = fast_config(corpus_dir, featured, modality="both")
    ds = load_dataset(corpus.load_manifest(config.manifest), config.features_path(),
                      config.embeddings)
    provider = WindowProvider(ds, "presence", "both")
    provider.fit_norm(np.flatnonzero(ds.eligible))
    enc = net.EncoderSpec(layers=2, channels=32, out_dim=32)
    spec = net.ModelSpec(head="sigmoid", n_labels=1, audio=enc, text=enc,
                         decoder=net.DecoderSpec(hidden=48))
    params = net.init_params(spec, seed=0)
    taps = params.taps
    text_taps = 64 * len(taps["text"]) * spec.text_dim * 4
    opt = Adam(params.flat, lr=2e-3)
    rng = np.random.default_rng(0)
    idx = np.flatnonzero(ds.eligible)[:64]
    assert len(taps["text"]) == 9 and experiment.PREDICT_CHUNK == 64

    def step():
        batch = provider.batch(idx, taps)
        params.grad.fill(-0.0)
        probs = net.forward(spec, params, audio=batch["audio"], text=batch["text"],
                            training=True, rng=rng)
        loss_batch(probs, batch["labels"], LossSpec(), exclusive=False).backward()
        opt.step(params.grad)

    for fn, bound in ((step, 2.0 * text_taps),
                      (lambda: _predict(spec, params, provider, idx), 1.5 * text_taps)):
        fn()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak / 1e6, bound / 1e6)


def test_run_predict_maps_speakers_by_name(corpus_dir, featured, tmp_path):
    config = fast_config(corpus_dir, tmp_path, cv="within_id",
                         features_dir=str(featured / "features"))
    run_cv(config)
    ckpt = tmp_path / "checkpoints" / "fold_00.ckpt"
    spec, params, meta = net.load_checkpoint(ckpt)
    assert spec.speaker_dim == 2 and meta["speakers"] == sorted(meta["speakers"])
    assert run_predict(config, ckpt)

    # the model's speakers listed in the other order: same traces, swapped
    # rows, edited in place in the one parameter buffer
    swapped = tmp_path / "swapped.ckpt"
    w = params.tensors["dec.fc0.w"]
    w[-2:] = w[-2:][::-1].copy()
    net.save_checkpoint(swapped, spec, params,
                        {**meta, "speakers": meta["speakers"][::-1]})
    trace = tmp_path / "predictions" / "rec_00000.csv"
    first = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=2)
    run_predict(config, swapped)
    assert np.allclose(np.loadtxt(trace, delimiter=",", skiprows=1, usecols=2),
                       first, atol=1e-6)

    unknown = tmp_path / "unknown.ckpt"
    net.save_checkpoint(unknown, spec, params,
                        {**meta, "speakers": [meta["speakers"][0], "zed"]})
    with pytest.raises(ValueError,
                       match=f"unknown.ckpt: unknown speakers \\['{meta['speakers'][1]}'\\]"):
        run_predict(config, unknown)


@pytest.mark.parametrize("command", ["features", "baselines", "eval"])
def test_command_creates_a_missing_out_dir(corpus_dir, featured, tmp_path, command):
    out = tmp_path / "not" / "yet"
    config = fast_config(corpus_dir, out, features_dir=str(featured / "features"))
    run = {"features": run_features, "baselines": run_baselines,
           "eval": lambda c: run_cv(c, write_checkpoints=False)}[command]
    run(config)
    assert list(json.loads((out / "index.json").read_text())) == [command]


def test_run_gradcheck_writes_report(tmp_path):
    result = run_gradcheck(seed=0, out_dir=tmp_path)
    assert result["passed"] is True
    assert result["max_error"] < 1e-4
    saved = json.loads((tmp_path / "gradcheck.json").read_text())
    assert saved["max_error"] == result["max_error"]


def outputs_at(workers: int, monkeypatch, out, command) -> dict:
    """Every file command() writes under out with `workers` usable CPUs."""
    monkeypatch.setattr(forked, "usable_cpus", lambda: workers)
    shutil.rmtree(out, ignore_errors=True)
    command()
    assert multiprocessing.active_children() == []
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kw,diverged", [
    (dict(prop="presence", modality="both", folds=3), [False] * 3),
    (dict(prop="category", modality="text", cv="within_id", folds=3), [False] * 3),
    (dict(modality="audio", folds=4, train=replace(FAST_TRAIN, upsample=True),
          model={**FAST_MODEL, "enc_dropout": 0.3, "dec_dropout": 0.2}), [False] * 4),
    (dict(modality="audio", folds=4, train=replace(FAST_TRAIN, lr=1e9)),
     [True, True, False, True]),
], ids=["presence-both", "category-within_id", "upsample-dropout", "diverging"])
def test_fold_workers_write_the_files_one_process_writes(corpus_dir, featured, tmp_path,
                                                         monkeypatch, kw, diverged):
    # each fold trains with its own seed, pool, normalization and scorer
    # wherever it runs, and this process writes every file in fold order
    out = tmp_path / "run"
    config = fast_config(corpus_dir, out, features_dir=str(featured / "features"), **kw)
    with np.errstate(over="ignore", invalid="ignore"):
        files = [outputs_at(workers, monkeypatch, out, lambda: run_cv(config))
                 for workers in (1, 2, 3)]
    assert files[0] == files[1] == files[2]
    assert {"report.json", "scores.csv", "index.json", "checkpoints/fold_00.ckpt"} \
        <= set(files[0])
    assert [f["failed"] for f in json.loads(files[0]["report.json"])["folds"]] == diverged


def test_fold_workers_give_the_search_one_process_gives(corpus_dir, featured, tmp_path,
                                                        monkeypatch):
    out = tmp_path / "search"
    config = fast_config(corpus_dir, out, features_dir=str(featured / "features"), folds=3)
    files = [outputs_at(workers, monkeypatch, out, lambda: run_hpsearch(config, n_runs=2))
             for workers in (1, 2, 3)]
    for name in ("hpsearch.json", "runrecord.csv"):
        assert files[0][name] == files[1][name] == files[2][name]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fold_errors_are_raised_in_fold_order(corpus_dir, featured, tmp_path,
                                              monkeypatch, workers):
    # at 3 workers folds 2 and 4 fail in two different children
    config = fast_config(corpus_dir, tmp_path, features_dir=str(featured / "features"),
                         folds=5)
    fold = {experiment._fold_seed(config.seed, f): f for f in range(5)}.get    # by seed
    train = experiment.train

    def failing(spec, provider, pool, cfg, seed, score):
        if fold(seed) in (2, 4):
            raise ValueError(f"fold {fold(seed)} failed")
        return train(spec, provider, pool, cfg, seed, score)

    monkeypatch.setattr(experiment, "train", failing)
    monkeypatch.setattr(forked, "usable_cpus", lambda: workers)
    with pytest.raises(ValueError, match="fold 2 failed"):
        run_cv(config)
    assert multiprocessing.active_children() == []


def test_a_fold_frees_its_model_before_the_next_fold_trains(corpus_dir, featured, tmp_path,
                                                            monkeypatch):
    # a fold keeps only its .flat: a finished fold's ModelParams, and with it
    # its gradient vector, would raise the peak of every later fold's training
    config = fast_config(corpus_dir, tmp_path, features_dir=str(featured / "features"),
                         folds=3)
    train, finished = experiment.train, []

    def tracked(*args):
        assert all(ref() is None for ref in finished)
        params, record = train(*args)
        finished.append(weakref.ref(params))
        return params, record

    monkeypatch.setattr(experiment, "train", tracked)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    run_cv(config)
    assert len(finished) == 3


def test_a_fold_worker_that_dies_is_named(corpus_dir, featured, tmp_path, monkeypatch):
    config = fast_config(corpus_dir, tmp_path, features_dir=str(featured / "features"),
                         folds=3)
    parent, train = os.getpid(), experiment.train

    def die_in_the_fork(*args):
        if os.getpid() != parent:
            os._exit(3)
        return train(*args)

    monkeypatch.setattr(experiment, "train", die_in_the_fork)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 3)
    with pytest.raises(RuntimeError, match=r"fold worker for folds 1\.\.1 exited with code 3"):
        run_cv(config)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "report.json").exists()


def test_fold_workers_run_blas_on_one_thread(corpus_dir, featured, tmp_path, monkeypatch):
    # two processes' BLAS helper threads would contend for the CPUs; without
    # a thread control the folds train in this process
    config = fast_config(corpus_dir, tmp_path, features_dir=str(featured / "features"),
                         folds=3)
    log, train = tmp_path / "threads.log", experiment.train

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {forked.blas_threads()}\n")
        return train(*args)

    def threads_seen():
        seen = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        return len({pid for pid, _ in seen}), {n for _, n in seen}

    monkeypatch.setattr(experiment, "train", logged)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 3)
    control = forked._blas_control()
    if control is None:
        run_cv(config, write_checkpoints=False)
        assert threads_seen() == (1, {"None"})
        return
    before = control[0]()
    try:
        control[1](2)
        run_cv(config, write_checkpoints=False)
        assert threads_seen() == (3, {"1"})
        assert forked.blas_threads() == 2
    finally:
        control[1](before)
    monkeypatch.setattr(forked, "_blas_control", lambda: None)
    run_cv(config, write_checkpoints=False)
    assert threads_seen() == (1, {"None"})
    assert multiprocessing.active_children() == []
