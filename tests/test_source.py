"""Design guards over the source tree of src/gestprop."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gestprop"

# criterion 8's golden calls prosody.estimate_f0 directly
TEST_ONLY = ["prosody.estimate_f0"]


def test_every_public_name_has_a_caller_in_src():
    # a public module-level function or class must be mentioned somewhere in
    # src besides its own definition and the package's re-exports
    defs = {}
    mentions = {}        # name -> the top-level statements that mention it
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    and not top.name.startswith("_"):
                defs[f"{path.stem}.{top.name}"] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                mentions.setdefault(name, set()).add(top)
    unused = sorted(key for key, top in defs.items()
                    if not mentions.get(top.name, set()) - {top})
    assert unused == TEST_ONLY


def callers(is_call) -> list[str]:
    """module.function for each call in src that is_call(node) accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and is_call(node.func):
                    found.append(f"{path.stem}.{fn.name}")
    return found


def test_one_function_moves_files_into_place():
    # every atomic write goes through evaluation.write_atomic
    assert callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "replace"
                   and isinstance(f.value, ast.Name) and f.value.id == "os") \
        == ["evaluation.write_atomic"]


def test_one_function_selects_word_windows():
    # the word windows and the fold plans' window extents come from one
    # select_window result per recording
    assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                   == "select_window") == ["features._word_windows"]


def test_one_function_parses_csv_files():
    # the prosody cache is the only file the package reads back with numpy
    assert callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "loadtxt") \
        == ["prosody.read_prosody_csv"]


def test_labels_are_built_where_they_are_written_and_loaded():
    # frames.csv is written for people; the dataset rasterizes the annotations
    assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                   == "build_frame_table") \
        == ["features.build_features", "features.load_dataset"]


def test_one_function_reads_word_vectors():
    # the dataset reads only its transcript words' vectors, with one reader
    assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                   == "load_embeddings") == ["features.load_dataset"]


def test_one_loader_turns_json_into_settings():
    # ExperimentConfig.from_dict only names its source; checkpoint specs and
    # config files both go through net.from_fields
    from_dicts = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                from_dicts += [f"{path.stem}.{node.name}" for fn in node.body
                               if isinstance(fn, ast.FunctionDef) and fn.name == "from_dict"]
    assert from_dicts == ["experiment.ExperimentConfig"]
    assert sorted(callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                          == "from_fields")) \
        == ["experiment.from_dict", "net.load_checkpoint", "net.typed"]


def test_one_function_scores_chance_and_one_gives_the_verdict():
    # baselines and eval score chance with the same helper on _folds' folds,
    # and only eval, which has the model's scores too, gives the verdict
    assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                   == "baseline_predict") == ["experiment._score_chance"]
    assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                   == "flag_predictable") == ["experiment._cross_validate"]


def test_one_function_picks_the_folds():
    # eval, baselines and hpsearch take every fold's frames from _folds, so
    # the model and chance are scored on the same frames; a fold's checkpoint
    # is written from its weight vector, with no model built for it
    for name in ("make_folds_within", "make_folds_between"):
        assert callers(lambda f: getattr(f, "id", getattr(f, "attr", None)) == name) \
            == ["experiment._folds"]
    assert sorted(callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                          == "ModelParams")) == ["net.init_params", "net.load_checkpoint"]


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) \
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _functions(tree, module: str):
    """(module.function or module.Class.method, node) for each top-level
    function and method; a nested function counts as the one around it."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{module}.{top.name}.{fn.name}", fn) for fn in top.body
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{top.name}", top


def test_batches_gather_at_the_taps_one_function_names():
    # a model's layout (its taps, and its graph leaves with their .grad bound
    # to views of one vector) is built once, in ModelParams; forward has one
    # mode, with no gradient vector to bind; train and _predict gather their
    # batches at the model's params.taps
    layout, batches, forward_args = [], [], None
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            if name == "net.forward":
                forward_args = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
            for node in ast.walk(fn):
                binds = isinstance(node, ast.Assign) and path.stem != "tensor" \
                    and any(getattr(t, "attr", None) == "grad" for t in node.targets)
                if binds or _calls(node, "input_taps"):
                    layout.append(name)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "batch":
                    given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "taps"]
                    taps = ast.unparse(given[0]) if given else None
                    batches.append((name, taps))
    assert set(layout) == {"net.ModelParams.__init__"}
    assert forward_args is not None and "grad" not in forward_args
    assert batches == [("experiment._predict", "params.taps"),
                       ("training.train", "params.taps")]


def test_workers_are_forked_in_one_function():
    # the F0 workers and the fold workers are processes forked by one
    # function, from an explicit fork context; no module uses a thread or
    # queue, and only forked reaches for multiprocessing or ctypes
    imported, contexts = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported[path.stem] = {alias.name.split(".")[0] for node in ast.walk(tree)
                               if isinstance(node, ast.Import) for alias in node.names} \
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module}
        contexts += [[getattr(arg, "value", None) for arg in node.args]
                     for node in ast.walk(tree) if _calls(node, "get_context")]
    assert not set().union(*imported.values()) & {"threading", "queue", "concurrent", "_thread"}
    assert sorted(stem for stem, names in imported.items()
                  if names & {"ctypes", "multiprocessing"}) == ["forked"]
    starts = ("Process", "Pool", "ProcessPoolExecutor", "Popen", "fork", "get_context")
    assert sorted(set(callers(lambda f: getattr(f, "id", getattr(f, "attr", None))
                              in starts))) == ["forked.run_ranges"]
    assert contexts == [["fork"]]
