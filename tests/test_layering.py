"""The program never imports the benchmark: perfbench checks the program with
code of its own, so it stays a check only while `src/` cannot reach it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scei"
BENCHMARK_MODULES = {"perfbench", "checks", "workloads", "tracing"}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_never_imports_the_benchmark():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offending = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in modules
        for name in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] in BENCHMARK_MODULES
    ]
    assert offending == []


def test_the_guard_sees_every_import_form():
    tree = ast.parse(
        "import perfbench\nimport os, tracing.spans\nfrom checks import x\n"
        "from workloads.shapes import y\nfrom . import model\nfrom .harness import z\n"
    )
    names = list(imported_modules(tree))
    assert names == ["perfbench", "os", "tracing.spans", "checks", "workloads.shapes"]


# the pieces of contract.screen: the round loop reaches them only through it,
# so the loop and an auditor replaying a dump cannot screen differently
SCREEN_PARTS = {"fed_avg", "model_diffs", "detect_anomalies", "update_suspicions"}


def screen_parts_used(tree: ast.AST):
    """Every reference to a screen piece: as an attribute, a bare name or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SCREEN_PARTS:
            yield node.attr
        elif isinstance(node, ast.Name) and node.id in SCREEN_PARTS:
            yield node.id
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name in SCREEN_PARTS)


def test_harness_screens_only_through_contract_screen():
    path = SRC / "harness.py"
    assert sorted(screen_parts_used(ast.parse(path.read_text(), filename=str(path)))) == []


def test_the_screen_guard_sees_every_reference_form():
    tree = ast.parse(
        "contract.fed_avg(x)\nscei.contract.model_diffs(v, g)\n"
        "from .contract import detect_anomalies as find\nupdate_suspicions(s, r, t)\n"
        "contract.screen(u, s, t, n)\ncontract.robust_aggregate(u, f)\nfrom .contract import screen\n"
    )
    assert sorted(screen_parts_used(tree)) == sorted(SCREEN_PARTS)


# the coordinator's records: in harness.py, only its two steps write them, so
# the round loop and an auditor replaying a dump through the steps cannot
# decide differently; round 0's global is the one exception
COORDINATOR_KINDS = {"SUSPICION_SET", "EXPULSION", "GLOBAL_WEIGHTS", "ALPHA_DECISION"}
NODE_KINDS = {"LOCAL_WEIGHTS", "ACCURACY_LIST"}
COORDINATOR_STEPS = {"settle_uploads", "settle_alpha"}


def coordinator_writes(tree: ast.AST, function=None):
    """(enclosing function, kind) of every put or append call that may write a
    coordinator record: its kind names one, or is not spelled as a node kind."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from coordinator_writes(node, node.name)
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("put", "append"):
            kinds = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "kind"]
            for kind in kinds:
                name = getattr(kind, "attr", getattr(kind, "id", None))
                if name not in NODE_KINDS:
                    yield function, name if name in COORDINATOR_KINDS else "?"
        yield from coordinator_writes(node, function)


def test_only_the_coordinator_steps_write_coordinator_records():
    path = SRC / "harness.py"
    writes = set(coordinator_writes(ast.parse(path.read_text(), filename=str(path))))
    assert {(f, kind) for f, kind in writes if f not in COORDINATOR_STEPS} == {("_build_nodes", "GLOBAL_WEIGHTS")}
    assert {kind for f, kind in writes if f in COORDINATOR_STEPS} == COORDINATOR_KINDS


def test_the_round_loop_makes_no_coordinator_decision():
    path = SRC / "harness.py"
    [loop] = [f for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef) and f.name == "_run_rounds"]
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(loop)}
    assert names & ({"screen", "robust_aggregate", "negotiate_alpha"} | SCREEN_PARTS) == set()


def test_the_coordinator_write_guard_sees_every_reference_form():
    tree = ast.parse(
        "book.put(1, RecordKind.EXPULSION, n, None)\n"
        "def step():\n    book.put(1, ledger.RecordKind.SUSPICION_SET, None, f)\n"
        "    def inner():\n        book.append(1, K.ALPHA_DECISION, None, b'')\n"
        "    book.put(1, kind=GLOBAL_WEIGHTS, node_id=None, value=w)\n"
        "class Loop:\n    def run(self):\n        book.put(1, kind, None, w)\n        book.put(1, RecordKind(3), None, w)\n"
        "book.put(1, RecordKind.LOCAL_WEIGHTS, 0, w)\nbook.append(1, RecordKind.ACCURACY_LIST, 0, b'')\nrows.append(x)\n"
    )
    assert list(coordinator_writes(tree)) == [
        (None, "EXPULSION"),
        ("step", "SUSPICION_SET"),
        ("inner", "ALPHA_DECISION"),
        ("step", "GLOBAL_WEIGHTS"),
        ("run", "?"),
        ("run", "?"),
    ]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_reached(tree: ast.AST):
    """Every `_private` name of another scei module that this code imports, or
    reaches as an attribute of an imported scei module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "scei"):
            for alias in node.names:
                if _is_private(alias.name):
                    yield alias.name
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scei":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                yield node.attr


def test_no_module_reaches_another_modules_private_names():
    """A private name is its module's own business: the CLI and a future
    auditor call the public functions, so there is one way in to each."""
    offending = [
        f"{path.name}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in private_names_reached(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offending == []


def test_the_private_name_guard_sees_every_form():
    tree = ast.parse(
        "from .ledger import _walk, verify_dump_file\nfrom scei.ledger import _blob_reader as reader\n"
        "from . import ledger as ledger_mod, node\nimport scei.contract\nimport scei.model as model\n"
        "ledger_mod._file_reader(f)\nnode._TRAIN_TAG\nscei.contract._fence(x)\nmodel._cache.clear()\n"
        "self._frame_parts()\ncls._loaded(r)\nrecord._private\nscei.__version__\nledger_mod.__file__\n"
        "from .model import __doc__\nimport numpy as np\nnp._NoValue\n"
    )
    assert sorted(private_names_reached(tree)) == sorted(
        ["_walk", "_blob_reader", "_file_reader", "_TRAIN_TAG", "_fence", "_cache"]
    )


def codec_names(tree: ast.AST):
    """Every reference to a payload codec (encode_* or decode_*): as an
    attribute, a bare name or an import."""
    for node in ast.walk(tree):
        name = getattr(node, {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node), ""), "")
        if name.startswith(("encode_", "decode_")):
            yield name


def test_harness_puts_and_reads_values_only():
    """Each record kind's payload layout lives in the ledger: the round loop
    writes with Ledger.put and reads with Ledger.read, as an auditor would."""
    path = SRC / "harness.py"
    assert sorted(codec_names(ast.parse(path.read_text(), filename=str(path)))) == []


def test_the_codec_guard_sees_every_reference_form():
    tree = ast.parse(
        "ledger_mod.encode_params(w)\nfrom .ledger import decode_node_set\ndecode_accuracy_list(p)\n"
        "from scei.ledger import encode_alpha_decision as pack\nbook.put(1, kind, None, value)\nbook.read(1, kind)\n"
    )
    assert sorted(codec_names(tree)) == ["decode_accuracy_list", "decode_node_set", "encode_alpha_decision", "encode_params"]


REFERENCE_FIELDS = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name", ast.Constant: "value"}


def scoped_references(tree: ast.AST, names, scope=None):
    """(scope, name) of every reference to one of names: an attribute, a bare
    name, an imported name or a string. The scope is the enclosing def or
    class, dotted ("Trainers.train"), or None at module level; a plain
    import is scoped "<import>", and one renamed with `as` where it stands."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped_references(node, names, node.name if scope is None else f"{scope}.{node.name}")
            continue
        name = getattr(node, REFERENCE_FIELDS.get(type(node), ""), None)
        if name in names:
            yield "<import>" if isinstance(node, ast.alias) and node.asname is None else scope, name
        yield from scoped_references(node, names, scope)


def test_only_the_trainers_call_sgd_train():
    """A round trains along one path: Trainers.train trains the caller's
    share and _serve a trainer's, so local_round cannot train a second way."""
    path = SRC / "node.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(scoped_references(tree, {"sgd_train"}))) == [
        ("<import>", "sgd_train"),
        ("Trainers.train", "sgd_train"),
        ("_serve", "sgd_train"),
    ]


def test_the_second_training_path_is_gone():
    """local_round holds no closure, and nothing in the program names the
    callback, the train-length groups or a public release of the rows."""
    path = SRC / "node.py"
    [fn] = [f for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef) and f.name == "local_round"]
    assert [n for n in ast.walk(fn) if isinstance(n, (ast.FunctionDef, ast.Lambda))] == [fn]
    gone = {"train_own", "same_length", "release"}
    found = [
        (path.name, name)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in [getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)]
        if name in gone
    ]
    assert found == []


def test_the_sgd_train_guard_sees_every_reference_form():
    tree = ast.parse(
        "from .model import sgd_train\nfrom .model import sgd_train as fit\nmodel.sgd_train(s)\n"
        "class Trainers:\n    def train(self):\n        sgd_train(s)\n        def own():\n            sgd_train(s)\n"
        "    def close(self):\n        run = model.sgd_train\n"
        "def _serve():\n    getattr(model, 'sgd_train')(s)\n    from .model import sgd_train as fit\n"
        "def local_round():\n    lambda: sgd_train(s)\n    sgd_trainer(s)\n"
    )
    assert list(scoped_references(tree, {"sgd_train"})) == [
        ("<import>", "sgd_train"),
        (None, "sgd_train"),
        (None, "sgd_train"),
        ("Trainers.train", "sgd_train"),
        ("Trainers.train.own", "sgd_train"),
        ("Trainers.close", "sgd_train"),
        ("_serve", "sgd_train"),
        ("_serve", "sgd_train"),
        ("local_round", "sgd_train"),
    ]
