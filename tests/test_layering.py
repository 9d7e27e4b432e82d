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
