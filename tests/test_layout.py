"""Layout guards on the package source."""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "g2kummer"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Definitions kept although nothing in src/ calls them, each with its reason.
UNCALLED_BY_DESIGN = {
    "curve.char2_normal_form": "the paper's characteristic-2 reduction (cases a/b/c), checked by tests as a claim",
    "curve.rational_weierstrass_points": "the paper's Weierstrass points, checked by tests as a claim",
    "ladder.xdbl_muls": "states the xdbl op-count model beside the code it describes",
    "ladder.xadd_muls": "states the xadd op-count model beside the code it describes",
    "corpus.write_corpus_files": "called by scripts/gen_corpus.py",
}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree):
    """(name, line, whether an attribute) of each name, attribute and
    imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def test_every_src_definition_has_a_src_caller():
    # __init__ only re-exports, so its imports are not callers
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    sites = {}
    for mod, tree in trees.items():
        for name, line, attribute in _references(tree):
            sites.setdefault((name, attribute), []).append((mod, line))
    uncalled = set()
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            cls, _, name = qualname.rpartition(".")
            # a method is reached only as ``.name``; a bare name of the same
            # spelling is a builtin, a local or another module's function
            callers = sites.get((name, True), []) + ([] if cls else sites.get((name, False), []))
            if all(other == mod and line in own for other, line in callers):
                uncalled.add(f"{mod}.{qualname}")
    extra, stale = uncalled - set(UNCALLED_BY_DESIGN), set(UNCALLED_BY_DESIGN) - uncalled
    assert not extra, f"no caller in src/: {', '.join(sorted(extra))}"
    assert not stale, f"allowlisted but gone or now called: {', '.join(sorted(stale))}"


def test_every_script_imports(monkeypatch):
    # importing runs a script's imports and definitions but not its main, so
    # a script that names something src/ no longer defines fails here
    monkeypatch.syspath_prepend(str(SCRIPTS))
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _unused_imports(tree):
    """Names a module imports but never reads (``from __future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__ imports only to re-export
    root = SRC.parent.parent
    paths = [p for d in (SRC, root / "tests", SCRIPTS) for p in sorted(d.glob("*.py")) if p.name != "__init__.py"]
    unused = [f"{p.relative_to(root)}:{line} {name}"
              for p in paths for line, name in _unused_imports(ast.parse(p.read_text()))]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_algebra_leaves_the_field_kinds_to_field():
    # the raw value formats and their kernels are the field classes' own
    tree = ast.parse((SRC / "algebra.py").read_text())
    kinds = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "kind"]
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "field"
               for alias in node.names if alias.name.startswith("_")]
    assert not kinds, f"algebra.py reads .kind at lines {kinds}"
    assert not private, f"algebra.py imports private field names {private}"
