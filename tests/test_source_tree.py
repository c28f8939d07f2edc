"""The source tree holds no test-only code: every top-level function and
class of ``src/chainrec`` and every method is referenced somewhere in
``src/``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chainrec"

# definitions that only readers outside src/ reach: perfbench reads the
# first two (ROADMAP item 2 drops both), and argparse calls the hook
EXEMPT = {"backend.numba_enabled", "evaluation.rank_items", "cli._Parser.error"}


def _definitions(module: str, tree: ast.Module):
    """module.name of every top-level function and class, and
    module.Class.name of every method but the dunders Python calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}"


def _references(tree: ast.Module) -> set:
    """Names read, attributes read, the source names of ``import ... as``
    whose alias is read, and the strings of ``__all__``."""
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            aliases.update({a.asname: a.name for a in node.names if a.asname})
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(e.value for e in node.value.elts)
    return names | {name for alias, name in aliases.items() if alias in names}


def unreferenced(src=SRC) -> set:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    return {d for module, tree in trees.items() for d in _definitions(module, tree)
            if d.rsplit(".", 1)[1] not in used}


def test_every_definition_is_referenced_in_src():
    # an exemption that gains a src/ caller, or whose definition goes,
    # leaves the list too
    assert unreferenced() == EXEMPT


def test_an_uncalled_function_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used as alias, stale\n"
        "__all__ = ['exported']\n\n"
        "def exported():\n    return alias()\n\n"
        "class Box:\n    def method(self):\n        return self.method\n\n"
        "    def __repr__(self):\n        return ''\n")
    (tmp_path / "b.py").write_text(
        "def used():\n    return Box\n\n"
        "def stale():\n    return 0\n\n"
        "def propagate_layers():\n    return 0\n")
    assert unreferenced(tmp_path) == {"b.stale", "b.propagate_layers"}
