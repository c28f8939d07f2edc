"""The source tree holds no test-only code: every top-level function and
class of ``src/chainrec`` and every method is referenced somewhere in
``src/``, and every parameter of theirs with a default is set by some call
in ``src/``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chainrec"

# definitions that only readers outside src/ reach: perfbench reads the
# first two, and perfbench/spans.py wraps the four retired weighting-encoder
# functions of contrastive by name (ROADMAP item 2 drops all six); argparse
# calls the hook
EXEMPT = {"backend.numba_enabled", "evaluation.rank_items", "cli._Parser.error",
          "contrastive.chain_knowledge", "contrastive.relation_knowledge",
          "contrastive.encode_weight", "contrastive.normalize_weights"}

# defaulted parameters that only readers outside src/ set: the console
# script calls main() and the tests pass argv, and perfbench sets the other
# three (ROADMAP item 2 drops them)
EXEMPT_PARAMS = {"cli.main.argv", "evaluation.rank_items.exclude",
                 "patterns.propagate_global_factored.mode",
                 "training.TripleSampler.__init__.neg_cap"}


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


def _trees(src) -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py"))}


def unreferenced(src=SRC) -> set:
    trees = _trees(src)
    used = set().union(*map(_references, trees.values()))
    return {d for module, tree in trees.items() for d in _definitions(module, tree)
            if d.rsplit(".", 1)[1] not in used}


def _callables(module: str, tree: ast.Module):
    """(module.name, the name a call uses, the leading parameters a call
    does not pass: ``self`` or ``cls``, the node) of every function and
    method that :func:`_definitions` walks, and of every ``__init__``,
    which a call to its class reaches."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, 0, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and (sub.name == "__init__" or not (
                        sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield (f"{module}.{node.name}.{sub.name}",
                           node.name if sub.name == "__init__" else sub.name, 1, sub)


def _calls(tree: ast.Module):
    """(the name called, its positional arguments, its keyword names) of
    every call, with an ``import ... as`` alias read as its source name; a
    ``*args`` among the positional arguments or a ``**kwargs`` (None) among
    the keywords may set any parameter."""
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield aliases.get(name, name), node.args, {k.arg for k in node.keywords}


def unreferenced_params(src=SRC) -> set:
    """module.name.parameter of every parameter with a default that no call
    in ``src`` passes, by keyword, by position or through ``*args`` or
    ``**kwargs``."""
    trees = _trees(src)
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unset = set()
    for module, tree in trees.items():
        for qualname, name, skip, fn in _callables(module, tree):
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = (positional[len(positional) - len(a.defaults):]
                         + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])
            passed = set()
            for callee, args, keywords in calls:
                if callee != name:
                    continue
                if None in keywords or any(isinstance(x, ast.Starred) for x in args):
                    passed.update(defaulted)
                passed.update(positional[skip:skip + len(args)], keywords)
            unset.update(f"{qualname}.{p}" for p in defaulted if p not in passed)
    return unset


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


def test_every_defaulted_parameter_is_set_in_src():
    # an exempt parameter that gains a src/ caller, or that goes, leaves
    # the list too
    assert unreferenced_params() == EXEMPT_PARAMS


def test_an_unset_default_is_found(tmp_path):
    # set: flag by keyword, factor by position through an alias, size by
    # position in a class call, default by position past self, tail
    # through *args and loose's two through **kwargs
    (tmp_path / "a.py").write_text(
        "from .b import scale as rescale\n\n"
        "def run(x, flag=False, *, stale=None):\n"
        "    return rescale(x, 2.0) + Box(x, 3).get(x, 1)\n\n"
        "class Box:\n"
        "    def __init__(self, x, size=1, fill=0):\n        self.x = x\n\n"
        "    def get(self, x, default=None):\n        return run(x, flag=True)\n")
    (tmp_path / "b.py").write_text(
        "def scale(x, factor=1.0, unused=None):\n    return x * factor\n\n"
        "def plain(x, tail=0):\n    return x\n\n"
        "def loose(x, mode='a', extra=0):\n    return x\n\n"
        "def spread(*args, **kwargs):\n"
        "    return plain(*args) + loose(0, **kwargs)\n")
    assert unreferenced_params(tmp_path) == {
        "a.run.stale", "a.Box.__init__.fill", "b.scale.unused"}
