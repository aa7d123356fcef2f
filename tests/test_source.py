"""Source hygiene: every module-level import in the package is read, so
is every module-level private name, every keyword of a public function is
passed somewhere, and the oracle borrows no closed form."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stlsbb"


def unused_imports(source):
    """(line, name) of each name a top-level import binds that the module
    never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom . import a, b\nnp.sum(b.c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


# __init__ imports its public names to re-export them
@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


def unread_private_names(sources):
    """(module, line, name) of each module-level private name (a _name
    def, class or assignment) that no module of the package reads.

    sources maps module names to their text.  A module reads a name of
    its own by using it, and another module's by importing it by name or
    through an attribute such as kernels._QUIET.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    shared = set()  # names read across modules
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [(module, node.lineno, name) for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and name not in own and name not in shared]
    return sorted(found)


def test_unread_private_names_are_found():
    sources = {
        "a.py": "_USED = 1\n_TABLE = {}\n_x, _y = 1, 2\ndef _helper():\n    return _USED + _x\n"
                "class _Orphan:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _helper\nfrom . import c\nprint(_helper(), c._LIMIT)\n",
        "c.py": "_LIMIT = 3\n_seen: set = set()\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_TABLE"), ("a.py", 3, "_y"), ("a.py", 6, "_Orphan"), ("c.py", 2, "_seen"),
    ]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def package_imports(source):
    """(module, name) of each name a package module's source imports from
    a sibling module, with name None for the module itself."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                taken.add((node.module, alias.name) if node.module else (alias.name, None))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stlsbb"):
            module = node.module.partition(".")[2]
            for alias in node.names:
                taken.add((module, alias.name) if module else (alias.name, None))
        elif isinstance(node, ast.Import):
            taken.update((alias.name.partition(".")[2], None) for alias in node.names
                         if alias.name.startswith("stlsbb."))
    return taken


def test_package_imports_are_found():
    source = ("import math\nimport stlsbb.kernels\nfrom . import steps\n"
              "from .errors import A, B\nfrom stlsbb.steps import bb1\nfrom stlsbb import solver\n")
    assert package_imports(source) == {
        ("kernels", None), ("steps", None), ("errors", "A"), ("errors", "B"),
        ("steps", "bb1"), ("solver", None),
    }


def test_oracle_shares_only_input_checks():
    # the oracle checks the closed forms, so it borrows none: nothing from
    # kernels, and from steps only the checks of a gamma and a run state
    taken = package_imports((PACKAGE / "oracle.py").read_text())
    assert {(module, name) for module, name in taken if module in ("kernels", "steps")} <= {
        ("steps", "_gamma_value"), ("steps", "_run_state")}


def unpassed_keywords(sources, callers):
    """(module, function, parameter) of each parameter with a default, on
    a public function or a public method of a public class in sources,
    that no call in callers passes.

    sources and callers map module names to their text.  Calls match a
    definition by name alone: f(...), m.f(...) and obj.f(...) all count
    for every f.  A call passes a parameter by keyword, by position
    (after self or cls for a method), or through a * or ** splat, which
    passes every parameter it could reach.  A keyword given as a constant
    equal to the parameter's default constant passes nothing.
    """
    defaulted = []  # (module, function, parameter names, {defaulted name: default})
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs = [(d, 0 if any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                     for dec in d.decorator_list) else 1)
                        for d in node.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for d, skip in defs:
                if d.name.startswith("_"):
                    continue
                a = d.args
                positional = [p.arg for p in a.posonlyargs + a.args][skip:]
                named = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                named.update((p.arg, v) for p, v in zip(a.kwonlyargs, a.kw_defaults)
                             if v is not None)
                if named:
                    defaulted.append((module, d.name, positional, named))
    passed = {}  # function name -> parameters some call passes
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            got = passed.setdefault(name, set())
            for i, arg in enumerate(node.args):
                got.add(("*", i) if isinstance(arg, ast.Starred) else i)
            for k in node.keywords:
                if k.arg is None:
                    got.add("**")
                elif isinstance(k.value, ast.Constant):  # held against the default below
                    got.add(("=", k.arg, k.value.value))
                else:
                    got.add(k.arg)
    found = []
    for module, name, positional, named in defaulted:
        got = passed.get(name, set())
        marked = [g for g in got if isinstance(g, tuple)]
        starred = [g[1] for g in marked if g[0] == "*"]
        for p, default in named.items():
            i = positional.index(p) if p in positional else None
            same = default.value if isinstance(default, ast.Constant) else object()
            if not (p in got or "**" in got or i in got
                    or (i is not None and any(i >= j for j in starred))
                    or any(g[:2] == ("=", p) and g[2] != same for g in marked)):
                found.append((module, name, p))
    return sorted(found)


def test_unpassed_keywords_are_found():
    sources = {
        "a.py": "def f(x, y=1, *, z=2, w=3):\n    pass\ndef _g(x=1):\n    pass\n"
                "class C:\n    def m(self, a=1, b=2):\n        pass\n"
                "    @staticmethod\n    def s(a=1, b=2):\n        pass\n"
                "def h(p=1, q=2):\n    pass\ndef k(u=1, v=2, t=3):\n    pass\n"
                "def d(a=None, b=1, c=2, e=x):\n    pass\n",
    }
    callers = {
        "a.py": "f(0, z=5)\nc.m(1)\nC.s(1)\nkw = {}\nh(**kw)\nk(0, *rest)\n"
                "d(a=None, b=2, c=y, e=None)\nd(b=1)\n",
        "b.py": "import a\na.f(1, 2)\n",
    }
    # d's a is passed only as its own default; its e's default is no constant
    assert unpassed_keywords(sources, callers) == [
        ("a.py", "d", "a"), ("a.py", "f", "w"), ("a.py", "m", "b"), ("a.py", "s", "b"),
    ]


# keywords that tests pass on purpose, each with its reason
UNPASSED_BY_DESIGN = {
    # the mirror of next_steplength's ATC run state, which tests check ATC with
    ("oracle.py", "oracle_steplength", "index"),
    ("oracle.py", "oracle_steplength", "prev_alpha"),
    # tests audit hand-built traces against a config they give
    ("solver.py", "audit_trace", "config"),
    # tests start raw runs off other points, such as scaled starts
    ("quadratic.py", "solve_bb", "x0"),
}


def test_every_keyword_is_passed():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    perfbench = PACKAGE.parents[1] / "perfbench"
    callers = {**sources, **{f"perfbench/{p.name}": p.read_text()
                             for p in perfbench.glob("*.py")}}
    # an entry that some call has come to pass leaves the list too
    assert set(unpassed_keywords(sources, callers)) == UNPASSED_BY_DESIGN
