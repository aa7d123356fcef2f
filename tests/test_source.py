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


def numbers_cast_by_hand(source):
    """(function, argument) of each int() or float() call on a parameter
    of the function (or lambda) it is in, and in a __post_init__ of each
    such call on a self.field."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        name = getattr(fn, "name", "<lambda>")
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("int", "float") and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Name) and arg.id in params:
                found.add((name, arg.id))
            elif (name == "__post_init__" and isinstance(arg, ast.Attribute)
                  and isinstance(arg.value, ast.Name) and arg.value.id == "self"):
                found.add((name, f"self.{arg.attr}"))
    return sorted(found)


def test_numbers_cast_by_hand_are_found():
    source = ("def f(a, b, *, c):\n    x = int(a) + float(c)\n    return float(x) + int(b.k)\n"
              "class C:\n    def __post_init__(self):\n        self.n = int(self.n)\n"
              "    def m(self):\n        return float(self.n)\n"
              "g = lambda v: float(v)\n")
    assert numbers_cast_by_hand(source) == [
        ("<lambda>", "v"), ("__post_init__", "self.n"), ("f", "a"), ("f", "c")]


# int() and float() calls on an argument that stay, each with its reason
CAST_BY_DESIGN = {
    # an argparse type: a bad value is a usage error (exit 1), which
    # argparse makes of the ValueError
    ("cli.py", "_parse_seeds", "text"),
    # the writers' float formatting, of values already checked
    ("harness.py", "fmt17", "x"),
    # the oracle verifies closed forms on the scalars it is given
    ("oracle.py", "family_switch_gamma", "alpha"),
    ("oracle.py", "stls_ratio", "alpha"),
}


def test_numbers_are_read_through_the_checks():
    # outside errors.py, an argument becomes a number through errors.real,
    # inside or count, which name it in an InvalidParameterError; int()
    # truncates 2.5 to 2 and float() raises bare errors
    found = {(p.name, *cast) for p in PACKAGE.glob("*.py") if p.name != "errors.py"
             for cast in numbers_cast_by_hand(p.read_text())}
    assert found == CAST_BY_DESIGN


def vectors_copied_by_hand(source):
    """Qualified name (Class.function, or <module>) of the innermost
    class or function around each np.array(..., copy=True) call."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "array" and isinstance(child.func.value, ast.Name)
                  and child.func.value.id in ("np", "numpy")
                  and any(k.arg == "copy" and isinstance(k.value, ast.Constant)
                          and k.value.value is True for k in child.keywords)):
                found.append(where)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_vectors_copied_by_hand_are_found():
    source = ("import numpy as np\nA = np.array([1.0], copy=True)\n"
              "class C:\n    def __post_init__(self):\n"
              "        self.v = np.array(self.v, dtype=float, copy=True).reshape(-1)\n"
              "def f(x):\n    def g():\n        return numpy.array(x, copy=True)\n"
              "    return np.array(x, copy=False), np.asarray(x), g()\n")
    assert vectors_copied_by_hand(source) == ["<module>", "C.__post_init__", "f.g"]


# np.array(..., copy=True) calls that stay, each with its reason
COPIED_BY_DESIGN = {
    # a profile's 2-D ratio matrix, which is no vector
    ("harness.py", "ProfileTable.__post_init__"),
}


def test_vectors_are_read_through_the_check():
    # outside errors.py, a caller's vector becomes the package's copy
    # through errors.vector, which fixes its length, finiteness, dtype and
    # read-only flag in one place
    found = {(p.name, where) for p in PACKAGE.glob("*.py") if p.name != "errors.py"
             for where in vectors_copied_by_hand(p.read_text())}
    assert found == COPIED_BY_DESIGN


def scope_names(fn):
    """Names a function binds in its own scope: its parameters and each
    name it assigns, loops over, imports, catches or defines.  Nested
    functions, classes, lambdas and comprehensions bind in scopes of their
    own, so what they bind inside does not count."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names.update(p.arg for p in (a.vararg, a.kwarg) if p is not None)
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


def names_rebound_by_closure(source, outer, inner):
    """The names that the function inner, defined in the body of the
    function outer, binds in its own scope and outer binds too, sorted."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    fn = next(node for node in ast.walk(ast.parse(source))
              if isinstance(node, defs) and node.name == outer)
    closure = next(node for node in ast.walk(fn)
                   if isinstance(node, defs) and node.name == inner)
    return sorted(scope_names(closure) & scope_names(fn))


def test_names_rebound_by_a_closure_are_found():
    source = ("def bound(n):\n    u = 2.0**-53\n    k = n * u\n    ws = [w for w in range(n)]\n"
              "    def lower(x, n=n):\n        w = x * 2\n        t = [k for k in x]\n"
              "        def deeper():\n            k = 1\n            return k\n"
              "        for u in t:\n            pass\n        return w, deeper\n"
              "    return lower\n")
    # k only in a comprehension and in a nested function, w only in the
    # outer function's comprehension
    assert names_rebound_by_closure(source, "bound", "lower") == ["n", "u"]


def test_the_trial_bound_rebinds_none_of_its_constants():
    # the bound's closure reads the proof's constants (u, k1, k2, kq, ka,
    # kc, s, v_max, v1, b_norm, room0, e2_per_gg) from the function that
    # makes it; a local of the same name, such as u for a reflected
    # vector, would silently make every rounding term that reads it an
    # array
    source = (PACKAGE / "quadratic.py").read_text()
    assert names_rebound_by_closure(source, "_trial_lower_bounds", "lower_bounds") == []
