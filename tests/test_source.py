"""Static checks over the package source, with the stdlib `ast` only."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import cfinite

SRC = Path(cfinite.__file__).parent


def unused_imports(tree):
    """(line, name) of every imported name never read in the module.

    Names listed in a literal ``__all__`` count as read (re-exports);
    ``from __future__`` imports are directives, not bindings.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_checker_flags_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import xml.dom\n"
        "from math import gcd, lcm as least\n"
        "__all__ = ['gcd']\n"
        "print(xml.dom, osp)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (4, "least")]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: dead for name, dead in found.items() if dead} == {}


def module_definitions(tree, public=False):
    """(line, name) of every module-level private function or class (public
    ones too if public) and of every name bound by a module-level
    assignment, dunders aside."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if public or node.name.startswith("_"):
                found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (t.lineno, t.id)
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
    return [(line, name) for line, name in found if not name.startswith("__")]


def referenced_names(trees):
    """Every name read, imported or listed in a literal __all__ in the modules."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= set(ast.literal_eval(node.value))
    return names


def dead_helpers(trees):
    """{module: [(line, name)]} of the definitions no module refers to."""
    used = referenced_names(trees.values())
    found = {
        module: [d for d in module_definitions(tree) if d[1] not in used]
        for module, tree in trees.items()
    }
    return {module: dead for module, dead in found.items() if dead}


def test_checker_flags_dead_helpers():
    trees = {
        "a": ast.parse(
            "def _used(): pass\n"
            "def _dead(): pass\n"
            "class _Unused: pass\n"
            "def public(): return _used()\n"
            "def __getattr__(name): pass\n"
        ),
        "b": ast.parse(
            "from a import _imported\n"
            "import a\n"
            "def _via_attribute(): pass\n"
            "a._via_attribute()\n"
        ),
        "c": ast.parse("def _imported(): pass\n"),
    }
    assert dead_helpers(trees) == {"a": [(2, "_dead"), (3, "_Unused")]}


def test_checker_flags_dead_assignments():
    trees = {
        "a": ast.parse(
            "__all__ = ['EXPORTED']\n"
            "EXPORTED = 1\n"
            "DEAD = 2\n"
            "_LIMIT: int = 3\n"
            "_dead_too, read = 4, 5\n"
            "def public():\n"
            "    DEAD = 7\n"
            "    return _LIMIT + read\n"
        ),
        "b": ast.parse("import a\nUSED_ELSEWHERE = 6\nprint(a.USED_ELSEWHERE)\n"),
    }
    assert dead_helpers(trees) == {"a": [(3, "DEAD"), (5, "_dead_too")]}


def test_no_dead_helpers_in_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert dead_helpers(trees) == {}


def duplicated_private_names(trees):
    """{name: [modules]} of every private module-level name defined in more
    than one module: each helper has one home, and the others import it."""
    homes = {}
    for module, tree in trees.items():
        for _, name in module_definitions(tree):
            if name.startswith("_"):
                homes.setdefault(name, []).append(module)
    return {name: sorted(mods) for name, mods in homes.items() if len(set(mods)) > 1}


def test_checker_flags_duplicated_private_names():
    trees = {
        "a": ast.parse(
            "_LIMIT = 3\n"
            "def _helper(): pass\n"
            "def public(): pass\n"
            "class _Shared: pass\n"
        ),
        "b": ast.parse(
            "from a import _helper\n"
            "_LIMIT = 4\n"
            "def public(): pass\n"
            "def _own(): pass\n"
            "def __getattr__(name): pass\n"
        ),
        "c": ast.parse("class _Shared: pass\ndef __getattr__(name): pass\n"),
    }
    assert duplicated_private_names(trees) == {"_LIMIT": ["a", "b"], "_Shared": ["a", "c"]}


def test_no_duplicated_private_names_in_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert duplicated_private_names(trees) == {}


def calls_outside(tree, names, home):
    """(line, name) of every call to one of names, as f(...) or x.f(...),
    outside the module-level function home."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == home:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((call.lineno, name))
    return sorted(found)


def test_checker_flags_calls_outside_home():
    tree = ast.parse(
        "def _home(x):\n"
        "    return prove(x) + mod.prove(x)\n"
        "def route(x):\n"
        "    def inner():\n"
        "        return mod.prove(x)\n"
        "    return prove, _home(x), other(x)\n"
        "class C:\n"
        "    def _home(self):\n"
        "        return prove(self)\n"
        "y = prove(1)\n"
    )
    assert calls_outside(tree, {"prove"}, "_home") == [(5, "prove"), (9, "prove"), (10, "prove")]


# each step of the product test's and the factorisers' pipeline has one
# home: the front minimises and checks the orders, the back splits,
# normalises and proves, and the routes between them only propose
# recurrences; the package's one fit, the Berlekamp-Massey pass, runs
# under guess_rec alone
ONE_HOME = [
    ("factor.py", {"_split", "_normal_form", "prove_equal", "FactorPair"}, "_pair"),
    ("factor.py", {"minimize"}, "_minimal"),
    ("roots.py", {"minimize"}, "_minimal"),
    ("guess.py", {"_berlekamp_massey"}, "guess_rec"),
]


def test_pipeline_steps_run_only_in_their_home():
    found = {
        (module, home): calls_outside(ast.parse((SRC / module).read_text()), names, home)
        for module, names, home in ONE_HOME
    }
    assert {key: calls for key, calls in found.items() if calls} == {}


def strings_containing(tree, text):
    """(line, enclosing module-level function or None) of every string
    constant that contains text."""
    homes = {
        id(node): top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
    }
    return sorted(
        (node.lineno, homes.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
    )


def test_checker_finds_strings_and_their_function():
    tree = ast.parse(
        "x = 'a z = 0 b'\n"
        "def f():\n"
        "    '''z = 0'''\n"
        "    return 'no' + ('z = ' '0')\n"
    )
    assert strings_containing(tree, "z = 0") == [(1, None), (3, "f"), (4, "f")]


# the product test and both factorisers refuse a root z = 0 in one place,
# their front, roots._minimal
def test_zero_root_refused_only_by_the_front():
    text = "z = 0 is a characteristic root"
    found = [
        (path.name, home)
        for path in sorted(SRC.glob("*.py"))
        for _, home in strings_containing(ast.parse(path.read_text()), text)
    ]
    assert found == [("roots.py", "_minimal")]
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "_require_nonzero_roots" not in defined


# the factorisers propose recurrences exactly and call no guesser; the
# guess.mul that _pair's proof runs builds its recurrence and fits nothing
GUESSERS = {"guess_rec", "guess_nlr", "_berlekamp_massey", "_fit", "_close"}


def test_factorisers_call_no_guesser():
    tree = ast.parse((SRC / "factor.py").read_text())
    assert calls_outside(tree, GUESSERS, None) == []


# dimer_seq constructs its recurrence: Newton's identities on the power
# sums of the strip steps' Lucas elements, cancelled by the closure ops'
# engine; dimer_terms steps the same construction past its window, checked
# as _built checks it, and neither re-images nor encodes dimer_seq's answer
def test_dimers_call_no_guesser():
    tree = ast.parse((SRC / "dimers.py").read_text())
    assert calls_outside(tree, GUESSERS, None) == []
    assert {"_strip_steps", "_from_power_sums", "_built"} <= calls_reached(tree, "dimer_seq")
    terms = calls_reached(tree, "dimer_terms")
    assert {"_construction", "_check_built", "_step"} <= terms
    assert not {"dimer_seq", "eval_terms", "_built"} & terms


def direct_calls(tree, home):
    """Names of the calls made in the body of the module-level function
    home, one entry per call site."""
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == home]
    return [
        call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    ]


# the strip algebra is stepped once per call: one generator, of the width
# and weights alone, yields each step's count and Lucas elements, so there
# is no second pass started at G_0 = 2 and no argument that selects it; and
# dimer_terms makes its Fractions through core._over, the interleave's
# constant 0 aside, on both sides of its window
def test_strip_algebra_stepped_once():
    source = (SRC / "dimers.py").read_text()
    tree = ast.parse(source)
    assert re.findall(r"\b(?:_strip_counts|g0)\b", source) == []
    (steps,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_strip_steps"]
    args = steps.args
    assert [a.arg for a in args.args] == ["m", "weights"]
    assert not (args.defaults or args.kwonlyargs or args.vararg or args.kwarg)
    for home in ("_construction", "dimer_terms"):
        assert direct_calls(tree, home).count("_strip_steps") == 1, home
    assert direct_calls(tree, "dimer_seq").count("_strip_steps") == 0
    terms = direct_calls(tree, "dimer_terms")
    assert terms.count("_over") == 1
    (home,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "dimer_terms"]
    fractions = [
        call for call in ast.walk(home)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Fraction"
    ]
    assert all(isinstance(a, ast.Constant) for call in fractions for a in call.args)
    assert not [n for n in ast.walk(home) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)]


def test_checker_lists_direct_calls():
    tree = ast.parse(
        "def f():\n"
        "    g(h(1))\n"
        "    m.g()\n"
        "def h(x): return k()\n"
    )
    assert sorted(direct_calls(tree, "f")) == ["g", "g", "h"]
    assert direct_calls(tree, "h") == ["k"]


def calls_reached(tree, home):
    """Names of every call made by the module-level function home and by
    the module-level functions it reaches through calls."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo, names = set(), [home], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for call in ast.walk(defs[name]):
            if isinstance(call, ast.Call):
                func = call.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                names.add(called)
                todo.append(called)
    return names


# the strip report reads its split off Kasteleyn's product: dimers.py takes
# no name from the product test, and the report reaches no ratio polynomial
RATIO_PROFILE = {"is_prod_g", "_ratio_poly", "_ratio_quotient"}


def names_from_module(tree, module):
    """(line, name) of every name the tree takes from the sibling module:
    from-imports of it or of its names, and attribute reads module.x."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module == module:
                found += [(node.lineno, a.name) for a in node.names]
            elif node.module is None:
                found += [(node.lineno, a.name) for a in node.names if a.name == module]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_checker_flags_names_from_a_module():
    tree = ast.parse(
        "from . import guess, roots as r\n"
        "from .roots import is_prod_g\n"
        "from .core import roots\n"
        "def f(s):\n"
        "    return roots.prod_indicator(s), guess.mul(s, s)\n"
    )
    assert names_from_module(tree, "roots") == [
        (1, "roots"), (2, "is_prod_g"), (5, "prod_indicator")
    ]


def test_strip_report_measures_no_ratio_profile():
    tree = ast.parse((SRC / "dimers.py").read_text())
    assert names_from_module(tree, "roots") == []
    assert not RATIO_PROFILE & calls_reached(tree, "dimer_product_report")
    assert "dimer_seq" in calls_reached(tree, "dimer_product_report")


def test_checker_follows_calls_within_the_module():
    tree = ast.parse(
        "def home(x):\n"
        "    return _step(x) + len(x)\n"
        "def _step(x):\n"
        "    return mod.deep(x)\n"
        "def unrelated():\n"
        "    return mul(1, 2)\n"
    )
    assert calls_reached(tree, "home") == {"_step", "len", "deep"}


# the closure ops build their recurrences from the operands' integer
# recurrences (one image each, stepped by _step), by power sums or an
# integer polynomial kernel, and cancel with minimize's lowest-terms
# helper; nothing on the way fits, rebuilds an image, builds a term list
# of Fractions or clears denominators
CLOSURE_OPS = ("add", "mul", "binomial_transform", "partial_sums", "subsequence")
CLOSURE_KERNELS = {"_from_power_sums", "int_poly_mul", "_taylor_shift"}
CLOSURES_AVOID = {
    "_fit", "_close", "_berlekamp_massey", "eval_terms", "guess_rec", "_clear_denominators",
    "_image",
}


def test_closure_ops_build_on_integer_images():
    tree = ast.parse((SRC / "guess.py").read_text())
    reached = {op: calls_reached(tree, op) for op in CLOSURE_OPS}
    assert all(
        {"_integer_image", "_step", "_lowest_terms"} <= names and names & CLOSURE_KERNELS
        for names in reached.values()
    )
    assert {op: names & CLOSURES_AVOID for op, names in reached.items()} == {
        op: set() for op in CLOSURE_OPS
    }


# one encoder: the closure ops, dimer_seq and minimize put their integer
# images' recurrences in lowest terms on integers (_lowest_terms, which
# makes no Fraction) and turn the image into a CFiniteSeq in core._encoding
# alone; none of the builders makes a CFiniteSeq itself
ENCODER_MODULES = ("core.py", "guess.py", "dimers.py")
ENCODER_AVOIDS = {"CFiniteSeq", "Fraction"}


def test_one_encoder_for_integer_images():
    trees = {name: ast.parse((SRC / name).read_text()) for name in ENCODER_MODULES}
    reached = {op: calls_reached(trees["guess.py"], op) for op in (*CLOSURE_OPS, "_built")}
    reached["dimer_seq"] = calls_reached(trees["dimers.py"], "dimer_seq")
    assert "_built" in reached["dimer_seq"]
    assert all("_encoding" in names for op, names in reached.items() if op != "dimer_seq")
    assert {op: names & {"CFiniteSeq"} for op, names in reached.items()} == {
        op: set() for op in reached
    }
    assert {"_lowest_terms", "_encoding"} <= calls_reached(trees["core.py"], "minimize")
    assert calls_reached(trees["core.py"], "_lowest_terms") & ENCODER_AVOIDS == set()
    assert "CFiniteSeq" in calls_reached(trees["core.py"], "_encoding")


# the identity check is one computation in Z[params]: no closure by
# guessing, no point evaluation and no generating-function expansion
IDENTITY_CHECK_AVOIDS = {"mul", "guess_rec", "_close", "taylor", "eval_terms"}


def test_identity_check_runs_no_closure_or_expansion():
    tree = ast.parse((SRC / "guess.py").read_text())
    reached = calls_reached(tree, "verify_parametric_identity")
    assert "mpoly_dot" in reached
    assert reached & IDENTITY_CHECK_AVOIDS == set()


def test_one_elimination_engine():
    # rref is called only by linalg's solve and nullspace: a call outside
    # both homes shows up in both lists
    linalg = ast.parse((SRC / "linalg.py").read_text())
    in_solve = calls_outside(linalg, {"rref"}, "nullspace")
    in_nullspace = calls_outside(linalg, {"rref"}, "solve")
    assert in_solve and in_nullspace
    assert set(in_solve) & set(in_nullspace) == set()
    elsewhere = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        and (calls := calls_outside(ast.parse(path.read_text()), {"rref"}, None))
    }
    assert elsewhere == {}


def test_one_denominator_clearing_helper():
    # lcm is called only in core._clear_denominators, and there it is
    core = ast.parse((SRC / "core.py").read_text())
    assert calls_outside(core, {"lcm"}, None)
    elsewhere = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := calls_outside(ast.parse(path.read_text()), {"lcm"}, "_clear_denominators"))
    }
    assert elsewhere == {}


# one gcd engine over Z: int_poly_gcd evaluates at a power of two and runs
# no Euclid mod p; _gcd_mod serves only factor.py's root grid over Z/p
def test_one_polynomial_gcd_engine():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "_gcd_mod" not in calls_reached(trees["core.py"], "int_poly_gcd")
    # _gcd_mod is called only in factor's _split_prime and _roots_mod: a
    # call outside both shows up in both lists
    in_split = calls_outside(trees["factor.py"], {"_gcd_mod"}, "_roots_mod")
    in_roots = calls_outside(trees["factor.py"], {"_gcd_mod"}, "_split_prime")
    assert in_split and in_roots
    assert set(in_split) & set(in_roots) == set()
    elsewhere = {
        module: calls
        for module, tree in trees.items()
        if module != "factor.py" and (calls := calls_outside(tree, {"_gcd_mod"}, None))
    }
    assert elsewhere == {}


# one strip-count engine: every count is a norm in Z[Y]/Q'_m (dimers._norm),
# Q'_m being Q_m with its root 0 divided out for odd m, read through one
# cached record per width (dimers._algebra), the only place the Chebyshev
# factors are built; the transfer matrix lives in the test oracles only
def test_one_strip_count_engine():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for home in ("dimer_terms", "dimer_seq", "kasteleyn_count"):
        reached = calls_reached(trees["dimers.py"], home)
        assert {"_norm", "_algebra"} <= reached, home
    # every norm is one determinant, and the per-width record holds no power
    # sums: (w, cols, g)
    assert "_det" in calls_reached(trees["dimers.py"], "_norm")
    assert names_taken(trees["dimers.py"], {"_mulmod", "_power_sums"}) == []
    defs = [
        node for node in trees["dimers.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_algebra"
    ]
    assert len(defs) == 1 and len(defs[0].args.args) == 1
    returns = [node.value for node in ast.walk(defs[0]) if isinstance(node, ast.Return)]
    assert len(returns) == 1 and isinstance(returns[0], ast.Tuple) and len(returns[0].elts) == 3
    assert {module: found for module, tree in trees.items()
            if (found := calls_outside(tree, {"_chebyshev_q"}, "_algebra"))} == {}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("_transitions", "_counts")
    }
    assert defined == set()


# no module uses floating point: the root grid runs over Z/p^N
MPMATH_MODULES = set()


def imported_modules(tree):
    """Top-level names of every module the tree imports, relative ones skipped."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# the integer functions of math the package uses; the floating ones
# (log2, sqrt, floor, ...) stay out with floating point itself
MATH_ALLOWED = {"comb", "factorial", "gcd", "isqrt", "lcm", "prod"}


def math_names(tree):
    """Every name the tree takes from math: ``from math import x`` and
    ``math.x`` after ``import math``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            names.add(node.attr)
    return names


def test_checker_finds_math_names():
    tree = ast.parse("from math import gcd, log2 as lg\nimport math\nmath.sqrt(2)\n")
    assert math_names(tree) == {"gcd", "log2", "sqrt"}


def test_package_takes_only_integer_functions_from_math():
    used = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := math_names(ast.parse(path.read_text())) - MATH_ALLOWED)
    }
    assert used == {}


def test_checker_finds_imported_modules():
    tree = ast.parse(
        "import os.path, random as r\n"
        "from mpmath.libmp import mpf\n"
        "from . import mpmath\n"
        "def f():\n"
        "    import json\n"
    )
    assert imported_modules(tree) == {"os", "random", "mpmath", "json"}


def test_mpmath_only_where_floating_point_is_allowed():
    users = {
        path.name
        for path in SRC.glob("*.py")
        if "mpmath" in imported_modules(ast.parse(path.read_text()))
    }
    assert users <= MPMATH_MODULES


def relative_imports(tree):
    """(line, target) of every relative import in the tree, nested ones too:
    ``from . import x`` has the target ".", ``from .guess import y`` ".guess"."""
    return sorted(
        (node.lineno, "." * node.level + (node.module or ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    )


def test_checker_flags_relative_imports():
    tree = ast.parse(
        "from . import linalg\n"
        "from fractions import Fraction\n"
        "import cfinite.guess\n"
        "def f():\n"
        "    from .guess import _close\n"
        "    from ..pkg import x\n"
    )
    assert relative_imports(tree) == [(1, "."), (5, ".guess"), (6, "..pkg")]


def test_core_imports_no_other_package_module():
    # core is the foundation the other modules import; importing one of
    # them back, even lazily inside a function, would make a cycle
    tree = ast.parse((SRC / "core.py").read_text())
    assert relative_imports(tree) == []
    assert "cfinite" not in imported_modules(tree)


def test_package_import_leaves_mpmath_unloaded():
    # no module needs floating point, so a fresh interpreter that imports
    # the package and its CLI does not load mpmath
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, cfinite, cfinite.cli; print('mpmath' in sys.modules)"
    got = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (got.returncode, got.stdout.strip()) == (0, "False"), got.stderr


# what `import cfinite, cfinite.cli` must not load: each CLI request is a
# fresh process, so these would be start-up time; `json` comes in only
# with --json
UNLOADED_AT_START_UP = ("dataclasses", "inspect", "typing", "string", "json", "mpmath")


def test_start_up_leaves_unneeded_modules_unloaded():
    # -S skips site, whose .pth files may import typing on their own;
    # -W error turns an import-time warning into a failure
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, cfinite, cfinite.cli\n"
        f"print([m for m in {UNLOADED_AT_START_UP!r} if m in sys.modules])\n"
        "code = cfinite.cli.main(['--json', 'guess', '0,1,1,2,3,5,8,13'])\n"
        "print(code, 'json' in sys.modules)"
    )
    got = subprocess.run(
        [sys.executable, "-W", "error", "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == [
        "[]",
        '{"init": ["0", "1"], "rec": ["1", "1"]}',
        "0 True",
    ]


def test_no_package_module_imports_dataclasses_or_typing():
    # the result types are named tuples and annotations are strings, so
    # neither module is needed
    for path in SRC.glob("*.py"):
        found = imported_modules(ast.parse(path.read_text())) & {"dataclasses", "typing"}
        assert not found, (path.name, found)


def _mpmath_loaded_after(code):
    """Whether a fresh interpreter that imports cfinite and runs code loads mpmath."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-c", f"import sys, cfinite\n{code}\nprint('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert got.returncode == 0, got.stderr
    return got.stdout.strip() == "True"


def test_exact_order_2_route_leaves_mpmath_unloaded():
    # the exact order-2 route of factorize_roots finds Fib * Pell without
    # the root grid, so mpmath stays unloaded
    assert not _mpmath_loaded_after(
        "from cfinite import corpus, factor, guess\n"
        "fib, pell = corpus.lookup('fibonacci'), corpus.lookup('pell')\n"
        "assert factor.factorize_roots(guess.mul(fib, pell), 2, 2).certificate.verified"
    )
    # and so does every other route: the root grid over Z/p^N and the
    # integer search
    assert not _mpmath_loaded_after(
        "from cfinite import factor\n"
        "from cfinite.core import CFiniteSeq\n"
        "assert factor.factorize_roots(CFiniteSeq([1, 2, 3], [6, -11, 6]), 3, 1)\n"
        "assert factor.factorize_integer(CFiniteSeq([0, 1, 2, 10], [2, 7, 2, -1]), 2, 2, 2)"
    )


# the product test, the factorisers and Kasteleyn's resultant work on
# integer polynomials (int_poly_gcd, _mulmod); the Fraction Polynomial and
# its gcd stay out of them
INTEGER_POLY_MODULES = ["roots.py", "factor.py", "dimers.py"]
FRACTION_POLY_NAMES = {"Polynomial", "poly_gcd"}


def names_taken(tree, names):
    """(line, name) of every from-import of one of names, aliased or not,
    and of every attribute read x.name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_checker_flags_fraction_polynomial_names():
    tree = ast.parse(
        "from .core import CFiniteSeq, Polynomial as P, int_poly_gcd\n"
        "from . import core\n"
        "def f(a, b):\n"
        "    return core.poly_gcd(a, b), P(a), int_poly_gcd(a, b)\n"
    )
    assert names_taken(tree, FRACTION_POLY_NAMES) == [(1, "Polynomial"), (4, "poly_gcd")]


def test_integer_modules_leave_the_fraction_polynomial_alone():
    found = {
        module: names_taken(ast.parse((SRC / module).read_text()), FRACTION_POLY_NAMES)
        for module in INTEGER_POLY_MODULES
    }
    assert {module: names for module, names in found.items() if names} == {}


# every integer polynomial kernel has one home, core.py; the product test,
# the factorisers and the resultant import them from there
INTEGER_KERNELS = {
    "int_poly_gcd", "int_poly_quo", "_gcd_mod", "_mulmod", "_shiftmod", "_zpow",
    "_primitive", "_derivative", "_sub", "_power_sums", "_from_power_sums",
    "_square_free", "int_poly_mul", "_taylor_shift", "_lowest_terms", "_det",
}
# factor.py takes only the product test's front from roots.py
ROOTS_FRONT = {
    "PrecisionError", "_minimal", "_ratio_quotient", "_require_simple_roots",
}


def defined_outside(trees, names, home):
    """{module: [(line, name)]} of the names that a module other than home
    defines at module level."""
    found = {
        module: [d for d in module_definitions(tree, public=True) if d[1] in names]
        for module, tree in trees.items()
        if module != home
    }
    return {module: defs for module, defs in found.items() if defs}


def test_checker_flags_kernels_defined_outside_home():
    trees = {
        "core.py": ast.parse("def _sub(f, g): pass\ndef int_poly_gcd(a, b): pass\n"),
        "roots.py": ast.parse(
            "from .core import _sub\n"
            "def _derivative(f): pass\n"
            "_zpow = lambda n, w: None\n"
            "def route(f):\n"
            "    def _sub(f, g): pass\n"
        ),
        "factor.py": ast.parse("from .core import int_poly_gcd\nint_poly_gcd([1], [1])\n"),
    }
    assert defined_outside(trees, INTEGER_KERNELS, "core.py") == {
        "roots.py": [(2, "_derivative"), (3, "_zpow")]
    }


def test_integer_kernels_live_in_core():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert defined_outside(trees, INTEGER_KERNELS, "core.py") == {}
    in_core = {name for _, name in module_definitions(trees["core.py"], public=True)}
    assert INTEGER_KERNELS <= in_core
    from_roots = {
        alias.name
        for node in ast.walk(trees["factor.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "roots"
        for alias in node.names
    }
    assert from_roots == ROOTS_FRONT


# Polynomial is a value type: the package computes on integer lists and
# never reaches one of these operators (the only ones it has)
POLY_OPERATORS = ["__add__", "__mul__", "__divmod__"]


def test_package_runs_no_polynomial_arithmetic(monkeypatch, capsys):
    from cfinite import corpus, gf
    from cfinite.cli import main
    from cfinite.core import CFiniteSeq, Polynomial
    from cfinite.dimers import kasteleyn_count
    from cfinite.guess import verify_parametric_identity

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic ran inside the package")

    for name in POLY_OPERATORS:
        monkeypatch.setattr(Polynomial, name, refuse)
    assert str(gf.parse_gf("(1 - z^2)/(1 - z)")) == "(1 + z)/(1)"
    # 2^n at order 2: the GF normal form cancels 1 - z
    assert gf.r_to_c(gf.c_to_r(CFiniteSeq([1, 2], [3, -2]))) == CFiniteSeq([1], [2])
    assert kasteleyn_count(8, 8) == 12988816
    cert = verify_parametric_identity(corpus.shapiro_product_lhs, corpus.shapiro_product_gf)
    assert cert.verified
    assert main(["gf", "(2 - 2*z)/(2 - 6*z + 4*z^2)"]) == 0
    assert capsys.readouterr().out.strip() == "[[1], [2]]"
