"""Source checks that read the package's syntax tree, not its behaviour."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ratmap").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of func's body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, function, name) for each non-underscore name a function assigns
    and neither it nor a function nested in it ever reads.  An augmented
    assignment reads its target; global and nonlocal names are not locals."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer = set()
        stores = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        found.extend((line, func.name, name) for name, line in stores.items()
                     if not name.startswith("_") and name not in read | outer)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_assigns_a_local_it_never_reads(path):
    assert unread_locals(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_an_unread_local():
    tree = ast.parse(
        "def f(xs):\n"
        "    kept = [x for x in xs]\n"
        "    dropped = len(xs)\n"
        "    total = 0\n"
        "    total += 1\n"
        "    def g():\n"
        "        nonlocal seen\n"
        "        seen = 1\n"
        "        inner = 2\n"
        "    seen = 0\n"
        "    def h():\n"
        "        return seen\n"
        "    return kept, total, g, h\n"
    )
    assert unread_locals(tree) == [(3, "f", "dropped"), (9, "g", "inner")]


def _module_privates(tree):
    """(line, name) for each module-level function, class or constant whose
    name has one leading underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def _loaded_names(tree):
    """Every name the tree reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unloaded_privates(modules):
    """(module, line, name) for each private module-level name of the
    modules, a dict of name to syntax tree, that none of them loads."""
    loaded = set().union(*map(_loaded_names, modules.values()))
    return sorted((module, line, name) for module, tree in modules.items()
                  for line, name in _module_privates(tree) if name not in loaded)


def test_every_private_module_level_name_is_loaded():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unloaded_privates(modules) == []


def test_the_check_finds_an_unloaded_private():
    modules = {
        "a": ast.parse(
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _left_over():\n"
            "    pass\n"
            "class _Shape:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b": ast.parse(
            "from .a import _Shape\n"
            "import a\n"
            "_TABLE = {}\n"
            "x = a._TABLE_OF_A\n"
        ),
    }
    assert unloaded_privates(modules) == [("a", 2, "_UNUSED"), ("a", 6, "_left_over"),
                                          ("b", 3, "_TABLE")]


def stale_exports(module):
    """Each name in the module's __all__ that the module does not define."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_exported_name_is_an_attribute_of_the_package():
    import ratmap

    assert stale_exports(ratmap) == []


def test_the_check_finds_a_stale_export():
    module = types.ModuleType("a")
    exec("from math import pi\n__all__ = ['pi', 'helper', 'tau']\ndef helper():\n    pass\n",
         module.__dict__)
    assert stale_exports(module) == ["tau"]


def scalar_internals(tree):
    """(line, name) for each import of fractions and each read of a
    GaussianRational triple attribute (_a, _b, _d) in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.partition(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr in ("_a", "_b", "_d"):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=[p.name for p in SOURCES if p.name != "scalars.py"])
def test_only_scalars_imports_fractions_or_reads_the_triple(path):
    assert scalar_internals(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_fractions_and_the_triple():
    tree = ast.parse(
        "import fractions as fr\n"
        "from fractions import Fraction\n"
        "from .scalars import GaussianRational\n"
        "def f(x):\n"
        "    return x._a + x._d, x.re, x._base\n"
        "x._b = 1\n"
    )
    assert scalar_internals(tree) == [(1, "fractions"), (2, "fractions"), (5, "_a"),
                                      (5, "_d"), (6, "_b")]


def float_literals(tree, names):
    """(line, function, value) for each float or complex literal in the
    functions of the tree named in names, nested code included."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name in names:
            found.extend((node.lineno, func.name, node.value) for node in ast.walk(func)
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, (float, complex)))
    return sorted(found)


def test_the_orbit_decisions_read_every_distance_from_the_capture_model():
    # orbit_fate and asymptotic_valency leave each landing, capture and stop
    # distance to PeriodicCycle's capture model, whose constants are the module's
    path = next(p for p in SOURCES if p.name == "dynamics.py")
    tree = ast.parse(path.read_text(), str(path))
    names = {"orbit_fate", "asymptotic_valency"}
    assert names <= {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert float_literals(tree, names) == []


def test_the_check_finds_a_float_literal():
    tree = ast.parse(
        "def orbit_fate(x):\n"
        "    def near(y):\n"
        "        return y < -1e-8\n"
        "    return near(x) or x == 2 or x.imag == 3j\n"
        "def other(x):\n"
        "    return x < 0.5\n"
    )
    assert float_literals(tree, {"orbit_fate"}) == [(3, "orbit_fate", 1e-8),
                                                    (4, "orbit_fate", 3j)]


def evaluate_reads(tree):
    """The line of each read of an attribute named evaluate in the tree: a
    call of it, or the method taken to be called later."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "evaluate")


ORBIT_READERS = ("restricted", "atlas", "synth", "primitive", "report", "render", "cli")


@pytest.mark.parametrize("name", ORBIT_READERS)
def test_the_layers_past_dynamics_step_no_orbit(name):
    # they read every forward image off a dynamics.Orbit walk or a cycle's points
    path = next(p for p in SOURCES if p.stem == name)
    assert evaluate_reads(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_an_evaluate_call():
    tree = ast.parse(
        "def f(r, x):\n"
        "    y = r.evaluate(x)\n"
        "    step = r.evaluate\n"
        "    return r.p.evaluate(y), step(y), r.evaluated(x), evaluate(x)\n"
    )
    assert evaluate_reads(tree) == [2, 3, 4]


MATRIX_BUILDERS = {"array_chordal", "chordal_matrix"}


def chordal_matrix_reads(tree):
    """The line of each read or import of a name or attribute in
    MATRIX_BUILDERS, the sphere's n x m matrices of chordal distances."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if names & MATRIX_BUILDERS:
            lines.append(node.lineno)
    return sorted(lines)


OUTSIDE_SPHERE = [p for p in SOURCES if p.stem != "sphere"]


@pytest.mark.parametrize("path", OUTSIDE_SPHERE, ids=[p.name for p in OUTSIDE_SPHERE])
def test_only_the_sphere_builds_a_chordal_matrix(path):
    # the seeds' distinct-starts and critical-value tests, the successors and
    # the valency lookups read their pairs from the sphere's near_row_pairs
    assert chordal_matrix_reads(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_an_array_chordal_call():
    tree = ast.parse(
        "from .sphere import array_chordal, near_rows\n"
        "def f(a, b):\n"
        "    d = array_chordal(a, b)\n"
        "    return sphere.array_chordal(a, b), d, array_chordal_rows(a)\n"
        "def g(ps):\n"
        "    return chordal_matrix(ps, ps), sphere.chordal_matrix\n"
    )
    assert chordal_matrix_reads(tree) == [1, 3, 4, 6, 6]


WINDOW_SEARCHES = {"searchsorted", "lexsort"}


def window_searches(tree):
    """(line, function, name) for each read or import of a name or attribute
    in WINDOW_SEARCHES, the sort-and-window steps of a key screen and of a
    nearest match, with the innermost function it is read in ("" at module
    level)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                names = {alias.name for alias in child.names}
            else:
                names = {getattr(child, "id", None), getattr(child, "attr", None)}
            found.extend((child.lineno, func, name) for name in names & WINDOW_SEARCHES)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_the_sphere_holds_the_one_key_screen_and_the_one_nearest_match(path):
    tree = ast.parse(path.read_text(), str(path))
    reads = {(func, name) for _, func, name in window_searches(tree)}
    if path.stem == "sphere":
        assert reads == {("near_row_pairs", "searchsorted"), ("nearest_rows", "lexsort")}
    else:
        assert reads == set()


def test_the_check_finds_a_window_search():
    tree = ast.parse(
        "from numpy import lexsort, sort\n"
        "def near_row_pairs(keys, q):\n"
        "    return np.searchsorted(keys, q)\n"
        "def f(keys, q):\n"
        "    def g():\n"
        "        return searchsorted(keys, q)\n"
        "    return g, np.lexsort((keys,)), keys.searchsorted, np.argsort(keys)\n"
        "order = np.lexsort((q,))\n"
    )
    assert window_searches(tree) == [(1, "", "lexsort"), (3, "near_row_pairs", "searchsorted"),
                                     (6, "g", "searchsorted"), (7, "f", "lexsort"),
                                     (7, "f", "searchsorted"), (8, "", "lexsort")]


TEST_SOURCES = sorted(Path(__file__).resolve().parent.glob("*.py"))
# the code in tests/ that calls run_analysis itself, with the reason it
# cannot read the session's report cache (conftest.analyzed)
FRESH_ANALYSES = {
    ("conftest.py", "ReportCache"): "the cache: one analysis per key and session",
    ("conftest.py", "_instrumented_pass"): "the shared pass: one probed analysis per map of a stream",
    ("test_acceptance.py", "test_criterion_1_chebyshev"): "times the analysis under 5 s",
    ("test_pipeline_corpus.py", "bounded"): "times each analysis under the 4 s bound",
    ("test_report.py", "test_report_determinism"): "two fresh analyses give the same bytes",
    ("test_report_cache.py", "test_two_reads_give_the_bytes_and_text_of_a_fresh_analysis"):
        "compares the cache with a fresh analysis",
    ("test_report.py", "test_an_overflowing_root_solve_is_silent_and_keeps_its_report"):
        "checks that the analysis itself warns nothing",
    ("test_errors.py", "test_a_walk_that_vanishes_leaks_no_runtime_warning"):
        "checks that the analysis itself warns nothing",
    ("test_errors.py", "test_a_failed_period_is_a_coded_warning"): "runs under a monkeypatch",
    ("test_report.py", "test_critical_fates_computed_once_per_critical_point"):
        "counts calls under a monkeypatch",
    ("test_report.py", "test_each_critical_orbit_is_walked_once"): "counts steps under a monkeypatch",
    ("test_report.py", "test_asymptotic_valency_only_reads_the_fate_walk"):
        "counts steps under a monkeypatch",
    ("test_report.py", "test_an_unresolved_walk_keeps_only_its_prefix"):
        "records fates under a monkeypatch",
    ("test_cycle_solver.py", "test_an_analysis_screens_only_the_sets_above_the_crossover"):
        "counts calls under a monkeypatch",
    ("test_cycle_solver.py", "test_an_analysis_walks_the_fixed_point_equation_at_most_30_times"):
        "counts calls under a monkeypatch",
    ("test_cycle_solver.py",
     "test_the_screened_cycle_search_gives_the_reports_of_the_matrices_at_cap_700"):
        "runs under the reference screens, against the cached report",
    ("test_restricted.py",
     "test_the_invariance_check_of_the_sparse_quintic_makes_one_aberth_call_per_level"):
        "counts calls under a monkeypatch",
}


def analysis_runners(tree):
    """The name of each top-level function or class of the tree that reads
    run_analysis, as a name or an attribute, in its body or in code nested
    in it; "" for module-level code.  An import is not a read."""
    found = set()
    for node in tree.body:
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if any(getattr(child, "id", None) == "run_analysis"
               or getattr(child, "attr", None) == "run_analysis" for child in ast.walk(node)):
            found.add(node.name if named else "")
    return sorted(found)


def test_only_the_named_tests_analyze_afresh():
    # every other test reads its reports from the session's cache
    found = {(path.name, name) for path in TEST_SOURCES
             for name in analysis_runners(ast.parse(path.read_text(), str(path)))}
    assert found == set(FRESH_ANALYSES)


def test_the_check_finds_each_reader_of_run_analysis():
    tree = ast.parse(
        "from ratmap.report import run_analysis\n"
        "import ratmap.report\n"
        "def test_fresh(r):\n"
        "    return run_analysis(r)\n"
        "def test_cached(analyzed, r):\n"
        "    return analyzed(r)\n"
        "@pytest.fixture\n"
        "def timed():\n"
        "    def run(r):\n"
        "        return ratmap.report.run_analysis(r)\n"
        "    return run\n"
        "class Cache:\n"
        "    def __call__(self, r):\n"
        "        return run_analysis(r)\n"
        "analyze = run_analysis\n"
    )
    assert analysis_runners(tree) == ["", "Cache", "test_fresh", "timed"]


def _dotted_name(node):
    """a.b.c for an attribute chain on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id] + attrs[::-1]) if isinstance(node, ast.Name) else None


def unread_imports(tree):
    """(line, name) for each name an import of the tree binds that the tree
    never reads: a name by a load of it, a dotted import (import a.b) by an
    attribute chain through it.  A __future__ import binds no name."""
    imported = [(node.lineno, alias.asname or alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names if alias.name != "*"]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(_dotted_name(node))
    return sorted((line, name) for line, name in imported if name not in read)


# the package's __init__ imports only to re-export
IMPORTERS = [p for p in SOURCES if p.name != "__init__.py"] + TEST_SOURCES


@pytest.mark.parametrize("path", IMPORTERS, ids=[f"{p.parent.name}/{p.name}" for p in IMPORTERS])
def test_every_imported_name_is_read(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_an_unread_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, cmath\n"
        "import numpy as np\n"
        "import ratmap.roots\n"
        "import ratmap.sphere\n"
        "from fractions import Fraction as F, gcd\n"
        "def f(x):\n"
        "    from .sphere import coincide\n"
        "    return math.pi * np.abs(x) + F(1), ratmap.sphere.INFINITY\n"
    )
    assert unread_imports(tree) == [(2, "cmath"), (4, "ratmap.roots"), (6, "gcd"),
                                    (8, "coincide")]
