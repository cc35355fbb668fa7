"""Source hygiene checks that need no linter: every name a module imports
is used somewhere in that module, every private module-level function or
class is referenced somewhere in the package, the samplers call no
division-based linear algebra and draw only through ``getrandbits``, every
public linear-algebra routine but the benchmarked ``inverse`` has a caller,
no sum of polynomials is folded by hand, no pass/fail record besides the one
verdict type serializes itself, only polynomials and complex pairs
multiply, only the one sample stream spells its seed formula, the map
builders never read a map's polynomials, the stages of a map's values stay
on integers, and no ``isinstance`` tests against a ``typing`` alias."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "regmaps").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]  # the package re-exports its imports


def _annotation_names(node: ast.AST):
    """Names inside string annotations, which the parser leaves as constants."""
    annotations = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotations.append(node.returns)
    elif isinstance(node, ast.arg):
        annotations.append(node.annotation)
    elif isinstance(node, ast.AnnAssign):
        annotations.append(node.annotation)
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            for inner in ast.walk(ast.parse(annotation.value, mode="eval")):
                if isinstance(inner, ast.Name):
                    yield inner.id


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(_annotation_names(node))
    return [(line, name) for line, name in imported if name not in used]


def test_the_checker_finds_an_unused_import():
    source = "from typing import List, Optional\nimport json\nx: Optional[int] = None\n"
    assert unused_imports(source) == [(1, "List"), (2, "json")]


def test_the_checker_reads_string_annotations():
    assert unused_imports("from typing import List\ndef f(x: 'List[int]'): pass\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_definitions(sources):
    """(module, name) of each module-level ``_private`` function or class that
    no source in ``sources`` (a mapping module -> text) reads by name or
    attribute."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [(module, name) for module, name in defined if name not in referenced]


def test_the_checker_finds_an_unreferenced_private_helper():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef public(): pass\n",
        "b": "from . import a\na._used()\n",
    }
    assert unreferenced_private_definitions(sources) == [("a", "_dead"), ("a", "_Gone")]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


# The division-based routines of ``linalg``.  The samplers in ``varieties``
# stay on integers: a Cayley transform is one fraction-free solve, and the
# SU(k) correction one fraction-free determinant over the Gaussian integers.
DIVISION_BASED = {"solve", "inverse", "row_echelon", "rank", "nullspace_basis"}


def linalg_calls(source: str, names, local: bool = False):
    """(line, name) of each call of a ``linalg`` routine in ``names``:
    ``linalg.<name>(...)``, reported so, or ``<name>(...)`` with the routine
    imported from ``linalg`` (under its own name or an alias) or, when
    ``local`` (the source of ``linalg`` itself), defined in the source."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg"
        for alias in node.names
        if alias.name in names
    }
    if local:
        imported.update({name: name for name in names})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            found.append((node.lineno, imported[func.id]))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in names
            and isinstance(func.value, ast.Name)
            and func.value.id == "linalg"
        ):
            found.append((node.lineno, f"linalg.{func.attr}"))
    return sorted(found)


def test_the_checker_finds_a_division_based_call():
    source = (
        "from . import linalg\n"
        "from .linalg import inverse as inv, integer_solve\n"
        "a = linalg.rank(x, linalg.solve(y, z))\n"
        "b = inv(x)\n"
        "c = linalg.integer_solve(x, y), integer_solve(x, y), linalg.integer_determinant(x)\n"
        "d = other.solve(x), rank(x), linalg.inverse\n"
    )
    assert linalg_calls(source, DIVISION_BASED) == [
        (3, "linalg.rank"), (3, "linalg.solve"), (4, "inverse")
    ]
    assert linalg_calls(source, DIVISION_BASED, local=True) == [
        (3, "linalg.rank"), (3, "linalg.solve"), (4, "inverse"), (6, "rank")
    ]


def test_the_samplers_stay_on_integers():
    varieties = next(p for p in PACKAGE if p.name == "varieties.py")
    assert linalg_calls(varieties.read_text(encoding="utf-8"), DIVISION_BASED) == []


# The public ``linalg`` routines that nothing in the package calls.  Only
# ``inverse`` (with ``solve`` under it) stays without a caller: the
# benchmark's ``linalg.inverse_s`` probe times it.  The tests keep their
# reference routines in ``tests/reference_linalg.py``.
UNCALLED_LINALG_ALLOWED = {"inverse"}


def test_every_public_linalg_routine_has_a_caller_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    public = {
        node.name
        for node in ast.parse(sources["linalg.py"]).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = {
        name.removeprefix("linalg.")
        for module, source in sources.items()
        for _, name in linalg_calls(source, public, local=module == "linalg.py")
    }
    assert public - called == UNCALLED_LINALG_ALLOWED


# The drawing methods of ``random.Random`` besides ``getrandbits``.  The
# samplers draw every coordinate through ``varieties._bounded_pairs``, which
# spells out the rejection rule of ``randint`` on ``getrandbits``; a second
# way to draw would be a second definition of the sample stream.
DRAWING_METHODS = {"randint", "randrange", "random", "uniform", "choice", "shuffle"}


def drawing_calls(source: str):
    """(line, name) of each call of a method in ``DRAWING_METHODS``, or of
    such a name imported from ``random``."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "random"
        for alias in node.names
        if alias.name in DRAWING_METHODS
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in DRAWING_METHODS:
            found.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append((node.lineno, func.id))
    return sorted(found)


def test_the_checker_finds_a_drawing_call():
    source = (
        "import random\n"
        "from random import choice as pick, getrandbits\n"
        "a = rng.randint(1, h), random.Random(seed).random()\n"
        "b = pick(xs), rng.randrange(9)\n"
        "c = rng.getrandbits(8), getrandbits(8), random.Random(s), rng.shuffle\n"
        "d = 'rng.uniform(0, 1)'\n"
    )
    assert drawing_calls(source) == [(3, "randint"), (3, "random"), (4, "pick"), (4, "randrange")]


def test_the_samplers_draw_only_through_getrandbits():
    varieties = next(p for p in PACKAGE if p.name == "varieties.py")
    assert drawing_calls(varieties.read_text(encoding="utf-8")) == []


# Modules whose loops fold scalars, never polynomials: ``topology`` sums
# float arrays in place.
SCALAR_FOLDS_ALLOWED = {"topology.py"}

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of ``scope`` outside any function, lambda or class in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(nodes):
    """(line, name, value) of each assignment of a value to a name."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield node.lineno, target.id, node.value


def _rebound_by_sum(node):
    """The name that ``node`` rebinds as ``name += …``, ``name -= …`` or
    ``name = …`` with ``name ± …`` in the new value, else None."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        target = node.target
        return target.id if isinstance(target, ast.Name) else None
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return None
    target = node.targets[0]
    if isinstance(target, ast.Name) and any(
        isinstance(inner, ast.BinOp)
        and isinstance(inner.op, (ast.Add, ast.Sub))
        and isinstance(inner.left, ast.Name)
        and inner.left.id == target.id
        for inner in ast.walk(node.value)
    ):
        return target.id
    return None


def hand_rolled_folds(source: str):
    """(line, name) of each hand-rolled sum: a name bound before a loop and
    rebound inside it by ``name = name ± …``, ``name += …`` or ``name -= …``,
    and each ``sum()`` call given a start value (named ``"sum"``).  A name
    last bound before the loop to a number literal is a counter or a scalar
    total, not a fold of polynomials, and is not reported."""
    tree = ast.parse(source)
    found = set()
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    for scope in scopes:
        nodes = list(_own_nodes(scope))
        bindings = list(_bindings(nodes))
        for loop in (n for n in nodes if isinstance(n, _LOOPS)):
            for node in _own_nodes(loop):
                name = _rebound_by_sum(node)
                before = [(line, value) for line, bound, value in bindings
                          if bound == name and line < loop.lineno]
                if not before:
                    continue
                value = max(before, key=lambda b: b[0])[1]
                if not (isinstance(value, ast.Constant) and isinstance(value.value, (int, float))):
                    found.add((node.lineno, name))
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and (len(node.args) > 1 or any(kw.arg == "start" for kw in node.keywords))
            ):
                found.add((node.lineno, "sum"))
    return sorted(found)


def test_the_checker_finds_a_hand_rolled_fold():
    source = (
        "def folds(polys, reg, zero):\n"
        "    acc = Polynomial.zero(reg)\n"
        "    for p in polys:\n"
        "        acc = acc + p\n"
        "    total: object = None\n"
        "    while polys:\n"
        "        for q in polys.pop():\n"
        "            total = q if total is None else total - q\n"
        "            acc -= q\n"
        "    return sum(polys, acc), sum(polys, start=zero)\n"
        "def fine(polys, reg):\n"
        "    count = 0\n"
        "    for p in polys:\n"
        "        count += 1\n"
        "        term = p\n"
        "        term = term + p\n"
        "        term = p - term\n"
        "    return Polynomial.sum(reg, polys), sum(len(p) for p in polys)\n"
    )
    assert hand_rolled_folds(source) == [(4, "acc"), (8, "total"), (9, "acc"), (10, "sum")]


def test_polynomial_sums_go_through_one_accumulator():
    found = {
        path.name: hand_rolled_folds(path.read_text(encoding="utf-8")) for path in PACKAGE
    }
    assert {name: f for name, f in found.items() if f and name not in SCALAR_FOLDS_ALLOWED} == {}
    # A stale allow-list entry fails too.
    assert {name for name in SCALAR_FOLDS_ALLOWED if found[name]} == SCALAR_FOLDS_ALLOWED


# The one pass/fail record and the three measurements that print themselves.
TO_DICT_ALLOWED = {"Verdict", "DegreeEstimate", "RadonHurwitzValue", "CodimPairReport"}


def classes_defining(source: str, method: str):
    """Names of the classes that define ``method``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)
    ]


def _package_classes_defining(method: str) -> set:
    return {
        name
        for path in PACKAGE
        for name in classes_defining(path.read_text(encoding="utf-8"), method)
    }


def test_the_checker_finds_a_class_with_to_dict():
    source = (
        "class Report:\n    def to_dict(self):\n        return {}\n"
        "class Plain:\n    def as_dict(self):\n        return {}\n"
    )
    assert classes_defining(source, "to_dict") == ["Report"]


def test_only_the_verdict_and_the_measurements_define_to_dict():
    assert _package_classes_defining("to_dict") - TO_DICT_ALLOWED == set()


# The two classes that multiply: polynomials, and complex pairs over
# polynomials or exact scalars.  A third would be one more place that knows
# ``(a + bi)(c + di)`` or the product of two polynomials.
MUL_ALLOWED = {"Polynomial", "ComplexPair"}


def test_the_checker_finds_a_class_with_mul():
    source = (
        "class Gaussian(NamedTuple):\n    re: int\n    im: int\n"
        "    def __mul__(self, other):\n        return self\n    __rmul__ = __mul__\n"
        "class Scaled:\n    def __rmul__(self, other):\n        return self\n"
        "def __mul__(a, b):\n    return a\n"
    )
    assert classes_defining(source, "__mul__") == ["Gaussian"]


def test_only_polynomials_and_complex_pairs_multiply():
    assert _package_classes_defining("__mul__") == MUL_ALLOWED


# The multiplier of the sample-stream seed formula ``seed * 1_000_003 + i``.
# ``varieties.sample_stream`` spells it once; every other sampler draws from
# that stream, so the points of a seed are defined in one place.
STREAM_MULTIPLIER = 1_000_003


def stream_multipliers(source: str):
    """Lines of each integer literal equal to the stream multiplier."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value == STREAM_MULTIPLIER
    ]


def test_the_checker_finds_a_spelled_seed_formula():
    source = (
        "a = sample_point(v, seed * 1_000_003 + i)\n"
        "b = sample_point(v, seed * 1000003 + i)\n"
        "c = sample_point(v, seed * 1_000_004 + i)  # 1_000_003\n"
        "d = '1_000_003'\n"
    )
    assert stream_multipliers(source) == [1, 2]


def test_only_the_sample_stream_spells_its_seed_formula():
    found = {path.name: stream_multipliers(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines and name != "varieties.py"} == {}
    assert len(found["varieties.py"]) == 1


# Modules that build and check maps only through the operations of ``ratmap``.
# Reading a map's polynomials there would expand a staged map unseen.
STAGED_MODULES = ("groups.py", "catalog.py")
POLYNOMIAL_READS = {"numerators", "denominator", "entry"}


def polynomial_reads(source: str):
    """Lines of each read of ``.numerators``, ``.denominator`` or ``.entry``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in POLYNOMIAL_READS
    )


def test_the_checker_finds_a_polynomial_read():
    source = (
        "a = m.numerators[0]\n"
        "b = m.denominator.evaluate(x)\n"
        "c = m.entry(0, 1)\n"
        "d = m.values(x)\n"
        "numerators = 'm.numerators'\n"
    )
    assert polynomial_reads(source) == [1, 2, 3]


def test_map_builders_do_not_read_polynomials():
    found = {
        path.name: polynomial_reads(path.read_text(encoding="utf-8"))
        for path in PACKAGE
        if path.name in STAGED_MODULES
    }
    assert set(found) == set(STAGED_MODULES)
    assert {name: lines for name, lines in found.items() if lines} == {}


def typing_isinstance_checks(source: str):
    """(line, name) of each class that an ``isinstance`` call tests against,
    alone or in a tuple, and that comes from ``typing``: a name imported
    from it or an attribute of the module.  The ``typing`` aliases are
    deprecated and check more slowly than their ``collections.abc``
    originals."""
    tree = ast.parse(source)
    from_typing = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "typing"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            if isinstance(cls, ast.Name) and cls.id in from_typing:
                found.append((node.lineno, cls.id))
            elif (
                isinstance(cls, ast.Attribute)
                and isinstance(cls.value, ast.Name)
                and cls.value.id == "typing"
            ):
                found.append((node.lineno, f"typing.{cls.attr}"))
    return sorted(found)


def test_the_checker_finds_an_isinstance_on_a_typing_name():
    source = (
        "import typing\n"
        "from collections.abc import Mapping\n"
        "from typing import Mapping as M, Sequence\n"
        "a = isinstance(x, M)\n"
        "b = isinstance(x, (int, Sequence))\n"
        "c = isinstance(x, typing.Iterable)\n"
        "d = isinstance(x, (Mapping, list))\n"
        "e: Sequence = []\n"
    )
    assert typing_isinstance_checks(source) == [(4, "M"), (5, "Sequence"), (6, "typing.Iterable")]


def test_no_isinstance_tests_against_typing():
    found = {
        path.name: typing_isinstance_checks(path.read_text(encoding="utf-8")) for path in PACKAGE
    }
    assert {name: f for name, f in found.items() if f} == {}


# The functions of ``ratmap`` that compute a map's values at a point, stage
# by stage: they add and multiply integers, and ``Fraction``s are built only
# where a caller reads coordinates (``evaluate_raw``, ``evaluate``).
VALUES_SUFFIX = "_values"
FRACTION_BUILDERS = {"Fraction", "scale_point"}


def fraction_work_in_values(source: str):
    """(line, function, what) of each call of ``Fraction`` or
    ``scale_point``, of a method named ``evaluate*`` and of each ``/`` in a
    function whose name ends in ``_values``."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, _FUNCTIONS) and func.name.endswith(VALUES_SUFFIX)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                called = node.func
                if isinstance(called, ast.Name) and called.id in FRACTION_BUILDERS:
                    found.add((node.lineno, func.name, called.id))
                elif isinstance(called, ast.Attribute) and (
                    called.attr in FRACTION_BUILDERS or called.attr.startswith("evaluate")
                ):
                    found.add((node.lineno, func.name, called.attr))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.add((node.lineno, func.name, "/"))
    return sorted(found)


def test_the_checker_finds_fraction_work_in_a_values_function():
    source = (
        "def _leaf_values(node, scaled):\n"
        "    q, nums = scaled\n"
        "    a = [p.evaluate_scaled(nums, q) for p in node.polys]\n"
        "    b = Fraction(1, q), fractions.Fraction(2), polynomial.scale_point(nums)\n"
        "    c = nums[0] / q\n"
        "    c /= q\n"
        "    return a, b, c, q // 2, p.scaled_numerator(nums, q)\n"
        "def evaluate_raw(m, coords):\n"
        "    return [Fraction(n, 2) / 1 for n in m.evaluate(coords)]\n"
        "class Node:\n"
        "    def _product_values(self, x):\n"
        "        return self.evaluate(x), self.values(x)\n"
    )
    assert fraction_work_in_values(source) == [
        (3, "_leaf_values", "evaluate_scaled"),
        (4, "_leaf_values", "Fraction"),
        (4, "_leaf_values", "scale_point"),
        (5, "_leaf_values", "/"),
        (6, "_leaf_values", "/"),
        (12, "_product_values", "evaluate"),
    ]


def test_the_stages_of_map_values_stay_on_integers():
    source = next(p for p in PACKAGE if p.name == "ratmap.py").read_text(encoding="utf-8")
    assert fraction_work_in_values(source) == []
    checked = {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _FUNCTIONS) and node.name.endswith(VALUES_SUFFIX)
    }
    # the rule is not vacuous: the leaf, the composite and the product are in it
    assert {"_polynomial_values", "_composite_values", "_product_values"} <= checked
