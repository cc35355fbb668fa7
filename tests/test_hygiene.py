"""Source hygiene checks that need no linter: every name a module imports
is used somewhere in that module, every private module-level function or
class is referenced somewhere in the package, the samplers call no
division-based linear algebra and draw only through ``getrandbits``, which
only two draw routines read, every public linear-algebra routine but the
benchmarked ``inverse`` has a caller, no sum of polynomials is folded by
hand, no pass/fail record besides the one verdict type serializes itself,
only polynomials and complex pairs multiply, only the one sample stream
builds a random generator, the map
builders never read a map's polynomials, only the varieties and the
membership check read a variety's relations, only the varieties read or
write the row-major matrix layout, compute a coordinate index or state a
matrix group, the stages of a map's values stay on integers, no
``isinstance`` tests against a ``typing`` alias, only the polynomial core
and its two ported readers read a polynomial's stored coefficients,
every catalog map holds them as ``int``, only the polynomial core reads
the bit layout of a monomial, no function writes module state
through a ``global`` statement, and no module encodes the object form of
a map or a polynomial again."""

import ast
from pathlib import Path

import pytest

from regmaps import catalog
from test_catalog import GOLDEN

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


# The routines of ``linalg`` that divide or take ``Fraction`` entries
# (``rank`` scales its rows to integers first).  The samplers in ``varieties``
# stay on integers: a Cayley transform is one fraction-free solve, and the
# SU(k) correction one fraction-free determinant over the Gaussian integers.
DIVISION_BASED = {"solve", "inverse", "row_echelon", "rank"}


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
# samplers draw every random integer through ``varieties._bounded_pairs`` (the
# Cayley parameters) or ``varieties._grid_draws`` (the grid of the sphere,
# Euclidean and sphere-product points), which spell out the rejection rule
# of ``randint`` on ``getrandbits``; a second way to draw would be a second
# definition of the sample stream.
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


# The classes of ``random`` that build a generator, and the one function that
# builds one: ``varieties.sample_stream`` seeds one generator per stream and
# every sampler draws from the generator it is given, so the points of a
# seed are defined in one place and no point pays for a seeding of its own.
GENERATOR_CLASSES = {"Random", "SystemRandom"}
GENERATOR_OWNER = ("varieties.py", "sample_stream")


def generator_constructions(source: str):
    """(line, innermost enclosing function or ``None``) of each call of a
    class in ``GENERATOR_CLASSES``, as an attribute of any name or imported
    from ``random`` under any name."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "random"
        for alias in node.names
        if alias.name in GENERATOR_CLASSES
    }
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in GENERATOR_CLASSES) or (
                    isinstance(func, ast.Name) and func.id in imported
                ):
                    found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, _FUNCTIONS) else function)

    visit(tree, None)
    return sorted(found, key=lambda site: site[0])


def test_the_checker_finds_a_generator_construction():
    source = (
        "import random\n"
        "import random as rnd\n"
        "from random import Random as R, getrandbits\n"
        "a = random.Random(1)\n"
        "def draw(seed):\n"
        "    b = rnd.Random(seed), getrandbits(8)\n"
        "    def inner():\n"
        "        return R(seed), random.SystemRandom()\n"
        "    return random.getrandbits(3), 'random.Random(2)', random.Random\n"
    )
    assert generator_constructions(source) == [(4, None), (6, "draw"), (8, "inner"), (8, "inner")]


def test_only_the_sample_stream_constructs_a_generator():
    sites = [
        (path.name, function)
        for path in PACKAGE
        for _, function in generator_constructions(path.read_text(encoding="utf-8"))
    ]
    assert sites == [GENERATOR_OWNER]


# The two routines that read ``getrandbits``, each with the rejection rule of
# ``randint`` spelled out once: ``_bounded_pairs`` draws the Cayley
# parameters, ``_grid_draws`` one denominator and its numerators per point.
GETRANDBITS_READERS = {("varieties.py", "_bounded_pairs"), ("varieties.py", "_grid_draws")}


def getrandbits_reads(source: str):
    """(line, innermost enclosing function or ``None``) of each read of
    ``getrandbits``: an attribute of any name, a name, or an import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                (isinstance(child, ast.Attribute) and child.attr == "getrandbits")
                or (isinstance(child, ast.Name) and child.id == "getrandbits")
                or (isinstance(child, ast.alias) and child.name == "getrandbits")
            ):
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, _FUNCTIONS) else function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda site: site[0])


def test_the_checker_finds_a_getrandbits_read():
    source = (
        "from random import getrandbits as bits\n"
        "def draw(rng):\n"
        "    draw_bits = rng.getrandbits\n"
        "    def inner(getrandbits):\n"
        "        return getrandbits(3), 'rng.getrandbits(2)'\n"
        "    return rng.randint(1, 2)\n"
        "a = random.Random(1).getrandbits(8)\n"
    )
    assert getrandbits_reads(source) == [(1, None), (3, "draw"), (5, "inner"), (7, None)]


def test_only_the_two_draw_routines_read_getrandbits():
    sites = {
        (path.name, function)
        for path in PACKAGE
        for _, function in getrandbits_reads(path.read_text(encoding="utf-8"))
    }
    assert sites == GETRANDBITS_READERS


# Modules that build and check maps only through the operations of ``ratmap``.
# Reading a map's polynomials there would expand a staged map unseen.
STAGED_MODULES = ("groups.py", "catalog.py")
POLYNOMIAL_READS = {"numerators", "denominator", "entry"}


def attribute_reads(source: str, names):
    """Lines of each read of an attribute named in ``names``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
    )


def test_the_checker_finds_a_polynomial_read():
    source = (
        "a = m.numerators[0]\n"
        "b = m.denominator.evaluate(x)\n"
        "c = m.entry(0, 1)\n"
        "d = m.values(x)\n"
        "numerators = 'm.numerators'\n"
    )
    assert attribute_reads(source, POLYNOMIAL_READS) == [1, 2, 3]


def test_map_builders_do_not_read_polynomials():
    found = {
        path.name: attribute_reads(path.read_text(encoding="utf-8"), POLYNOMIAL_READS)
        for path in PACKAGE
        if path.name in STAGED_MODULES
    }
    assert set(found) == set(STAGED_MODULES)
    assert {name: lines for name, lines in found.items() if lines} == {}


# The modules that read a variety's relations: ``varieties``, which builds
# and checks them, and ``ratmap``, whose ``maps_into`` proves them on an
# image.  Everyone else asks the variety (``first_violation``, ``normals``),
# so det = 1, which is no relation, cannot be missed.
RELATION_READERS = {"varieties.py", "ratmap.py"}


def test_only_the_varieties_and_the_membership_check_read_relations():
    readers = {
        path.name
        for path in PACKAGE
        if attribute_reads(path.read_text(encoding="utf-8"), {"relations"})
    }
    assert readers == RELATION_READERS


# ``varieties`` declares each matrix group (``MatrixGroup``) and is the one
# owner of its row-major layout (``MatrixGroup.entries``, ``rows`` and
# ``coordinates``): elsewhere no interleaved (re, im) coordinates are split
# by a step-2 slice, no coordinate index is computed by a multiplication, in
# a subscript or in a pick of a coordinate map, or split by ``divmod``, and
# no group is stated again.
LAYOUT_OWNER = "varieties.py"
# The exact Gaussian-integer division of ``ComplexPair`` takes a ``divmod``
# of its parts, which has nothing to do with the layout.
LAYOUT_ALLOWED = {("polynomial.py", "divmod(")}


def _multiplies(node: ast.AST) -> bool:
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(node))


def _pick_sources(tree: ast.AST):
    """The expressions that make picks ``(index, coefficient)`` of a
    coordinate map: a value assigned to ``picks``, the arguments of a
    method of ``picks`` and the third argument of ``coordinate_map``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "picks" for t in node.targets):
                yield node.value
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "picks":
                yield from node.args
            elif getattr(func, "id", None) == "coordinate_map" and len(node.args) > 2:
                yield node.args[2]


def layout_reads(source: str):
    """(line, what) of each slice with step 2, each subscript whose index
    multiplies, each pick whose index multiplies, each ``divmod`` call and
    each call of ``MatrixGroup``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice) and isinstance(node.step, ast.Constant):
            if node.step.value == 2:
                found.append((node.lineno, "[::2]"))
        elif isinstance(node, ast.Subscript) and _multiplies(node.slice):
            found.append((node.lineno, "[*]"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("MatrixGroup", "divmod"):
                found.append((node.lineno, f"{name}("))
    for source_node in _pick_sources(tree):
        for node in ast.walk(source_node):
            if isinstance(node, ast.Tuple) and node.elts and _multiplies(node.elts[0]):
                found.append((node.lineno, "pick *"))
    return sorted(found)


def test_the_checker_finds_a_step_two_slice():
    source = (
        "a = list(map(ComplexPair, nums[::2], nums[1::2]))\n"
        "b = nums[::step], nums[1:2], nums[::-2], '[::2]'\n"
        "c = [x[0:n:2] for x in rows]\n"
    )
    assert layout_reads(source) == [(1, "[::2]"), (1, "[::2]"), (3, "[::2]")]


def test_the_checker_finds_a_matrix_group_construction():
    source = (
        "from .varieties import MatrixGroup\n"
        "a = MatrixGroup(2, False, True)\n"
        "b = varieties.MatrixGroup(k, True, False).rows(x)\n"
        "c = group.rows(x), isinstance(g, MatrixGroup), 'MatrixGroup(1)'\n"
    )
    assert layout_reads(source) == [(2, "MatrixGroup("), (3, "MatrixGroup(")]


def test_the_checker_finds_index_arithmetic():
    # the coordinate indices ``catalog._chain_checks``, ``groups.embed_u_in_so``
    # and ``groups._section`` computed before ``MatrixGroup.coordinates``
    source = (
        "ok = image[a * total + b] == expected\n"
        "picks.append((2 * (i * k + j) + (s ^ t), -1 if s < t else 1))\n"
        "z = [ComplexPair(x[2 * j], x[2 * j + 1]) for j in range(k)]\n"
        "(i, s), (j, t) = divmod(r, 2), divmod(c, 2)\n"
        "picks = [(width * (r * m + offset) + part, 1) for r in rows]\n"
        "m = coordinate_map(dom, cod, [(3 * i, 1) for i in ids], label)\n"
        "fine = x[i + 1], rows[a][b], (2 * i, 1), picks.append((i, 2 * c)), '[2 * j]'\n"
    )
    assert layout_reads(source) == [
        (1, "[*]"), (2, "pick *"), (3, "[*]"), (3, "[*]"),
        (4, "divmod("), (4, "divmod("), (5, "pick *"), (6, "pick *"),
    ]


def test_only_the_varieties_read_the_matrix_layout_and_state_a_group():
    found = {
        path.name: [(line, what) for line, what in layout_reads(path.read_text(encoding="utf-8"))
                    if (path.name, what) not in LAYOUT_ALLOWED]
        for path in PACKAGE
    }
    assert found[LAYOUT_OWNER]  # the rule is not vacuous
    assert {name: lines for name, lines in found.items() if lines and name != LAYOUT_OWNER} == {}


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


# A polynomial stores ``int`` coefficients (``terms``, keyed by packed
# monomials) over one positive ``int`` denominator (``den``).  Besides
# ``polynomial`` itself, two modules read them: ``ratmap`` (content
# normalization and ``substitute_cleared``) and ``topology`` (float
# coefficients and the Sturm sequence); both read a monomial only through
# ``exponents``.  Everyone else goes through the polynomial's operations, so
# no second scalar type can creep in.
COEFFICIENT_READERS = {"polynomial.py", "ratmap.py", "topology.py"}


def test_the_checker_finds_a_coefficient_read():
    source = (
        "a = p.terms.items()\n"
        "b = Fraction(c, p.den)\n"
        "c = p.terminal, p.denominator, 'p.terms'\n"
    )
    assert attribute_reads(source, {"terms", "den"}) == [1, 2]


def test_only_the_polynomial_core_and_its_ported_readers_read_coefficients():
    readers = {
        path.name
        for path in PACKAGE
        if attribute_reads(path.read_text(encoding="utf-8"), {"terms", "den"})
    }
    assert readers == COEFFICIENT_READERS


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_golden_catalog_map_holds_int_coefficients(name):
    m = catalog.resolve(name)
    for p in [*m.numerators, m.denominator]:
        assert type(p.den) is int and p.den == 1  # content normalization clears it
        assert all(type(c) is int for c in p.terms.values())


# A monomial is one ``int``: ``FIELD`` bits per exponent and the degree
# from a registry's ``shift`` on, below its ``low`` mask.  Only
# ``polynomial`` reads that layout; the readers of ``terms`` elsewhere go
# through ``exponents``, so the layout can change in one module.
MONOMIAL_LAYOUT_OWNER = "polynomial.py"
LAYOUT_ATTRIBUTES = {"shift", "low"}
_BIT_OPS = (ast.LShift, ast.RShift, ast.BitAnd)


def _iterates_terms(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.terms``, ``x.terms.items()``, ``x.terms.keys()``
    or ``iter(x.terms)``: an iteration whose first items are monomial keys."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "iter":
        node = node.args[0]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        node = node.func.value if node.func.attr in ("items", "keys") else node
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _monomial_names(tree: ast.AST) -> set:
    """Names bound to monomial keys: the target, or the first name of a
    tuple target, of a loop or comprehension over a polynomial's terms."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)) and _iterates_terms(node.iter):
            target = node.target
            if isinstance(target, ast.Tuple) and target.elts:
                target = target.elts[0]
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def monomial_layout_reads(source: str):
    """Lines that read the monomial layout: a use of ``FIELD``, a read of an
    attribute ``shift`` or ``low``, and a shift or mask of a monomial key
    (a name bound by iterating a polynomial's terms, or an expression that
    reads ``terms``)."""
    tree = ast.parse(source)
    keys = _monomial_names(tree)

    def holds_a_key(node):
        return any(
            (isinstance(n, ast.Name) and n.id in keys) or _iterates_terms(n) for n in ast.walk(node)
        )

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "FIELD":
            found.add(node.lineno)
        elif isinstance(node, ast.alias) and "FIELD" in (node.name, node.asname):
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES:
            found.add(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BIT_OPS):
            if holds_a_key(node.left) or holds_a_key(node.right):
                found.add(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _BIT_OPS):
            if holds_a_key(node.target) or holds_a_key(node.value):
                found.add(node.lineno)
    return sorted(found)


def test_the_checker_finds_a_read_of_the_monomial_layout():
    source = (
        "from .polynomial import FIELD as F, exponents\n"
        "a = registry.shift + p.registry.low\n"
        "for m, c in p.terms.items():\n"
        "    d = m >> 400\n"
        "e = [k & 65535 for k in p.terms]\n"
        "f = next(iter(p.terms)) >> s\n"
        "for key in q.terms.keys():\n"
        "    key &= 3\n"
        "g = x >> 2, 1 << 14\n"
        "h = [exponents(m, r) for m in p.terms], FIELD\n"
        "shift = 'p.shift'\n"
    )
    assert monomial_layout_reads(source) == [1, 2, 4, 5, 6, 8, 10]


def test_only_the_polynomial_core_reads_the_monomial_layout():
    readers = {
        path.name for path in PACKAGE if monomial_layout_reads(path.read_text(encoding="utf-8"))
    }
    assert readers == {MONOMIAL_LAYOUT_OWNER}


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


# A function that rebinds a module name hands a value to later calls unseen,
# so what a call returns depends on which calls came before it.
def global_statements(source: str):
    """Lines of each ``global`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def test_the_checker_finds_a_global_statement():
    source = (
        "_last_resolved: tuple = (None, None, None, None)\n"
        "def resolve(name: str) -> RationalMap:\n"
        "    global _last_resolved\n"
        "    family, args = _parse(name)\n"
        "    m = family.build(*args)\n"
        "    _last_resolved = (name, m, family, args)\n"
        "    return m\n"
        "def verification_suite(name, m=None):\n"
        "    resolved_name, resolved_map, family, args = _last_resolved\n"
        "    def count():\n"
        "        nonlocal m\n"
        "    return family.checks(m, *args)\n"
    )
    assert global_statements(source) == [3]


def test_no_function_writes_module_state():
    found = {path.name: global_statements(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


# ``map_to_json`` and ``polynomial_to_json`` are the one writer of a serialized
# map or polynomial, and the object forms ``map_to_obj`` and
# ``polynomial_to_obj`` are that text parsed: encoding one again builds an
# object per term and writes every term a second time.
OBJECT_FORMS = {"map_to_obj", "polynomial_to_obj"}


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _arguments(call: ast.Call) -> list:
    return call.args + [k.value for k in call.keywords]


def _encoders(tree: ast.AST) -> set:
    """``dumps`` and each function of ``tree`` that hands one of its
    parameters on to an encoder, as ``cli._emit`` hands its payload to
    ``json.dumps``."""
    encoders = {"dumps"}
    functions = [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
    while True:
        added = set()
        for fn in functions:
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _called_name(node) in encoders:
                    passed = {
                        name.id
                        for arg in _arguments(node)
                        for name in ast.walk(arg)
                        if isinstance(name, ast.Name)
                    }
                    if passed & params:
                        added.add(fn.name)
        if added <= encoders:
            return encoders
        encoders |= added


def _holds_object_form(node: ast.AST, bound: set) -> bool:
    return any(
        (isinstance(inner, ast.Call) and _called_name(inner) in OBJECT_FORMS)
        or (isinstance(inner, ast.Name) and inner.id in bound)
        for inner in ast.walk(node)
    )


def reencoded_object_forms(source: str):
    """(line, encoder) of each call of an encoder (see :func:`_encoders`)
    whose arguments hold a call of an object form, or a name assigned
    from an expression that holds one."""
    tree = ast.parse(source)
    encoders = _encoders(tree)
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _holds_object_form(node.value, set())
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) in encoders:
            if any(_holds_object_form(arg, bound) for arg in _arguments(node)):
                found.append((node.lineno, _called_name(node)))
    return sorted(found)


def test_the_checker_finds_a_reencoded_object_form():
    source = (
        "import json\n"
        "def _emit(payload, output=None):\n"
        "    line = json.dumps(payload, sort_keys=True) + '\\n'\n"
        "def _cmd_build(args):\n"
        "    m = catalog.resolve(args.name)\n"
        "    _emit(map_to_obj(m), args.output)\n"
        "def map_to_json(m):\n"
        "    return json.dumps(map_to_obj(m), sort_keys=True)\n"
        "def entries(spec):\n"
        "    obj = [polynomial_to_obj(p) for p in spec.entries]\n"
        "    return json.dumps({'entries': obj})\n"
        "def fine(m):\n"
        "    return json.loads(map_to_json(m)), json.dumps(m.label), _emit(m.name)\n"
    )
    assert reencoded_object_forms(source) == [(6, "_emit"), (8, "dumps"), (11, "dumps")]


def test_the_checker_finds_the_cli_printing_an_object_form():
    cli = next(p for p in PACKAGE if p.name == "cli.py").read_text(encoding="utf-8")
    reencoding = cli.replace("_write(map_to_json(m)", "_emit(map_to_obj(m)")
    assert reencoding != cli
    assert [name for _, name in reencoded_object_forms(reencoding)] == ["_emit", "_emit"]


def test_no_module_encodes_an_object_form_again():
    found = {
        path.name: reencoded_object_forms(path.read_text(encoding="utf-8")) for path in PACKAGE
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
