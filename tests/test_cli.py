"""End-to-end CLI tests, run in-process through ``cli.main``."""

import ast
import builtins
import inspect
import json
import textwrap
from fractions import Fraction

import pytest

from regmaps import catalog, cli
from regmaps.groups import (
    JMapInput,
    jmap_constant_identity,
    jmap_double_rotation,
    jmap_input_to_obj,
)
from regmaps.polynomial import Polynomial
from regmaps.ratmap import (
    CodomainViolationError,
    ExcludedLocusError,
    VarietyMismatchError,
    ZeroDenominatorError,
    map_from_obj,
)
from regmaps.spheres import circle_power
from regmaps.topology import NonConvergenceError, winding
from regmaps.varieties import (
    PointValidationError,
    euclidean,
    special_orthogonal,
    sphere,
    unitary,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_emits_one_canonical_json_line(capsys):
    code, out, err = run(capsys, ["build", "id:2"])
    assert code == 0
    assert out.count("\n") == 1
    obj = json.loads(out)
    assert sorted(obj) == [
        "codomain", "denominator", "domain", "excluded", "label", "numerators",
    ]
    assert obj["domain"] == "S2" and obj["codomain"] == "S2"
    assert "S2 -> S2" in err


def test_build_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, ["build", "oplus:2"])
    _, second, _ = run(capsys, ["build", "oplus:2"])
    assert first == second


def test_build_rejects_bad_names(capsys):
    assert run(capsys, ["build", "nosuch:3"])[0] == 2
    assert run(capsys, ["build", "phi:0"])[0] == 2
    # reflections of the first coordinate are off the menu
    assert run(capsys, ["build", "reflect:2:1"])[0] == 2
    # a rotation parameter with a zero denominator is bad input, not a failure
    assert run(capsys, ["build", "rot:1:0/0"])[0] == 2
    assert run(capsys, ["build", "rot:1/0:0"])[0] == 2
    assert run(capsys, ["build", "rot:one:0"])[0] == 2


def test_output_flag_tees_the_json(capsys, tmp_path):
    target = tmp_path / "map.json"
    code, out, _ = run(capsys, ["build", "id:1", "--output", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_output_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "map.json"
    code, out, err = run(capsys, ["build", "id:1", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert "error: cannot write --output" in err
    assert not target.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_at_an_exact_point(capsys):
    code, out, _ = run(capsys, ["eval", "stereo:2", "--point=-3/5,4/5,0"])
    assert code == 0
    obj = json.loads(out)
    assert obj["point"] == ["-3/5", "4/5", "0"]
    assert obj["image"] == ["2", "0"]
    assert obj["image_float"] == [2.0, 0.0]


def test_eval_sampled_point_is_seed_deterministic(capsys):
    _, first, _ = run(capsys, ["eval", "oplus:1", "--seed", "3"])
    _, second, _ = run(capsys, ["eval", "oplus:1", "--seed", "3"])
    _, other, _ = run(capsys, ["eval", "oplus:1", "--seed", "4"])
    assert first == second
    assert first != other


def test_eval_image_float_is_the_rounded_exact_image(capsys):
    # a float evaluation of the chain map loses digits to cancellation; the
    # reported float image must be the exact image, correctly rounded
    code, out, _ = run(capsys, ["eval", "chain:4:2", "--seed", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["image_float"] == [float(Fraction(s)) for s in obj["image"]]


def test_eval_rejects_bad_points(capsys):
    # off the variety
    assert run(capsys, ["eval", "id:2", "--point=1,1,1"])[0] == 2
    # wrong arity
    assert run(capsys, ["eval", "id:2", "--point=1,0"])[0] == 2
    # unparsable
    assert run(capsys, ["eval", "id:2", "--point=1,zero,0"])[0] == 2


def test_eval_rejects_a_reflection_as_a_rotation(capsys):
    code, out, err = run(capsys, ["eval", "r:3", "--point=-1,0,0,0,1,0,0,0,1"])
    assert (code, out) == (2, "")
    assert err == "error: coordinates violate a relation of SO3: residual -2\n"


def test_eval_on_the_excluded_locus_is_a_check_failure(capsys):
    code, _, err = run(capsys, ["eval", "stereo:2", "--point=-1,0,0"])
    assert code == 1
    assert "check failed" in err


def test_eval_whose_image_leaves_the_codomain_is_a_check_failure(capsys):
    # jmap:rotation does not land on S2: its verify fails maps-into-codomain
    code, out, err = run(capsys, ["eval", "jmap:rotation", "--seed", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("check failed: image of jmap_rotation left S2: ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_on_a_clean_family(capsys):
    code, out, err = run(
        capsys, ["verify", "zpow:2", "--samples", "50", "--trials", "5"]
    )
    assert code == 0
    checks = json.loads(out)
    assert checks and all(c["passed"] for c in checks)
    assert f"{len(checks)}/{len(checks)} checks passed" in err


def test_verify_reports_honest_failures(capsys):
    # the rotation family scales its columns, so the matrix part is not
    # orthogonal in the ambient sense; the suite must say so and exit 1
    code, out, err = run(
        capsys, ["verify", "jmap:rotation", "--samples", "20", "--trials", "3"]
    )
    assert code == 1
    by_name = {c["name"]: c["passed"] for c in json.loads(out)}
    assert by_name["maps-into-codomain"] is False
    assert by_name["fiber-maps-to-basepoint"] is True
    assert by_name["regular-along-fiber"] is True
    assert "FAIL jmap:rotation maps-into-codomain" in err


@pytest.mark.parametrize("flags", [
    ["--samples", "0", "--trials", "0"],
    ["--samples", "0"],
    ["--trials", "0"],
    ["--samples", "-3"],
])
def test_verify_without_sample_points_is_a_usage_error(capsys, flags):
    code, out, err = run(capsys, ["verify", "r:3", *flags])
    assert code == 2
    assert out == ""
    assert "--samples and --trials must be at least 1" in err


def test_verify_is_byte_deterministic(capsys):
    args = ["verify", "oplus:1", "--samples", "40", "--trials", "4", "--seed", "9"]
    assert run(capsys, args)[1] == run(capsys, args)[1]


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_applies_names_outermost_first(capsys):
    code, out, _ = run(capsys, ["compose", "stereo:2", "stereo-inv:2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["domain"] == "R2" and obj["codomain"] == "R2"
    code, out, _ = run(capsys, ["compose", "stereo-inv:2", "stereo:2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["domain"] == "S2" and obj["codomain"] == "S2"


def test_compose_chains_more_than_two(capsys):
    code, out, _ = run(capsys, ["compose", "zpow:2", "zpow:3", "zpow:-1"])
    assert code == 0
    assert winding(map_from_obj(json.loads(out))) == -6


def test_compose_with_identity_changes_only_the_label(capsys):
    _, built, _ = run(capsys, ["build", "phi:2"])
    _, composed, _ = run(capsys, ["compose", "phi:2", "id:2"])
    a, b = json.loads(built), json.loads(composed)
    assert a.pop("label") != b.pop("label")
    assert a == b


def test_compose_rejects_mismatched_or_lonely_maps(capsys):
    assert run(capsys, ["compose", "stereo:2", "id:3"])[0] == 2
    assert run(capsys, ["compose", "id:2"])[0] == 2


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def test_degree_uses_winding_numbers_on_the_circle(capsys):
    code, out, _ = run(capsys, ["degree", "zpow:3"])
    assert code == 0
    assert json.loads(out) == {
        "map": "zpow:3",
        "method": "winding",
        "rounded": 3,
        "value": 3,
    }


def test_winding_is_exact_at_high_circle_powers(capsys):
    code, out, _ = run(capsys, ["degree", "zpow:64"])
    assert code == 0
    assert json.loads(out) == {"map": "zpow:64", "method": "winding", "rounded": 64, "value": 64}
    assert run(capsys, ["verify", "zpow:-64", "--samples", "50", "--trials", "5"])[0] == 0


def test_degree_monte_carlo_route(capsys):
    args = ["degree", "antipodal:2", "--samples", "2000", "--seed", "7"]
    code, out, _ = run(capsys, args)
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "monte-carlo"
    assert obj["rounded"] == -1
    assert obj["conclusive"] is True
    assert run(capsys, args)[1] == out


def test_degree_seed_must_be_a_stream_key(capsys):
    base = ["degree", "phi:3", "--samples", "2000", "--seed"]
    code, out, err = run(capsys, base + ["-1"])
    assert code == 2 and out == "" and "seed" in err
    code, out, _ = run(capsys, base + [str(2**64 - 1)])
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


def test_degree_inconclusive_run_exits_1(capsys):
    code, out, _ = run(capsys, ["degree", "phi:3", "--samples", "4", "--seed", "5"])
    assert code == 1
    assert json.loads(out)["conclusive"] is False


def test_a_degree_above_the_cost_ceiling_is_a_usage_error(capsys):
    # id:196 is the largest identity the ceiling admits
    for name, dim in [("id:197", 198), ("phi:400", 401)]:
        code, out, err = run(capsys, ["degree", name, "--samples", "1000000"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"ambient dimension {dim} " in err


# ---------------------------------------------------------------------------
# rh
# ---------------------------------------------------------------------------


def test_rh_single_value(capsys):
    code, out, _ = run(capsys, ["rh", "2"])
    assert code == 0
    assert json.loads(out) == {"a_p": 2, "exponent": 1, "p": 2}
    assert json.loads(run(capsys, ["rh", "9"])[1])["a_p"] == 16


def test_rh_pair_mode(capsys):
    code, out, _ = run(capsys, ["rh", "--pair", "1", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["admissible"] is True and obj["modulus"] == 4
    assert json.loads(run(capsys, ["rh", "--pair", "1", "6"])[1])["admissible"] is False


def test_rh_needs_exactly_one_mode(capsys):
    assert run(capsys, ["rh", "2", "--pair", "1", "7"])[0] == 2
    assert run(capsys, ["rh"])[0] == 2
    assert run(capsys, ["rh", "0"])[0] == 2


# ---------------------------------------------------------------------------
# join-style maps from files, argparse plumbing
# ---------------------------------------------------------------------------


def test_jmap_from_file_matches_the_builtin(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(jmap_input_to_obj(jmap_double_rotation())), encoding="utf-8"
    )
    _, from_file, _ = run(capsys, ["build", f"jmap:{path}"])
    _, builtin, _ = run(capsys, ["build", "jmap:double-rotation"])
    assert from_file == builtin


def test_verify_reads_a_jmap_file_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(jmap_input_to_obj(jmap_double_rotation())), encoding="utf-8"
    )
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    flags = ["--samples", "20", "--trials", "3", "--seed", "0"]
    code, from_file, _ = run(capsys, ["verify", f"jmap:{path}", *flags])
    assert len(opened) == 1
    assert code == 0
    assert from_file == run(capsys, ["verify", "jmap:double-rotation", *flags])[1]


def test_malformed_jmap_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bogus": 1}', encoding="utf-8")
    assert run(capsys, ["build", f"jmap:{path}"])[0] == 2
    path.write_text("not json", encoding="utf-8")
    assert run(capsys, ["build", f"jmap:{path}"])[0] == 2


# One term of a valid family file, broken four ways: each makes the file
# malformed, a usage error.
BROKEN_TERMS = {
    "zero-denominator": {"c": "1/0"},
    "number-coefficient": {"c": 1.0},
    "fractional-exponent": {"m": [[0, 1.5]]},
    "variable-twice": {"m": [[0, 1], [0, 1]]},
}


@pytest.mark.parametrize("broken", sorted(BROKEN_TERMS))
def test_a_jmap_file_with_a_broken_term_is_malformed(capsys, tmp_path, broken):
    obj = jmap_input_to_obj(jmap_double_rotation())
    obj["entries"][0][0][0].update(BROKEN_TERMS[broken])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["build", f"jmap:{path}"])
    assert (code, out) == (2, "")
    assert "is malformed" in err


def test_a_jmap_file_exponent_at_the_degree_limit_is_malformed(capsys, tmp_path):
    obj = jmap_input_to_obj(jmap_double_rotation())
    obj["entries"][0][0][0]["m"] = [[0, 2**16]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["build", f"jmap:{path}"])
    assert (code, out) == (2, "")
    assert "is malformed" in err and "degree must be below 65536" in err


@pytest.mark.parametrize("label", [5, ["x"], True], ids=repr)
def test_a_jmap_file_label_must_be_a_string(capsys, tmp_path, label):
    obj = jmap_input_to_obj(jmap_double_rotation())
    obj["label"] = label
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["build", f"jmap:{path}"])
    assert (code, out) == (2, "")
    assert "is malformed" in err and "label must be a string" in err


@pytest.mark.parametrize("size", [2.7, "3", True, None], ids=repr)
@pytest.mark.parametrize("key", ["base_dim", "matrix_size"])
def test_jmap_file_sizes_must_be_integers(capsys, tmp_path, key, size):
    obj = jmap_input_to_obj(jmap_double_rotation())
    obj[key] = size
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, ["build", f"jmap:{path}"])
    assert (code, out) == (2, "")
    assert "must be integers" in err


@pytest.mark.parametrize("key", ["base_dim", "matrix_size"])
def test_jmap_file_sizes_are_bounded(capsys, tmp_path, key):
    bound = catalog.JMAP_MAX_SIZE
    built = euclidean.cache_info().currsize
    obj = jmap_input_to_obj(jmap_double_rotation())
    for size in (bound + 1, -bound - 1):
        obj[key] = size
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, ["build", f"jmap:{path}"])
        assert (code, out) == (2, "")
        assert f"bounded by {bound}" in err
    assert euclidean.cache_info().currsize == built  # refused before any build


def test_circle_power_degree_is_bounded(capsys):
    bound = catalog.ZPOW_MAX_DEGREE
    built = circle_power.cache_info().currsize
    for argv in (
        ["build", "zpow:100000"],
        ["verify", f"zpow:{-bound - 1}", "--samples", "5", "--trials", "2"],
        ["degree", f"zpow:{bound + 1}"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"bounded by {bound}" in err
    assert circle_power.cache_info().currsize == built  # refused before any build
    assert catalog._parse(f"zpow:{-bound}")[1] == [-bound]  # the bound itself is allowed


def test_factorial_cost_families_are_bounded(capsys):
    built = special_orthogonal.cache_info().currsize
    for argv, bound in (
        (["build", "p:12"], catalog.SO_MAX_SIZE),
        (["build", "embed-u:6"], catalog.EMBED_U_MAX_SIZE),
        (["build", f"s:{catalog.SO_MAX_SIZE + 1}"], catalog.SO_MAX_SIZE),
        (["verify", f"r:{catalog.SO_MAX_SIZE + 1}"], catalog.SO_MAX_SIZE),
        (["build", f"su-retract:{catalog.SU_RETRACT_MAX_SIZE + 1}"], catalog.SU_RETRACT_MAX_SIZE),
        (["build", "chain:9:2"], catalog.SO_MAX_SIZE),
        (["verify", "chain:12:2"], catalog.SO_MAX_SIZE),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"bounded by {bound}" in err
    assert special_orthogonal.cache_info().currsize == built  # refused before any build
    assert catalog._parse(f"p:{catalog.SO_MAX_SIZE}")[1] == [catalog.SO_MAX_SIZE]


def test_dimension_cost_families_are_bounded(capsys):
    builders = (sphere, unitary, euclidean, jmap_constant_identity)
    built = [b.cache_info().currsize for b in builders]
    for argv, bound in (
        (["build", "id:100000"], catalog.SPHERE_MAX_DIM),
        (["build", "oplus:100000"], catalog.OPLUS_MAX_DIM),
        (["build", "reflect:100000:2"], catalog.SPHERE_MAX_DIM),
        (["build", f"stereo:{catalog.CHART_MAX_DIM + 1}"], catalog.CHART_MAX_DIM),
        (["build", "jmap:identity:100000:2"], catalog.JMAP_MAX_SIZE),
        (["build", "p-u:11"], catalog.UNITARY_MAX_SIZE),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"bounded by {bound}" in err
    assert [b.cache_info().currsize for b in builders] == built  # refused before any build
    for name, args in (
        (f"id:{catalog.SPHERE_MAX_DIM}", [catalog.SPHERE_MAX_DIM]),
        (f"p-u:{catalog.UNITARY_MAX_SIZE}", [catalog.UNITARY_MAX_SIZE]),
    ):
        assert catalog._parse(name)[1] == args  # the bound itself is allowed
    spec = catalog._parse(f"jmap:identity:{catalog.JMAP_MAX_SIZE}:1")[1][0]
    assert (spec.base_dim, spec.matrix_size) == (catalog.JMAP_MAX_SIZE, 1)


def test_unknown_verbs_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit status of errors
# ---------------------------------------------------------------------------

CHECK_FAILURE_CLASSES = [
    ExcludedLocusError,
    CodomainViolationError,
    ZeroDenominatorError,
    ZeroDivisionError,
    NonConvergenceError,
]
USAGE_ERROR_CLASSES = [
    catalog.UnknownMapError,
    PointValidationError,
    VarietyMismatchError,
    ValueError,
    OverflowError,
]


@pytest.mark.parametrize(
    "error, code",
    [(cls, 1) for cls in CHECK_FAILURE_CLASSES] + [(cls, 2) for cls in USAGE_ERROR_CLASSES],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_main_routes_each_error_to_its_exit_status(capsys, monkeypatch, error, code):
    def verb(args):
        raise error("boom")

    monkeypatch.setitem(cli._DISPATCH, "rh", verb)
    prefix = "check failed: " if code == 1 else "error: "
    assert run(capsys, ["rh", "2"]) == (code, "", prefix + "boom\n")


# 10^400 is beyond the float range, which a float image or a float integrand
# reaches from exact inputs.
BEYOND_FLOAT = 10**400


def test_an_image_beyond_the_float_range_is_a_usage_error(capsys):
    # An exact point of S^2 whose exact image under the chart is (t, 0).
    t = BEYOND_FLOAT
    point = f"{1 - t * t}/{1 + t * t},{2 * t}/{1 + t * t},0"
    code, out, err = run(capsys, ["eval", "stereo:2", f"--point={point}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_a_degree_integrand_beyond_the_float_range_is_a_usage_error(capsys, tmp_path):
    # A self-map of S^2 from the family scale * I, whose scale
    # 1 + t X1^2 - t X1 is positive on S^0 but has coefficients beyond floats.
    registry = euclidean(1).registry
    x1, t = Polynomial.variable(registry, 0), Polynomial.constant(registry, BEYOND_FLOAT)
    scale = Polynomial.one(registry) + t * x1 * x1 - t * x1
    zero = Polynomial.constant(registry, 0)
    spec = JMapInput(((scale, zero), (zero, scale)), scale, 0, 2, label="beyond-float")
    path = tmp_path / "family.json"
    path.write_text(json.dumps(jmap_input_to_obj(spec)), encoding="utf-8")
    assert run(capsys, ["build", f"jmap:{path}"])[0] == 0
    code, out, err = run(capsys, ["degree", f"jmap:{path}", "--samples", "50"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def _except_clauses():
    """The classes each ``except`` clause of ``cli.main`` catches, in order."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.main)))
    handlers = next(node for node in ast.walk(tree) if isinstance(node, ast.Try)).handlers
    clauses = []
    for handler in handlers:
        caught = eval(compile(ast.Expression(handler.type), "<main>", "eval"), vars(cli))
        clauses.append(caught if isinstance(caught, tuple) else (caught,))
    return clauses


def test_each_check_failure_reaches_the_clause_that_names_it():
    # CodomainViolationError and ZeroDenominatorError are ValueErrors: a
    # clause for ValueError before theirs would report them as usage errors.
    clauses = _except_clauses()
    for cls in CHECK_FAILURE_CLASSES:
        first = next(clause for clause in clauses if issubclass(cls, clause))
        assert cls in first, (cls, first)
