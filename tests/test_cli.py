"""End-to-end CLI tests, run in-process through ``cli.main``."""

import json
from fractions import Fraction

import pytest

from regmaps import cli
from regmaps.groups import jmap_double_rotation, jmap_input_to_obj
from regmaps.ratmap import map_from_obj
from regmaps.topology import winding


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
    # the expanded chain map loses digits to cancellation in floats; the
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


def test_eval_on_the_excluded_locus_is_a_check_failure(capsys):
    code, _, err = run(capsys, ["eval", "stereo:2", "--point=-1,0,0"])
    assert code == 1
    assert "check failed" in err


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


def test_malformed_jmap_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bogus": 1}', encoding="utf-8")
    assert run(capsys, ["build", f"jmap:{path}"])[0] == 2
    path.write_text("not json", encoding="utf-8")
    assert run(capsys, ["build", f"jmap:{path}"])[0] == 2


def test_unknown_verbs_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
