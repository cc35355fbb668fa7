"""Command-line interface.

Verbs
-----
* ``build <name>``              construct a catalog map, print its JSON form
* ``eval <name>``               evaluate at an exact point (given or sampled)
* ``verify <name>``             run the family's verification suite
* ``compose <outer> <inner>``   compose two catalog maps, print the result
* ``degree <name>``             winding number (circle) or Monte Carlo degree
* ``rh <p> | rh --pair m k``    the power-of-two counting function / pair test

Machine-readable JSON goes to stdout (one canonical line, byte-identical
for identical inputs and seeds), and to ``--output FILE`` as well when
given; human-readable notes go to stderr.  Exit status: 0 success, 1
verification/measurement failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import catalog, topology
from .ratmap import (
    CodomainViolationError,
    ExcludedLocusError,
    VarietyMismatchError,
    ZeroDenominatorError,
    compose as compose_maps,
    map_to_obj,
)
from .varieties import (
    NoSamplerError,
    PointOnVariety,
    PointValidationError,
    sample_point,
    sphere,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(payload, output: Optional[str] = None) -> None:
    line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    sys.stdout.write(line)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(line)


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _parse_point(text: str) -> List[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmaps",
        description="Exact rational maps between spheres and matrix groups.",
        epilog="Map names: " + ", ".join(sorted(catalog.NAME_FORMS)),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_output(p):
        p.add_argument("--output", help="also write the JSON result to this file")
        return p

    p_build = with_output(
        sub.add_parser("build", help="construct a map and print its JSON form")
    )
    p_build.add_argument("name")

    p_eval = with_output(
        sub.add_parser("eval", help="evaluate a map at an exact rational point")
    )
    p_eval.add_argument("name")
    p_eval.add_argument(
        "--point",
        help="comma-separated rational coordinates on the domain "
        "(default: a deterministic sample)",
    )
    p_eval.add_argument("--seed", type=int, default=0)

    p_verify = with_output(
        sub.add_parser("verify", help="run the verification suite of a map")
    )
    p_verify.add_argument("name")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--samples", type=int, default=10_000)
    p_verify.add_argument("--seed", type=int, default=0)

    p_compose = with_output(
        sub.add_parser(
            "compose", help="compose maps, outermost first (outer [mid ...] inner)"
        )
    )
    p_compose.add_argument("names", nargs="+", metavar="name")

    p_degree = with_output(
        sub.add_parser(
            "degree", help="winding number (circle maps) or Monte Carlo degree"
        )
    )
    p_degree.add_argument("name")
    p_degree.add_argument("--samples", type=int, default=10_000)
    p_degree.add_argument("--seed", type=int, default=0)

    p_rh = with_output(sub.add_parser("rh", help="power-of-two counting function"))
    p_rh.add_argument("p", type=int, nargs="?")
    p_rh.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("M", "K"),
        help="test the congruence for a codimension pair",
    )
    return parser


def _summary(m) -> str:
    excluded = f"; excluded: {m.excluded}" if m.excluded else ""
    return (
        f"{m._describe()}: {m.domain.name} -> {m.codomain.name}, "
        f"degree {m.max_degree()}{excluded}"
    )


def _cmd_build(args) -> int:
    m = catalog.resolve(args.name)
    _emit(map_to_obj(m), args.output)
    _note(_summary(m))
    return 0


def _cmd_eval(args) -> int:
    m = catalog.resolve(args.name)
    if args.point is not None:
        coords = _parse_point(args.point)
        point = PointOnVariety(m.domain, coords)  # validates the relations
    else:
        point = sample_point(m.domain, args.seed)
    image = m.evaluate(point)
    _emit(
        {
            "map": args.name,
            "point": [str(c) for c in point.coords],
            "image": [str(c) for c in image.coords],
            "image_float": [float(c) for c in image.coords],
        },
        args.output,
    )
    _note(f"{args.name} at a point of {m.domain.name}: image on {m.codomain.name}")
    return 0


def _cmd_verify(args) -> int:
    m = catalog.resolve(args.name)
    checks = catalog.verification_suite(
        args.name, m, trials=args.trials, samples=args.samples, seed=args.seed
    )
    _emit([c.to_dict() for c in checks], args.output)
    for c in checks:
        _note(f"{'ok  ' if c.passed else 'FAIL'} {args.name} {c.name}")
    failed = [c for c in checks if not c.passed]
    _note(
        f"{args.name}: {len(checks) - len(failed)}/{len(checks)} checks passed"
    )
    return 0 if not failed else CHECK_FAILED


def _cmd_compose(args) -> int:
    if len(args.names) < 2:
        raise ValueError("compose needs at least two map names")
    maps = [catalog.resolve(name) for name in args.names]
    m = maps[-1]
    for outer in reversed(maps[:-1]):
        m = compose_maps(outer, m)
    _emit(map_to_obj(m), args.output)
    _note(_summary(m))
    return 0


def _cmd_degree(args) -> int:
    m = catalog.resolve(args.name)
    if m.domain == sphere(1) and m.codomain == sphere(1):
        value = topology.winding(m)
        _emit(
            {"method": "winding", "value": value, "rounded": value, "map": args.name},
            args.output,
        )
        _note(f"{args.name}: winding number {value}")
        return 0
    estimate = topology.degree_mc(m, samples=args.samples, seed=args.seed)
    _emit({"method": "monte-carlo", "map": args.name, **estimate.to_dict()}, args.output)
    _note(
        f"{args.name}: degree estimate {estimate.estimate:.4f} "
        f"± {estimate.half_width:.4f} (3 sigma), rounded {estimate.rounded}"
    )
    if not estimate.conclusive:
        _note("estimate is inconclusive at this sample count")
        return CHECK_FAILED
    return 0


def _cmd_rh(args) -> int:
    if (args.p is None) == (args.pair is None):
        raise ValueError("pass either a positional p or --pair M K")
    if args.pair is not None:
        report = topology.check_codim_pair(*args.pair)
        _emit(report.to_dict(), args.output)
        _note(
            f"pair (m={report.m}, k={report.k}): modulus {report.modulus}, "
            f"{'admissible' if report.admissible else 'not admissible'}"
        )
        return 0
    value = topology.radon_hurwitz(args.p)
    _emit(value.to_dict(), args.output)
    _note(f"a_{value.p} = {value.value} (2^{value.exponent})")
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "compose": _cmd_compose,
    "degree": _cmd_degree,
    "rh": _cmd_rh,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except (
        catalog.UnknownMapError,
        PointValidationError,
        VarietyMismatchError,
        NoSamplerError,
        ValueError,
    ) as exc:
        _note(f"error: {exc}")
        return USAGE_ERROR
    except (
        ExcludedLocusError,
        CodomainViolationError,
        ZeroDenominatorError,
        ZeroDivisionError,
        topology.NonConvergenceError,
    ) as exc:
        _note(f"check failed: {exc}")
        return CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
