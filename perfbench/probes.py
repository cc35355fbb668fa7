"""Layer probes: direct calls to public functions on inputs from the workloads.

Each probe reports the median time of one call.  Construction probes time
an ``lru_cache``d constructor, so each of their calls runs in a fresh fork
of the benchmark process; every other probe runs in one fork that first
builds its inputs.  The comment on each group names the end-to-end metric
it moves.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from typing import Callable, Dict

from .forking import fork_run

CALL_BUDGET_S = 0.2
MIN_CALLS = 5
MAX_CALLS = 1000
CONSTRUCTION_REPEATS = 3

# name -> (constructor, arguments); timed in fresh forks.
# These move build_s / eval_s / verify_s on group-build, and verify_s on
# sphere-verify through s:6.
CONSTRUCTION = {
    "groups.build_s.chain4-2": ("chain_retract", (4, 2)),
    "groups.build_s.chain5-3": ("chain_retract", (5, 3)),
    "groups.build_s.section_so6": ("section_so", (6,)),
}


def per_call(fn: Callable[[], object]) -> float:
    """Median seconds per call over at least ``MIN_CALLS`` calls."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or (
        time.perf_counter() - start < CALL_BUDGET_S and len(times) < MAX_CALLS
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fresh_seeds(fn: Callable[[int], object]) -> Callable[[], object]:
    seeds = itertools.count()
    return lambda: fn(next(seeds))


def _call_probes() -> Dict[str, float]:
    from regmaps import catalog, groups, linalg, polynomial, ratmap, spheres, topology
    from regmaps import varieties as V

    so4, so5 = V.special_orthogonal(4), V.special_orthogonal(5)
    product3 = V.sphere_product(3)
    oplus3 = spheres.oplus(3)
    chart3 = spheres.oplus_via_charts(3)
    chain = groups.chain_retract(4, 2)
    r4 = groups.retract_so(4)
    big = max(chain.numerators, key=len)
    p3 = V.sample_point(product3, 0, height=1000)
    g4 = V.sample_point(so4, 0, height=4)
    g5 = [list(V.sample_point(so5, 0, height=50).coords[5 * i:5 * i + 5]) for i in range(5)]
    phi3 = spheres.phi_double(3)
    zpow7 = spheres.circle_power(7)
    jspec = groups.jmap_double_rotation()
    jmap = catalog.resolve("jmap:double-rotation")
    fiber = groups.fiber_points(jspec, 25, 0)
    base = spheres.basepoint(jspec.matrix_size)
    embed3 = groups.embed_orthogonal(3, 4)

    def sampler(variety, height):
        return _fresh_seeds(lambda s: V.sample_point(variety, s, height=height))

    probes = {
        # Sampling, point validation and small exact evaluation: the
        # denominator audit of sphere-verify (verify_s, wall_s there).
        "varieties.sample_point_s.sphere3": sampler(V.sphere(3), 1000),
        "varieties.sample_point_s.product3": sampler(product3, 1000),
        "varieties.sample_point_s.so4": sampler(so4, 50),
        "varieties.sample_point_s.so5": sampler(so5, 50),
        "varieties.sample_point_s.u3": sampler(V.unitary(3), 50),
        "varieties.sample_point_s.su3": sampler(V.special_unitary(3), 50),
        "varieties.point_check_s": lambda: V.PointOnVariety(product3, p3.coords),
        "polynomial.evaluate_s.small": lambda: oplus3.denominator.evaluate(p3.coords),
        # Expansion: build_s / eval_s / verify_s on group-build.
        "polynomial.mul_s": lambda: big * r4.numerators[5],
        "polynomial.add_s": lambda: big + chain.numerators[0],
        "ratmap.compose_s.r4": lambda: ratmap.compose(r4, embed3),
        "ratmap.matrix_multiply_s": lambda: ratmap.matrix_multiply(
            ratmap.matrix_transpose(r4), r4
        ),
        # Exact evaluation of expanded maps: eval_s / verify_s on group-build.
        "ratmap.evaluate_raw_s.chain4-2": lambda: chain.evaluate_raw(g4.coords),
        "ratmap.evaluate_raw_s.oplus3": lambda: oplus3.evaluate_raw(p3.coords),
        "polynomial.evaluate_s.chain": lambda: big.evaluate(g4.coords),
        # Symbolic checks: verify_s on sphere-verify.
        "polynomial.normal_form_s": lambda: polynomial.normal_form(
            oplus3.numerators[1] * chart3.denominator
            - chart3.numerators[1] * oplus3.denominator,
            oplus3.domain.blocks,
        ),
        "ratmap.substitute_cleared_s": lambda: ratmap.substitute_cleared(
            oplus3.codomain.relations[0], oplus3.numerators, oplus3.denominator
        ),
        "ratmap.maps_into_symbolic_s": lambda: ratmap.maps_into(oplus3),
        # Serialization: build_s on group-build.
        "ratmap.map_to_obj_s.chain4-2": lambda: ratmap.map_to_obj(chain),
        "polynomial.to_obj_s": lambda: polynomial.polynomial_to_obj(big),
        # The Monte Carlo integrand: mc_samples_per_s / degree_s on degree-mc.
        "topology.degree_mc_chunk_s": _fresh_seeds(
            lambda s: topology.degree_mc(phi3, samples=topology.CHUNK_SIZE, seed=s)
        ),
        # Controls: small today, should not move.
        "topology.winding_s.zpow7": lambda: topology.winding(zpow7),
        "topology.regular_value_probe_s": lambda: topology.regular_value_probe(
            jmap, fiber, value=base
        ),
        "linalg.inverse_s": lambda: linalg.inverse(g5),
        "linalg.rank_s": lambda: linalg.rank(g5),
    }
    return {name: per_call(fn) for name, fn in probes.items()}


def _construction_once(constructor: str, args: tuple) -> int:
    from regmaps import groups

    start = time.perf_counter()
    getattr(groups, constructor)(*args)
    sys.stdout.write(repr(time.perf_counter() - start))
    return 0


def _print_call_probes() -> int:
    sys.stdout.write(json.dumps(_call_probes()))
    return 0


def _checked(result) -> bytes:
    if result.code != 0:
        raise RuntimeError(f"a layer probe failed with exit code {result.code}")
    return result.stdout


def run_probes() -> Dict[str, float]:
    """All probe metrics, measured in forks of the calling process."""
    out = json.loads(_checked(fork_run(_print_call_probes)))
    for name, (constructor, args) in CONSTRUCTION.items():
        times = [
            float(_checked(fork_run(lambda: _construction_once(constructor, args))))
            for _ in range(CONSTRUCTION_REPEATS)
        ]
        out[name] = statistics.median(times)
    return out
