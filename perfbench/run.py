"""Benchmark runner: runs a workload's CLI jobs and prints its metrics.

    python3 perfbench/run.py --workload sphere-verify --seed 0 --seconds 30 --trace 0

Load comes from this one process: it runs one job at a time in a closed
loop (one client), each job in a fresh fork (see ``forking.py``), with
BLAS/OpenMP threads pinned to 1.  ``--trace 0`` runs whole passes of the
job list for about ``--seconds`` (at least two) and reports the
end-to-end metrics; ``--trace 1`` runs each job once untraced and once traced,
plus the layer probes, and reports the per-layer metrics.  Every job's
output is checked against its known answer.

Times of the untraced jobs and of set-up are reported at the host's
nominal speed (see ``speed.py``); the report line carries the raw seconds
too.  The last line of stdout is the result JSON; the line before it is
the full report with every metric, the environment and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 2
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

# (name, unit): the result metrics of an untraced run, as BENCHMARK.json lists them.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# The report line adds the metrics that some workload has no job for.
FULL_REPORT = END_TO_END + (
    ("verify_s", "s"),
    ("build_s", "s"),
    ("eval_s", "s"),
    ("degree_s", "s"),
    ("verify_points_per_s", "1/s"),
    ("mc_samples_per_s", "1/s"),
    ("fail_frac", "ratio"),
)
# A result metric is one that no workload reads as 0.  Of the spans and
# counts these qualify; the others, and the per-job times, read 0 on some
# workload and appear in the report line only.
RESULT_TRACE = (
    "catalog.resolve_s",
    "varieties.sample_point_s",
    "groups.terms",
    "ratmap.max_degree",
    "cli.stdout_bytes",
)


def setup(workload: str, seed: int, size: str):
    """The benchmark's set-up: import regmaps and numpy, make jobs, load answers."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import numpy  # noqa: F401
    import regmaps.cli  # noqa: F401

    if Path(regmaps.__file__).resolve().parent != ROOT / "src" / "regmaps":
        raise ImportError(f"regmaps was imported from {regmaps.__file__}, not {ROOT / 'src'}")
    from perfbench.check import load_answers
    from perfbench.jobs import make_jobs

    return make_jobs(workload, seed, size), load_answers()


_SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from perfbench.speed import SETUP_SENSITIVITY, Sampler, scale
sampler = Sampler()
start = time.perf_counter()
sampler.start()
from perfbench.run import setup
setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
sampler.stop()
seconds = time.perf_counter() - start
nominal = (seconds - sampler.cost) * scale(sampler.samples, SETUP_SENSITIVITY)
print(json.dumps([seconds, nominal]))
"""


def measure_setup(workload: str, seed: int, size: str) -> tuple:
    """Median raw and nominal set-up seconds over fresh interpreters."""
    raw, nominal = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT), workload, str(seed), size],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        seconds, at_nominal = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        nominal.append(at_nominal)
    return statistics.median(raw), statistics.median(nominal)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_pass(jobs, answers):
    """One pass of the job list, each job sampling the host's speed.

    Every job is checked after the pass.
    """
    from perfbench.forking import fork_run
    from regmaps import cli

    results = [fork_run(lambda: cli.main(job.argv), sample=True) for job in jobs]
    return results, _verdicts(jobs, results, answers)


def _verdicts(jobs, results, answers) -> list:
    from perfbench.check import check_job

    return [check_job(job, r.code, r.stdout, answers) for job, r in zip(jobs, results)]


def _failures(jobs, verdicts) -> list:
    return [f"{' '.join(j.argv)}: {v.reason}" for j, v in zip(jobs, verdicts) if not v.ok]


def pass_metrics(jobs, results, verdicts, seconds) -> dict:
    """The end-to-end metrics of one pass; ``seconds`` gives a job's time."""
    from perfbench.jobs import CIRCLE_MAPS

    def total(pick) -> float:
        return sum(seconds(r) for j, r in zip(jobs, results) if pick(j))

    verify_s = total(lambda j: j.verb == "verify")
    mc_s = total(lambda j: j.verb == "degree" and not j.names[0].startswith(CIRCLE_MAPS))
    points = sum(v.points for v in verdicts)
    samples = sum(v.mc_samples for v in verdicts)
    return {
        "wall_s": total(lambda j: True),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
        "verify_s": verify_s,
        "build_s": total(lambda j: j.verb in ("build", "compose")),
        "eval_s": total(lambda j: j.verb == "eval"),
        "degree_s": total(lambda j: j.verb == "degree"),
        "verify_points_per_s": points / verify_s if verify_s else 0.0,
        "mc_samples_per_s": samples / mc_s if mc_s else 0.0,
    }


def _medians(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def measure(args, jobs, answers) -> tuple:
    """Whole passes, at least two, until the next would end after ``--seconds``.

    ``wall_s`` is the sum of the pass's job times, each from fork to reaped
    child; the runner's own checking between jobs is not in it.
    """
    from perfbench.speed import SENSITIVITY

    raw_setup, nominal_setup = measure_setup(args.workload, args.seed, args.size)
    sensitivity = SENSITIVITY[args.workload]
    nominal, raw, failures = [], [], []
    start = time.perf_counter()
    while True:
        results, verdicts = run_pass(jobs, answers)
        at_nominal = pass_metrics(jobs, results, verdicts, lambda r: r.nominal_s(sensitivity))
        nominal.append(at_nominal)
        raw.append(pass_metrics(jobs, results, verdicts, lambda r: r.seconds))
        failures += _failures(jobs, verdicts)
        elapsed = time.perf_counter() - start
        if len(nominal) >= MIN_PASSES and elapsed * (1 + 1 / len(nominal)) > args.seconds:
            break
    attempted = len(jobs) * len(nominal)
    values = {"nominal": _medians(nominal), "raw": _medians(raw)}
    for kind, setup_s in (("nominal", nominal_setup), ("raw", raw_setup)):
        values[kind].update(setup_s=setup_s, fail_frac=len(failures) / attempted)
    report = {
        "passes": len(nominal),
        "metrics": {n: {"value": values["nominal"][n], "unit": u} for n, u in FULL_REPORT},
        "raw": {n: {"value": values["raw"][n], "unit": u} for n, u in FULL_REPORT},
    }
    result = {name: report["metrics"][name] for name, _ in END_TO_END}
    return report, result, attempted, failures


def trace(args, jobs, answers) -> tuple:
    """Each job untraced, then traced, and the layer probes.

    Both runs of a job sample the host's speed, back to back, and
    ``trace.overhead_frac`` and the per-job times are at nominal speed, as
    ``wall_s`` is.  Spans and probes are raw seconds; a span includes the
    sampler's ticks that fall inside it, under 1% of its time.
    """
    from perfbench import probes
    from perfbench.forking import fork_run
    from perfbench.speed import SENSITIVITY
    from perfbench.trace import COUNT_NAMES, SPAN_NAMES, traced_job
    from regmaps import cli

    plain, traced = [], []
    for job in jobs:
        plain.append(fork_run(lambda: cli.main(job.argv), sample=True))
        traced.append(fork_run(lambda: traced_job(job), sample=True))
    failures = _failures(jobs, _verdicts(jobs, plain, answers))
    spans = {name: 0.0 for name in SPAN_NAMES}
    counts: Counter = Counter({name: 0 for name in COUNT_NAMES})
    for job, untraced, run in zip(jobs, plain, traced):
        if run.notes is None or run.stdout != untraced.stdout or run.code != untraced.code:
            failures.append(f"{' '.join(job.argv)}: traced run differs from the untraced one")
            continue
        for name in SPAN_NAMES:
            spans[name] += run.notes["spans"][name]
        for name in COUNT_NAMES:
            if name == "ratmap.max_degree":
                counts[name] = max(counts[name], run.notes["counts"][name])
            else:
                counts[name] += run.notes["counts"][name]
    layer = {name: (v, "s") for name, v in spans.items()}
    layer.update({name: (counts[name], "count") for name in COUNT_NAMES})
    sensitivity = SENSITIVITY[args.workload]
    overhead = sum(r.nominal_s(sensitivity) for r in traced) / sum(
        r.nominal_s(sensitivity) for r in plain
    )
    layer["trace.overhead_frac"] = (overhead, "ratio")
    layer.update({name: (v, "s") for name, v in probes.run_probes().items()})
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    report = {
        "metrics": metrics,
        "jobs": {job.metric: {"value": r.nominal_s(sensitivity), "unit": "s"}
                 for job, r in zip(jobs, plain)},
    }
    traced_names = set(SPAN_NAMES) | set(COUNT_NAMES)
    result = {k: v for k, v in metrics.items() if k not in traced_names or k in RESULT_TRACE}
    return report, result, 2 * len(jobs), failures


def main(argv=None) -> int:
    from perfbench.jobs import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    try:
        jobs, answers = setup(args.workload, args.seed, args.size)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    env = environment()
    mode = trace if args.trace else measure
    report, metrics, attempted, failures = mode(args, jobs, answers)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "trace": args.trace, "env": env, "failures": failures, **report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # the package, not this directory, on the path
    sys.exit(main())
