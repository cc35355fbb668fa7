"""Traced run of a job: the CLI itself, with spans around public calls.

A traced job runs ``regmaps.cli.main`` on the job's arguments, as the
untraced job does, after each traced public function has been replaced,
in every ``regmaps`` module that imported it, by a wrapper that adds its
time to the span's total.  Only the outermost call of a span is timed, so
recursion is not counted twice.  The same wrappers read the counts from
the return values of those outermost calls.  The replacement happens in
the forked child only, so the runner can compare the traced job's stdout
with the untraced one's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, Optional

from .jobs import Job

SPAN_NAMES = (
    "catalog.resolve_s",
    "catalog.verification_suite_s",
    "ratmap.compose_s",
    "ratmap.map_to_obj_s",
    "ratmap.evaluate_s",
    "varieties.sample_point_s",
    "topology.degree_mc_s",
    "topology.winding_s",
)
COUNT_NAMES = (
    "groups.terms",
    "ratmap.max_degree",
    "cli.stdout_bytes",
    "catalog.checks",
    "catalog.checks_symbolic",
    "catalog.checks_sampling",
    "topology.resampled",
    "topology.mc_samples",
)


class Trace:
    """Total time per span and the counts, outermost calls only; kept in memory."""

    def __init__(self) -> None:
        self.spans: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        self.counts: Counter = Counter({name: 0 for name in COUNT_NAMES})
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` timed under span ``name``; ``count`` sees each outermost result."""
        def traced(*args, **kwargs):
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth[name] -= 1
                if not self._depth[name]:
                    self.spans[name] += time.perf_counter() - start
            if count is not None and not self._depth[name]:
                count(self.counts, result)
            return result

        return traced


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "regmaps":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _count_map(counts: Counter, m) -> None:
    counts["groups.terms"] += sum(len(p) for p in m.numerators) + len(m.denominator)
    counts["ratmap.max_degree"] = max(counts["ratmap.max_degree"], m.max_degree())


def _count_checks(counts: Counter, checks) -> None:
    counts["catalog.checks"] += len(checks)
    for c in checks:
        method = c.info.get("method")
        if method in ("symbolic", "sampling"):
            counts["catalog.checks_" + method] += 1


def _count_estimate(counts: Counter, estimate) -> None:
    counts["topology.resampled"] += estimate.resampled
    counts["topology.mc_samples"] += estimate.samples


def install(trace: Trace) -> None:
    """Wrap the traced public functions in this process."""
    from regmaps import catalog, ratmap, topology, varieties

    for name, module, attr, count in (
        ("catalog.resolve_s", catalog, "resolve", _count_map),
        ("catalog.verification_suite_s", catalog, "verification_suite", _count_checks),
        ("ratmap.compose_s", ratmap, "compose", None),
        ("ratmap.map_to_obj_s", ratmap, "map_to_obj", None),
        ("varieties.sample_point_s", varieties, "sample_point", None),
        ("topology.degree_mc_s", topology, "degree_mc", _count_estimate),
        ("topology.winding_s", topology, "winding", None),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, trace.wrap(name, original, count))
    for attr in ("evaluate", "evaluate_raw"):
        original = getattr(ratmap.RationalMap, attr)
        setattr(ratmap.RationalMap, attr, trace.wrap("ratmap.evaluate_s", original))


class _CountingStdout:
    """The child's stdout, counting the bytes written to it."""

    def __init__(self, stream, counts: Counter) -> None:
        self._stream, self._counts = stream, counts

    def write(self, text: str) -> int:
        self._counts["cli.stdout_bytes"] += len(text.encode())
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def traced_job(job: Job) -> tuple:
    """Child-side body of a traced job: the CLI's exit code and the trace."""
    from regmaps import cli

    trace = Trace()
    install(trace)
    stdout, sys.stdout = sys.stdout, _CountingStdout(sys.stdout, trace.counts)
    try:
        code = cli.main(job.argv)
    finally:
        sys.stdout = stdout
    return code, {"spans": trace.spans, "counts": dict(trace.counts)}
