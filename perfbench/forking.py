"""Run a call in a fresh child process forked from the benchmark process.

The benchmark process has imported ``regmaps`` but built nothing, and each child
starts from that state, so no ``lru_cache``d map or other in-process state
carries from one job into the next.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Tuple, Union

from .speed import Sampler, scale

CHILD_ERROR = 70


@dataclass(frozen=True)
class ForkResult:
    code: int
    stdout: bytes
    seconds: float  # fork to reaped child, as seen by the parent
    maxrss_kb: int  # the child's peak resident set
    samples: Tuple[float, ...] = ()  # the child's timed reference calls
    sampling_s: float = 0.0  # time the child spent sampling the host's speed
    notes: Any = None  # what the child's call passed back besides its exit code

    def nominal_s(self, sensitivity: float) -> float:
        """The job's own time at the host's nominal speed."""
        return (self.seconds - self.sampling_s) * scale(self.samples, sensitivity)


Call = Callable[[], Union[int, Tuple[int, Any]]]


def _child(fn: Call, out_fd: int, side_fd: int, sample: bool) -> int:
    err_fd = os.dup(2)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 2)  # the CLI's human-readable notes
    sys.stdout = io.TextIOWrapper(os.fdopen(out_fd, "wb"), encoding="utf-8")
    sampler = Sampler()
    try:
        if sample:
            sampler.start()
        code = fn()
        sampler.stop()
        code, notes = code if isinstance(code, tuple) else (code, None)
        sys.stdout.close()  # the parent reads stdout to its end first
    except BaseException:
        sampler.stop()
        os.write(err_fd, traceback.format_exc().encode())
        return CHILD_ERROR
    side = {"samples": sampler.samples, "cost": sampler.cost, "notes": notes}
    os.write(side_fd, json.dumps(side).encode())
    return code


def _read_all(fd: int) -> bytes:
    with os.fdopen(fd, "rb") as pipe:
        return pipe.read()


def fork_run(fn: Call, sample: bool = False) -> ForkResult:
    """Call ``fn`` in a forked child whose stdout is captured.

    ``fn`` returns the child's exit code, or a pair of the exit code and
    JSON-able notes for the parent, which land in ``notes``, not in the
    captured stdout.  An exception in the child is printed to the parent's
    stderr and exits with ``CHILD_ERROR``.  With ``sample`` the child
    samples the host's speed while ``fn`` runs.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    side_r, side_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = CHILD_ERROR
        try:
            os.close(out_r)
            os.close(side_r)
            code = _child(fn, out_w, side_w, sample)
        finally:
            os._exit(code)
    os.close(out_w)
    os.close(side_w)
    out = _read_all(out_r)
    side = json.loads(_read_all(side_r) or b"{}")
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return ForkResult(
        os.waitstatus_to_exitcode(status), out, seconds, usage.ru_maxrss,
        tuple(side.get("samples", ())), side.get("cost", 0.0), side.get("notes"),
    )

