"""Known answers for every benchmark job, and the check of a job's output.

A job fails when its exit code or its stdout disagrees with the known
answer:

* ``build`` / ``compose``: the sha256 of the canonical stdout line, which
  must stay byte-identical.
* ``eval``: the exact point and image strings (by sha256, per seed); the
  float image must agree with the exact one to ``FLOAT_IMAGE_TOLERANCE``.
* ``verify``: check names and verdicts in order, and no weakening: a check
  that uses a weaker method (order: symbolic > sampling) or, with the same
  method, reports fewer points, trials or relations than recorded fails.
* ``degree``: the known degree (a formula per family), conclusive, over
  the requested number of Monte Carlo samples.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from .jobs import Job

ANSWERS_PATH = Path(__file__).with_name("answers.json")

METHOD_RANK = {"sampling": 1, "symbolic": 2}
# The float image comes from the expanded polynomials and loses digits to
# cancellation: up to 5.3e-5 off the exact image (chain:4:2, seed 2) over
# the 32 seeds.  The check only ties it to the same point's exact image.
FLOAT_IMAGE_TOLERANCE = 1e-3
COUNT_KEYS = ("checked", "samples", "trials", "points")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    points: int = 0  # sampled points and trials a verify job reports as checked
    mc_samples: int = 0


def load_answers(path: Path = ANSWERS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def eval_digest(obj: dict) -> str:
    exact = {k: obj[k] for k in ("map", "point", "image")}
    return digest(canonical(exact).encode())


def expected_degree(name: str) -> int:
    family, *rest = name.split(":")
    if family == "phi":
        return 2 if int(rest[0]) % 2 else 0
    if family == "antipodal":
        return (-1) ** (int(rest[0]) + 1)
    if family == "reflect":
        return -1
    if family == "zpow":
        return int(rest[0])
    if family == "rot":
        return 1
    raise KeyError(f"no known degree for {name!r}")


def check_counts(info: dict) -> Dict[str, int]:
    """The amounts of checking a verify entry reports."""
    counts = {k: info[k] for k in COUNT_KEYS if k in info}
    if "ranks" in info:
        counts["ranks"] = len(info["ranks"])
    return counts


def sampled_points(info: dict) -> int:
    counts = check_counts(info)
    if info.get("method") != "sampling":
        counts.pop("checked", None)  # symbolic "checked" counts relations
    return sum(counts.values())


def verify_record(exit_code: int, checks: List[dict]) -> dict:
    """The answer-table entry for one verify job's output."""
    return {
        "exit": exit_code,
        "checks": [
            {
                "name": c["name"],
                "passed": c["passed"],
                "method": c["info"].get("method"),
                "counts": check_counts(c["info"]),
            }
            for c in checks
        ],
    }


def _check_verify(job: Job, code: int, obj, answers: dict) -> Verdict:
    want = answers["verify"][job.key]
    if code != want["exit"]:
        return Verdict(False, f"exit {code}, expected {want['exit']}")
    names = [c["name"] for c in obj]
    if names != [c["name"] for c in want["checks"]]:
        return Verdict(False, f"checks {names}")
    for got, rec in zip(obj, want["checks"]):
        info = got["info"]
        if got["passed"] != rec["passed"]:
            return Verdict(False, f"{rec['name']}: passed={got['passed']}")
        method = info.get("method")
        if rec["method"] is not None:
            if METHOD_RANK.get(method, 0) < METHOD_RANK[rec["method"]]:
                return Verdict(False, f"{rec['name']}: weaker method {method!r}")
            if method != rec["method"]:
                continue  # a stronger method counts different things
        counts = check_counts(info)
        for key, least in rec["counts"].items():
            if counts.get(key, -1) < least:
                return Verdict(False, f"{rec['name']}: {key}={counts.get(key)} < {least}")
    return Verdict(True, points=sum(sampled_points(c["info"]) for c in obj))


def _check_eval(job: Job, code: int, obj, answers: dict) -> Verdict:
    if code != 0:
        return Verdict(False, f"exit {code}")
    want = answers["eval"][job.key].get(str(job.seed))
    if want is None or eval_digest(obj) != want:
        return Verdict(False, "exact image differs from the known answer")
    floats = obj["image_float"]
    if len(floats) != len(obj["image"]):
        return Verdict(False, "float image has the wrong length")
    for text, value in zip(obj["image"], floats):
        exact = float(Fraction(text))
        if abs(value - exact) > FLOAT_IMAGE_TOLERANCE * max(1.0, abs(exact)):
            return Verdict(False, f"float image {value} != {exact}")
    return Verdict(True)


def _check_degree(job: Job, code: int, obj) -> Verdict:
    name = job.names[0]
    if code != 0 or obj["map"] != name:
        return Verdict(False, f"exit {code}")
    if obj["rounded"] != expected_degree(name):
        return Verdict(False, f"degree {obj['rounded']}, expected {expected_degree(name)}")
    if obj["method"] == "winding":
        return Verdict(True)
    if obj["method"] != "monte-carlo" or obj["conclusive"] is not True:
        return Verdict(False, "estimate is not conclusive")
    if obj["samples"] < job.samples:
        return Verdict(False, f"only {obj['samples']} samples")
    return Verdict(True, mc_samples=obj["samples"])


def check_job(job: Job, code: int, stdout: bytes, answers: dict) -> Verdict:
    """Compare one job's exit code and stdout with its known answer."""
    try:
        if job.verb in ("build", "compose"):
            ok = code == 0 and digest(stdout) == answers["digest"][job.key]
            return Verdict(ok, "" if ok else f"exit {code} or stdout digest differs")
        obj = json.loads(stdout)
        if job.verb == "verify":
            return _check_verify(job, code, obj, answers)
        if job.verb == "eval":
            return _check_eval(job, code, obj, answers)
        return _check_degree(job, code, obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")
