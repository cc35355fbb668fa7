"""The benchmark's workloads: fixed lists of CLI jobs on catalog names.

Every job spells out each option its verb takes (``--seed``, ``--samples``,
``--trials``), so a change of a CLI default cannot change what is measured.
The workload seed feeds every ``--seed``; it is folded into the range of
seeds the known-answer table covers (``answers.json``), so every job of
every seed has a recorded answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

SEED_RANGE = 32

# Option values per size.  "full" is the benchmark; "tiny" is the same job
# list with little sampling work, for the benchmark's own tests.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {"verify_samples": 10_000, "verify_trials": 20, "mc_samples": 1_000_000},
    "tiny": {"verify_samples": 200, "verify_trials": 4, "mc_samples": 20_000},
}
WINDING_SAMPLES = 10_000  # the CLI default; the winding route ignores it

WORKLOADS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    # The most-used verb on sphere domains: the denominator audit of
    # 10,000 sampled points dominates; construction and MC do little.
    "sphere-verify": (
        ("verify", ("oplus:3",)),
        ("verify", ("stereo:5",)),
        ("verify", ("phi:4",)),
        ("verify", ("reflect:4:2",)),
        ("verify", ("s:6",)),
        ("verify", ("s-u:3",)),
        ("verify", ("jmap:double-rotation",)),
        ("verify", ("jmap:rotation",)),
        ("compose", ("stereo-inv:3", "stereo:3")),
    ),
    # Expansion (compose / matrix_multiply) and exact evaluation of big
    # expanded maps dominate; build must expand and serialize, eval and
    # verify only need values.
    "group-build": (
        ("build", ("chain:4:2",)),
        ("build", ("chain:5:3",)),
        ("build", ("s-u:4",)),
        ("build", ("su-retract:3",)),
        ("eval", ("chain:4:2",)),
        ("eval", ("chain:5:3",)),
        ("verify", ("chain:4:2",)),
        ("verify", ("chain:5:3",)),
        ("verify", ("r:4",)),
        ("verify", ("r-u:3",)),
        ("verify", ("su-retract:3",)),
        ("verify", ("embed-u:3",)),
    ),
    # The float Monte Carlo integrand does nearly all the work and the
    # exact layers none; the two circle maps take the winding route.
    "degree-mc": (
        ("degree", ("phi:3",)),
        ("degree", ("phi:4",)),
        ("degree", ("antipodal:4",)),
        ("degree", ("reflect:3:2",)),
        ("degree", ("zpow:7",)),
        ("degree", ("rot:3/5:4/5",)),
    ),
}

CIRCLE_MAPS = ("zpow:", "rot:")


@dataclass(frozen=True)
class Job:
    verb: str
    names: Tuple[str, ...]
    seed: int
    samples: int = 0
    trials: int = 0

    @property
    def options(self) -> List[str]:
        """The options, in the order the CLI documents them, minus ``--seed``."""
        if self.verb == "verify":
            return ["--samples", str(self.samples), "--trials", str(self.trials)]
        if self.verb == "degree":
            return ["--samples", str(self.samples)]
        return []

    @property
    def seeded(self) -> bool:
        return self.verb in ("eval", "verify", "degree")

    @property
    def argv(self) -> List[str]:
        tail = ["--seed", str(self.seed)] if self.seeded else []
        return [self.verb, *self.names, *self.options, *tail]

    @property
    def key(self) -> str:
        """Seed-free identity of the job, the key of its known answer."""
        return " ".join([self.verb, *self.names, *self.options])

    @property
    def metric(self) -> str:
        """Per-job time metric, ``cli.<verb>.<map>_s``."""
        parts = [n.replace(":", "-").replace("/", "_") for n in self.names]
        return "cli." + ".".join([self.verb, *parts]) + "_s"


def make_jobs(workload: str, seed: int, size: str = "full") -> List[Job]:
    """The workload's job list for a seed; the same seed gives the same jobs."""
    opts = SIZES[size]
    job_seed = seed % SEED_RANGE
    out = []
    for verb, names in WORKLOADS[workload]:
        if verb == "verify":
            job = Job(verb, names, job_seed, opts["verify_samples"], opts["verify_trials"])
        elif verb == "degree":
            circle = names[0].startswith(CIRCLE_MAPS)
            job = Job(verb, names, job_seed, WINDING_SAMPLES if circle else opts["mc_samples"])
        else:
            job = Job(verb, names, job_seed)
        out.append(job)
    return out
