"""Record the known-answer table ``answers.json`` from the current program.

    python3 perfbench/make_answers.py

Run it only in a change that alters the benchmark itself: the table is
what later changes are held to.  It records every workload's jobs at every
size: stdout digests of ``build``/``compose``, check names, verdicts,
methods and counts of ``verify`` (at seed 0; they do not depend on the
seed), and the exact ``eval`` images for every seed in ``SEED_RANGE``.
It refuses to record verdicts that contradict the documented ones: every
suite passes except ``jmap:rotation``, which fails only
``maps-into-codomain``, and every degree is the known one.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    from regmaps import cli

    from perfbench.check import ANSWERS_PATH, check_job, digest, eval_digest, verify_record
    from perfbench.forking import fork_run
    from perfbench.jobs import SEED_RANGE, SIZES, WORKLOADS, Job, make_jobs

    def require(ok: bool, what) -> None:
        if not ok:
            raise SystemExit(f"refusing to record: {what}")

    def run(job: Job):
        result = fork_run(lambda: cli.main(job.argv))
        return result.code, result.stdout

    table = {"digest": {}, "verify": {}, "eval": {}}
    for workload in WORKLOADS:
        for size in SIZES:
            for job in make_jobs(workload, 0, size):
                if job.key in table[job.verb if job.verb in ("verify", "eval") else "digest"]:
                    continue
                if job.verb in ("build", "compose"):
                    code, out = run(job)
                    require(code == 0, job.argv)
                    table["digest"][job.key] = digest(out)
                elif job.verb == "verify":
                    code, out = run(job)
                    record = verify_record(code, json.loads(out))
                    failing = [c["name"] for c in record["checks"] if not c["passed"]]
                    expect = ["maps-into-codomain"] if job.names == ("jmap:rotation",) else []
                    require(failing == expect and code == (1 if expect else 0), (job.argv, failing))
                    table["verify"][job.key] = record
                elif job.verb == "eval":
                    seeds = {}
                    for seed in range(SEED_RANGE):
                        seeded = Job(job.verb, job.names, seed)
                        code, out = run(seeded)
                        require(code == 0, seeded.argv)
                        seeds[str(seed)] = eval_digest(json.loads(out))
                    table["eval"][job.key] = seeds
                else:
                    code, out = run(job)
                    verdict = check_job(job, code, out, table)
                    require(verdict.ok, (job.argv, verdict.reason))
                print(" ".join(job.argv), file=sys.stderr)
    with open(ANSWERS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
