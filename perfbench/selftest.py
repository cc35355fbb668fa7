"""The benchmark's own tests (about two minutes; not part of the tier-1 suite).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402

for _var in run.THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported
from perfbench.check import check_job, load_answers  # noqa: E402
from perfbench.jobs import WORKLOADS, make_jobs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tiny(workload: str, trace: int) -> tuple:
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


class TinyPasses(unittest.TestCase):
    def check_result(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )

    def test_untraced_pass_prints_every_metric_with_fail_frac_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, result = tiny(workload, 0)
                self.check_result(result, BENCHMARK["end_to_end"])
                self.assertEqual(
                    {k: v["unit"] for k, v in report["metrics"].items()},
                    dict(run.FULL_REPORT),
                )
                self.assertEqual(report["metrics"]["fail_frac"]["value"], 0)
                self.assertEqual(report["failures"], [])

    def test_traced_pass_prints_every_layer_metric_and_matches_the_untraced_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, result = tiny(workload, 1)
                self.check_result(result, BENCHMARK["per_layer"])
                self.assertEqual(report["failures"], [])
                names = {j.metric for j in make_jobs(workload, 5, "tiny")}
                self.assertEqual(set(report["jobs"]), names)


class Determinism(unittest.TestCase):
    def test_same_seed_passes_give_identical_stdout(self):
        answers = load_answers()
        for workload in ("sphere-verify", "degree-mc"):
            jobs = make_jobs(workload, 7, "tiny")
            first, _ = run.run_pass(jobs, answers)
            second, _ = run.run_pass(jobs, answers)
            for job, a, b in zip(jobs, first, second):
                self.assertEqual(a.stdout, b.stdout, job.argv)
                self.assertEqual(a.code, b.code, job.argv)


class WrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.answers = load_answers()
        cls.outputs = {}
        for workload in ("sphere-verify", "degree-mc"):
            jobs = make_jobs(workload, 2, "tiny")
            results, verdicts = run.run_pass(jobs, cls.answers)
            assert all(v.ok for v in verdicts), [v.reason for v in verdicts]
            for job, r in zip(jobs, results):
                cls.outputs[job.argv[1]] = (job, r.code, r.stdout)
        from perfbench.forking import fork_run
        from regmaps import cli

        job = next(j for j in make_jobs("group-build", 2, "tiny") if j.verb == "eval")
        r = fork_run(lambda: cli.main(job.argv))
        cls.outputs["eval"] = (job, r.code, r.stdout)

    def fails_with(self, name: str, mutate) -> None:
        job, code, out = self.outputs[name]
        self.assertTrue(check_job(job, code, out, self.answers).ok)
        wrong = json.loads(json.dumps(self.answers))
        mutate(wrong, job)
        self.assertFalse(check_job(job, code, out, wrong).ok)

    def test_wrong_digest(self):
        def mutate(a, job):
            a["digest"][job.key] = "0" * 64
        self.fails_with("stereo-inv:3", mutate)

    def test_wrong_eval_image(self):
        def mutate(a, job):
            a["eval"][job.key][str(job.seed)] = "0" * 64
        self.fails_with("eval", mutate)

    def test_wrong_verdict(self):
        def mutate(a, job):
            a["verify"][job.key]["checks"][0]["passed"] = True
        self.fails_with("jmap:rotation", mutate)

    def test_fewer_points_than_recorded(self):
        def mutate(a, job):
            a["verify"][job.key]["checks"][1]["counts"]["samples"] += 1
        self.fails_with("oplus:3", mutate)

    def test_weaker_method_than_recorded(self):
        def mutate(a, job):
            a["verify"][job.key]["checks"][3]["method"] = "symbolic"
        self.fails_with("oplus:3", mutate)

    def test_wrong_degree(self):
        job, code, out = self.outputs["phi:4"]
        obj = json.loads(out)
        obj["rounded"] = 1
        self.assertFalse(check_job(job, code, json.dumps(obj).encode(), self.answers).ok)


class Contract(unittest.TestCase):
    def test_declared_metrics_match_run_py(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]), sorted(WORKLOADS))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "degree-mc", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
