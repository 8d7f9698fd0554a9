"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/test_harness.py

Shows that clean outputs pass every check, that each kind of corrupted
report is counted as failed rather than passed, that replications are
timed inside forked pool workers, that spans nest as the calls do, and
that the benchmark refuses to run without segbreak sources.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_segbreak()

import segbreak  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "exact": wl.Workload("tiny-exact", layout=1, pool=1),
    "two-stage": wl.Workload("tiny-two-stage", layout=2, pool=1, grid_step=20),
    "mc": wl.Workload("tiny-mc", layout=1, pool=1, reps=2, draws=2000),
}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
        cls.rounds = {}
        for key, workload in TINY.items():
            workdir = cls.tmp / key  # input file names repeat across workloads
            workdir.mkdir()
            inp = wl.make_inputs(workload, 3, workdir)[0]
            cls.rounds[key] = (inp, wl.run_round(workload, inp, workdir, 1))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def fit_problems(self, key, doc, bounds=None):
        inp, _ = self.rounds[key]
        penalty = wl.penalty_for(TINY[key])
        return wl.check_fit(doc, inp.dataset, penalty, wl.K, bounds)

    def test_clean_rounds_pass(self):
        for key, workload in TINY.items():
            inp, rnd = self.rounds[key]
            outcome = wl.check_round(workload, inp, rnd, wl.penalty_for(workload), None)
            self.assertEqual(run.tally([outcome]), (len(outcome), 0), (key, outcome))

    def test_corrupted_fit_reports_fail(self):
        _, rnd = self.rounds["exact"]

        def corrupt(edit):
            doc = copy.deepcopy(rnd.doc)
            edit(doc["results"])
            return doc

        def bump_total(res):
            res["total_score"] *= 1.0 + 1e-6

        def bump_coefficient(res):
            seg = max(res["segments"], key=lambda s: len(s["active_covariates"]))
            k = seg["active_covariates"][0] - 1
            seg["coefficients"][k] *= 1.01

        def bump_cost_and_total(res):
            res["segments"][0]["penalized_cost"] += 1.0
            res["total_score"] += 1.0

        def shift_breakpoint(res):
            res["breakpoints"][0] += 1

        def drop_segment(res):
            res["segments"].pop()

        for edit in (bump_total, bump_coefficient, bump_cost_and_total,
                     shift_breakpoint, drop_segment):
            with self.subTest(edit.__name__):
                self.assertTrue(self.fit_problems("exact", corrupt(edit)))

    def test_exact_score_above_a_bound_fails(self):
        inp, rnd = self.rounds["exact"]
        bounds = wl.exact_bounds(inp, wl.penalty_for(TINY["exact"]))
        self.assertEqual(self.fit_problems("exact", rnd.doc, bounds), [])
        total = rnd.doc["results"]["total_score"]
        self.assertTrue(self.fit_problems("exact", rnd.doc, {"two-stage score": total * 0.99}))

    def test_corrupted_simulate_reports_fail(self):
        _, rnd = self.rounds["mc"]
        self.assertEqual(wl.check_simulate(rnd.doc, 2), [])
        edits = {
            "wrong reps": lambda r: r.update(replications=3),
            "lost replication": lambda r: r.update(completed=1),
            "too many failures": lambda r: r.update(
                completed=1, failures=1, selected_k_counts={"2": 1}),
            "counts off": lambda r: r["selected_k_counts"].update({"9": 1}),
        }
        for label, edit in edits.items():
            with self.subTest(label):
                doc = copy.deepcopy(rnd.doc)
                edit(doc["results"])
                self.assertTrue(wl.check_simulate(doc, 2))

    def test_replications_are_timed_in_pool_workers(self):
        workload = TINY["mc"]
        inp, _ = self.rounds["mc"]
        original = segbreak.simulation.select_k
        rnd = wl.run_round(workload, inp, self.tmp / "mc", 2)
        self.assertIs(segbreak.simulation.select_k, original)
        self.assertEqual(len(rnd.op_s), workload.reps)
        self.assertTrue(all(0 < t < rnd.call_s for t in rnd.op_s))
        outcome = wl.check_round(workload, inp, rnd, wl.penalty_for(workload), None)
        self.assertEqual(run.tally([outcome]), (2, 0), outcome)
        untimed = dataclasses.replace(rnd, op_s=rnd.op_s[:-1])
        outcome = wl.check_round(workload, inp, untimed, wl.penalty_for(workload), None)
        self.assertEqual(run.tally([outcome]), (2, 1))

    def test_corrupted_limit_law_fails(self):
        _, rnd = self.rounds["mc"]
        law = rnd.law
        self.assertEqual(wl.check_limit_law(law, 2000), [])
        self.assertTrue(wl.check_limit_law(law, 2001))
        leaky = dataclasses.replace(law, escape_rate=0.05)
        self.assertTrue(wl.check_limit_law(leaky, 2000))
        probs = dict(law.probabilities)
        probs[0] += 0.01
        self.assertTrue(wl.check_limit_law(dataclasses.replace(law, probabilities=probs), 2000))

    def test_reference_mismatch_fails(self):
        _, rnd = self.rounds["two-stage"]
        entry = wl.fit_summary(rnd.doc)
        self.assertEqual(wl.check_fit_reference(rnd.doc, entry), [])
        moved = dict(entry, breakpoints=[b + 1 for b in entry["breakpoints"]])
        self.assertTrue(wl.check_fit_reference(rnd.doc, moved))
        drifted = dict(entry, total_score=entry["total_score"] * (1 + 1e-8))
        self.assertTrue(wl.check_fit_reference(rnd.doc, drifted))
        outcome = wl.check_round(TINY["two-stage"], self.rounds["two-stage"][0], rnd,
                                 wl.penalty_for(TINY["two-stage"]), {"stale": True})
        self.assertEqual(run.tally([outcome]), (1, 1))
        _, sim = self.rounds["mc"]
        pinned = {"simulate": wl.simulate_summary(sim.doc),
                  "limit_law_counts": wl.law_summary(sim.law)}
        self.assertEqual(wl.check_simulate_reference(sim.doc, pinned), [])
        self.assertEqual(wl.check_law_reference(sim.law, pinned), [])
        pinned["limit_law_counts"]["0"] += 1
        self.assertTrue(wl.check_law_reference(sim.law, pinned))

    def test_reference_pins_every_workload_input(self):
        reference = wl.load_reference()
        for workload in wl.WORKLOADS.values():
            pinned = reference["workloads"][workload.name]
            self.assertEqual(pinned["workload"], dataclasses.asdict(workload))
            self.assertEqual(sorted(pinned["inputs"], key=int),
                             [str(i) for i in range(workload.pool)])

    def test_corrupted_report_counts_as_failed_in_a_run(self):
        original = segbreak.cli._emit

        def corrupting_emit(doc, out_path):
            doc["results"]["total_score"] += 1.0
            original(doc, out_path)

        workload = TINY["two-stage"]
        workdir = self.tmp / "two-stage"
        inputs = wl.make_inputs(workload, 3, workdir)
        segbreak.cli._emit = corrupting_emit
        try:
            rounds = run.timed_phase(workload, inputs, 0.0, workdir, 1, None)
        finally:
            segbreak.cli._emit = original
        outcomes = run.check_rounds(workload, 3, rounds)
        self.assertEqual(run.tally(outcomes), (1, 1))

    def test_malformed_report_counts_as_failed(self):
        inp, rnd = self.rounds["exact"]
        broken = dataclasses.replace(rnd, doc={"results": {}})
        outcomes = run.check_rounds(TINY["exact"], 3, [(inp, broken, False)])
        self.assertEqual(run.tally(outcomes), (1, 1))

    def test_spans_nest_and_patches_are_undone(self):
        workload = TINY["exact"]
        inp, _ = self.rounds["exact"]
        original = segbreak.segmentation.segment_cost
        tracer = tracing.Tracer()
        with tracer.traced_run(0):
            self.assertIsNot(segbreak.simulation.segment_cost, original)
            wl.run_round(workload, inp, self.tmp / "exact", 1)
        self.assertIs(segbreak.segmentation.segment_cost, original)
        self.assertIs(segbreak.simulation.segment_cost, original)
        spans = tracer.arrays()
        stats = tracing.layer_stats(spans)
        self.assertEqual(stats["cli.main"]["calls"], 1)
        self.assertEqual(stats["segmentation.build_cost_table"]["calls"], 1)
        table = stats["segmentation.build_cost_table"]["total_s"]
        self.assertLessEqual(table, stats["segmentation.optimal_breakpoints"]["total_s"])
        self.assertLessEqual(stats["solvers.face_step"]["total_s"], table)
        names = tracing.SPAN_NAMES
        pair = names.index("segmentation.pair_costs")
        parent_names = spans["name"][spans["parent"][spans["name"] == pair]]
        self.assertEqual([names[c] for c in parent_names], ["segmentation.build_cost_table"])
        for label, st in stats.items():
            self.assertGreaterEqual(st["self_s"], -1e-6, label)
        # n = 50, minimum segment length p + 1 = 11
        admissible = sum(1 for a in range(51) for b in range(a + 11, 51))
        self.assertEqual(tracer.counters["segmentation.pairs_costed"], admissible)

    def test_refuses_to_run_without_sources(self):
        bare = Path(tempfile.mkdtemp(dir=run.WORK, prefix="bare-"))
        try:
            shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "exact-n500",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
