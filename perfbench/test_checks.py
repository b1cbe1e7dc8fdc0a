"""Self-test of the benchmark's checker and span accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Perturbed answers must be flagged, and a failing command must count as a
failed operation without stopping the benchmark.
"""

import json
import math
import tempfile
import time
import unittest
from pathlib import Path

import checks
import run
import spans

NN4 = {"n_max": 400, "x0": [1, 1], "workers": 4}
SIM = {"estimator": "both", "x0": [5, 5], "n": 60, "n_samples": 1_000_000}


def context(family="nn4", verify_failing=None):
    return checks.CheckContext(family=family, pipeline=NN4, simulate=SIM, zchain={},
                               verify_failing=verify_failing)


class ArtifactCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def outcome(self, command, files, code=0, seed=checks.DEFAULT_SEED):
        """Write ``{name: text}`` and return the outcome that reports them."""
        for name, text in files.items():
            (self.dir / name).write_text(text)
        stdout = "".join(f"wrote {self.dir / name}\n" for name in files)
        return checks.Outcome(command, code, stdout, "", seed)


class ClosedForms(ArtifactCase):
    def cramer(self, dc):
        ref = checks.REFERENCE["nn4"]
        payload = {"h": list(ref["h"]), "c": ref["c"] + dc}
        return self.outcome("cramer", {"cramer_0.json": json.dumps(payload)})

    def test_exact_answer_passes(self):
        self.assertEqual(checks.check(self.cramer(0.0), context()).status, "verdict")

    def test_c_off_by_1e9_is_flagged(self):
        verdict = checks.check(self.cramer(1e-9), context())
        self.assertEqual(verdict.status, "failed")
        self.assertTrue(verdict.incorrect)

    def test_diagonal_degree(self):
        self.assertAlmostEqual(checks.REFERENCE["diagonal"]["p"], 2.0959, places=4)
        out = self.outcome("whiten", {"whiten_0.json": json.dumps({"p": 2.0})})
        self.assertTrue(checks.check(out, context("diagonal")).incorrect)

    def test_exact_survival(self):
        self.assertAlmostEqual(checks.survival_exact("nn4", (1, 1), 1)[1], 0.25)
        p60 = checks.survival_exact("nn4", (5, 5), 60)[-1]
        self.assertAlmostEqual(p60 / 7.6376e-5, 1.0, places=4)


class MonteCarlo(ArtifactCase):
    def simulate(self, flip=False, seed=checks.DEFAULT_SEED):
        pinned = checks.PINNED_MC[("nn4", (5, 5), 60, 1_000_000, 4)]
        records = []
        for name, (value, se) in pinned.items():
            if flip and name == "tilted":
                value = math.nextafter(value, 1.0)
            records.append({"estimator": name, "value": value, "std_error": se,
                            "n_samples": 1_000_000, "seed": seed, "workers": 4})
        return self.outcome("simulate", {"simulate_0.jsonl": "\n".join(
            json.dumps(r) for r in records)}, seed=seed)

    def test_pinned_values_pass(self):
        self.assertEqual(checks.check(self.simulate(), context()).status, "verdict")

    def test_one_flipped_bit_is_flagged(self):
        verdict = checks.check(self.simulate(flip=True), context())
        self.assertTrue(verdict.incorrect)
        self.assertIn("pinned", verdict.problems[0])

    def test_other_seeds_are_held_to_four_standard_errors(self):
        self.assertEqual(checks.check(self.simulate(seed=7), context()).status, "verdict")


class Verdicts(ArtifactCase):
    def verify(self, failing, code):
        rows = [{"check": name, "measured": 0.0, "pass": name not in failing}
                for name in ("hazard.limit", "yaglom.tv", "exit_law.tv")]
        return self.outcome("verify", {"verify_0.jsonl": "\n".join(
            json.dumps(r) for r in rows)}, code=code)

    def test_expected_failing_rows(self):
        expected = frozenset({"yaglom.tv", "exit_law.tv"})
        ok = checks.check(self.verify(expected, 1), context(verify_failing=expected))
        self.assertEqual(ok.status, "verdict")
        extra = checks.check(self.verify(expected | {"hazard.limit"}, 1),
                             context(verify_failing=expected))
        self.assertTrue(extra.incorrect)

    def test_known_defect_needs_its_diagnostic(self):
        defect = checks.Outcome("dp", 3, "", "numerical error: window L = 72 truncates "
                                "1.04e-12 of the surviving mass at step 284", 1)
        self.assertEqual(checks.check(defect, context("diagonal")).status, "known_defect")
        other = checks.Outcome("dp", 3, "", "numerical error: something else", 1)
        self.assertEqual(checks.check(other, context("diagonal")).status, "failed")
        self.assertEqual(checks.check(defect, context("nn4")).status, "failed")


class FailingCommand(unittest.TestCase):
    def test_counts_as_failed_and_the_loop_goes_on(self):
        workload = run.Workload("nn4", ("cramer", "whiten"))
        session = run.Session(workload, context())
        with tempfile.TemporaryDirectory() as tmp:
            # parses, but every command stops with a configuration error (exit 2)
            cfg = Path(tmp) / "mismatch.yaml"
            cfg.write_text((run.ROOT / "configs" / "nn4.yaml").read_text()
                           .replace("dim: 2", "dim: 3"))
            run.run_closed_loop(session, cfg, 0, 0.0, Path(tmp), time.perf_counter() + 120)
        self.assertEqual((session.attempted, session.failed, session.incorrect), (2, 2, 0))
        self.assertEqual(session.verdict_frac(), 0.0)
        with self.assertRaises(run.BenchError):
            run.end_to_end(session)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()

        def inner():
            time.sleep(0.02)

        def outer():
            traced_inner()
            time.sleep(0.01)

        traced_inner = tracer.wrap(inner, "dp_oracle.evolve")
        tracer.wrap(outer, "analysis.hazard")()
        own = spans.self_times(tracer.spans)
        self.assertEqual([s["name"] for s in tracer.spans],
                         ["analysis.hazard", "dp_oracle.evolve"])
        self.assertEqual(tracer.spans[1]["parent"], 0)
        self.assertGreaterEqual(own[1], 0.02)
        self.assertLess(own[0], 0.02)

    def test_failed_call_is_recorded_and_raised(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError("window too small")

        with self.assertRaises(ValueError):
            tracer.wrap(boom, "dp_oracle.evolve")()
        self.assertIn("window too small", tracer.spans[0]["attrs"]["error"])
        self.assertEqual(spans.layer_metrics(tracer.spans, {})["dp_oracle.aborts"], 1)


if __name__ == "__main__":
    unittest.main()
