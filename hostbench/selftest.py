#!/usr/bin/env python3
"""Self-tests of the benchmark harness on hundredth-size inputs.

Run from the repository root (about a minute)::

    python3 hostbench/selftest.py

Checks that every metric in ``BENCHMARK.json`` and every fingerprint
value is documented in README.md with the same unit and emitted by
each workload it applies to, that a perturbed report lands in
``failed``, that calibration cancels a host slowdown but not a
slower program, that the traced run's spans nest and account for the
traced time, that the unattributed share grows when a layer loses its
wrapper, and that the benchmark refuses to run without the package
source.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ALL = set(workloads.WORKLOADS)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def documented(header="metric"):
    """``name -> (unit, workloads it is nonzero on)`` from the rows of
    README.md's tables headed ``| <header> | unit | nonzero on |``."""
    rows = {}
    in_table = False
    for line in (HERE / "README.md").read_text().splitlines():
        if line.startswith(f"| {header} | unit | nonzero on |"):
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        match = re.match(r"\|\s*`([^`]+)`\s*\|\s*([^|]+?)\s*\|"
                         r"\s*([^|]+?)\s*\|", line)
        if not (in_table and match):
            continue
        name, unit, where = match.groups()
        names = ALL if where == "all" else {
            w.strip() for w in where.split(",") if w.strip() in ALL}
        rows[name] = (unit, names)
    return rows


def bench(workload, trace):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


class MetricDictionary(unittest.TestCase):

    def test_benchmark_json_and_readme_agree(self):
        end_to_end, per_layer = declared()
        rows = documented()
        for name, unit in {**end_to_end, **per_layer}.items():
            self.assertIn(name, rows, f"{name} missing from README.md")
            self.assertEqual(rows[name][0], unit, name)
        self.assertEqual(set(rows), set(end_to_end) | set(per_layer))

    def test_fingerprint_documented(self):
        rows = documented("fingerprint")
        self.assertEqual({name: unit for name, (unit, _) in rows.items()},
                         run.FINGERPRINT_UNITS)
        _, per_layer = declared()
        self.assertFalse(set(rows) & set(per_layer))

    def test_every_metric_emitted_for_its_workloads(self):
        end_to_end, per_layer = declared()
        rows = documented()
        printed = documented("fingerprint")
        for workload in sorted(ALL):
            for trace, names in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    out = bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(names))
                    for name, entry in metrics.items():
                        self.assertEqual(entry["unit"], names[name])
                        self.assertIsInstance(entry["value"], (int, float))
                        if workload in rows[name][1]:
                            self.assertNotEqual(entry["value"], 0,
                                                f"{name} on {workload}")
                    if trace == 0:
                        continue
                    line, = [line for line in out.stdout.splitlines()
                             if line.startswith("fingerprint ")]
                    values = json.loads(line.split(" ", 1)[1])
                    self.assertEqual(set(values), set(printed))
                    for name, value in values.items():
                        if workload in printed[name][1]:
                            self.assertNotEqual(value, 0,
                                                f"{name} on {workload}")


class OutputChecks(unittest.TestCase):

    def setUp(self):
        self.workload = workloads.FleetFifo()
        self.state = self.workload.setup(0, tiny=True)

    def test_clean_rounds_pass(self):
        rounds = [run.run_round(self.workload, self.state) for _ in range(2)]
        attempted, failed, problems = run.check_rounds(
            self.workload, self.state, rounds)
        ops = 2 * self.workload.inputs * len(self.workload.engines)
        self.assertEqual((attempted, failed, problems), (ops, 0, []))

    def test_perturbed_report_trips_parity(self):
        ops = run.run_round(self.workload, self.state)
        fast = next(op for op in ops if op.engine == "fast")
        fast.output = dataclasses.replace(
            fast.output, key_hit_rate=fast.output.key_hit_rate + 1e-9)
        attempted, failed, problems = run.check_rounds(
            self.workload, self.state, [ops])
        self.assertEqual((attempted, failed), (len(ops), 1))
        self.assertIn("parity", problems[0])
        self.assertIn("key_hit_rate", problems[0])

    def test_perturbed_fast_report_trips_untimed_reference(self):
        workload = workloads.FleetFast()
        state = workload.setup(0, tiny=True)
        ops = run.run_round(workload, state)
        self.assertEqual({op.engine for op in ops}, {"fast"})
        ops[0].output = dataclasses.replace(
            ops[0].output, batches=ops[0].output.batches + 1)
        attempted, failed, problems = run.check_rounds(workload, state,
                                                       [ops])
        self.assertEqual((attempted, failed), (workload.inputs, 1))
        self.assertIn("batches", problems[0])
        # One DES reference run per input, made once and kept.
        self.assertEqual(len(state["reference"]), workload.inputs)

    def test_lost_job_trips_conservation(self):
        ops = run.run_round(self.workload, self.state)
        ops[0].output = dataclasses.replace(
            ops[0].output, jobs_done=ops[0].output.jobs_done - 1)
        _, failed, problems = run.check_rounds(self.workload, self.state,
                                               [ops])
        # The DES report of the first input fails conservation; that
        # input's fast and ledger reports now differ from it.
        self.assertEqual(failed, 3)
        self.assertTrue(any("conservation" in p for p in problems))

    def test_changed_repeat_trips_determinism(self):
        first = run.run_round(self.workload, self.state)
        second = run.run_round(self.workload, self.state)
        for op in second:
            op.output = dataclasses.replace(op.output, batches=0)
        _, failed, problems = run.check_rounds(self.workload, self.state,
                                               [first, second])
        self.assertEqual(failed, len(second))
        self.assertTrue(any("digest" in p for p in problems))


class Calibration(unittest.TestCase):

    @staticmethod
    def rounds(seconds, calib_s):
        return [[workloads.Op("des", 0, t, c, 100, 1, None)]
                for t, c in zip(seconds, calib_s)]

    def test_host_slowdown_cancels(self):
        steady = self.rounds([0.02, 0.02, 0.02], [0.0025] * 3)
        # The host runs at half speed in two of three rounds: the
        # program and the loop both take twice as long.
        slowed = self.rounds([0.02, 0.04, 0.04], [0.0025, 0.005, 0.005])
        self.assertAlmostEqual(run.jobs_per_second(steady), 5000.0)
        self.assertAlmostEqual(run.jobs_per_second(slowed), 5000.0)
        self.assertLess(run.host_figures(slowed)["measured_jobs_per_s"],
                        2500.0 + 1e-9)

    def test_slower_program_shows_in_full(self):
        slower = self.rounds([0.03] * 3, [0.0025] * 3)
        self.assertAlmostEqual(run.jobs_per_second(slower), 100 / 0.03)

    def test_calibration_grows_with_the_operation(self):
        self.assertEqual(run.calibration_chunks(0.001), 1)
        self.assertEqual(run.calibration_chunks(1.0),
                         round(run.CALIBRATION_SHARE / run.CALIBRATION_REF_S))
        self.assertEqual(run.calibration_chunks(100.0),
                         run.CALIBRATION_MAX_CHUNKS)


class Spans(unittest.TestCase):

    def traced_round(self, workload, layers=tracing.RUN_LAYERS):
        state = workload.setup(0, tiny=True)
        plain = [run.run_round(workload, state)]
        tracer = tracing.Tracer()
        reports = []
        with tracing.patched(tracer, layers, reports=reports):
            traced = [run.run_round(workload, state, tracer)]
        metrics = run.layer_metrics(tracer, state, plain, traced,
                                    workload.observe(state, traced[0]))
        return tracer, metrics, reports

    def test_spans_nest_and_account_for_the_round(self):
        for workload in (workloads.FleetFifo(), workloads.ChurnDiurnal(),
                         workloads.BootstrapN16()):
            with self.subTest(workload=workload.name):
                tracer, metrics, reports = self.traced_round(workload)
                self.assertEqual(tracer.nesting_errors(), [])
                wall = tracer.stat("bench.round", "total")
                covered = sum(t[2] for t in tracer.totals.values())
                self.assertAlmostEqual(covered, wall, delta=1e-9 * wall)
                self.assertEqual(len({s[2] for s in tracer.spans
                                      if s[0] == "runtime.serving.run"}),
                                 len(reports))
                # The named layers' self times plus the unattributed
                # share make up the traced round; the unattributed
                # share is the harness plus the catch-all self times.
                named = [
                    "fhe.ntt.forward_s", "fhe.ntt.inverse_s",
                    "fhe.keyswitch.self_s", "fhe.rns.convert_s",
                    "runtime.arrivals.generate_s",
                    "runtime.arrivals.exact_soa_s",
                    "runtime.policies.enqueue_s",
                    "runtime.policies.next_batch_self_s",
                    "runtime.policies.preview_s",
                    "runtime.serving.report_s"]
                catchall = [
                    "fhe.bootstrap.self_s", "runtime.serving.loop_self_s",
                    "runtime.fast_engine.loop_self_s",
                    "runtime.membership.loop_self_s",
                    "experiments.sweep_overhead_s"]
                # The calibration loops between operations are not
                # part of the traced time.
                timed = wall - tracer.stat("bench.calibrate", "total")
                unattributed = metrics["bench.unattributed_frac"][0] * timed
                self.assertAlmostEqual(
                    sum(metrics[n][0] for n in named) + unattributed, timed,
                    delta=1e-6 * wall)
                harness = (tracer.stat("bench.round", "self")
                           + tracer.stat("bench.op", "self"))
                self.assertAlmostEqual(
                    sum(metrics[n][0] for n in catchall) + harness,
                    unattributed, delta=1e-6 * wall)

    def test_unwrapped_layer_shows_as_unattributed(self):
        """Without its NTT spans the bootstrap's NTT time falls to the
        pipeline's self time, and the unattributed share grows by it."""
        without_ntt = tuple(layer for layer in tracing.RUN_LAYERS
                            if not layer[2].startswith("fhe.ntt"))
        share = {}
        for name, layers in (("all", tracing.RUN_LAYERS),
                             ("without_ntt", without_ntt)):
            _, metrics, _ = self.traced_round(workloads.BootstrapN16(),
                                              layers)
            share[name] = metrics["bench.unattributed_frac"][0]
        self.assertGreater(share["without_ntt"], share["all"] + 0.3)

    def test_escaping_span_is_reported(self):
        tracer = tracing.Tracer()
        with tracer.span("bench.round"):
            with tracer.span("runtime.serving.run", new_op=True):
                pass
        tracer.spans[1][4] = tracer.spans[0][4] + 1.0
        self.assertTrue(any("escapes" in e for e in tracer.nesting_errors()))

    def test_wrappers_are_removed(self):
        from repro.runtime.serving import ServingSimulator
        original = ServingSimulator.__dict__["run"]
        with tracing.patched(tracing.Tracer(), reports=[]):
            self.assertIsNot(ServingSimulator.__dict__["run"], original)
        self.assertIs(ServingSimulator.__dict__["run"], original)


class BareDirectory(unittest.TestCase):

    def test_fails_without_package_source(self):
        bare = ROOT / ".hostbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "fleet_fifo", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
