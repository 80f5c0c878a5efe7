#!/usr/bin/env python3
"""Layered host-time benchmark of the FAB reproduction.

Run from the repository root::

    python3 hostbench/run.py --workload fleet_fifo --seed 0 \
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see README.md for both dictionaries) and, on the line before
the result, the simulated-statistics fingerprint.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with
provenance and (traced) the fingerprint and spans, is also written
under ``.hostbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Start of the process as this script sees it (after the few ms of
#: standard-library imports above): ``setup_s`` samples run from here
#: to the first timed call.
STARTED = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".hostbench_out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import tracing
    from repro.obs.provenance import provenance
    from workloads import ENGINE_METRICS, WORKLOADS, Op, digest
except ModuleNotFoundError as error:
    # Outside a checkout that holds the package source: no result.
    sys.exit(f"hostbench: {error}; run from a checkout with src/repro")

#: Iterations of the calibration loop; about 2.5 ms on an uncontended
#: core of the 2.1 GHz Xeon the benchmark was tuned on.
CALIBRATION_LOOPS = 40_000

#: Reference time of the calibration loop: an operation's time is
#: reported as if the loop had taken this long around it, so times
#: read as host seconds on an uncontended core of that machine.
CALIBRATION_REF_S = 0.0025

#: Calibration after an operation: about this share of its time, in
#: runs of the loop, at most ``CALIBRATION_MAX_CHUNKS`` of them.
CALIBRATION_SHARE = 0.05
CALIBRATION_MAX_CHUNKS = 40

#: Set-ups per run: the measuring process plus fresh child processes;
#: ``setup_s`` is their median in reference seconds.  Their time
#: counts against the run's ``--seconds``.
SETUP_SAMPLES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (one "
                             "setup_s sample)")
    parser.add_argument("--tiny", action="store_true",
                        help="tenth-size serving inputs (harness self-tests)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

def calibrate(chunks=1):
    """``(seconds, chunks)`` of a fixed pure-Python loop run ``chunks``
    times now: the host's speed at this moment, independent of the
    program under test."""
    t0 = perf_counter()
    total = 0
    for _ in range(chunks):
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
    return perf_counter() - t0, chunks


def calibration_chunks(seconds):
    """Loop runs after an operation of ``seconds``: about
    ``CALIBRATION_SHARE`` of its time, so that a long operation is
    compared with the host's speed over more than a moment."""
    return max(1, min(CALIBRATION_MAX_CHUNKS,
                      round(CALIBRATION_SHARE * seconds / CALIBRATION_REF_S)))


def timed_calibration(tracer, chunks):
    if not tracer:
        return calibrate(chunks)
    with tracer.span("bench.calibrate"):
        return calibrate(chunks)


def run_round(workload, state, tracer=None):
    """Run every operation of the workload once, each between two
    calibration loops; only the calls into the program are timed."""
    gc.collect()
    ops = []
    round_frame = tracer.open("bench.round") if tracer else None
    before = timed_calibration(tracer, 1)
    for engine, seed, call, jobs, runs in workload.ops(state):
        frame = tracer.open("bench.op") if tracer else None
        t0 = perf_counter()
        output = call()
        seconds = perf_counter() - t0
        if tracer:
            tracer.close(frame)
        after = timed_calibration(tracer, calibration_chunks(seconds))
        # Mean loop time over the calibration on both sides.
        calib_s = (before[0] + after[0]) / (before[1] + after[1])
        ops.append(Op(engine, seed, seconds, calib_s, jobs, runs, output))
        before = after
    if tracer:
        tracer.close(round_frame)
    return ops


def run_rounds(workload, state, budget_s, tracer=None, min_rounds=1):
    """At least ``min_rounds`` rounds, then more until the next one
    would overrun ``budget_s``."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(workload, state, tracer))
        typical = statistics.median(sum(op.seconds for op in r)
                                    for r in rounds)
        if (len(rounds) >= min_rounds
                and perf_counter() - start + typical > budget_s):
            return rounds


def op_seconds(rounds):
    """Each operation's time in reference seconds: the median over its
    repeats of its time over the calibration time around it, times
    ``CALIBRATION_REF_S``.  On a shared host, contention slows the
    program and the loop alike from one second to the next, so the
    ratio holds steady where the raw time does not."""
    ratios = {}
    for ops in rounds:
        for op in ops:
            ratios.setdefault(op.label, []).append(op.seconds / op.calib_s)
    return {label: statistics.median(values) * CALIBRATION_REF_S
            for label, values in ratios.items()}


def jobs_per_second(rounds):
    """Simulated jobs of one round over the sum of its operations'
    reference seconds (the bootstrap workload: bootstraps per second)."""
    return (sum(op.jobs for op in rounds[0])
            / sum(op_seconds(rounds).values()))


def host_figures(rounds):
    """The raw figures behind the reference seconds: jobs per second
    over each operation's median measured time, and the median
    calibration time."""
    raw = {}
    for ops in rounds:
        for op in ops:
            raw.setdefault(op.label, []).append(op.seconds)
    seconds = sum(statistics.median(values) for values in raw.values())
    return {
        "measured_jobs_per_s": sum(op.jobs for op in rounds[0]) / seconds,
        "calibration_s": statistics.median(
            op.calib_s for ops in rounds for op in ops),
    }


def check_rounds(workload, state, rounds):
    """``(attempted, failed, problems)`` over all rounds: each
    workload's output checks, plus every repeat of an operation on the
    same seed giving the digest of its first run."""
    attempted = failed = 0
    problems = []
    first = {}
    for ops in rounds:
        found = workload.check(state, ops)
        for op in ops:
            errors = list(found.get(op.label, []))
            key = digest(op.output)
            if first.setdefault(op.label, key) != key:
                errors.append("repeat on the same seed changed the "
                              "output digest")
            attempted += op.runs
            if errors:
                failed += op.runs
                problems += [f"{op.label}: {error}" for error in errors]
    return attempted, failed, problems


def per_engine(rounds):
    """Per-engine throughput over the operations' reference seconds
    (``bootstrap_s``: seconds per bootstrap), named as in README.md."""
    reference = op_seconds(rounds)
    jobs, seconds = {}, {}
    for op in rounds[0]:
        name = ENGINE_METRICS[op.engine]
        jobs[name] = jobs.get(name, 0) + op.jobs
        seconds[name] = seconds.get(name, 0.0) + reference[op.label]
    return {name: (seconds[name] / jobs[name] if name == "bootstrap_s"
                   else jobs[name] / seconds[name]) for name in jobs}


def setup_time():
    """``(seconds, calib_s)``: this process's import + set-up time so
    far and the calibration loop's time right after it."""
    seconds = perf_counter() - STARTED
    calib_s, chunks = calibrate(calibration_chunks(seconds))
    return seconds, calib_s / chunks


def setup_sample(args):
    """One fresh process's ``setup_time()``, as it measures it."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(command, check=True, capture_output=True,
                         text=True, timeout=170)
    return tuple(float(word) for word in out.stdout.split()[-2:])


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def measure(workload, args):
    """Untraced run: the end-to-end metrics."""
    state = workload.setup(args.seed, args.tiny)
    samples = [setup_time()]
    sampling = perf_counter()
    samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    # Two rounds at least, so every run repeats each operation on its
    # seed and the determinism check has something to compare.
    rounds = run_rounds(workload, state,
                        args.seconds - (perf_counter() - sampling),
                        min_rounds=2)
    attempted, failed, problems = check_rounds(workload, state, rounds)
    metrics = {
        "setup_s": (statistics.median(seconds / calib_s
                                      for seconds, calib_s in samples)
                    * CALIBRATION_REF_S, "s"),
        "jobs_per_s": (jobs_per_second(rounds), "jobs/s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    details = {
        "rounds": len(rounds),
        "setup_samples_s": samples,
        "measured_setup_s": statistics.median(seconds
                                              for seconds, _ in samples),
        "per_engine": per_engine(rounds),
        **host_figures(rounds),
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    return state, metrics, details, (attempted, failed), None


def trace(workload, args):
    """Traced run: untraced rounds, then the same rounds traced; the
    per-layer metrics come from the traced ones."""
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.SETUP_LAYERS,
                         tracing.SETUP_COUNTERS):
        with tracer.span("bench.setup"):
            state = workload.setup(args.seed, args.tiny)
    start = perf_counter()
    plain = run_rounds(workload, state, args.seconds / 2)
    reports = []
    with tracing.patched(tracer, reports=reports):
        traced = run_rounds(workload, state,
                            args.seconds - (perf_counter() - start), tracer)
        if "scenario" in state:
            # Kept out of the rounds: a different draw from the exact
            # arrivals, reported only as its own time and job count.
            with tracer.span("bench.vectorized_probe"):
                for seed in state["seeds"]:
                    for _ in state["scenario"].arrivals(seed,
                                                        mode="vectorized"):
                        pass
    attempted, failed, problems = check_rounds(workload, state,
                                               plain + traced)
    nesting = tracer.nesting_errors()
    if nesting:
        failed = attempted
        problems += nesting[:20]
    distinct = {digest(r): r for r in reports}
    metrics = layer_metrics(tracer, state, plain, traced,
                            workload.observe(
                                state, [op for ops in traced for op in ops]))
    details = {
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "failed_frac": failed / attempted,
        "problems": problems,
        "fingerprint": fingerprint(tracer, state, traced, distinct),
    }
    return state, metrics, details, (attempted, failed), tracer


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Spans whose self time is the bootstrap pipeline's own work.
BOOTSTRAP_SPANS = ("fhe.bootstrap", "fhe.bootstrap.mod_raise",
                   "fhe.bootstrap.sub_sum", "fhe.bootstrap.coeff_to_slot",
                   "fhe.bootstrap.eval_mod", "fhe.bootstrap.slot_to_coeff")

#: Catch-all spans: an engine loop, the sweep driver and the bootstrap
#: pipeline.  Their self time takes in whatever an operation does
#: outside the named inner layers (arrivals, policies, reports; NTT,
#: key switching, RNS), so ``bench.unattributed_frac`` counts it with
#: the harness's own time.
CATCHALL_SPANS = ("runtime.serving.run", "runtime.fast_engine.run",
                  "runtime.membership.run",
                  "experiments.run_sweep") + BOOTSTRAP_SPANS

KEYSWITCH_SPANS = ("fhe.keyswitch.switch", "fhe.keyswitch.switch_hoisted",
                   "fhe.keyswitch.mod_up", "fhe.keyswitch.mod_down")

#: Engine metrics a workload does not run read 0 (README.md).
ENGINE_UNITS = {"des_jobs_per_s": "jobs/s", "fast_jobs_per_s": "jobs/s",
                "ledger_jobs_per_s": "jobs/s", "bootstrap_s": "s"}


def short_digest(hex_digest):
    """A hex digest as a 48-bit integer (exact in a JSON number)."""
    return int(hex_digest[:12], 16)


def sim_stats(reports):
    """Simulated outcomes summed over the distinct reports of the
    traced rounds (engines whose reports are equal count once)."""
    values = list(reports.values())
    if not values:
        return {name: 0 for name in FINGERPRINT_UNITS
                if name.startswith("sim.")}
    batches = sum(r.batches for r in values)
    good = sum(r.goodput_jps * r.makespan_s for r in values)
    slo = [r.slo_attainment for r in values if r.slo_attainment is not None]
    return {
        "sim.jobs_done": sum(r.jobs_done for r in values),
        "sim.rejected": sum(r.rejected_jobs for r in values),
        "sim.batches": batches,
        "sim.mean_batch_size": (sum(r.mean_batch_size * r.batches
                                    for r in values) / batches
                                if batches else 0.0),
        "sim.key_hit_rate": statistics.fmean(r.key_hit_rate
                                             for r in values),
        "sim.slo_attainment": statistics.fmean(slo) if slo else 0.0,
        "sim.makespan_s": sum(r.makespan_s for r in values),
        "sim.board_faults": sum(r.board_faults for r in values),
        "sim.retries": sum(r.retries for r in values),
        "sim.resize_events": sum(r.resize_events for r in values),
        "sim.wasted_service_s": sum(r.wasted_service_s for r in values),
        "sim.board_s_per_good_job": (sum(r.board_seconds for r in values)
                                     / good if good else 0.0),
        "sim.goodput_frac": good / sum(
            r.jobs_done + r.rejected_jobs + r.shed_jobs + r.shed_degraded
            for r in values),
        "sim.report_digest": short_digest(hashlib.sha256(
            "".join(sorted(reports)).encode()).hexdigest()),
    }


#: Units of the fingerprint values (README.md).
FINGERPRINT_UNITS = {
    "sim.jobs_done": "count", "sim.rejected": "count",
    "sim.batches": "count", "sim.mean_batch_size": "jobs",
    "sim.key_hit_rate": "ratio", "sim.slo_attainment": "ratio",
    "sim.makespan_s": "s", "sim.board_faults": "count",
    "sim.retries": "count", "sim.resize_events": "count",
    "sim.wasted_service_s": "s", "sim.board_s_per_good_job": "s",
    "sim.goodput_frac": "ratio", "sim.report_digest": "hash",
    "fhe.bootstrap.ct_digest": "hash", "runtime.arrivals.jobs": "count",
    "runtime.arrivals.vectorized_jobs": "count",
    "runtime.membership.transitions": "count",
    "core.model.bootstrap_cycles": "cycles",
    "core.model.table7_rel_err": "ratio",
}


def fingerprint(tracer, state, traced, reports):
    """Values a change meant only to speed up the host must leave
    identical: the simulated outcomes and report digest, the refreshed
    ciphertext's digest, the simulated event counts and the cost
    model's constants (see README.md).  Counts are per traced round."""
    rounds = len(traced)
    model = state["model"]
    values = sim_stats(reports)
    values.update({
        "fhe.bootstrap.ct_digest": (
            short_digest(hashlib.sha256("".join(
                digest(op.output) for op in traced[0]).encode()).hexdigest())
            if "inputs" in state else 0),
        "runtime.arrivals.jobs": (
            tracer.counters.get("runtime.arrivals.generate", 0)
            + tracer.counters.get("runtime.arrivals.exact_soa", 0)) / rounds,
        "runtime.arrivals.vectorized_jobs": tracer.counters.get(
            "runtime.arrivals.vectorized", 0),
        "runtime.membership.transitions": tracer.counters.get(
            "runtime.membership.transition", 0) / rounds,
        "core.model.bootstrap_cycles": model["core.model.bootstrap_cycles"],
        "core.model.table7_rel_err": model["core.model.table7_rel_err"],
    })
    return values


def layer_metrics(tracer, state, plain, traced, observed):
    """Per-layer values per traced round (see README.md)."""
    rounds = len(traced)

    def per_round(name, field="total"):
        return tracer.stat(name, field) / rounds

    traced_wall = (tracer.stat("bench.round", "total")
                   - tracer.stat("bench.calibrate", "total"))
    unattributed = (tracer.stat("bench.round", "self")
                    + tracer.stat("bench.op", "self")
                    + sum(tracer.stat(name, "self")
                          for name in CATCHALL_SPANS))
    plain_s = sum(op_seconds(plain).values())
    traced_s = sum(op_seconds(traced).values())
    model = state["model"]
    metrics = {name: (0, unit) for name, unit in ENGINE_UNITS.items()}
    metrics.update({name: (value, ENGINE_UNITS[name])
                    for name, value in per_engine(plain).items()})
    metrics.update({
        "fhe.ntt.forward_calls": (per_round("fhe.ntt.forward", "calls"),
                                  "count"),
        "fhe.ntt.forward_s": (per_round("fhe.ntt.forward"), "s"),
        "fhe.ntt.inverse_calls": (per_round("fhe.ntt.inverse", "calls"),
                                  "count"),
        "fhe.ntt.inverse_s": (per_round("fhe.ntt.inverse"), "s"),
        "fhe.keyswitch.calls": (
            per_round("fhe.keyswitch.switch", "calls")
            + per_round("fhe.keyswitch.switch_hoisted", "calls"), "count"),
        "fhe.keyswitch.self_s": (
            sum(per_round(n, "self") for n in KEYSWITCH_SPANS), "s"),
        "fhe.rns.convert_s": (per_round("fhe.rns.convert"), "s"),
        "fhe.bootstrap.self_s": (
            sum(per_round(n, "self") for n in BOOTSTRAP_SPANS), "s"),
    })
    for stage in BOOTSTRAP_SPANS[1:]:
        metrics[stage + "_s"] = (per_round(stage), "s")
    metrics.update({
        "fhe.bootstrap.max_abs_error": (
            observed.get("fhe.bootstrap.max_abs_error", 0.0), "abs"),
        "fhe.keygen_s": (model.get("fhe.keygen_s", 0.0), "s"),
        "fhe.bootstrap.precompute_s": (
            model.get("fhe.bootstrap.precompute_s", 0.0), "s"),
        "runtime.lowering.cost_trace_calls": (
            tracer.stat("runtime.lowering.cost_trace", "calls"), "count"),
        "runtime.lowering.cost_trace_s": (
            tracer.stat("runtime.lowering.cost_trace", "total"), "s"),
        "core.scheduler.schedule_s": (
            tracer.stat("core.scheduler.schedule", "total"), "s"),
        "core.program.op_cost_calls": (
            tracer.counters.get("core.program.op_cost", 0), "count"),
        "runtime.arrivals.generate_s": (
            per_round("runtime.arrivals.generate"), "s"),
        "runtime.arrivals.exact_soa_s": (
            per_round("runtime.arrivals.exact_soa"), "s"),
        "runtime.arrivals.vectorized_s": (
            tracer.stat("runtime.arrivals.vectorized", "total"), "s"),
        "runtime.policies.enqueue_calls": (
            per_round("runtime.policies.enqueue", "calls"), "count"),
        "runtime.policies.enqueue_s": (
            per_round("runtime.policies.enqueue"), "s"),
        "runtime.policies.next_batch_calls": (
            per_round("runtime.policies.next_batch", "calls"), "count"),
        "runtime.policies.next_batch_self_s": (
            per_round("runtime.policies.next_batch", "self"), "s"),
        "runtime.policies.preview_calls": (
            per_round("runtime.policies.preview", "calls"), "count"),
        "runtime.policies.preview_s": (
            per_round("runtime.policies.preview"), "s"),
        "runtime.serving.loop_self_s": (
            per_round("runtime.serving.run", "self"), "s"),
        "runtime.serving.report_s": (
            per_round("runtime.serving.report"), "s"),
        "runtime.fast_engine.loop_self_s": (
            per_round("runtime.fast_engine.run", "self"), "s"),
        "runtime.membership.loop_self_s": (
            per_round("runtime.membership.run", "self"), "s"),
        "experiments.sweep_overhead_s": (
            per_round("experiments.run_sweep", "self"), "s"),
    })
    metrics["bench.trace_overhead_frac"] = (traced_s / plain_s - 1.0,
                                            "ratio")
    metrics["bench.unattributed_frac"] = (unattributed / traced_wall,
                                          "ratio")
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def provenance_stamp(args, state):
    return provenance(seed=args.seed, config=state["config"],
                      workload=args.workload, nproc=os.cpu_count(),
                      python=platform.python_version(),
                      numpy=np.__version__, traced=bool(args.trace),
                      seconds=args.seconds, tiny=args.tiny)


def emit(args, state, metrics, details, counts, tracer):
    attempted, failed = counts
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stamp = provenance_stamp(args, state)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": stamp, "details": details, "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(
            json.dumps(tracer.to_json()))
    print(f"hostbench {args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={details['rounds']}")
    shown = dict(metrics)
    if args.trace == 0:
        shown.update({name: (value, ENGINE_UNITS[name]) for name, value
                      in details["per_engine"].items()})
        shown["measured_jobs_per_s"] = (details["measured_jobs_per_s"],
                                        "jobs/s")
        shown["measured_setup_s"] = (details["measured_setup_s"], "s")
        shown["calibration_s"] = (details["calibration_s"], "s")
    shown["failed_frac"] = (details["failed_frac"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for problem in details["problems"][:20]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    if "fingerprint" in details:
        print("fingerprint " + json.dumps(details["fingerprint"]))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(args.seed, args.tiny)
        print(*setup_time())
        return 0
    mode = trace if args.trace else measure
    emit(args, *mode(workload, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
