"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public entry points of each layer (see
``RUN_LAYERS`` and ``SETUP_LAYERS``) from outside the package: the
wrappers are installed by ``patched`` for the duration of the traced
rounds and removed afterwards, so nothing under ``src/`` changes and
the untraced rounds run the unmodified code.

A span records name, start, end, parent span and operation id (one
id per engine run or bootstrap).  Boundaries crossed 10^4-10^6 times
per operation (NTT calls, key switches, policy calls) are not stored
one by one: each is summed per (nearest stored ancestor, name) into an
aggregate record with its call count, total and child time, which
keeps memory bounded while the self-time accounting stays exact.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

from repro.runtime.policies import (DispatchView, SchedulingPolicy,
                                    make_policy)

#: Span names kept as per-parent aggregates instead of single spans.
AGGREGATED = frozenset({
    "fhe.ntt.forward", "fhe.ntt.inverse", "fhe.rns.convert",
    "fhe.keyswitch.switch", "fhe.keyswitch.switch_hoisted",
    "fhe.keyswitch.mod_up", "fhe.keyswitch.mod_down",
    "runtime.policies.enqueue", "runtime.policies.next_batch",
    "runtime.policies.preview",
})


class Tracer:
    """Records spans on a stack; see the module docstring."""

    def __init__(self):
        #: Stored spans: ``[name, parent, op, start, end, child_s]``.
        self.spans = []
        #: ``(parent, name) -> [calls, total_s, child_s]``.
        self.aggregates = {}
        #: ``name -> [calls, total_s, self_s]`` over every span.
        self.totals = {}
        #: Named event counts (jobs generated, ops priced, ...).
        self.counters = {}
        self._stack = []
        self._ops = 0

    def open(self, name, new_op=False):
        stack = self._stack
        parent = op = None
        if stack:
            top = stack[-1]
            parent = top[3] if top[3] is not None else top[5]
            op = top[4]
        if new_op:
            self._ops += 1
            op = self._ops
        index = None
        if name not in AGGREGATED:
            index = len(self.spans)
            self.spans.append([name, parent, op, 0.0, 0.0, 0.0])
        frame = [name, 0.0, 0.0, index, op, parent]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame):
        end = perf_counter()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        name = frame[0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[2]
        if frame[3] is None:
            key = (frame[5], name)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += frame[2]
        else:
            span = self.spans[frame[3]]
            span[3] = frame[1]
            span[4] = end
            span[5] = frame[2]

    @contextmanager
    def span(self, name, new_op=False):
        frame = self.open(name, new_op)
        try:
            yield frame
        finally:
            self.close(frame)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, new_op=False, counter=None):
        """``fn`` wrapped in a span; ``counter(args, result)`` adds to
        ``counters[name]`` after each call."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, new_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if counter is not None:
                tracer.count(name, counter(args, result))
            return result
        return traced

    def count_calls(self, name, fn, counter):
        """``fn`` with a call counter and no span (its time stays with
        the caller's layer)."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(name, counter(args, result))
            return result
        return counted

    # ------------------------------------------------------------------

    def stat(self, name, field):
        """``calls`` / ``total`` / ``self`` summed over spans ``name``."""
        entry = self.totals.get(name, (0, 0.0, 0.0))
        return entry[("calls", "total", "self").index(field)]

    def nesting_errors(self, tolerance=1e-9):
        """Violations of proper nesting: a child outside its parent's
        interval, children covering more than their parent, a span on
        another operation than its parent, or a span left open."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} span(s) left open")
        for index, (name, parent, op, start, end, child) in \
                enumerate(self.spans):
            if end < start or child > end - start + tolerance:
                errors.append(f"span {index} {name}: bad interval")
            if parent is None:
                continue
            p_name, _, p_op, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {index} {name} escapes parent "
                              f"{parent} {p_name}")
            if op != p_op and p_op is not None:
                errors.append(f"span {index} {name} on op {op} under "
                              f"op {p_op}")
        for (parent, name), (_, total, child) in self.aggregates.items():
            if child > total + tolerance:
                errors.append(f"aggregate {name}: children exceed it")
            if parent is not None:
                p = self.spans[parent]
                if total > p[4] - p[3] + tolerance:
                    errors.append(f"aggregate {name} exceeds parent "
                                  f"{parent} {p[0]}")
        return errors

    def to_json(self):
        return {
            "fields": ["name", "parent", "op", "start", "end", "child_s"],
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "child_s": child}
                for (parent, name), (calls, total, child)
                in self.aggregates.items()],
            "counters": self.counters,
        }


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------

def _jobs(args, result):
    return len(result)


def _ops_priced(args, result):
    return len(args[0].ops)


def _one(args, result):
    return 1


#: ``(module, attribute path, span name, new_op)`` wrapped in a span
#: during traced rounds.
RUN_LAYERS = (
    ("repro.fhe.ntt", "NttContext.forward", "fhe.ntt.forward", False),
    ("repro.fhe.ntt", "NttContext.inverse", "fhe.ntt.inverse", False),
    ("repro.fhe.keyswitch", "KeySwitcher.switch",
     "fhe.keyswitch.switch", False),
    ("repro.fhe.keyswitch", "KeySwitcher.switch_hoisted",
     "fhe.keyswitch.switch_hoisted", False),
    ("repro.fhe.keyswitch", "KeySwitcher.mod_up",
     "fhe.keyswitch.mod_up", False),
    ("repro.fhe.keyswitch", "KeySwitcher.mod_down",
     "fhe.keyswitch.mod_down", False),
    ("repro.fhe.rns", "BaseConverter.convert", "fhe.rns.convert", False),
    ("repro.fhe.rns", "BaseConverter.convert_exact_floor",
     "fhe.rns.convert", False),
    ("repro.fhe.rns", "BaseConverter.convert_exact_centered",
     "fhe.rns.convert", False),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.bootstrap",
     "fhe.bootstrap", True),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.mod_raise",
     "fhe.bootstrap.mod_raise", False),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.sub_sum",
     "fhe.bootstrap.sub_sum", False),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.coeff_to_slot",
     "fhe.bootstrap.coeff_to_slot", False),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.eval_mod",
     "fhe.bootstrap.eval_mod", False),
    ("repro.fhe.bootstrap.pipeline", "Bootstrapper.slot_to_coeff",
     "fhe.bootstrap.slot_to_coeff", False),
    ("repro.runtime.serving", "ServingSimulator._report",
     "runtime.serving.report", False),
    ("repro.runtime.fast_engine", "run_fast",
     "runtime.fast_engine.run", False),
    ("repro.runtime.membership", "run_with_ledger",
     "runtime.membership.run", False),
    ("repro.experiments.resilience_autoscale_sweep", "run_sweep",
     "experiments.run_sweep", False),
)

#: Counted boundaries: ``(module, attribute path, counter, count fn,
#: span)``; with ``span=False`` the call's time stays with its caller.
RUN_COUNTERS = (
    ("repro.runtime.serving", "Scenario.generate",
     "runtime.arrivals.generate", _jobs, True),
    ("repro.runtime.membership", "PoolLedger.transition",
     "runtime.membership.transition", _one, False),
)

#: The paper-scale cost model, traced while the workload sets up.
#: ``serving`` binds ``cost_trace`` at import, so both names are wrapped.
SETUP_LAYERS = (
    ("repro.runtime.lowering", "cost_trace",
     "runtime.lowering.cost_trace", False),
    ("repro.runtime.serving", "cost_trace",
     "runtime.lowering.cost_trace", False),
    ("repro.core.scheduler", "TaskGraph.schedule",
     "core.scheduler.schedule", False),
)

SETUP_COUNTERS = (
    ("repro.core.program", "FabProgram.compile", "core.program.op_cost",
     _ops_priced, False),
    ("repro.core.program", "FabProgram.op_cost", "core.program.op_cost",
     _one, False),
)


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _arrivals_wrapper(tracer, original):
    """``Scenario.arrivals`` is a generator: time each ``next`` as a
    span of the arrivals layer, named after the generation mode."""

    def arrivals(scenario, *args, **kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
        name = ("runtime.arrivals.exact_soa" if mode == "exact"
                else "runtime.arrivals.vectorized")
        chunks = original(scenario, *args, **kwargs)
        while True:
            frame = tracer.open(name)
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.count(name, len(chunk))
            yield chunk
    return arrivals


def _run_wrapper(tracer, original, reports):
    """``ServingSimulator.run``: one operation id per engine run; DES
    and ledger runs get the policy wrapped in :class:`TracedPolicy`;
    every report is kept for the simulated-statistics fingerprint."""
    signature = inspect.signature(original)

    def run(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        if call.arguments["engine"] != "fast":
            call.arguments["policy"] = TracedPolicy(
                make_policy(call.arguments["policy"]), tracer)
        frame = tracer.open("runtime.serving.run", new_op=True)
        try:
            report = original(*call.args, **call.kwargs)
        finally:
            tracer.close(frame)
        reports.append(report)
        return report
    return run


@contextmanager
def patched(tracer, layers=RUN_LAYERS, counters=RUN_COUNTERS,
            reports=None):
    """Install the wrappers for ``layers``/``counters`` (plus, when
    ``reports`` is a list, ``ServingSimulator.run`` and
    ``Scenario.arrivals``); restore the originals on exit."""
    saved = []

    def install(module, path, make):
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for module, path, name, new_op in layers:
            install(module, path,
                    lambda fn, n=name, o=new_op: tracer.wrap(n, fn, o))
        for module, path, name, fn, span in counters:
            if span:
                install(module, path, lambda f, n=name, c=fn:
                        tracer.wrap(n, f, counter=c))
            else:
                install(module, path, lambda f, n=name, c=fn:
                        tracer.count_calls(n, f, c))
        if reports is not None:
            install("repro.runtime.serving", "Scenario.arrivals",
                    lambda fn: _arrivals_wrapper(tracer, fn))
            install("repro.runtime.serving", "ServingSimulator.run",
                    lambda fn: _run_wrapper(tracer, fn, reports))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TracedPolicy(SchedulingPolicy):
    """Delegates to ``inner``, timing ``enqueue``/``next_batch`` and
    the ``DispatchView.service_s`` previews made inside ``next_batch``.
    """

    def __init__(self, inner, tracer):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._source = None
        self._view = None

    def begin(self, ctx):
        super().begin(ctx)
        self.inner.begin(ctx)

    def enqueue(self, job):
        frame = self._tracer.open("runtime.policies.enqueue")
        try:
            self.inner.enqueue(job)
        finally:
            self._tracer.close(frame)

    @property
    def pending(self):
        return self.inner.pending

    def next_batch(self, view):
        # The simulator reuses one view per run and updates ``now`` in
        # place, so one timed proxy per source view suffices.
        if view is not self._source:
            tracer = self._tracer
            service_s = view.service_s

            def preview(job, batch_size):
                frame = tracer.open("runtime.policies.preview")
                try:
                    return service_s(job, batch_size)
                finally:
                    tracer.close(frame)
            self._source = view
            self._view = DispatchView(view.now, view.gang_start, preview)
        self._view.now = view.now
        frame = self._tracer.open("runtime.policies.next_batch")
        try:
            return self.inner.next_batch(self._view)
        finally:
            self._tracer.close(frame)

    def next_event_s(self, now):
        return self.inner.next_event_s(now)

    @property
    def deferred_jobs(self):
        return self.inner.deferred_jobs

    @property
    def deferral_events(self):
        return self.inner.deferral_events

    def queue_depths(self):
        return self.inner.queue_depths()
