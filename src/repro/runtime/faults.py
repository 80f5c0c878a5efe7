"""Board-fault injection and recovery for the serving simulator.

Real accelerator fleets lose boards — transiently (a thermal trip, an
XRT reset) and permanently (wear-out).  This module adds that failure
surface to the serving stack in two pieces, which the DES loop
(:func:`repro.runtime.membership.run_with_ledger`) applies when
:meth:`repro.runtime.serving.ServingSimulator.run` gets ``faults=``:

* **Fault processes** — :class:`PoissonFaultProcess` (exponential
  time-to-failure at an MTBF with exponential MTTR repairs),
  :class:`WeibullFaultProcess` (wear-out hazard, ``shape > 1``), and
  :class:`TraceFaultProcess` (scripted per-board fault traces, JSONL
  round-trippable — the deterministic chaos-test input).  Draws are
  seeded per ``(run seed, board)``, so fault schedules are exactly
  reproducible and independent of arrival randomness.
* **Retry policies** — what happens to the jobs of a batch a fault
  killed: :class:`NoRetry` sheds them, :class:`ImmediateRetry`
  re-enqueues instantly up to a retry budget, and
  :class:`ExponentialBackoffRetry` re-enqueues after a capped,
  jittered exponential backoff.  Retried jobs keep their original
  arrival time and deadline — latency and SLO accounting never reset.

Fault semantics
---------------

A board's fault timeline is an alternating renewal process of
``(down_at, up_at)`` intervals, consumed lazily.  When a board goes
down its HBM switching-key cache is wiped (counted as evictions), so
a repaired board is *cold*: its first batches re-replicate their key
working sets over PCIe at the usual
:func:`repro.runtime.serving.key_load_seconds` price — re-replication
is charged through the existing cost model, not a bolted-on constant.
``up_at = inf`` is a permanent failure: the board leaves the pool.

A fault during an in-flight batch **kills the whole gang**: every
member's work since the batch start is wasted (reported as
``wasted_service_s``, still billed under the price signal), and each
job goes to the retry policy.  A striped job whose planned gang no
longer fits the pool — fewer non-dead boards than ``num_fpgas`` — is
**re-planned** onto the largest viable smaller stripe (degraded mode,
via :meth:`repro.runtime.serving.JobClass.restriped`) or shed with
reason ``"degraded"`` when no stripe fits or the class was built
without its trace.  Transient shortages are simply waited out: a gang
treats a down board like a busy one and starts when it repairs.

Reports grow ``board_faults``/``failures``/``retries``/``shed_jobs``/
``shed_degraded``/``degraded_jobs``/``wasted_service_s`` and
``goodput_jps`` (completed-by-deadline jobs per second — the useful
rate to weigh against ``throughput_jps``); recorders see
``board_fault``/``board_repair`` instants and a healthy-board counter.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .serving import Job
from .specs import SpecError, parse_spec_kwargs, take_spec_options

#: Registry of spec names accepted by :func:`make_fault_process`.
FAULT_PROCESSES = ("poisson", "weibull", "trace")

#: Registry of spec names accepted by :func:`make_retry_policy`.
RETRY_POLICIES = ("none", "immediate", "backoff")


# ----------------------------------------------------------------------
# Fault processes
# ----------------------------------------------------------------------

class FaultProcess:
    """Base class: a per-board alternating up/down renewal process.

    Subclasses implement :meth:`intervals` — an infinite stream of
    ``(time_to_failure_s, time_to_repair_s)`` pairs drawn from a
    board-local RNG (``time_to_repair_s = inf`` ends the board
    permanently).  :meth:`board_intervals` converts them into absolute
    ``(down_at_s, up_at_s)`` intervals, seeding the RNG from the run
    seed and the board index (string seeds: tuple seeding raises on
    modern Pythons), so every board's schedule is independent and
    reproducible.
    """

    name = "base"

    def intervals(self, rng: random.Random
                  ) -> Iterator[Tuple[float, float]]:
        raise NotImplementedError

    def board_intervals(self, board: int, seed: int
                        ) -> Iterator[Tuple[float, float]]:
        rng = random.Random(f"faults:{seed}:{board}")
        t = 0.0
        for ttf, ttr in self.intervals(rng):
            down = t + ttf
            up = math.inf if math.isinf(ttr) else down + ttr
            yield down, up
            if math.isinf(up):
                return
            t = up

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PoissonFaultProcess(FaultProcess):
    """Memoryless faults: exponential time-to-failure at ``mtbf_s``,
    exponential repairs at ``mttr_s`` (the classic availability
    model; steady-state availability is ``mtbf / (mtbf + mttr)``)."""

    name = "poisson"

    def __init__(self, mtbf_s: float, mttr_s: float):
        if mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if mttr_s <= 0:
            raise ValueError("mttr_s must be positive")
        self.mtbf_s = float(mtbf_s)
        self.mttr_s = float(mttr_s)

    def intervals(self, rng):
        fail = 1.0 / self.mtbf_s
        repair = 1.0 / self.mttr_s
        while True:
            yield rng.expovariate(fail), rng.expovariate(repair)

    def __repr__(self):
        return (f"PoissonFaultProcess(mtbf_s={self.mtbf_s:g}, "
                f"mttr_s={self.mttr_s:g})")


class WeibullFaultProcess(FaultProcess):
    """Wear-out faults: Weibull time-to-failure (``shape > 1`` gives
    an increasing hazard — old boards fail more), exponential repairs.
    A ``permanent_after``-th fault, when set, retires the board for
    good (the wear-out end state)."""

    name = "weibull"

    def __init__(self, scale_s: float, shape: float = 2.0,
                 mttr_s: float = 0.1,
                 permanent_after: Optional[int] = None):
        if scale_s <= 0:
            raise ValueError("scale_s must be positive")
        if shape <= 0:
            raise ValueError("shape must be positive")
        if mttr_s <= 0:
            raise ValueError("mttr_s must be positive")
        if permanent_after is not None and permanent_after < 1:
            raise ValueError("permanent_after must be >= 1")
        self.scale_s = float(scale_s)
        self.shape = float(shape)
        self.mttr_s = float(mttr_s)
        self.permanent_after = permanent_after

    def intervals(self, rng):
        repair = 1.0 / self.mttr_s
        count = 0
        while True:
            ttf = rng.weibullvariate(self.scale_s, self.shape)
            count += 1
            if (self.permanent_after is not None
                    and count >= self.permanent_after):
                yield ttf, math.inf
                return
            yield ttf, rng.expovariate(repair)

    def __repr__(self):
        return (f"WeibullFaultProcess(scale_s={self.scale_s:g}, "
                f"shape={self.shape:g}, mttr_s={self.mttr_s:g}, "
                f"permanent_after={self.permanent_after})")


class TraceFaultProcess(FaultProcess):
    """Scripted faults: explicit ``(board, down_at_s, up_at_s)``
    events (``up_at_s = None``/``inf`` marks a permanent failure).
    The deterministic input for chaos tests and for replaying measured
    fleet incident logs; JSONL round-trip via :meth:`from_jsonl` /
    :meth:`to_jsonl` (one ``{"board":, "down":, "up":}`` object per
    line, mirroring the arrival-trace format)."""

    name = "trace"

    def __init__(self, events: Sequence[Tuple[int, float,
                                              Optional[float]]]):
        per_board: Dict[int, List[Tuple[float, float]]] = {}
        for board, down, up in events:
            up_f = math.inf if up is None else float(up)
            if down < 0:
                raise ValueError("fault times must be >= 0")
            if up_f <= down:
                raise ValueError(
                    f"fault interval ({down}, {up_f}) on board "
                    f"{board} must have up > down")
            per_board.setdefault(int(board), []).append(
                (float(down), up_f))
        for board, intervals in per_board.items():
            intervals.sort()
            for (d0, u0), (d1, _u1) in zip(intervals, intervals[1:]):
                if d1 < u0:
                    raise ValueError(
                        f"overlapping fault intervals on board "
                        f"{board}: ({d0}, {u0}) and ({d1}, ...)")
        self.per_board = per_board

    def board_intervals(self, board, seed):
        return iter(self.per_board.get(board, ()))

    def intervals(self, rng):  # pragma: no cover - not reachable
        raise NotImplementedError("TraceFaultProcess is per-board")

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceFaultProcess":
        events = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                events.append((int(record["board"]),
                               float(record["down"]),
                               record.get("up")))
        return cls(events)

    def to_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for board in sorted(self.per_board):
                for down, up in self.per_board[board]:
                    fh.write(json.dumps(
                        {"board": board, "down": down,
                         "up": None if math.isinf(up) else up}) + "\n")

    def __repr__(self):
        count = sum(len(v) for v in self.per_board.values())
        return f"TraceFaultProcess({count} events)"


def make_fault_process(spec) -> FaultProcess:
    """Build a fault process from a CLI spec string (or pass an
    instance through).

    ``poisson:mtbf=2,mttr=0.2`` · ``weibull:scale=5,shape=2,mttr=0.5``
    (add ``permanent_after=N`` to retire boards at their N-th fault) ·
    ``trace:PATH`` for a JSONL fault trace.  Times are seconds.
    """
    if isinstance(spec, FaultProcess):
        return spec
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "trace":
        if not rest:
            raise SpecError("trace faults need a path: trace:PATH")
        return TraceFaultProcess.from_jsonl(rest)
    kwargs = parse_spec_kwargs(rest, what="fault")
    if name == "poisson":
        mtbf, mttr = take_spec_options(
            kwargs, spec, what="fault process", mtbf=1.0, mttr=0.1)
        return PoissonFaultProcess(mtbf, mttr)
    if name == "weibull":
        scale, shape, mttr, permanent_after = take_spec_options(
            kwargs, spec, what="fault process", scale=1.0, shape=2.0,
            mttr=0.1, permanent_after=math.nan)
        return WeibullFaultProcess(
            scale, shape=shape, mttr_s=mttr,
            permanent_after=(None if math.isnan(permanent_after)
                             else int(permanent_after)))
    raise SpecError(f"unknown fault process {name!r}; "
                    f"try: {', '.join(FAULT_PROCESSES)}")


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------

class RetryPolicy:
    """Decides when (and whether) a fault-killed job runs again.

    :meth:`next_attempt_s` returns the absolute time the job should
    re-enter the queues, or ``None`` to shed it.  ``job.retries`` is
    the number of re-enqueues already performed — the attempt counter
    budgets and backoffs key off.
    """

    name = "base"

    def next_attempt_s(self, job: Job, now: float,
                       rng: random.Random) -> Optional[float]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoRetry(RetryPolicy):
    """Shed every fault-killed job (the pre-recovery baseline)."""

    name = "none"

    def next_attempt_s(self, job, now, rng):
        return None


class ImmediateRetry(RetryPolicy):
    """Re-enqueue instantly, up to ``max_retries`` per job."""

    name = "immediate"

    def __init__(self, max_retries: int = 3):
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.max_retries = int(max_retries)

    def next_attempt_s(self, job, now, rng):
        if job.retries >= self.max_retries:
            return None
        return now

    def __repr__(self):
        return f"ImmediateRetry(max_retries={self.max_retries})"


class ExponentialBackoffRetry(RetryPolicy):
    """Exponential backoff with a cap and deterministic jitter.

    Attempt ``k`` (0-based) waits ``min(cap_s, base_s * factor**k)``
    scaled by ``1 + jitter * U`` with ``U ~ Uniform[0, 1)`` drawn from
    the run's seeded retry RNG — jitter de-synchronizes the retry
    herd a mass failure creates without sacrificing reproducibility.
    ``max_retries`` is the per-job budget; past it the job is shed.
    """

    name = "backoff"

    def __init__(self, base_s: float = 0.01, factor: float = 2.0,
                 cap_s: float = 1.0, max_retries: int = 6,
                 jitter: float = 0.25):
        if base_s <= 0:
            raise ValueError("base_s must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if cap_s < base_s:
            raise ValueError("cap_s must be >= base_s")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.base_s = float(base_s)
        self.factor = float(factor)
        self.cap_s = float(cap_s)
        self.max_retries = int(max_retries)
        self.jitter = float(jitter)

    def next_attempt_s(self, job, now, rng):
        if job.retries >= self.max_retries:
            return None
        delay = min(self.cap_s, self.base_s * self.factor ** job.retries)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return now + delay

    def __repr__(self):
        return (f"ExponentialBackoffRetry(base_s={self.base_s:g}, "
                f"factor={self.factor:g}, cap_s={self.cap_s:g}, "
                f"max_retries={self.max_retries}, "
                f"jitter={self.jitter:g})")


def make_retry_policy(spec) -> RetryPolicy:
    """Build a retry policy from a CLI spec (or pass an instance
    through; ``None`` means :class:`NoRetry`).

    ``none`` · ``immediate:max=3`` ·
    ``backoff:base=0.01,factor=2,cap=1,max=6,jitter=0.25``.
    """
    if spec is None:
        return NoRetry()
    if isinstance(spec, RetryPolicy):
        return spec
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    kwargs = parse_spec_kwargs(rest, what="retry")
    if name == "none":
        take_spec_options(kwargs, spec, what="retry policy")
        return NoRetry()
    if name == "immediate":
        (max_retries,) = take_spec_options(
            kwargs, spec, what="retry policy", max=3)
        return ImmediateRetry(int(max_retries))
    if name == "backoff":
        base, factor, cap, max_retries, jitter = take_spec_options(
            kwargs, spec, what="retry policy", base=0.01, factor=2.0,
            cap=1.0, max=6, jitter=0.25)
        return ExponentialBackoffRetry(
            base_s=base, factor=factor, cap_s=cap,
            max_retries=int(max_retries), jitter=jitter)
    raise SpecError(f"unknown retry policy {name!r}; "
                    f"try: {', '.join(RETRY_POLICIES)}")


# ----------------------------------------------------------------------
# The per-run fault schedule
# ----------------------------------------------------------------------

class FaultSchedule:
    """Lazy per-board fault timelines for one run.

    Each board holds its *current* ``(down_at, up_at)`` interval plus
    a ``processed`` flag (the fault's side effects — cache wipe,
    recorder instants, health bookkeeping — must fire exactly once
    even when the interval is consulted repeatedly while the board is
    down).  Exhausted timelines pin ``(inf, inf)``: no more faults.
    """

    def __init__(self, process: FaultProcess, num_boards: int,
                 seed: int):
        self._iters = [process.board_intervals(b, seed)
                       for b in range(num_boards)]
        self._down = [math.inf] * num_boards
        self._up = [math.inf] * num_boards
        self._processed = [False] * num_boards
        for b in range(num_boards):
            self._pull(b)

    def _pull(self, b: int) -> None:
        try:
            self._down[b], self._up[b] = next(self._iters[b])
        except StopIteration:
            self._down[b] = self._up[b] = math.inf
        self._processed[b] = False

    def current(self, b: int) -> Tuple[float, float]:
        return self._down[b], self._up[b]

    def next_down_s(self, b: int) -> float:
        return self._down[b]

    def processed(self, b: int) -> bool:
        return self._processed[b]

    def mark_processed(self, b: int) -> None:
        self._processed[b] = True

    def advance(self, b: int) -> None:
        self._pull(b)


__all__ = [
    "FAULT_PROCESSES", "RETRY_POLICIES", "ExponentialBackoffRetry",
    "FaultProcess", "FaultSchedule", "ImmediateRetry", "NoRetry",
    "PoissonFaultProcess", "RetryPolicy", "TraceFaultProcess",
    "WeibullFaultProcess", "make_fault_process", "make_retry_policy",
]
