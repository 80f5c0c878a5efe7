"""Arrival-process library for the serving simulators.

Every :class:`~repro.runtime.serving.Stream` draws its job arrival
times from an :class:`ArrivalProcess`.  The default — and the only
behavior that existed before this module — is a homogeneous
:class:`PoissonProcess`; the library adds the datacenter-trace shapes
the fleet-scale scenarios need:

* :class:`DiurnalProcess` — a sinusoidal day/night rate curve
  (inhomogeneous Poisson, sampled exactly by Lewis–Shedler thinning).
* :class:`MMPPProcess` — a Markov-modulated Poisson process cycling
  through dwell states; the classic bursty-traffic model (its
  variance-to-mean ratio exceeds Poisson's 1.0).
* :class:`FlashCrowdProcess` — baseline traffic plus a rectangular
  surge window (a launch event, a breaking-news spike).
* :class:`TraceReplayProcess` — absolute arrival timestamps replayed
  from memory or a JSONL file, for measured production traces.

Each process exposes **two sampling paths** that draw from the same
distribution:

* :meth:`ArrivalProcess.iter_times` — a Python generator driven by a
  shared :class:`random.Random`.  This is the *exact* path:
  :meth:`repro.runtime.serving.Scenario.generate` consumes it, and
  for :class:`PoissonProcess` the draw sequence is bit-identical to
  the original inlined ``rng.expovariate`` loop, which the regression
  suite asserts seed-for-seed.
* :meth:`ArrivalProcess.sample_times` — chunked numpy sampling from a
  :class:`numpy.random.Generator`.  This is the *vectorized* path the
  fast engine uses at million-job scale; it draws from the same
  process but from an independent RNG stream, so runs that must share
  an arrival sequence across engines use the exact path (or replay a
  sampled trace).

``expected_jobs`` is the analytic rate integral over a horizon; the
unit tests reconcile empirical counts against it for every process.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .specs import SpecError, parse_spec_kwargs, take_spec_options

#: Chunk size for vectorized sampling (arrivals drawn per numpy call).
SAMPLE_CHUNK = 65536


class ArrivalProcess:
    """Base class: a point process of job arrivals on ``[start, end)``.

    Subclasses implement both sampling paths and the analytic rate
    integral.  Processes are stateless value objects — every sampling
    call is independent given its RNG — so one instance may be shared
    by many streams and runs.
    """

    name = "base"

    def iter_times(self, rng: random.Random, start_s: float,
                   end_s: float) -> Iterator[float]:
        """Yield arrival times in ``[start_s, end_s)``, ascending,
        drawing only from ``rng`` (the exact shared-sequence path)."""
        raise NotImplementedError

    def sample_times(self, rng: np.random.Generator, start_s: float,
                     end_s: float) -> np.ndarray:
        """Vectorized draw: all arrival times in ``[start_s, end_s)``
        as an ascending float64 array (the fast-engine path)."""
        raise NotImplementedError

    def expected_jobs(self, start_s: float, end_s: float) -> float:
        """Analytic integral of the rate over ``[start_s, end_s)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``.

    The exact path reproduces the original ``Scenario.generate`` loop
    draw for draw: one ``rng.expovariate(rate)`` per candidate, the
    final (out-of-horizon) draw included, so pre-existing seeds
    produce bit-identical scenarios.
    """

    name = "poisson"

    def __init__(self, rate_per_s: float):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate_per_s = float(rate_per_s)

    def iter_times(self, rng, start_s, end_s):
        t = start_s
        rate = self.rate_per_s
        while True:
            t += rng.expovariate(rate)
            if t >= end_s:
                return
            yield t

    def sample_times(self, rng, start_s, end_s):
        chunks: List[np.ndarray] = []
        t = start_s
        scale = 1.0 / self.rate_per_s
        while t < end_s:
            gaps = rng.exponential(scale, size=SAMPLE_CHUNK)
            times = t + np.cumsum(gaps)
            if times[-1] >= end_s:
                chunks.append(times[times < end_s])
                break
            chunks.append(times)
            t = float(times[-1])
        return (np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.float64))

    def expected_jobs(self, start_s, end_s):
        return self.rate_per_s * max(end_s - start_s, 0.0)

    def __repr__(self):
        return f"PoissonProcess(rate_per_s={self.rate_per_s:g})"


class RateCurveProcess(ArrivalProcess):
    """Inhomogeneous Poisson with rate ``rate_fn(t) <= rate_max``.

    Sampled exactly by Lewis–Shedler thinning: candidates arrive as a
    homogeneous Poisson at ``rate_max`` and are accepted with
    probability ``rate_fn(t) / rate_max``.  Subclasses provide the
    curve and its analytic integral; the thinning machinery (both
    paths) lives here.
    """

    name = "rate-curve"

    def __init__(self, rate_max: float):
        if rate_max <= 0:
            raise ValueError("rate_max must be positive")
        self.rate_max = float(rate_max)

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def rate_at_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized ``rate_at`` (subclasses override with pure-numpy
        curves; the fallback maps the scalar version)."""
        return np.array([self.rate_at(x) for x in t])

    def iter_times(self, rng, start_s, end_s):
        t = start_s
        rate_max = self.rate_max
        while True:
            t += rng.expovariate(rate_max)
            if t >= end_s:
                return
            if rng.random() * rate_max <= self.rate_at(t):
                yield t

    def sample_times(self, rng, start_s, end_s):
        chunks: List[np.ndarray] = []
        t = start_s
        scale = 1.0 / self.rate_max
        while t < end_s:
            gaps = rng.exponential(scale, size=SAMPLE_CHUNK)
            times = t + np.cumsum(gaps)
            done = bool(times[-1] >= end_s)
            accept = (rng.uniform(0.0, self.rate_max, size=times.size)
                      <= self.rate_at_array(times))
            if done:
                accept &= times < end_s
                chunks.append(times[accept])
                break
            chunks.append(times[accept])
            t = float(times[-1])
        return (np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.float64))


class DiurnalProcess(RateCurveProcess):
    """Sinusoidal day/night curve around ``base_rate``.

    ``rate(t) = base_rate * (1 + amplitude * sin(2 pi (t - phase_s)
    / period_s))`` — a full period is one simulated "day".
    ``amplitude`` in ``[0, 1)`` keeps the rate positive.
    """

    name = "diurnal"

    def __init__(self, base_rate: float, amplitude: float = 0.8,
                 period_s: float = 1.0, phase_s: float = 0.0):
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        super().__init__(rate_max=base_rate * (1.0 + amplitude))
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase_s = float(phase_s)

    def rate_at(self, t):
        omega = 2.0 * math.pi / self.period_s
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(omega * (t - self.phase_s)))

    def rate_at_array(self, t):
        omega = 2.0 * math.pi / self.period_s
        return self.base_rate * (
            1.0 + self.amplitude * np.sin(omega * (t - self.phase_s)))

    def expected_jobs(self, start_s, end_s):
        if end_s <= start_s:
            return 0.0
        omega = 2.0 * math.pi / self.period_s

        def antiderivative(t: float) -> float:
            return self.base_rate * (
                t - self.amplitude / omega
                * math.cos(omega * (t - self.phase_s)))

        return antiderivative(end_s) - antiderivative(start_s)

    def __repr__(self):
        return (f"DiurnalProcess(base_rate={self.base_rate:g}, "
                f"amplitude={self.amplitude:g}, "
                f"period_s={self.period_s:g})")


class FlashCrowdProcess(RateCurveProcess):
    """Baseline Poisson traffic plus a rectangular surge window.

    During ``[at_s, at_s + width_s)`` the rate multiplies by
    ``factor`` — the flash-crowd moment an admission policy has to
    survive.
    """

    name = "flash"

    def __init__(self, base_rate: float, factor: float = 8.0,
                 at_s: float = 0.25, width_s: float = 0.1):
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if width_s <= 0:
            raise ValueError("width_s must be positive")
        super().__init__(rate_max=base_rate * factor)
        self.base_rate = float(base_rate)
        self.factor = float(factor)
        self.at_s = float(at_s)
        self.width_s = float(width_s)

    def rate_at(self, t):
        if self.at_s <= t < self.at_s + self.width_s:
            return self.base_rate * self.factor
        return self.base_rate

    def rate_at_array(self, t):
        surge = (t >= self.at_s) & (t < self.at_s + self.width_s)
        return self.base_rate * np.where(surge, self.factor, 1.0)

    def expected_jobs(self, start_s, end_s):
        if end_s <= start_s:
            return 0.0
        overlap = (min(end_s, self.at_s + self.width_s)
                   - max(start_s, self.at_s))
        overlap = max(overlap, 0.0)
        return self.base_rate * (
            (end_s - start_s) + (self.factor - 1.0) * overlap)

    def __repr__(self):
        return (f"FlashCrowdProcess(base_rate={self.base_rate:g}, "
                f"factor={self.factor:g}, at_s={self.at_s:g}, "
                f"width_s={self.width_s:g})")


class MMPPProcess(ArrivalProcess):
    """Markov-modulated Poisson process cycling through dwell states.

    The modulating chain visits ``rates[i]`` for an exponential dwell
    of mean ``dwell_s[i]``, then moves to the next state (cyclically).
    Within a state arrivals are Poisson at that state's rate — the
    standard two-timescale burst model.  With ``rates=(low, high)``
    and a short high-state dwell this produces the bursty arrival
    counts (variance-to-mean ratio > 1) that distinguish real traffic
    from Poisson.
    """

    name = "mmpp"

    def __init__(self, rates: Sequence[float],
                 dwell_s: Sequence[float] | float):
        rates = tuple(float(r) for r in rates)
        if len(rates) < 2:
            raise ValueError("an MMPP needs at least two states")
        if any(r < 0 for r in rates) or all(r == 0 for r in rates):
            raise ValueError("state rates must be >= 0, one positive")
        if isinstance(dwell_s, (int, float)):
            dwell_s = (float(dwell_s),) * len(rates)
        dwell = tuple(float(d) for d in dwell_s)
        if len(dwell) != len(rates):
            raise ValueError("need one dwell_s per state")
        if any(d <= 0 for d in dwell):
            raise ValueError("dwell_s must be positive")
        self.rates = rates
        self.dwell_s = dwell

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate (dwell-weighted state average)."""
        weight = sum(self.dwell_s)
        return sum(r * d for r, d in zip(self.rates, self.dwell_s)) / weight

    def iter_times(self, rng, start_s, end_s):
        state = 0
        t = start_s
        switch = start_s + rng.expovariate(1.0 / self.dwell_s[state])
        while t < end_s:
            rate = self.rates[state]
            # Memorylessness lets the pending arrival draw be
            # discarded at a state switch and redrawn in the new
            # state; candidates past the switch time advance the
            # chain instead of arriving.
            gap = (math.inf if rate == 0
                   else rng.expovariate(rate))
            if t + gap < switch:
                t += gap
                if t >= end_s:
                    return
                yield t
            else:
                t = switch
                state = (state + 1) % len(self.rates)
                switch = t + rng.expovariate(1.0 / self.dwell_s[state])

    def sample_times(self, rng, start_s, end_s):
        # Draw the state trajectory first, then fill each dwell
        # interval with a Poisson batch at that state's rate.
        chunks: List[np.ndarray] = []
        state = 0
        t = start_s
        while t < end_s:
            dwell = float(rng.exponential(self.dwell_s[state]))
            upper = min(t + dwell, end_s)
            rate = self.rates[state]
            if rate > 0 and upper > t:
                count = int(rng.poisson(rate * (upper - t)))
                if count:
                    times = rng.uniform(t, upper, size=count)
                    times.sort()
                    chunks.append(times)
            t += dwell
            state = (state + 1) % len(self.rates)
        return (np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.float64))

    def expected_jobs(self, start_s, end_s):
        # Steady-state approximation (exact as horizons span many
        # dwell cycles); the burstiness tests use wide tolerances.
        return self.mean_rate * max(end_s - start_s, 0.0)

    def __repr__(self):
        return f"MMPPProcess(rates={self.rates}, dwell_s={self.dwell_s})"


class TraceReplayProcess(ArrivalProcess):
    """Replay absolute arrival timestamps (e.g. a measured trace).

    Only timestamps inside the stream's ``[start, end)`` horizon are
    emitted.  ``to_jsonl``/``from_jsonl`` round-trip the trace through
    the one-object-per-line JSON format shared with the obs artifacts.
    """

    name = "replay"

    def __init__(self, times: Sequence[float]):
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("replay times must be one-dimensional")
        if arr.size and np.any(np.diff(arr) < 0):
            arr = np.sort(arr, kind="stable")
        self.times = arr

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceReplayProcess":
        times = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                times.append(float(record["t"]))
        return cls(times)

    def to_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.times:
                fh.write(json.dumps({"t": float(t)}) + "\n")

    def iter_times(self, rng, start_s, end_s):
        lo = int(np.searchsorted(self.times, start_s, side="left"))
        for t in self.times[lo:]:
            if t >= end_s:
                return
            yield float(t)

    def sample_times(self, rng, start_s, end_s):
        lo = int(np.searchsorted(self.times, start_s, side="left"))
        hi = int(np.searchsorted(self.times, end_s, side="left"))
        return self.times[lo:hi].astype(np.float64, copy=True)

    def expected_jobs(self, start_s, end_s):
        lo = int(np.searchsorted(self.times, start_s, side="left"))
        hi = int(np.searchsorted(self.times, end_s, side="left"))
        return float(hi - lo)

    def __repr__(self):
        return f"TraceReplayProcess(<{self.times.size} arrivals>)"


# ----------------------------------------------------------------------
# CLI spec parsing
# ----------------------------------------------------------------------

#: Registry of spec names accepted by :func:`make_process`.
ARRIVAL_PROCESSES = ("poisson", "diurnal", "mmpp", "flash", "replay")


def _parse_kwargs(text: str) -> Dict[str, float]:
    return parse_spec_kwargs(text, what="arrival")


def _take(kwargs: Dict[str, float], spec: str,
          **defaults: float) -> Tuple[float, ...]:
    return take_spec_options(kwargs, spec, what="arrival process",
                             **defaults)


def make_process(spec: str, rate_per_s: float,
                 horizon_s: float = 1.0) -> ArrivalProcess:
    """Build an arrival process from a CLI spec string.

    ``spec`` is ``name`` or ``name:key=value,...`` — e.g. ``poisson``,
    ``diurnal:amplitude=0.9,period=0.5``, ``mmpp:burst=6,duty=0.2``,
    ``flash:factor=10,at=0.4,width=0.05`` — or ``replay:PATH`` for a
    JSONL trace.  ``rate_per_s`` is the stream's base rate (the mean
    rate for shaped processes) and ``horizon_s`` the arrival horizon
    the shape defaults scale to (diurnal period = one horizon, flash
    at 25% of it, MMPP dwells at 1/8 of it).
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "replay":
        if not rest:
            raise SpecError("replay needs a path: replay:PATH")
        return TraceReplayProcess.from_jsonl(rest)
    kwargs = _parse_kwargs(rest)
    if name == "poisson":
        _take(kwargs, spec)
        return PoissonProcess(rate_per_s)
    if name == "diurnal":
        amplitude, period, phase = _take(
            kwargs, spec, amplitude=0.8, period=horizon_s, phase=0.0)
        return DiurnalProcess(rate_per_s, amplitude=amplitude,
                              period_s=period, phase_s=phase)
    if name == "mmpp":
        burst, duty, dwell = _take(
            kwargs, spec, burst=5.0, duty=0.2, dwell=horizon_s / 8.0)
        if not 0.0 < duty < 1.0:
            raise SpecError("mmpp duty must be in (0, 1)")
        if burst <= 1.0:
            raise SpecError("mmpp burst must be > 1")
        # Two states around the requested mean rate: a low state and a
        # ``burst``-times-hotter high state occupying ``duty`` of the
        # time, dwell-weighted so the long-run mean stays rate_per_s.
        low = rate_per_s / (1.0 - duty + duty * burst)
        high = low * burst
        return MMPPProcess((low, high),
                           (dwell * (1.0 - duty), dwell * duty))
    if name == "flash":
        factor, at, width = _take(
            kwargs, spec, factor=8.0, at=0.25 * horizon_s,
            width=0.1 * horizon_s)
        # Deflate the baseline so the horizon-integrated mean rate
        # stays rate_per_s despite the surge.
        surge_fraction = min(width, max(horizon_s - at, 0.0)) / horizon_s
        base = rate_per_s / (1.0 + (factor - 1.0) * surge_fraction)
        return FlashCrowdProcess(base, factor=factor, at_s=at,
                                 width_s=width)
    raise SpecError(f"unknown arrival process {name!r}; "
                     f"try: {', '.join(ARRIVAL_PROCESSES)}")


__all__ = [
    "ARRIVAL_PROCESSES", "ArrivalProcess", "DiurnalProcess",
    "FlashCrowdProcess", "MMPPProcess", "PoissonProcess",
    "RateCurveProcess", "SAMPLE_CHUNK", "TraceReplayProcess",
    "make_process",
]
