"""The benchmark's five workloads: set-up, the timed operations of one
round, and the checks on their outputs.

A run with seed ``s`` of a workload with ``inputs = k`` draws ``k``
inputs, with input seeds ``s * k`` to ``s * k + k - 1``; ``setup``
builds them and hands the program only those inputs.  ``ops`` lists
the operations of one round -- each one engine run, sweep or bootstrap
on one input -- as ``(engine, input seed, call, jobs, runs)``: ``jobs``
is the simulated jobs the call handles (for the bootstrap, the one
bootstrap) and ``runs`` the engine runs or bootstraps it counts as.
``check`` compares the outputs of a round against the invariants the
program promises.

What only the checks need -- the arrival counts a run must conserve,
``fleet_fast``'s DES reference reports -- is computed lazily on first
use, after set-up and outside the timed calls, so that ``setup_s``
holds only the program's own set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from repro.core.params import FabConfig
from repro.experiments import resilience_autoscale_sweep as sweep
from repro.experiments.table7_bootstrap import PAPER_TABLE7
from repro.fhe import BootstrapConfig, Bootstrapper, CkksParams, CkksScheme
from repro.perf.fab import FabDevice
from repro.runtime import lowering, reference
from repro.runtime.serving import ServingSimulator, build_slo_scenario


def input_seeds(seed: int, inputs: int) -> range:
    """The input seeds of run ``seed``; two runs never share one."""
    return range(seed * inputs, (seed + 1) * inputs)


#: Fault process that never fires inside the horizon: routes a run
#: through the membership ledger loop with zero transitions.
INERT_FAULTS = "poisson:mtbf=1e9,mttr=0.1"

#: ``ServingSimulator.run`` keyword arguments per serving engine.
ENGINES = {
    "des": {},
    "fast": {"engine": "fast", "arrival_mode": "exact"},
    "ledger": {"faults": INERT_FAULTS},
}

#: Per-engine throughput (or bootstrap time) metric of each engine.
ENGINE_METRICS = {
    "des": "des_jobs_per_s",
    "fast": "fast_jobs_per_s",
    "ledger": "ledger_jobs_per_s",
    "sweep": "ledger_jobs_per_s",
    "bootstrap": "bootstrap_s",
}

#: Decrypt error bound after bootstrapping (examples/bootstrap_demo.py).
BOOTSTRAP_MAX_ERROR = 0.05


@dataclass
class Op:
    """One timed operation of a round and what it produced."""

    engine: str
    input: int
    seconds: float
    #: Mean time of one calibration loop over the loops run just
    #: before and just after the operation (``run.calibrate``).
    calib_s: float
    jobs: int
    runs: int
    output: object

    @property
    def label(self) -> str:
        return f"{self.engine}/{self.input}"


def cost_model(config: FabConfig) -> Dict[str, float]:
    """The paper-scale cost model every workload sets up: the modeled
    bootstrap (lowered and scheduled) and FAB's Table 7 row against
    the paper's figure."""
    cost = lowering.cost_trace(reference.bootstrap_trace(config), config)
    model_us = FabDevice(config).amortized_mult_us()
    paper_us = PAPER_TABLE7["FAB"][2]
    return {"core.model.bootstrap_cycles": cost.cycles,
            "core.model.table7_rel_err": (model_us - paper_us) / paper_us}


def digest(output) -> str:
    """Content digest of an operation's output (report, sweep report
    or ciphertext)."""
    h = hashlib.sha256()
    if hasattr(output, "c0"):
        for poly in (output.c0, output.c1):
            h.update(np.ascontiguousarray(poly.limbs).tobytes())
        h.update(repr((output.scale, output.num_slots)).encode())
    else:
        h.update(repr(output).encode())
    return h.hexdigest()


def conserved(report, arrivals: int) -> List[str]:
    handled = (report.jobs_done + report.rejected_jobs + report.shed_jobs
               + report.shed_degraded)
    if handled == arrivals:
        return []
    return [f"conservation: {handled} jobs accounted of {arrivals} "
            f"arrivals"]


def parity(report, des_report) -> List[str]:
    """Field-for-field equality with the DES report, compared by
    ``repr`` so that a NaN percentile of a class with no completed jobs
    equals itself."""
    if repr(report) == repr(des_report):
        return []
    differing = [f.name for f in fields(report)
                 if repr(getattr(report, f.name))
                 != repr(getattr(des_report, f.name))]
    return [f"parity with des: fields {', '.join(differing)} differ"]


class Workload:
    name = ""
    #: Inputs per run.  The host cost of a serving input varies with its
    #: draw (an EDF run's previews grow with its queues, a faulty run's
    #: retries with its fault trace), so a run averages over several.
    inputs = 4

    def setup(self, seed: int, tiny: bool = False) -> dict:
        raise NotImplementedError

    def ops(self, state: dict) -> List[tuple]:
        raise NotImplementedError

    def check(self, state: dict, ops: List[Op]) -> Dict[str, List[str]]:
        """Problems found per operation label (empty lists: correct)."""
        raise NotImplementedError

    def observe(self, state: dict, ops: List[Op]) -> Dict[str, float]:
        """Per-layer values read off the outputs (no timing)."""
        return {}


def lazy(state, key, seed, make):
    """``state[key][seed]``, made by ``make()`` on first use."""
    cache = state.setdefault(key, {})
    if seed not in cache:
        cache[seed] = make()
    return cache[seed]


def count_arrivals(scenario, seed) -> int:
    return sum(len(chunk) for chunk in scenario.arrivals(seed))


class ServingWorkload(Workload):
    """The SLO fleet scenario run by several engines on the same exact
    arrivals; every report must equal the DES report."""

    policy = "fifo"
    engines = ("des", "fast", "ledger")
    #: ~5k arrivals: one DES run takes ~15 ms, so a run holds ~60
    #: repeats of each operation for its calibrated median time.
    duration_s = 1.85

    def setup(self, seed, tiny=False):
        config = FabConfig()
        model = cost_model(config)
        scenario = build_slo_scenario(
            config, duration_s=self.duration_s / (10 if tiny else 1),
            target_load=1.5)
        return {
            "config": config, "model": model, "scenario": scenario,
            "simulator": ServingSimulator(config, num_devices=8,
                                          max_batch=32),
            "seeds": input_seeds(seed, self.inputs),
        }

    def call(self, state, engine, seed):
        sim, scenario = state["simulator"], state["scenario"]
        return lambda: sim.run(scenario, seed=seed, policy=self.policy,
                               **ENGINES[engine])

    def arrivals(self, state, seed) -> int:
        return lazy(state, "arrivals", seed,
                    lambda: count_arrivals(state["scenario"], seed))

    def ops(self, state):
        return [(engine, seed, self.call(state, engine, seed),
                 self.arrivals(state, seed), 1)
                for seed in state["seeds"] for engine in self.engines]

    def reference(self, state, seed, ops):
        """The DES report of input ``seed``: from the round when it ran
        the DES, else one untimed DES run, made once."""
        for op in ops:
            if op.engine == "des" and op.input == seed:
                return op.output
        return lazy(state, "reference", seed,
                    self.call(state, "des", seed))

    def check(self, state, ops):
        problems = {}
        for op in ops:
            problems[op.label] = conserved(op.output,
                                           self.arrivals(state, op.input))
            if op.engine != "des":
                problems[op.label] += parity(
                    op.output, self.reference(state, op.input, ops))
        return problems


class FleetFifo(ServingWorkload):
    """Fifo does O(1) work per dispatch, so arrival generation, the
    event loops and report aggregation carry these runs."""

    name = "fleet_fifo"


class FleetFast(ServingWorkload):
    """``fleet_fifo``'s scenario through the fast engine alone, so that
    ``jobs_per_s`` is the fast engine's own throughput; each input's
    DES report, run once after the timed rounds, is the parity
    reference."""

    name = "fleet_fast"
    engines = ("fast",)
    #: A fast run of one input takes ~5 ms; more inputs average out
    #: the draw.
    inputs = 8


class SloEdf(ServingWorkload):
    """Under EDF the policy layer's dispatch-time service previews
    dominate the DES."""

    name = "slo_edf"
    policy = "edf"
    engines = ("des", "fast")
    #: A fifth of fleet_fifo's horizon (~1k arrivals): an EDF DES run
    #: costs ~40 us per job, 10x a FIFO one, and stays ~40 ms, so a run
    #: holds ~6 repeats of 48 inputs; service previews are still half
    #: the round.
    duration_s = 0.37
    #: One EDF input's host cost per job varies by ~24% (coefficient of
    #: variation) with its draw, a FIFO input's by ~4%, and a longer
    #: horizon does not narrow it; a run averages over 48 draws, which
    #: puts ~3.5% on the run's figure.
    inputs = 48


class ChurnDiurnal(Workload):
    """The resilience x autoscale sweep: four membership mechanisms on
    one faulty diurnal stream, all through the ledger loop."""

    name = "churn_diurnal"
    #: ``run_sweep``'s own default horizon (the diurnal period scales
    #: with it): ~950 arrivals and ~125 board faults per mechanism and
    #: input, ~0.1 s per sweep, so a run holds ~20 repeats.
    duration_s = 1.0
    inputs = 8

    def setup(self, seed, tiny=False):
        config = FabConfig()
        model = cost_model(config)
        return {
            "config": config, "model": model,
            "duration_s": self.duration_s / (10 if tiny else 1),
            "seeds": input_seeds(seed, self.inputs),
        }

    def arrivals(self, state, seed) -> int:
        """Arrivals of the scenario ``run_sweep`` builds for its one
        grid point, rebuilt here for the count every mechanism must
        conserve."""
        if "scenario" not in state:
            (_, spec), = sweep.DEFAULT_ARRIVALS
            state["scenario"] = build_slo_scenario(
                state["config"], num_devices=8,
                duration_s=state["duration_s"],
                target_load=sweep.DEFAULT_TARGET_LOAD,
                interactive_fraction=1.0).with_arrivals(spec)
        return lazy(state, "arrivals", seed,
                    lambda: count_arrivals(state["scenario"], seed))

    def ops(self, state):
        runs = len(sweep.DEFAULT_MECHANISMS)

        def call(seed):
            return lambda: sweep.run_sweep(state["config"],
                                           duration_s=state["duration_s"],
                                           seed=seed, workers=1)
        return [("sweep", seed, call(seed),
                 runs * self.arrivals(state, seed), runs)
                for seed in state["seeds"]]

    def check(self, state, ops):
        problems = {}
        for op in ops:
            found = []
            arrivals = self.arrivals(state, op.input)
            outcomes = op.output.outcomes
            if len(outcomes) != len(sweep.DEFAULT_MECHANISMS):
                found.append(f"{len(outcomes)} outcomes")
            for outcome in outcomes:
                handled = (outcome.jobs_done + outcome.rejected
                           + outcome.shed + outcome.shed_degraded)
                if handled != arrivals:
                    found.append(
                        f"conservation ({outcome.mechanism}): {handled} "
                        f"jobs accounted of {arrivals} arrivals")
            problems[op.label] = found
        return problems


class BootstrapN16(Workload):
    """One fully-packed bootstrap of an exhausted ciphertext at the
    parameters of ``examples/bootstrap_demo.py`` on a ring of degree 16
    instead of 128: the same 19-limb chain, key switching and EvalMod
    polynomial, at under a second per bootstrap instead of ~12 s, so
    that one run holds enough repeats for a calibrated median time."""

    name = "bootstrap_n16"
    #: A bootstrap's host cost does not depend on the key or message.
    inputs = 1
    #: Limbs the refreshed ciphertext carries at these parameters
    #: (``Bootstrapper.levels_after_bootstrap() + 1``).
    refreshed_limbs = 8

    def setup(self, seed, tiny=False):
        config = FabConfig()
        model = cost_model(config)
        inputs = {}
        keygen_s = precompute_s = 0.0
        for input_seed in input_seeds(seed, self.inputs):
            params = CkksParams(ring_degree=16, num_limbs=19, scale_bits=25,
                                dnum=4, hamming_weight=8,
                                first_prime_bits=30, num_extension_limbs=8,
                                seed=input_seed)
            t0 = perf_counter()
            scheme = CkksScheme(params)
            t1 = perf_counter()
            bootstrapper = Bootstrapper(
                scheme, BootstrapConfig(eval_mod_degree=63, modulus_range=8))
            t2 = perf_counter()
            keygen_s += t1 - t0
            precompute_s += t2 - t1
            rng = np.random.default_rng(input_seed)
            slots = params.ring_degree // 2
            message = (rng.uniform(-1, 1, slots)
                       + 1j * rng.uniform(-1, 1, slots)) * 0.5
            inputs[input_seed] = {
                "scheme": scheme, "bootstrapper": bootstrapper,
                "message": message,
                "exhausted": scheme.evaluator.mod_down_to(
                    scheme.encrypt(message), 1)}
        model.update({"fhe.keygen_s": keygen_s,
                      "fhe.bootstrap.precompute_s": precompute_s})
        return {"config": params, "model": model, "inputs": inputs}

    def ops(self, state):
        def call(data):
            return lambda: data["bootstrapper"].bootstrap(data["exhausted"])
        return [("bootstrap", seed, call(data), 1, 1)
                for seed, data in state["inputs"].items()]

    def _error(self, state, op) -> float:
        data = state["inputs"][op.input]
        decrypted = data["scheme"].decrypt(op.output)
        return float(np.max(np.abs(decrypted - data["message"])))

    def check(self, state, ops):
        problems = {}
        for op in ops:
            found = []
            error = self._error(state, op)
            if not error <= BOOTSTRAP_MAX_ERROR:
                found.append(f"decrypt error {error:.4g} > "
                             f"{BOOTSTRAP_MAX_ERROR}")
            if op.output.level_count != self.refreshed_limbs:
                found.append(f"{op.output.level_count} limbs after "
                             f"bootstrap, expected {self.refreshed_limbs}")
            problems[op.label] = found
        return problems

    def observe(self, state, ops):
        return {"fhe.bootstrap.max_abs_error":
                max(self._error(state, op) for op in ops)}


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (FleetFifo, FleetFast, SloEdf, ChurnDiurnal,
                               BootstrapN16)
}
