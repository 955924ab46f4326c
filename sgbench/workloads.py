"""The four benchmark workloads: inputs, timed bodies, checks and layers.

A workload builds a fixed input set from the seed in ``build`` (the
set-up the benchmark times as ``setup_s``) and splits it into units:
one simulated history, one audited history, or the whole pair of stream
sessions.  ``run`` judges one unit; that call is the timed region.
``check`` verifies the unit's verdicts outside it.  ``check_reference``
compares a unit's verdict with another certification lane; the run
calls it once per unit, after it has read the peak resident set, so the
reference's memory never counts as the workload's.  ``run`` takes an
optional :class:`~sgbench.layers.Probe`; with one it instruments every
layer it calls into, and ``layers`` turns the probe into per-layer
metrics.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.core.correctness as correctness_module
import repro.core.return_values as return_values_module
from repro.core.actions import RequestCreate
from repro.core.correctness import Certificate, certify
from repro.core.events import project_transaction, serial_projection
from repro.core.names import SystemType
from repro.core.online import OnlineCertifier
from repro.core.operations import operations_of_object
from repro.core.rw_semantics import WriteOp
from repro.generic.controller import GenericController
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.programs import ProgramTransaction
from repro.sim.workload import WorkloadConfig, generate_workload
from repro.stream.service import StreamService
from repro.stream.workload import StreamWorkload, commit_as_you_go

from . import speed
from .generators import read_heavy_history, two_phase_stream
from .layers import Probe, StepHooks, median_or_zero

__all__ = ["WORKLOADS", "Outcome", "Sizes", "Tally", "Workload", "certify_layers"]

Swaps = List[Tuple[Any, str, Any]]

#: histories per ``audit-*`` input set, and sessions in ``stream-2pl``
READHEAVY_HISTORIES = 2
CONTENDED_HISTORIES = 2
STREAM_SESSIONS = 2


@dataclass(frozen=True)
class Sizes:
    """Input-set sizes; the defaults are the benchmark's, tests shrink them."""

    sim_histories: int = 36
    sim_top_level: int = 40
    readheavy_top_level: int = 30
    contended_top_level: int = 1000
    stream_top_level: int = 1000
    checkpoint_every: int = 64


@dataclass
class Outcome:
    """What judging one unit produced."""

    seconds: float
    work: int
    latencies: List[float]
    output: Any


@dataclass
class Tally:
    """Correctness checks attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def _sub_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def _input_shape(system_type: SystemType, behavior: Sequence[Any]) -> Dict[str, int]:
    """Input facts that later changes must leave alone."""
    accesses = system_type.all_accesses()
    return {
        "serial_events": len(serial_projection(behavior)),
        "objects": len(system_type.object_names()),
        "accesses": len(accesses),
        "writes": sum(1 for info in accesses.values() if isinstance(info.op, WriteOp)),
        "top_level": sum(
            1
            for action in behavior
            if isinstance(action, RequestCreate) and action.transaction.depth == 1
        ),
    }


def certify_layers(probe: Probe) -> Dict[str, float]:
    """Certify-layer metrics from the library spans and counters."""
    spans = probe.span_seconds()
    metrics = probe.metrics
    clock = probe.clock
    return {
        "core.correctness.certify_s": spans["certify"],
        "core.events.project_s": spans["certify.project"],
        "core.return_values.arv_s": spans["certify.arv"],
        "core.serialization_graph.conflict_pairs_s": spans["sg.conflict_pairs"],
        "core.serialization_graph.precedes_pairs_s": spans["sg.precedes_pairs"],
        "core.graph.find_cycle_s": spans["certify.find_cycle"],
        "core.correctness.witness_s": spans["certify.witness"],
        "core.correctness.witness_projections": clock.calls["core.events.project_transaction"],
        "core.events.project_events_scanned": clock.items["core.events.project_transaction"],
        "core.operations.object_scans": clock.calls["core.operations.operations_of_object"],
        "core.operations.events_scanned": clock.items["core.operations.operations_of_object"],
        "core.serialization_graph.conflict_edges": metrics.count("sg.edges.conflict"),
        "core.serialization_graph.precedes_edges": metrics.count("sg.edges.precedes"),
        "history.index.events": metrics.count("history.index.events"),
        "history.index.conflict.pairs_checked": metrics.count(
            "history.index.conflict.pairs_checked"
        ),
        "history.index.conflict.pairs_skipped_read_runs": metrics.count(
            "history.index.conflict.pairs_skipped_read_runs"
        ),
    }


def _unindexed_scan(behavior: Sequence[Any], *args: Any, **kwargs: Any) -> int:
    """Events ``project_transaction`` scans: all of them unless an index answers."""
    index = args[1] if len(args) > 1 else kwargs.get("index")
    return 0 if index is not None else len(behavior)


def _certify_swaps(probe: Probe) -> Swaps:
    """Module-attribute swaps that count witness projections and object scans."""
    clock = probe.clock
    projection = clock.wrap(
        "core.events.project_transaction", project_transaction, size=_unindexed_scan
    )
    scan = clock.wrap(
        "core.operations.operations_of_object",
        operations_of_object,
        size=lambda behavior, *_: len(behavior),
    )
    return [
        (correctness_module, "project_transaction", projection),
        (correctness_module, "operations_of_object", scan),
        (return_values_module, "operations_of_object", scan),
    ]


def _certify(probe: Optional[Probe], behavior: Sequence[Any], system_type: SystemType) -> Certificate:
    if probe is None:
        return certify(behavior, system_type)
    timed = probe.clock.wrap("core.correctness.certify", certify)
    return timed(behavior, system_type, tracer=probe.tracer, metrics=probe.metrics)


class Workload:
    """The interface :mod:`sgbench.run` drives; see the module docstring."""

    name = ""
    #: whether a unit's latency is the median of its timed runs instead of
    #: the latencies the runs report: for units judged too few times in a
    #: run for a percentile over single runs
    latency_per_unit = False

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def fingerprint(self, inputs: Any) -> Any:
        """A value whose ``repr`` is equal for equal input sets."""
        raise NotImplementedError

    def units(self, inputs: Any) -> List[Any]:
        return list(inputs)

    def run(self, unit: Any, probe: Optional[Probe] = None) -> Outcome:
        raise NotImplementedError

    def check(self, unit: Any, output: Any, tally: Tally) -> None:
        raise NotImplementedError

    def signature(self, output: Any) -> Any:
        """The part of an output whose ``repr`` must repeat when a unit is judged again."""
        raise NotImplementedError

    def verdict(self, output: Any) -> Any:
        """The few facts of an output that ``check_reference`` compares."""
        return None

    def check_reference(self, unit: Any, verdict: Any, tally: Tally) -> None:
        """Compare ``verdict`` with another lane's verdict on the same unit."""

    def shape(self, unit: Any, output: Any) -> Dict[str, int]:
        raise NotImplementedError

    def instrument(self, inputs: Any, probe: Probe) -> Swaps:
        return _certify_swaps(probe)

    def layers(self, inputs: Any, outcomes: List[Outcome], probe: Probe) -> Dict[str, float]:
        return {}

    def prediction(self, layers: Dict[str, float], shares: Dict[str, float]) -> Dict[str, Any]:
        """How the traced pass split ``run_s``, against what was predicted."""
        raise NotImplementedError

    def close(self, inputs: Any) -> None:
        """Release what ``build`` started."""


# ---------------------------------------------------------------------------
# sim-moss
# ---------------------------------------------------------------------------


@dataclass
class SimHistory:
    config: WorkloadConfig
    system_type: SystemType
    system: Any


class SimMoss(Workload):
    """Generate → compose with Moss locking → simulate → certify at defaults.

    A unit's latencies are its driver steps: one verdict per history is
    too few samples for a percentile.
    """

    name = "sim-moss"

    def build(self, seed: int) -> List[SimHistory]:
        histories = []
        for sub in _sub_seeds(seed, self.sizes.sim_histories):
            config = WorkloadConfig(
                top_level=self.sizes.sim_top_level,
                objects=8,
                max_depth=2,
                max_calls=3,
                seed=sub,
            )
            system_type, programs = generate_workload(config)
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            histories.append(SimHistory(config, system_type, system))
        return histories

    def fingerprint(self, inputs: List[SimHistory]) -> Any:
        return [
            (h.config.seed, tuple(sorted(h.system_type.all_accesses().items())))
            for h in inputs
        ]

    def run(self, unit: SimHistory, probe: Optional[Probe] = None) -> Outcome:
        simulate = run_system if probe is None else probe.clock.wrap("sim.driver", run_system)
        hooks = StepHooks() if probe is None else probe.hooks
        hooks.start_history()
        clock = speed.clock
        start = clock()
        result = simulate(
            unit.system,
            EagerInformPolicy(unit.config.seed),
            unit.system_type,
            resolve_deadlocks=True,
            hooks=hooks,
        )
        certificate = _certify(probe, result.behavior, unit.system_type)
        seconds = clock() - start
        steps = hooks.step_durations()[-1]
        return Outcome(seconds, result.stats.steps, steps, (result, certificate))

    def instrument(self, inputs: List[SimHistory], probe: Probe) -> Swaps:
        clock = probe.clock
        swaps = _certify_swaps(probe)
        for history in inputs:
            system = history.system
            swaps.append((system, "effect", clock.wrap("automata.composition.effect", system.effect)))
            for component in system.components:
                if isinstance(component, GenericController):
                    layer = "generic.controller"
                elif isinstance(component, MossRWLockingObject):
                    layer = "locking.moss"
                elif isinstance(component, ProgramTransaction):
                    layer = "sim.programs"
                else:
                    raise TypeError(f"unexpected component {component!r}")
                outputs = clock.wrap(f"{layer}.enabled_outputs", component.enabled_outputs, drain=True)
                swaps.append((component, "enabled_outputs", outputs))
                swaps.append((component, "effect", clock.wrap(f"{layer}.effect", component.effect)))
        return swaps

    def check(self, unit: SimHistory, output: Any, tally: Tally) -> None:
        result, certificate = output
        problems = []
        if not result.stats.quiescent:
            problems.append("not quiescent")
        if not certificate.certified:
            problems.append("not certified")
        if certificate.arv_violations:
            problems.append(f"{len(certificate.arv_violations)} ARV violations")
        if certificate.witness is None or certificate.witness_problems:
            problems.append(f"witness problems {certificate.witness_problems[:2]}")
        tally.check(not problems, f"sim-moss history seed {unit.config.seed}: {problems}")

    def signature(self, output: Any) -> Any:
        result, certificate = output
        return result.behavior, certificate.certified

    def shape(self, unit: SimHistory, output: Any) -> Dict[str, int]:
        result, _ = output
        facts = _input_shape(unit.system_type, result.behavior)
        facts.update(steps=result.stats.steps, deadlock_aborts=result.stats.deadlock_aborts)
        return facts

    def prediction(self, layers: Dict[str, float], shares: Dict[str, float]) -> Dict[str, Any]:
        simulator = ("sim.", "generic.", "locking.", "automata.")
        share = sum(value for name, value in shares.items() if name.startswith(simulator))
        return {"claim": ">=90% of run_s in sim/generic/locking/automata", "share": share, "met": share >= 0.9}

    def layers(self, inputs: List[SimHistory], outcomes: List[Outcome], probe: Probe) -> Dict[str, float]:
        clock = probe.clock
        results = [outcome.output[0] for outcome in outcomes]
        durations = probe.hooks.step_durations()
        first: List[float] = []
        last: List[float] = []
        for history in durations:
            quarter = len(history) // 4
            if quarter:
                first.extend(history[:quarter])
                last.extend(history[-quarter:])
        controller_calls = clock.calls["generic.controller.enabled_outputs"]
        return {
            "sim.driver.steps": sum(r.stats.steps for r in results),
            "sim.driver.deadlock_aborts": sum(r.stats.deadlock_aborts for r in results),
            "sim.driver.step_us_p50": median_or_zero([d for h in durations for d in h]) * 1e6,
            "sim.driver.step_growth": (
                statistics.fmean(last) / statistics.fmean(first) if first else 0.0
            ),
            "sim.driver.enabled_per_step": (
                probe.hooks.enabled_total / probe.hooks.choices if probe.hooks.choices else 0.0
            ),
            "sim.driver.self_s": clock.self_time["sim.driver"],
            "generic.controller.enabled_outputs_s": clock.self_time["generic.controller.enabled_outputs"],
            "generic.controller.enabled_outputs_calls": controller_calls,
            "generic.controller.outputs_per_call": (
                clock.items["generic.controller.enabled_outputs"] / controller_calls
                if controller_calls
                else 0.0
            ),
            "generic.controller.effect_s": clock.self_time["generic.controller.effect"],
            "locking.moss.enabled_outputs_s": clock.self_time["locking.moss.enabled_outputs"],
            "locking.moss.effect_s": clock.self_time["locking.moss.effect"],
            "sim.programs.enabled_outputs_s": clock.self_time["sim.programs.enabled_outputs"],
            "sim.programs.effect_s": clock.self_time["sim.programs.effect"],
            "automata.composition.effect_s": clock.self_time["automata.composition.effect"],
            "automata.composition.components": sum(len(h.system.components) for h in inputs),
        }


# ---------------------------------------------------------------------------
# audit-readheavy / audit-contended
# ---------------------------------------------------------------------------


@dataclass
class Audit:
    seed: int
    system_type: SystemType
    behavior: Tuple[Any, ...]


class _AuditWorkload(Workload):
    """``certify`` at its defaults, one history per unit."""

    count = 0
    latency_per_unit = True

    def history(self, seed: int) -> Tuple[SystemType, Tuple[Any, ...]]:
        raise NotImplementedError

    def build(self, seed: int) -> List[Audit]:
        return [Audit(sub, *self.history(sub)) for sub in _sub_seeds(seed, self.count)]

    def fingerprint(self, inputs: List[Audit]) -> Any:
        return [(audit.seed, audit.behavior) for audit in inputs]

    def run(self, unit: Audit, probe: Optional[Probe] = None) -> Outcome:
        clock = speed.clock
        start = clock()
        certificate = _certify(probe, unit.behavior, unit.system_type)
        seconds = clock() - start
        return Outcome(seconds, len(unit.behavior), [seconds], certificate)

    def signature(self, output: Certificate) -> Any:
        return (
            output.certified,
            len(output.arv_violations),
            output.cycle,
            output.graph.edge_count(),
            output.witness,
        )

    def shape(self, unit: Audit, output: Certificate) -> Dict[str, int]:
        return _input_shape(unit.system_type, unit.behavior)


class AuditReadHeavy(_AuditWorkload):
    name = "audit-readheavy"
    count = READHEAVY_HISTORIES

    def history(self, seed: int) -> Tuple[SystemType, Tuple[Any, ...]]:
        return read_heavy_history(seed, top_level=self.sizes.readheavy_top_level)

    def prediction(self, layers: Dict[str, float], shares: Dict[str, float]) -> Dict[str, Any]:
        phases = [
            "core.events.project_s",
            "core.return_values.arv_s",
            "core.serialization_graph.conflict_pairs_s",
            "core.serialization_graph.precedes_pairs_s",
            "core.graph.find_cycle_s",
            "core.correctness.witness_s",
        ]
        largest = max(phases, key=lambda name: layers[name])
        return {
            "claim": "witness is the largest certify phase",
            "largest": largest,
            "met": largest == "core.correctness.witness_s",
        }

    def check(self, unit: Audit, output: Certificate, tally: Tally) -> None:
        tally.check(
            output.certified and output.witness is not None and not output.witness_problems,
            f"audit-readheavy seed {unit.seed}: certified={output.certified} "
            f"witness problems {output.witness_problems[:2]}",
        )


class AuditContended(_AuditWorkload):
    name = "audit-contended"
    count = CONTENDED_HISTORIES

    def history(self, seed: int) -> Tuple[SystemType, Tuple[Any, ...]]:
        system_type, actions = commit_as_you_go(
            StreamWorkload(top_level=self.sizes.contended_top_level, seed=seed)
        )
        return system_type, tuple(actions)

    def prediction(self, layers: Dict[str, float], shares: Dict[str, float]) -> Dict[str, Any]:
        share = shares.get("core.return_values.arv_s", 0.0) + shares.get(
            "core.serialization_graph.conflict_pairs_s", 0.0
        )
        met = share >= 0.7 and layers["core.correctness.witness_s"] == 0
        return {"claim": "ARV + conflict pairs >=70% of run_s, no witness", "share": share, "met": met}

    def check(self, unit: Audit, output: Certificate, tally: Tally) -> None:
        tally.check(
            not output.certified and output.cycle is not None and output.witness is None,
            f"audit-contended seed {unit.seed}: certified={output.certified} "
            f"cycle={output.cycle is not None} witness={output.witness is not None}",
        )

    def verdict(self, output: Certificate) -> Tuple[bool, bool]:
        return output.certified, output.cycle is not None

    def check_reference(self, unit: Audit, verdict: Tuple[bool, bool], tally: Tally) -> None:
        reference = certify(unit.behavior, unit.system_type, columnar=True)
        tally.check(
            verdict == (reference.certified, reference.cycle is not None),
            f"audit-contended seed {unit.seed}: certified, cycle = {verdict}; "
            f"columnar {reference.certified}, {reference.cycle is not None}",
        )


# ---------------------------------------------------------------------------
# stream-2pl
# ---------------------------------------------------------------------------


@dataclass
class StreamInputs:
    sessions: List[Tuple[int, SystemType, Tuple[Any, ...]]]
    loop: asyncio.AbstractEventLoop
    service: StreamService


@dataclass
class SessionOutcome:
    checkpoints: List[bool]
    final: Any
    compaction: Dict[str, int]


class Stream2PL(Workload):
    """Closed-loop clients, one per session, on the default ``StreamService``.

    The whole set of sessions is one unit, because the sessions share the
    service's one worker.
    """

    name = "stream-2pl"

    def build(self, seed: int) -> StreamInputs:
        sessions = [
            (sub, *two_phase_stream(sub, top_level=self.sizes.stream_top_level))
            for sub in _sub_seeds(seed, STREAM_SESSIONS)
        ]
        loop = asyncio.new_event_loop()
        service = StreamService()
        loop.run_until_complete(service.start())
        return StreamInputs(sessions, loop, service)

    def fingerprint(self, inputs: StreamInputs) -> Any:
        return [(sub, actions) for sub, _, actions in inputs.sessions]

    def units(self, inputs: StreamInputs) -> List[StreamInputs]:
        return [inputs]

    async def _client(
        self,
        service: StreamService,
        index: int,
        system_type: SystemType,
        actions: Tuple[Any, ...],
        latencies: List[float],
        probe: Optional[Probe],
    ) -> SessionOutcome:
        metrics = None if probe is None else probe.service_metrics
        session = await service.open_session(f"session-{index}", system_type, metrics=metrics)
        checkpoints = []
        step = self.sizes.checkpoint_every
        clock = speed.clock
        for start in range(0, len(actions), step):
            if probe is None:
                for action in actions[start : start + step]:
                    await session.feed(action)
            else:
                with probe.clock.region("stream.service.enqueue"):
                    for action in actions[start : start + step]:
                        await session.feed(action)
            asked = clock()
            verdict = await session.verdict()
            latencies.append(clock() - asked)
            checkpoints.append(verdict.certified)
        result = await session.close()
        return SessionOutcome(checkpoints, result.verdict, result.compaction_stats)

    def run(self, unit: StreamInputs, probe: Optional[Probe] = None) -> Outcome:
        latencies: List[float] = []
        service = unit.service
        if probe is not None:
            # one registry serves the service and every session, so the
            # service observes each feed's latency once, not twice
            service = StreamService(metrics=probe.service_metrics)
            unit.loop.run_until_complete(service.start())

        async def clients() -> List[SessionOutcome]:
            return list(
                await asyncio.gather(
                    *(
                        self._client(service, i, system_type, actions, latencies, probe)
                        for i, (_, system_type, actions) in enumerate(unit.sessions)
                    )
                )
            )

        clock = speed.clock
        start = clock()
        outputs = unit.loop.run_until_complete(clients())
        seconds = clock() - start
        if probe is not None:
            unit.loop.run_until_complete(service.close())
        work = sum(len(actions) for _, _, actions in unit.sessions)
        return Outcome(seconds, work, latencies, outputs)

    def instrument(self, inputs: StreamInputs, probe: Probe) -> Swaps:
        clock = probe.clock
        return [
            (OnlineCertifier, "feed", clock.wrap("core.online.feed", OnlineCertifier.feed)),
            (OnlineCertifier, "verdict", clock.wrap("core.online.verdict", OnlineCertifier.verdict)),
        ]

    def prediction(self, layers: Dict[str, float], shares: Dict[str, float]) -> Dict[str, Any]:
        share = shares.get("core.online.feed_s", 0.0)
        return {"claim": "core.online.feed_s >=70% of run_s", "share": share, "met": share >= 0.7}

    def check(self, unit: StreamInputs, output: List[SessionOutcome], tally: Tally) -> None:
        for (sub, _, _), outcome in zip(unit.sessions, output):
            for position, certified in enumerate(outcome.checkpoints):
                tally.check(certified, f"stream-2pl seed {sub}: checkpoint {position} not certified")

    def verdict(self, output: List[SessionOutcome]) -> List[Tuple[bool, bool, bool]]:
        return [
            (o.final.certified, bool(o.final.arv_violations), o.final.cycle is not None)
            for o in output
        ]

    def check_reference(
        self, unit: StreamInputs, verdict: List[Tuple[bool, bool, bool]], tally: Tally
    ) -> None:
        for (sub, system_type, actions), final in zip(unit.sessions, verdict):
            reference = certify(actions, system_type, columnar=True, construct_witness=False)
            batch = (reference.certified, bool(reference.arv_violations), reference.cycle is not None)
            tally.check(
                final == batch,
                f"stream-2pl seed {sub}: final certified, ARV, cycle = {final}; batch {batch}",
            )

    def signature(self, output: List[SessionOutcome]) -> Any:
        return [(o.checkpoints, o.final, o.compaction) for o in output]

    def shape(self, unit: StreamInputs, output: List[SessionOutcome]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for _, system_type, actions in unit.sessions:
            for key, value in _input_shape(system_type, actions).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def layers(self, inputs: StreamInputs, outcomes: List[Outcome], probe: Probe) -> Dict[str, float]:
        clock = probe.clock
        metrics = probe.service_metrics
        feed = clock.inclusive["core.online.feed"]
        verdict = clock.inclusive["core.online.verdict"]
        run_s = sum(outcome.seconds for outcome in outcomes)
        sessions = [session for outcome in outcomes for session in outcome.output]
        p50 = metrics.histogram("stream.latency.feed_to_verdict").quantile(0.5)
        return {
            "core.online.feed_s": feed,
            "core.online.verdict_s": verdict,
            "core.online.edge_inserts": metrics.count("online.incremental.edge_inserts"),
            "core.online.conflict_edges": metrics.count("online.edges.conflict"),
            "core.online.precedes_edges": metrics.count("online.edges.precedes"),
            "core.online.revalidated_ops": metrics.count("online.revalidated_ops"),
            "core.online.compaction_sweeps": metrics.count("online.compaction.sweeps"),
            "core.online.frontier_entries": sum(s.compaction["frontier_entries"] for s in sessions),
            # the sessions share the gauge, so its peak is the largest
            # single-session value observed at a sweep
            "core.online.live_tracked_ops_peak": metrics.peaks.get(
                "online.compaction.live_tracked_ops", 0
            ),
            "stream.service.enqueue_s": clock.self_time["stream.service.enqueue"],
            "stream.service.overhead_s": run_s - feed - verdict,
            "stream.service.feed_to_verdict_p50_ms": (p50 or 0.0) * 1e3,
            "stream.service.backpressure_waits": metrics.count("stream.backpressure_waits"),
        }

    def close(self, inputs: StreamInputs) -> None:
        try:
            inputs.loop.run_until_complete(inputs.service.close())
        finally:
            inputs.loop.close()


WORKLOADS = {
    workload.name: workload
    for workload in (SimMoss, AuditReadHeavy, AuditContended, Stream2PL)
}
