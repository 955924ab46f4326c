"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 sgbench/run.py --workload sim-moss --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` beside this directory; nothing is
built.  Set-up builds the workload's fixed input set from ``--seed``.
The timed region judges the units of that set in whole passes, one unit
after another, until their wall time adds up to ``--seconds``; ``run_s``
is the sum of the units' median times.  After every judged
unit the set is released and built again, and every build must equal
the first, so ``setup_s``, the median build, is sampled over the whole
run while only one input set is ever held.  Set-up and the timed
region are read from the speed-normalized clock of
:mod:`sgbench.speed`, so every time the end-to-end metrics report is
in seconds at a fixed nominal machine speed; the record line also
carries the unscaled ``wall_run_s``.  The peak resident set is
read right after the timed loop, before any check that certifies a unit
again on another lane.  Every verdict is checked outside the timed
region.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the untraced loop is followed by
two traced passes, whose work counters must agree exactly, and the last
line carries the per-layer metrics.  No speed samples run in a traced
pass, so its times are wall times, and the tracing overhead is the
traced pass less the untraced ``wall_run_s``.  The line before it is a record of
provenance, input shape and layer shares.  The exit code is 0 only when
every check passed; without the library the exit code is 2 and nothing
is printed on standard output.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("actions_per_s", "actions/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of every per-layer metric, printed with ``--trace 1``; a
#: layer a workload does not call into reports 0
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.driver.steps", "count"),
    ("sim.driver.deadlock_aborts", "count"),
    ("sim.driver.step_us_p50", "us"),
    ("sim.driver.step_growth", "ratio"),
    ("sim.driver.enabled_per_step", "count"),
    ("sim.driver.self_s", "s"),
    ("generic.controller.enabled_outputs_s", "s"),
    ("generic.controller.enabled_outputs_calls", "count"),
    ("generic.controller.outputs_per_call", "count"),
    ("generic.controller.effect_s", "s"),
    ("locking.moss.enabled_outputs_s", "s"),
    ("locking.moss.effect_s", "s"),
    ("sim.programs.enabled_outputs_s", "s"),
    ("sim.programs.effect_s", "s"),
    ("automata.composition.effect_s", "s"),
    ("automata.composition.components", "count"),
    ("core.correctness.certify_s", "s"),
    ("core.events.project_s", "s"),
    ("core.return_values.arv_s", "s"),
    ("core.serialization_graph.conflict_pairs_s", "s"),
    ("core.serialization_graph.precedes_pairs_s", "s"),
    ("core.graph.find_cycle_s", "s"),
    ("core.correctness.witness_s", "s"),
    ("core.correctness.witness_projections", "count"),
    ("core.events.project_events_scanned", "count"),
    ("core.operations.object_scans", "count"),
    ("core.operations.events_scanned", "count"),
    ("core.serialization_graph.conflict_edges", "count"),
    ("core.serialization_graph.precedes_edges", "count"),
    ("history.index.events", "count"),
    ("history.index.conflict.pairs_checked", "count"),
    ("history.index.conflict.pairs_skipped_read_runs", "count"),
    ("core.online.feed_s", "s"),
    ("core.online.verdict_s", "s"),
    ("core.online.edge_inserts", "count"),
    ("core.online.conflict_edges", "count"),
    ("core.online.precedes_edges", "count"),
    ("core.online.revalidated_ops", "count"),
    ("core.online.compaction_sweeps", "count"),
    ("core.online.frontier_entries", "count"),
    ("core.online.live_tracked_ops_peak", "count"),
    ("stream.service.enqueue_s", "s"),
    ("stream.service.overhead_s", "s"),
    ("stream.service.feed_to_verdict_p50_ms", "ms"),
    ("stream.service.backpressure_waits", "count"),
    ("shape.serial_events", "count"),
    ("shape.top_level", "count"),
    ("shape.objects", "count"),
    ("shape.write_share", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

#: the input set is built at least this often; ``setup_s`` is the median build
MIN_SETUPS = 7

def provenance(seed: int, workload: str) -> Dict[str, Any]:
    """Where a result came from: code, interpreter, machine, time, input."""
    sha: Optional[str] = None  # a source checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def digest(value: Any) -> str:
    """SHA-256 of ``repr(value)``: a small stand-in for a large value."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), the maximum below two samples."""
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def counts_of(metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that are work counts, which must repeat exactly."""
    units = dict(PER_LAYER)
    return {
        name: value
        for name, value in metrics.items()
        if units[name] == "count" or name.startswith("shape.")
    }


def layer_shares(layers: Dict[str, float]) -> Dict[str, float]:
    """Each timed layer's share of the traced ``run_s``."""
    units = dict(PER_LAYER)
    return {
        name: value / layers["trace.run_s"]
        for name, value in layers.items()
        if units[name] == "s" and not name.startswith("trace.") and value
    }


class InputSet:
    """The workload's input set, built again in place; every build must equal the first.

    :meth:`rebuild` releases the current set before it builds the next,
    so no two input sets are ever held at once.
    """

    def __init__(self, workload: Any, seed: int, tally: Any) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.durations: List[float] = []
        self.digest: Optional[str] = None
        self.inputs: Any = None
        self.rebuild()

    def rebuild(self) -> None:
        self.close()
        gc.collect()
        from sgbench.speed import clock

        began = clock()
        built = self.workload.build(self.seed)
        self.durations.append(clock() - began)
        fingerprint = digest(self.workload.fingerprint(built))
        if self.digest is None:
            self.digest = fingerprint
        else:
            self.tally.check(fingerprint == self.digest, "set-up differs between builds at one seed")
        self.inputs = built

    def units(self) -> List[Any]:
        return self.workload.units(self.inputs)

    def close(self) -> None:
        if self.inputs is not None:
            self.workload.close(self.inputs)
            self.inputs = None


def _shape(shapes: List[Dict[str, int]]) -> Dict[str, Any]:
    totals: Dict[str, Any] = {"units": len(shapes), "steps": 0, "deadlock_aborts": 0}
    for facts in shapes:
        for key, value in facts.items():
            totals[key] = totals.get(key, 0) + value
    totals["write_share"] = totals["writes"] / totals["accesses"]
    return totals


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, sizes: Any = None
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; return the result line and the record line."""
    from sgbench.layers import Probe, patched
    from sgbench.speed import NOMINAL_KERNEL_S, Speedometer
    from sgbench.workloads import WORKLOADS, Sizes, Tally, certify_layers

    workload = WORKLOADS[workload_name](sizes if sizes is not None else Sizes())
    tally = Tally()
    input_set: Optional[InputSet] = None
    try:
        with Speedometer() as meter:
            input_set = InputSet(workload, seed, tally)
            count = len(input_set.units())
            samples: List[List[float]] = [[] for _ in range(count)]
            walls: List[List[float]] = [[] for _ in range(count)]
            signatures: List[Optional[str]] = [None] * count
            verdicts: List[Any] = [None] * count
            shapes: List[Dict[str, int]] = [{} for _ in range(count)]
            work = [0] * count
            latencies: List[float] = []
            judged = 0
            # judge whole passes over the units until the timed regions add
            # up to ``seconds`` of wall time; every unit gets as many
            # samples, so no unit weighs more in the pooled latencies
            while judged == 0 or judged % count or sum(map(sum, walls)) < seconds:
                index = judged % count
                unit = input_set.units()[index]
                gc.collect()
                began = meter.raw()
                outcome = workload.run(unit)
                walls[index].append(meter.raw() - began)
                samples[index].append(outcome.seconds)
                latencies.extend(outcome.latencies)
                workload.check(unit, outcome.output, tally)
                signature = digest(workload.signature(outcome.output))
                if signatures[index] is None:
                    signatures[index] = signature
                    verdicts[index] = workload.verdict(outcome.output)
                    shapes[index] = workload.shape(unit, outcome.output)
                    work[index] = outcome.work
                else:
                    tally.check(signature == signatures[index], "a unit judged again gave another result")
                judged += 1
                unit = outcome = None
                input_set.rebuild()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(input_set.durations) < MIN_SETUPS:
                input_set.rebuild()
        if workload.latency_per_unit:
            latencies = [statistics.median(times) for times in samples]
        setups = input_set.durations
        units = input_set.units()
        for unit, verdict in zip(units, verdicts):
            workload.check_reference(unit, verdict, tally)
        # one median pass over the fixed input set
        run_s = sum(statistics.median(times) for times in samples)
        wall_run_s = sum(statistics.median(times) for times in walls)
        shape = _shape(shapes)
        record: Dict[str, Any] = {
            "provenance": provenance(seed, workload_name),
            "input_sha256": input_set.digest,
            "shape": shape,
            "units_judged": judged,
            "setups": len(setups),
            "wall_run_s": wall_run_s,
            "speed": {
                "samples": meter.samples,
                "kernel_s": meter.kernel_s,
                "nominal_kernel_s": NOMINAL_KERNEL_S,
            },
        }
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": run_s,
                "actions_per_s": sum(work) / run_s,
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_p95_ms": percentile(latencies, 95) * 1e3,
                "peak_rss_mb": peak_rss_mb,
            }
            record["latency_samples"] = len(latencies)
            metric_units = dict(END_TO_END)
        else:
            traced = []
            for _ in range(2):
                probe = Probe()
                gc.collect()
                with patched(workload.instrument(input_set.inputs, probe)):
                    outcomes = [workload.run(unit, probe) for unit in units]
                for index, (unit, outcome) in enumerate(zip(units, outcomes)):
                    workload.check(unit, outcome.output, tally)
                    tally.check(
                        digest(workload.signature(outcome.output)) == signatures[index],
                        "a traced unit gave another result than the untraced one",
                    )
                traced_s = sum(outcome.seconds for outcome in outcomes)
                layers = {name: 0.0 for name, _ in PER_LAYER}
                layers.update(certify_layers(probe))
                layers.update(workload.layers(input_set.inputs, outcomes, probe))
                layers.update(
                    {
                        "shape.serial_events": shape["serial_events"],
                        "shape.top_level": shape["top_level"],
                        "shape.objects": shape["objects"],
                        "shape.write_share": shape["write_share"],
                        "trace.run_s": traced_s,
                        "trace.overhead_s": traced_s - wall_run_s,
                        "trace.coverage": probe.clock.outermost() / traced_s,
                    }
                )
                traced.append(layers)
                del outcomes
            first, second = (counts_of(layers) for layers in traced)
            differing = sorted(name for name in first if first[name] != second[name])
            tally.check(not differing, f"work counters differ between traced runs: {differing}")
            metrics = traced[-1]
            record["counts_repeat"] = not differing
            record["shares"] = layer_shares(metrics)
            record["prediction"] = workload.prediction(metrics, record["shares"])
            metric_units = dict(PER_LAYER)
    finally:
        if input_set is not None:
            input_set.close()
    record["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()},
    }
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"sgbench: the library is not importable from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from sgbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
