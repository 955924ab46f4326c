"""The benchmark's own tests, at tiny sizes.

Run from the repository root with ``python -m pytest sgbench/tests``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.actions import Commit, RequestCreate
from repro.core.correctness import certify
from repro.core.rw_semantics import WriteOp

from sgbench import speed
from sgbench.generators import READ_HEAVY_ACCESSES, WRITE_EVERY, read_heavy_history, two_phase_stream
from sgbench.run import END_TO_END, PER_LAYER, InputSet, measure
from sgbench.workloads import WORKLOADS, Sizes, Tally

ROOT = Path(__file__).resolve().parents[2]

TINY = Sizes(
    sim_histories=2,
    sim_top_level=4,
    readheavy_top_level=3,
    contended_top_level=60,
    stream_top_level=40,
    checkpoint_every=16,
)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_runs_and_passes_its_checks(workload, seed):
    result, record = measure(workload, seed, seconds=0.0, trace=False, sizes=TINY)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["provenance"]["seed"] == seed
    assert record["units_judged"] % record["shape"]["units"] == 0  # whole passes


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    result, record = measure(workload, 3, seconds=0.0, trace=True, sizes=TINY)
    assert result["correct"], record["problems"]
    assert record["counts_repeat"]
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    assert result["metrics"]["shape.serial_events"]["value"] > 0
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    assert "met" in record["prediction"]


def test_two_phase_stream_is_deterministic_in_its_seed():
    assert two_phase_stream(5, top_level=30)[1] == two_phase_stream(5, top_level=30)[1]
    assert two_phase_stream(5, top_level=30)[1] != two_phase_stream(6, top_level=30)[1]


@pytest.mark.parametrize("seed", range(6))
def test_two_phase_streams_are_certified_by_every_batch_lane(seed):
    system_type, actions = two_phase_stream(seed, top_level=60, objects=8)
    for lane in ({"indexed": False}, {"indexed": True}, {"columnar": True}):
        certificate = certify(actions, system_type, **lane)
        assert certificate.certified, (lane, certificate.explain())
        assert not certificate.witness_problems


@pytest.mark.parametrize("seed", range(4))
def test_two_phase_stream_keeps_the_window_and_its_locks(seed):
    window = 3
    system_type, actions = two_phase_stream(seed, top_level=80, window=window, objects=6)
    in_flight = set()
    peak = 0
    for action in actions:
        name = action.transaction
        if isinstance(action, RequestCreate) and name.depth == 1:
            for other in in_flight:
                mine = _locks(system_type, name)
                theirs = _locks(system_type, other)
                for obj in mine.keys() & theirs.keys():
                    assert not (mine[obj] or theirs[obj]), (name, other, obj)
            in_flight.add(name)
            peak = max(peak, len(in_flight))
        elif isinstance(action, Commit) and name.depth == 1:
            in_flight.remove(name)
    assert not in_flight
    assert 1 < peak <= window


def _locks(system_type, top):
    """Object -> whether ``top`` writes it."""
    return {
        info.obj: isinstance(info.op, WriteOp)
        for name, info in system_type.all_accesses().items()
        if name.prefix(1) == top
    }


def test_read_heavy_history_has_its_fixed_write_share():
    system_type, actions = read_heavy_history(4, top_level=5)
    ops = [info.op for info in system_type.all_accesses().values()]
    assert len(actions) == 5 * (5 * READ_HEAVY_ACCESSES + 5)
    assert sum(isinstance(op, WriteOp) for op in ops) == 5 * READ_HEAVY_ACCESSES // WRITE_EVERY
    assert certify(actions, system_type).certified


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "sgbench", tmp_path / "sgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "sgbench/run.py", "--workload", "sim-moss", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_the_input_set_is_released_before_it_is_built_again():
    live = []
    peak = []

    class Counting:
        def build(self, seed):
            live.append(seed)
            peak.append(len(live))
            return [seed]

        def fingerprint(self, inputs):
            return inputs

        def close(self, inputs):
            live.pop()

    tally = Tally()
    input_set = InputSet(Counting(), 3, tally)
    for _ in range(4):
        input_set.rebuild()
    assert input_set.inputs == [3] and len(input_set.durations) == 5
    assert max(peak) == 1 and len(live) == 1
    assert tally.failed == 0 and tally.attempted == 4
    input_set.close()
    assert not live


def test_a_verdict_that_disagrees_with_the_columnar_lane_fails():
    workload = WORKLOADS["audit-contended"](TINY)
    unit = workload.units(workload.build(1))[0]
    tally = Tally()
    workload.check_reference(unit, (True, False), tally)
    assert tally.failed == 1


def test_the_speedometer_takes_its_kernel_out_of_the_clock_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        with pytest.raises(RuntimeError):
            speed.Speedometer().__enter__()
        wall, raw, normalized = time.perf_counter(), meter.raw(), speed.clock()
        while time.perf_counter() - wall < 0.3:
            pass
        wall = time.perf_counter() - wall
        raw = meter.raw() - raw
        normalized = speed.clock() - normalized
    assert meter.samples >= 10 and meter.kernel_s > 0
    assert raw < wall and abs(raw + meter.kernel_s - wall) < 0.05
    assert normalized > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert speed._active is None
