"""E17 — columnar engine: default ``certify`` vs the naive reference lane.

The definitional transcription of the paper (``certify(...,
columnar=False)``) walks one Python object per event: conflict
enumeration compares every access pair per object, hashing
``TransactionName`` tuples, and visibility chases attribute chains.
The default lane runs on ``repro.core.columnar`` — names, objects and
operation classes intern to dense ints at append time, the history is
parallel ``array('q')`` columns, visibility/orphan sets are bitsets, and
read/write objects resolve their whole conflict relation in one linear
bitset sweep (``conflicts_iff_writer``) instead of a pair loop.

This benchmark certifies growing read-heavy histories with the default
lane fed by a *lazy generator* — the 50k+ event corpus is never
materialized as an object list — and, on the sizes the quadratic
reference lane finishes in seconds, with ``columnar=False`` over the
same history, asserting the verdicts agree.  It writes
``BENCH_e17_columnar.json``.  Checked on every run, smoke size
included: the bitset sweep carries the whole conflict phase
(``pairs_bitset > 0``, ``pairs_checked == 0``).  Checked in full mode:
the default lane reaches ≥50,000 events and is ≥10x faster than the
reference at the largest size both lanes run.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro import (
    OK,
    Access,
    Commit,
    Create,
    MetricsRegistry,
    ObjectName,
    ReadOp,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    ROOT,
    RWSpec,
    SystemType,
    WriteOp,
    certify,
)


#: one write per this many accesses — the read-heavy regime the bitset
#: sweep targets
WRITE_EVERY = 50


def read_heavy_system(objects: int = 2) -> SystemType:
    names = [ObjectName(f"X{i}") for i in range(objects)]
    return SystemType({name: RWSpec(initial=0) for name in names})


def stream_read_heavy_history(
    system_type: SystemType, top_level: int, accesses: int = 20
):
    """Lazily yield a read-heavy history, one action at a time.

    ``top_level`` sequential transactions of ``accesses`` accesses each,
    round-robin over the system's objects, one write per ``WRITE_EVERY``
    accesses globally — serial, ARV-correct, certifiable.  Event count
    is ``top_level * (5 * accesses + 5)``; nothing is ever materialized,
    which is exactly the regime the columnar append path is built for.
    Accesses are registered on first touch, so streaming the generator
    grows the system type as a real event source would.
    """
    names = list(system_type.object_names())
    state = {name: 0 for name in names}
    sequence = 0
    for i in range(top_level):
        txn = ROOT.child(f"t{i}")
        yield RequestCreate(txn)
        yield Create(txn)
        for a in range(accesses):
            obj = names[sequence % len(names)]
            if sequence % WRITE_EVERY == WRITE_EVERY - 1:
                op, value = WriteOp(sequence), OK
                state[obj] = sequence
            else:
                op, value = ReadOp(), state[obj]
            sequence += 1
            access = txn.child(f"a{a}")
            system_type.register_access(access, Access(obj, op))
            yield RequestCreate(access)
            yield Create(access)
            yield RequestCommit(access, value)
            yield Commit(access)
            yield ReportCommit(access, value)
        yield RequestCommit(txn, "done")
        yield Commit(txn)
        yield ReportCommit(txn, "done")


def timed_reference(behavior, system_type):
    start = time.perf_counter()
    certificate = certify(
        behavior, system_type, construct_witness=False, columnar=False
    )
    return certificate, time.perf_counter() - start


def timed_columnar(system_type, top_level):
    """Time the default lane end to end, generation included.

    The event stream is produced lazily *inside* the timed region —
    the engine's cost includes folding every action into the int
    columns, so this is the honest streaming figure (the reference lane's
    behavior tuple is materialized for free, outside its timer).
    """
    registry = MetricsRegistry()
    start = time.perf_counter()
    certificate = certify(
        stream_read_heavy_history(system_type, top_level),
        system_type,
        construct_witness=False,
        metrics=registry,
    )
    seconds = time.perf_counter() - start
    return certificate, seconds, registry.snapshot()["counters"]


#: history sizes in top-level transactions (105 events each)
CASES = pick([30, 60, 120, 240, 480], [2, 3])
#: the largest size the quadratic reference lane runs (12.6k events, ~10 s)
REFERENCE_MAX_TOP = pick(120, 3)


def run_comparison():
    rows = []
    report = {}
    for top_level in CASES:
        system_type = read_heavy_system()
        columnar, col_seconds, col_counters = timed_columnar(
            system_type, top_level
        )
        assert columnar.certified and columnar.cycle is None
        assert not columnar.arv_violations
        events = col_counters["history.columnar.events"]
        ref_seconds = speedup = None
        if top_level <= REFERENCE_MAX_TOP:
            # materialized for the reference lane only — outside its timer
            behavior = tuple(stream_read_heavy_history(system_type, top_level))
            assert len(behavior) == events
            reference, ref_seconds = timed_reference(behavior, system_type)
            assert reference.certified and reference.cycle is None
            assert not reference.arv_violations
            speedup = ref_seconds / max(col_seconds, 1e-9)
        label = f"top{top_level}"
        report[label] = {
            "events": events,
            "columnar_seconds": col_seconds,
            "reference_seconds": ref_seconds,
            "speedup": speedup,
            "columnar_counters": {
                name: value
                for name, value in col_counters.items()
                if name.startswith("history.columnar.")
            },
        }
        rows.append(
            (
                label,
                events,
                int(col_counters["history.columnar.conflict.pairs_bitset"]),
                int(col_counters["history.columnar.conflict.pairs_checked"]),
                f"{col_seconds * 1e3:.1f}",
                "—" if ref_seconds is None else f"{ref_seconds * 1e3:.1f}",
                "—" if speedup is None else f"{speedup:.1f}x",
            )
        )
    write_bench_json("e17_columnar", report)
    return report, rows


@pytest.mark.benchmark(group="e17")
def test_e17_columnar_vs_reference_certification(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E17: default (columnar) certify vs the naive reference, read-heavy histories",
        [
            "case",
            "events",
            "pairs bitset",
            "pairs checked",
            "columnar (ms)",
            "reference (ms)",
            "speedup",
        ],
        rows,
    )
    largest = report[f"top{CASES[-1]}"]
    for case in report.values():
        counters = case["columnar_counters"]
        # the RW bitset sweep must carry the whole conflict phase: the
        # generic per-pair fallback never runs on pure read/write objects
        assert counters["history.columnar.conflict.pairs_bitset"] > 0
        assert counters["history.columnar.conflict.pairs_checked"] == 0
        assert counters["history.columnar.builds"] == 1
    if not SMOKE:
        assert largest["events"] >= 50_000, largest["events"]
        compared = report[f"top{REFERENCE_MAX_TOP}"]
        assert compared["speedup"] >= 10.0, compared["speedup"]
