"""Seeded input generators owned by the benchmark.

Two history shapes the library has no generator for:

* :func:`read_heavy_history` — a flat, serial, read-heavy history of the
  E17 shape (one write per :data:`WRITE_EVERY` accesses, two objects), with
  the object of each access and the placement of the writes drawn from
  the seed.  Serial and ARV-correct, so ``certify`` certifies it and
  builds the witness.
* :func:`two_phase_stream` — an interleaved stream produced under
  conservative strict two-phase locking, so it stays serializable for
  its whole length and the online engine never latches a cycle.

Both are deterministic in their seed and materialize the whole action
tuple, so the timed region of a benchmark run never generates input.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from repro.core.actions import (
    Action,
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.names import ROOT, Access, ObjectName, SystemType, TransactionName
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp

__all__ = ["read_heavy_history", "two_phase_stream", "rw_system"]

#: read-heavy histories: accesses per top-level transaction, objects, and
#: one write in every block of this many accesses
READ_HEAVY_ACCESSES = 20
READ_HEAVY_OBJECTS = 2
WRITE_EVERY = 50

#: two-phase streams: accesses per top-level transaction (to distinct
#: objects) and the chance that an access is a write
STREAM_ACCESSES = 4
WRITE_FRACTION = 0.3


def rw_system(objects: int, prefix: str) -> SystemType:
    """A system type of ``objects`` read/write registers named ``<prefix><i>``."""
    return SystemType(
        {ObjectName(f"{prefix}{i}"): RWSpec(initial=0) for i in range(objects)}
    )


def read_heavy_history(seed: int, top_level: int = 30) -> Tuple[SystemType, Tuple[Action, ...]]:
    """A serial read-heavy history of ``top_level * (5 * READ_HEAVY_ACCESSES + 5)`` events.

    Top-level transactions run one after another, each reporting to
    ``T0`` before the next is requested, each with
    :data:`READ_HEAVY_ACCESSES` accesses.  Exactly one access in every
    block of :data:`WRITE_EVERY` consecutive accesses is a write, at a
    seeded offset, so the write share is fixed and only its placement
    varies.
    """
    rng = random.Random(seed)
    system_type = rw_system(READ_HEAVY_OBJECTS, "X")
    names = system_type.object_names()
    state = {name: 0 for name in names}
    total = top_level * READ_HEAVY_ACCESSES
    write_at: Set[int] = {
        block + rng.randrange(min(WRITE_EVERY, total - block))
        for block in range(0, total, WRITE_EVERY)
    }
    actions: List[Action] = []
    sequence = 0
    for i in range(top_level):
        txn = ROOT.child(f"t{i}")
        actions += [RequestCreate(txn), Create(txn)]
        for a in range(READ_HEAVY_ACCESSES):
            obj = names[rng.randrange(len(names))]
            op: object
            if sequence in write_at:
                state[obj] = rng.randrange(1000)
                op, value = WriteOp(state[obj]), OK
            else:
                op, value = ReadOp(), state[obj]
            sequence += 1
            access = txn.child(f"a{a}")
            system_type.register_access(access, Access(obj, op))
            actions += [
                RequestCreate(access),
                Create(access),
                RequestCommit(access, value),
                Commit(access),
                ReportCommit(access, value),
            ]
        actions += [RequestCommit(txn, "done"), Commit(txn), ReportCommit(txn, "done")]
    return system_type, tuple(actions)


def _ceremony(
    index: int,
    ops: List[Tuple[ObjectName, object]],
    system_type: SystemType,
) -> List[object]:
    """One top-level transaction's steps; read values are resolved later."""
    top = TransactionName((f"s{index}",))
    steps: List[object] = [RequestCreate(top), Create(top)]
    for position, (obj, op) in enumerate(ops):
        access = top.child(f"a{position}")
        system_type.register_access(access, Access(obj, op))
        steps += [
            RequestCreate(access),
            Create(access),
            ("rc", access, obj, op),
            Commit(access),
            ("report", access),
        ]
    steps += [RequestCommit(top, "done"), ("commit", top)]
    return steps


def two_phase_stream(
    seed: int,
    top_level: int = 1000,
    window: int = 8,
    objects: int = 64,
) -> Tuple[SystemType, Tuple[Action, ...]]:
    """An interleaved, serializable stream of ``top_level * (4 + 5 * STREAM_ACCESSES)`` actions.

    Each top-level transaction touches :data:`STREAM_ACCESSES` distinct
    objects out of ``objects``, each access a write with probability
    :data:`WRITE_FRACTION`.  Locking is conservative strict two-phase: a
    transaction is admitted only when it can take all its locks at once
    (read locks shared, write locks exclusive), keeps them until its
    top-level commit, and at most ``window`` transactions are in flight.
    Admission is FIFO: while the next transaction's locks are held, no
    later one starts.  A read returns the last committed write.
    """
    if STREAM_ACCESSES > objects:
        raise ValueError("each transaction needs distinct objects")
    rng = random.Random(seed)
    system_type = rw_system(objects, "x")
    names = system_type.object_names()
    committed: Dict[ObjectName, object] = {name: 0 for name in names}
    readers: Dict[ObjectName, int] = {}
    writers: Set[ObjectName] = set()

    def draw() -> List[Tuple[ObjectName, object]]:
        chosen = rng.sample(names, STREAM_ACCESSES)
        return [
            (obj, WriteOp(rng.randrange(1000)) if rng.random() < WRITE_FRACTION else ReadOp())
            for obj in chosen
        ]

    def grantable(ops: List[Tuple[ObjectName, object]]) -> bool:
        return all(
            obj not in writers and (isinstance(op, ReadOp) or not readers.get(obj))
            for obj, op in ops
        )

    def lock(ops: List[Tuple[ObjectName, object]], take: bool) -> None:
        for obj, op in ops:
            if isinstance(op, WriteOp):
                (writers.add if take else writers.discard)(obj)
            else:
                readers[obj] = readers.get(obj, 0) + (1 if take else -1)

    actions: List[Action] = []
    answers: Dict[TransactionName, object] = {}
    active: List[Tuple[List[Tuple[ObjectName, object]], List[object], List[int]]] = []
    pending = draw()
    started = 0
    while started < top_level or active:
        while (
            started < top_level and len(active) < window and grantable(pending)
        ):
            lock(pending, True)
            active.append((pending, _ceremony(started, pending, system_type), [0]))
            started += 1
            pending = draw() if started < top_level else []
        slot = rng.randrange(len(active))
        ops, steps, cursor = active[slot]
        step = steps[cursor[0]]
        cursor[0] += 1
        if not isinstance(step, tuple):
            actions.append(step)  # type: ignore[arg-type]
        elif step[0] == "rc":
            _, access, obj, op = step
            answers[access] = OK if isinstance(op, WriteOp) else committed[obj]
            actions.append(RequestCommit(access, answers[access]))
        elif step[0] == "report":
            actions.append(ReportCommit(step[1], answers.pop(step[1])))
        else:
            actions.append(Commit(step[1]))
            for obj, op in ops:
                if isinstance(op, WriteOp):
                    committed[obj] = op.data
            lock(ops, False)
            active.pop(slot)
    return system_type, tuple(actions)
