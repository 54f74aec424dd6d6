"""Every access path costs the same however its plan is supplied.

One matrix over {scan, temp_table, tid_join, keyset, auto} × every
path each strategy can take.  Each case runs four times from the same
starting state — the drained ``rows()`` stream (the metered reference,
which only this file calls), the columnar plan driven resident as a
cache miss, the same plan driven as a hit, and the plan's encoding
driven transiently (slices under the vector keep-mask the route's kept
rows are held to) — and all four
must agree on the row multiset, on ``last_choice`` and, category by
category, on what the meter was charged and how many events it
counted.  A TID-list or keyset path gathers its rows out of the
server's encoding; rows deleted after its build stay out of every
supply.
"""

import pytest

from repro.core.auxiliary import make_strategy
from repro.sqlengine.columnar import np, predicate_mask
from repro.sqlengine.database import SQLServer
from repro.sqlengine.expr import all_of, compile_predicate, eq
from repro.sqlengine.schema import TableSchema

SCHEMA = TableSchema.of(("a", "int"), ("b", "int"))
# Several pages; a in 0..9 (10% each), b unique.
DATA = [(i % 10, i) for i in range(1000)]

WIDE = (eq("a", 3), 100)                            # 10% of the table
NARROW = (all_of([eq("a", 3), eq("b", 63)]), 1)     # inside WIDE
OTHER = (eq("a", 4), 100)                           # outside WIDE
PROBE = (eq("b", 63), 1)                            # indexable on b


def case(strategy, path, *scans, threshold=0.2, index=False,
         free_build=False):
    """The last of ``scans`` is measured; earlier ones set the state."""
    suffix = "-free" if free_build else ""
    return pytest.param(
        strategy, path, scans, threshold, index, free_build,
        id=f"{strategy}-{path}{suffix}",
    )


def structure_cases(strategy):
    return [
        case(strategy, "seq", WIDE, threshold=0.05),
        case(strategy, "build", WIDE),
        case(strategy, "build", WIDE, free_build=True),
        case(strategy, "reuse", WIDE, NARROW),
        case(strategy, "rebuild", WIDE, OTHER),
    ]


CASES = [
    case("scan", "seq", WIDE),
    *structure_cases("temp_table"),
    *structure_cases("tid_join"),
    *structure_cases("keyset"),
    case("auto", "seq", WIDE, threshold=0.0001),
    case("auto", "index", PROBE, threshold=0.0001, index=True),
    case("auto", "tid_build", WIDE, threshold=0.1),
    case("auto", "tid_serve", WIDE, NARROW, threshold=0.1),
]

#: What ``last_choice.path`` reads for each matrix path.
LABELS = {"seq": "seq", "index": "index", "tid_build": "tid_join",
          "tid_serve": "tid_join"}


def make_server(index):
    server = SQLServer(page_bytes=1024)
    server.create_table("t", SCHEMA)
    server.bulk_load("t", DATA)
    if index:
        server.execute("CREATE INDEX ix_b ON t (b) USING range")
    return server


def stream(strategy, predicate, relevant):
    return list(strategy.rows(predicate, relevant))


def drive_plan(hit):
    """Drive a plan the way the executor's resident supply does."""

    def drive(strategy, predicate, relevant):
        plan = strategy.plan_columnar(predicate, relevant)
        # A hit finds the encoding resident; encoding is unmetered, so
        # warming it here charges nothing.
        resident = plan.encode() if hit else None
        if hit or plan.charge_on_miss:
            plan.charge_scan()
        partition = resident if hit else plan.encode()
        keep = compile_predicate(predicate, SCHEMA)
        rows = [row for row in partition.rows() if keep(row)]
        plan.charge_rows(len(rows))
        return rows

    return drive


def drive_transient(strategy, predicate, relevant):
    """Drive a plan the way the executor's transient supply does:
    slices of its encoding, the filter as a vector keep-mask."""
    plan = strategy.plan_columnar(predicate, relevant)
    plan.charge_scan()
    encoding = plan.encode()
    rows = []
    for start in range(0, encoding.n_rows, 64):
        piece = encoding.slice(start, start + 64)
        keep = predicate_mask(piece, predicate, {"a": 0, "b": 1})
        rows.extend(piece.rows_at(np.flatnonzero(keep)))
    plan.charge_rows(len(rows))
    return rows


def measure(run, strategy_name, scans, threshold, index, free_build,
            delete=None):
    server = make_server(index)
    strategy = make_strategy(
        strategy_name, server, "t", build_threshold=threshold,
        free_build=free_build,
    )
    for predicate, relevant in scans[:-1]:
        list(strategy.rows(predicate, relevant))
    if delete is not None:
        server.execute(f"DELETE FROM t WHERE {delete}")
    meter = server.meter
    charges, counts = meter.snapshot(), dict(meter.counts)
    rows = run(strategy, *scans[-1])
    outcome = (
        sorted(rows),
        strategy.last_choice,
        meter.since(charges),
        {c: n - counts[c] for c, n in meter.counts.items()},
    )
    strategy.close()
    return outcome


@pytest.mark.parametrize(
    "strategy,path,scans,threshold,index,free_build", CASES
)
def test_stream_miss_and_hit_agree(strategy, path, scans, threshold,
                                   index, free_build):
    setup = (strategy, scans, threshold, index, free_build)
    rows, choice, charges, counts = measure(stream, *setup)

    check = compile_predicate(scans[-1][0], SCHEMA)
    assert rows == sorted(row for row in DATA if check(row))
    assert choice.path == LABELS.get(path, strategy)

    for drive in (drive_plan(False), drive_plan(True), drive_transient):
        plan_rows, plan_choice, plan_charges, plan_counts = measure(
            drive, *setup
        )
        assert plan_rows == rows
        assert plan_choice == choice
        assert plan_charges == charges
        assert plan_counts == counts


@pytest.mark.parametrize("strategy", ["tid_join", "keyset"])
def test_rows_deleted_after_the_build_stay_out_of_every_supply(strategy):
    # b = 13 and b = 23 lie inside WIDE: the structure built for it
    # still lists their TIDs, now tombstones.
    setup = (strategy, (WIDE, NARROW), 0.2, False, False, "b IN (13, 23)")
    rows, choice, charges, counts = measure(stream, *setup)
    assert choice.path == strategy
    assert rows == [(3, 63)]
    setup = (strategy, (WIDE, WIDE), *setup[2:])
    rows, choice, charges, counts = measure(stream, *setup)
    assert len(rows) == 98 and (3, 13) not in rows
    for drive in (drive_plan(False), drive_plan(True), drive_transient):
        assert measure(drive, *setup) == (rows, choice, charges, counts)
