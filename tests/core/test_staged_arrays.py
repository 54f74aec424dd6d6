"""Staged rows stay arrays: what the staging tier writes, keeps and reads.

Count- and byte-based guards (no timings) for PR 23:

* a staged file's bytes are ``struct.pack`` of the oracle's rows for
  any data, any cut into partitions, any ``INLINE_PARTITION_CHUNKS``
  and any executor — the writer takes gathered column pieces, one
  ``<i4`` matrix and one ``write`` each;
* a value an int32 record cannot hold is a :class:`StagingError`
  naming node, column and value, raised before any byte of its piece
  is written, and the failed scan leaves nothing behind;
* a memory set is its captured pieces concatenated once: RAW, RAW with
  nulls and dictionary pieces decode back to the original objects;
* a staged fit decodes no row (``rows_at``) and encodes rows
  (``from_rows``) once, the server's encoding of the table, which its
  transient SERVER scan slices;
* the partition size of the inline executor changes no cost unit, no
  scan record, no staged byte and no tree.
"""

import dataclasses
import os
import struct
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.client.decision_tree import DecisionTreeClassifier  # noqa: E402
from repro.common.cost import CostMeter, CostModel  # noqa: E402
from repro.common.errors import StagingError  # noqa: E402
from repro.common.locks import install_monitor  # noqa: E402
from repro.common.memory import MemoryBudget  # noqa: E402
from repro.core import execution  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.core.staging import StagedFile, StagingManager  # noqa: E402
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.datagen.random_tree import (  # noqa: E402
    RandomTreeConfig,
    build_random_tree,
)
from repro.sqlengine.columnar import DICT, RAW, ColumnarPartition  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402

from ..conftest import WitnessMonitor, tree_signature  # noqa: E402

SPEC = DatasetSpec([3, 3], 3)  # rows are (A1, A2, class)
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1

EXECUTORS = {
    "inline": {"scan_workers": 1},
    "threads": {"scan_workers": 2},
    "processes": {"scan_workers": 2, "scan_pool": "process"},
}

#: The inline partition sizes under test, in scan chunks.
CHUNKS = (1, 4, 8, 64)


def make_server(rows, spec=SPEC):
    server = SQLServer()
    load_dataset(server, "data", spec, rows)
    return server


def request(node_id, rows, value=None):
    """The root's request, or that of its ``A1 = value`` child."""
    if value is None:
        return CountsRequest(
            node_id=node_id, lineage=(node_id,), conditions=(),
            attributes=("A1", "A2"), n_rows=len(rows), est_cc_pairs=6,
        )
    return CountsRequest(
        node_id=node_id, lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),), attributes=("A2",),
        n_rows=sum(1 for row in rows if row[0] == value), est_cc_pairs=3,
    )


def packed(rows):
    return b"".join(struct.pack("<3i", *row) for row in rows)


# -- (a) staged bytes == struct.pack of the oracle's rows ---------------------

int_rows = st.lists(
    st.tuples(
        st.sampled_from([INT32_MIN, -1, 0, 1, INT32_MAX]),
        st.integers(INT32_MIN, INT32_MAX),
        st.integers(0, 2),
    ),
    min_size=1, max_size=60,
)


def staged_file_bytes(rows, executor, chunk_rows, inline_chunks):
    """Every staged file of a two-level file-split session: the root's
    file written by the SERVER scan, the children's by the FILE scan
    that splits it."""
    config = MiddlewareConfig(
        memory_bytes=1_000_000, memory_staging=False,
        file_split_threshold=1.0, scan_chunk_rows=chunk_rows,
        **EXECUTORS[executor],
    )
    values = sorted({row[0] for row in rows})
    with mock.patch.object(
            execution, "INLINE_PARTITION_CHUNKS", inline_chunks), \
            Middleware(make_server(rows), "data", SPEC, config) as mw:
        levels = [
            [request("root", rows)],
            [request(f"n{value}", rows, value) for value in values],
        ]
        for requests in levels:
            mw.queue_requests(requests)
            while mw.pending:
                mw.process_next_batch()
        assert {r.mode for r in mw.trace} == {"SERVER", "FILE"}
        files = {}
        for node_id in mw.staging.file_nodes():
            with open(mw.staging.file_for(node_id).path, "rb") as handle:
                files[node_id] = handle.read()
    return files


def check_staged_bytes(rows, executor, chunk_rows, inline_chunks):
    expected = {"root": packed(rows)}
    for value in {row[0] for row in rows}:
        expected[f"n{value}"] = packed(
            [row for row in rows if row[0] == value]
        )
    assert staged_file_bytes(
        rows, executor, chunk_rows, inline_chunks
    ) == expected


class TestStagedBytesArePackedOracleRows:
    @settings(max_examples=25, deadline=None)
    @given(int_rows, st.integers(1, 9), st.sampled_from(CHUNKS))
    def test_inline(self, rows, chunk_rows, inline_chunks):
        check_staged_bytes(rows, "inline", chunk_rows, inline_chunks)

    @settings(max_examples=15, deadline=None)
    @given(int_rows, st.integers(1, 9), st.sampled_from(CHUNKS))
    def test_two_threads(self, rows, chunk_rows, inline_chunks):
        check_staged_bytes(rows, "threads", chunk_rows, inline_chunks)

    @settings(max_examples=5, deadline=None)
    @given(int_rows, st.integers(1, 9), st.sampled_from(CHUNKS))
    def test_two_processes(self, rows, chunk_rows, inline_chunks):
        check_staged_bytes(rows, "processes", chunk_rows, inline_chunks)


# -- the int32 record check ---------------------------------------------------


@pytest.fixture
def manager(tmp_path):
    manager = StagingManager(
        SPEC, CostMeter(), CostModel(), MemoryBudget(10_000),
        staging_dir=str(tmp_path),
    )
    yield manager
    manager.close()


class TestRecordCheck:
    @pytest.mark.parametrize("value", [None, "x", 1.5, 1 << 31,
                                       INT32_MIN - 1, 1 << 70])
    def test_unfit_value_is_refused_before_any_byte_is_written(
            self, manager, value):
        staged = manager.open_file("n7")
        staged.append_rows([(0, 1, 2)])
        # The offending row is the last of its piece: a row-at-a-time
        # writer would have buffered the two before it.
        piece = [(1, 1, 1), (2, 2, 2), (0, value, 0)]
        for rows in (piece, ColumnarPartition.from_rows(piece)):
            with pytest.raises(StagingError) as error:
                staged.append_rows(rows)
            message = str(error.value)
            assert "'n7'" in message and "'A2'" in message
            assert repr(value) in message
        assert (staged.row_count, staged.write_calls) == (1, 1)
        staged.seal()
        assert os.path.getsize(staged.path) == 12
        assert list(staged.scan()) == [(0, 1, 2)]

    def test_what_struct_pack_accepts_is_written_as_it_packs(self, manager):
        # bool is an int to struct.pack; the encoder keeps it apart
        # from 1 (a dictionary column), the record holds 1.
        rows = [(True, INT32_MIN, 0), (False, INT32_MAX, 1)]
        assert ColumnarPartition.from_rows(rows).columns[0].kind == DICT
        staged = manager.open_file("n1")
        staged.append_rows(rows)
        staged.seal()
        with open(staged.path, "rb") as handle:
            assert handle.read() == packed(rows)

    def test_wrong_width_is_refused(self, manager):
        staged = manager.open_file("n1")
        with pytest.raises(StagingError, match="3 fields"):
            staged.append_rows([(0, 0)])
        assert staged.row_count == 0


#: 30 rows in chunks of 4: several partitions on either executor.  The
#: one value no record can hold sits in the A1 = 2 part of the table.
BAD_ROWS = [(i % 2, i % 3, i % 3) for i in range(28)] + [
    (2, 1, 0), (2, None, 1),
]


@pytest.mark.parametrize("executor", ["inline", "threads"])
@pytest.mark.parametrize("value", [None, "x", 1 << 31])
class TestUnfitValueFailsTheScanCleanly:
    """Regression: the value escaped as a bare ``struct.error`` — from
    a since-removed writer thread on a pooled scan — after the rows
    before it in its piece had been buffered."""

    def test_error_names_it_and_nothing_is_left(self, executor, value,
                                                tmp_path):
        rows = BAD_ROWS[:-1] + [(2, value, 1)]
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, memory_staging=False,
            scan_chunk_rows=4, staging_dir=str(tmp_path),
            **EXECUTORS[executor],
        )
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(request("root", rows))
                with pytest.raises(StagingError) as error:
                    mw.process_next_batch()
                message = str(error.value)
                assert "'root'" in message and "'A2'" in message
                assert repr(value) in message

                assert mw.staging.file_nodes() == []
                assert os.listdir(tmp_path) == []
                assert mw.budget.tags() == []
                assert not {"staged-file", "future"} & set(
                    monitor.live_kinds()
                )
                assert len(mw.trace) == 0
                # Nothing of the failed scan's staging was metered.
                meter = server.meter
                assert meter.counts["file_write"] == 0
                assert meter.counts["file_read"] == 0
                assert meter.counts["memory_load"] == 0

                # The session still serves a batch it can stage.
                assert not mw.pending
                mw.queue_request(request("n0", rows, 0))
                (result,) = mw.process_next_batch()
                assert result.cc.records == 14
                assert list(mw.staging.file_for("n0").scan()) == [
                    row for row in rows if row[0] == 0
                ]
            assert monitor.live_kinds() == []
        finally:
            install_monitor(previous)


# -- (b) take + concat round trip ---------------------------------------------


class TestPiecesRoundTrip:
    def test_take_keeps_kind_dictionary_and_nulls(self):
        rows = [(1, None, "a"), (2, 5, "b"), (3, None, "a"), (4, 7, "c")]
        partition = ColumnarPartition.from_rows(rows)
        piece = partition.take(np.asarray([3, 0, 2]))
        assert piece.n_rows == 3
        assert [col.kind for col in piece.columns] == [RAW, RAW, DICT]
        assert piece.columns[2].values is partition.columns[2].values
        assert piece.columns[1].nulls.tolist() == [False, True, True]
        assert list(piece.rows()) == [rows[3], rows[0], rows[2]]
        # A gather is a copy: it outlives what it was cut from.
        partition.columns[0].data[:] = 0
        assert piece.columns[0].data.tolist() == [4, 1, 3]

    def test_memory_set_decodes_to_the_original_objects(self, manager):
        # Three partitions of one scan whose second column is RAW, RAW
        # with nulls, and dictionary-encoded over different
        # dictionaries; the third column mixes 2, True and "1" (not
        # 1: the encoder's dictionary is keyed by equality, and
        # True == 1).
        chunks = [
            [(0, 10, 2), (1, 11, 2), (2, 12, 2)],
            [(0, None, True), (1, 13, True), (2, None, True)],
            [(0, "1", "1"), (1, 1, True), (2, "x", 2)],
            [(0, "x", "1"), (1, None, 2), (2, 1 << 70, True)],
        ]
        partitions = [ColumnarPartition.from_rows(chunk) for chunk in chunks]
        assert [p.columns[1].kind for p in partitions] == [
            RAW, RAW, DICT, DICT
        ]
        selection = np.asarray([0, 2])
        manager.reserve_memory("n", 8)
        manager.commit_memory(
            "n", [partition.take(selection) for partition in partitions]
        )
        expected = [chunk[i] for chunk in chunks for i in (0, 2)]
        decoded = manager.memory_rows("n")
        assert decoded == expected
        for got, want in zip(decoded, expected):
            assert [type(v) for v in got] == [type(v) for v in want]
        assert manager.columnar_memory("n").n_rows == 8

    def test_all_raw_pieces_concatenate_without_decoding(self, manager,
                                                         monkeypatch):
        monkeypatch.setattr(
            ColumnarPartition, "rows_at",
            lambda *args: pytest.fail("a memory set was decoded"),
        )
        pieces = [
            ColumnarPartition.from_rows([(0, None, 1), (1, 2, 0)]),
            ColumnarPartition.from_rows([(2, 2, 2)]),
        ]
        manager.reserve_memory("n", 3)
        manager.commit_memory("n", pieces)
        table = manager.columnar_memory("n")
        assert [col.kind for col in table.columns] == [RAW, RAW, RAW]
        assert table.columns[0].nulls is None
        assert table.columns[1].nulls.tolist() == [True, False, False]
        assert table.columns[1].data.tolist() == [0, 2, 2]

    def test_same_dictionary_pieces_keep_it(self):
        partition = ColumnarPartition.from_rows(
            [("a", 0), ("b", 1), ("a", 2), ("c", 0)]
        )
        whole = ColumnarPartition.concat(
            [partition.take(np.asarray([1, 2])),
             partition.slice(0, 0),
             partition.take(np.asarray([3]))]
        )
        assert whole.columns[0].values is partition.columns[0].values
        assert list(whole.rows()) == [("b", 1), ("a", 2), ("c", 0)]
        assert ColumnarPartition.concat([]).n_rows == 0

    def test_from_matrix_is_one_contiguous_int32_array_per_column(self):
        matrix = np.asarray(
            [[INT32_MIN, 1, 2], [3, INT32_MAX, 5]], dtype="<i4"
        )
        partition = ColumnarPartition.from_matrix(matrix)
        assert list(partition.rows()) == [
            (INT32_MIN, 1, 2), (3, INT32_MAX, 5)
        ]
        for column in partition.columns:
            assert column.kind == RAW and column.nulls is None
            assert column.data.dtype == np.int32
            assert column.data.flags["C_CONTIGUOUS"]


# -- (c) a staged fit decodes nothing ------------------------------------------

#: 20,000 rows: more than two inline partitions at the default sizes.
CONCEPT = build_random_tree(RandomTreeConfig(
    n_attributes=6, values_per_attribute=3, n_classes=3, n_leaves=20,
    cases_per_leaf=1000, seed=5,
))


@pytest.fixture
def codec_calls(monkeypatch):
    """Row counts of every ``from_rows`` and ``rows_at`` call."""
    calls = {"from_rows": [], "rows_at": []}
    from_rows = ColumnarPartition.from_rows.__func__
    rows_at = ColumnarPartition.rows_at

    def encoding(cls, rows):
        calls["from_rows"].append(len(rows))
        return from_rows(cls, rows)

    def decoding(self, indices):
        calls["rows_at"].append(len(indices))
        return rows_at(self, indices)

    monkeypatch.setattr(ColumnarPartition, "from_rows", classmethod(encoding))
    monkeypatch.setattr(ColumnarPartition, "rows_at", decoding)
    return calls


class TestStagedFitKeepsRowsAsArrays:
    @pytest.mark.parametrize("plan", [
        {}, {"memory_staging": False}, {"file_staging": False},
    ], ids=["default", "files-only", "memory-only"])
    def test_no_decode_and_one_server_encode(self, plan, codec_calls):
        rows = CONCEPT.materialize()
        server = make_server(rows, CONCEPT.spec)
        config = MiddlewareConfig(memory_bytes=8 * 1024 * 1024, **plan)
        with Middleware(server, "data", CONCEPT.spec, config) as session:
            DecisionTreeClassifier(max_depth=4).fit(session)
            (root_scan,) = session.trace.by_mode("SERVER")
            staged_scans = [r for r in session.trace if r.mode != "SERVER"]
            assert len(staged_scans) >= 2
            assert {r.mode for r in staged_scans} <= {"FILE", "MEMORY"}
            assert not root_scan.cached  # transient: it stages its batch
            assert len(rows) > 2 * root_scan.partition_rows
        # One encode, the server's, of the whole table: the transient
        # scan sliced it, and the staged tiers never left arrays.
        assert codec_calls["from_rows"] == [len(rows)]
        assert codec_calls["rows_at"] == []


# -- (d) the inline partition size moves nothing but time ----------------------

SMALL = build_random_tree(RandomTreeConfig(
    n_attributes=6, values_per_attribute=3, n_classes=3, n_leaves=15,
    cases_per_leaf=200, seed=9,
))

#: ScheduleRecord fields that may depend on the partition size.
SIZE_DEPENDENT = {"partition_rows"} | {
    f.name for f in dataclasses.fields(execution.ScheduleRecord)
    if "seconds" in f.name
}


def fit_fingerprint(inline_chunks, monkeypatch, **plan):
    rows = SMALL.materialize()
    server = make_server(rows, SMALL.spec)
    sealed = {}
    seal = StagedFile.seal

    def recording_seal(self):
        seal(self)
        with open(self.path, "rb") as handle:
            sealed[str(self.owner_node)] = handle.read()

    with monkeypatch.context() as patch:
        patch.setattr(execution, "INLINE_PARTITION_CHUNKS", inline_chunks)
        patch.setattr(StagedFile, "seal", recording_seal)
        config = MiddlewareConfig(
            memory_bytes=2 * 1024 * 1024, scan_workers=1,
            scan_chunk_rows=50, **plan,
        )
        with Middleware(server, "data", SMALL.spec, config) as session:
            tree = DecisionTreeClassifier(max_depth=5).fit(session).tree
            records = [
                {name: value
                 for name, value in dataclasses.asdict(record).items()
                 if name not in SIZE_DEPENDENT}
                for record in session.trace
            ]
            partitions = [
                -(-record.rows_seen // record.partition_rows)
                for record in session.trace
            ]
    meter = server.meter
    return {
        "tree": tree_signature(tree.root), "records": records,
        "files": sealed, "charges": dict(meter.charges),
        "events": dict(meter.counts),
    }, partitions


class TestInlinePartitionSizeIsInvisible:
    @pytest.mark.parametrize("plan", [
        {}, {"memory_staging": False, "file_split_threshold": 1.0},
    ], ids=["default", "file-split"])
    def test_same_costs_records_bytes_and_tree(self, plan, monkeypatch):
        outcomes = {
            chunks: fit_fingerprint(chunks, monkeypatch, **plan)
            for chunks in CHUNKS
        }
        reference, _ = outcomes[CHUNKS[0]]
        assert reference["files"] or plan == {}
        assert len(reference["records"]) > 3
        for chunks in CHUNKS[1:]:
            assert outcomes[chunks][0] == reference
        # ... and the sizes did cut the scans differently.
        assert len({tuple(p) for _, p in outcomes.values()}) == len(CHUNKS)
