"""Stateful oracle: DML interleaved with scans, SQL counts and fits.

ROADMAP "Differential and stateful oracles" (b).  One server, one
table, two long-lived no-staging middleware sessions (the inline
executor and a 2-thread pool) and the SQL front end all read the same
data while ``INSERT`` and ``DELETE`` change it under them.  Three
version-stamped things ride on ``HeapTable.version`` — the server-owned
``HeapTable.columnar()`` encoding, each session's ``ColumnarScanCache``
entry (which *is* that encoding) and the executor's vector
``GROUP BY`` — and after any interleaving:

* every CC table a batch returns equals
  ``client.baselines.build_cc_from_rows`` over the model's rows;
* a grouped ``SELECT`` equals a brute-force count of the model;
* a whole fit grows the tree ``grow_in_memory`` grows from the model —
  a staged fit too, whose transient root scan counts the version the
  last INSERT / DELETE left;
* no SERVER scan ever counts over an encoding whose version differs
  from ``table.version`` (checked at every ``ScanWorkerPool.submit`` of
  a SERVER scan's slice), and the server encodes each version at most
  once.
"""

from collections import Counter

import pytest

pytest.importorskip("numpy")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.client.baselines import (  # noqa: E402
    build_cc_from_rows,
    grow_in_memory,
)
from repro.client.decision_tree import DecisionTreeClassifier  # noqa: E402
from repro.client.growth import GrowthPolicy  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.execution import ExecutionModule  # noqa: E402
from repro.core.filters import PathCondition  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.core.scan_pool import ScanWorkerPool  # noqa: E402
from repro.core.staging import DataLocation  # noqa: E402
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402

from ..conftest import tree_signature  # noqa: E402

SPEC = DatasetSpec([3, 3, 2], 2)
NAMES = SPEC.attribute_names
#: Small chunks (32-row inline partitions, 8-row chunks behind the
#: pool): a 40-row table is several partitions on either executor, so
#: the thread session really starts its pool.
SESSIONS = {
    "inline": {"scan_workers": 1, "scan_chunk_rows": 4},
    "threads": {"scan_workers": 2, "scan_pool": "thread",
                "scan_chunk_rows": 8},
}

rows_st = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
    st.integers(0, 1),
)
conditions_st = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(["=", "<>"]),
              st.integers(0, 2)),
    max_size=2, unique_by=lambda c: c[0],
).map(lambda cs: tuple(PathCondition(*c) for c in cs))


def matching(rows, conditions):
    return [
        row for row in rows
        if all(c.matches(row[NAMES.index(c.attribute)]) for c in conditions)
    ]


class DmlUnderScans(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = SQLServer()
        self.model = []
        self.sessions = {}
        self.next_id = 0
        self.stale_scans = []
        #: SERVER slices the version check has looked at.
        self.server_slices = 0
        machine = self
        #: The mode of the scan whose slices are being submitted.
        self.modes = []
        self._partition_source = partition_source = (
            ExecutionModule._partition_source
        )

        def sourcing(execution, schedule, *args):
            machine.modes.append(schedule.mode)
            return partition_source(execution, schedule, *args)

        ExecutionModule._partition_source = sourcing
        self._submit = submit = ScanWorkerPool.submit

        def checked(pool, seq, source, *args):
            # Staged scans count over their own tier's encodings.
            if machine.modes[-1] is DataLocation.SERVER:
                machine.server_slices += 1
                table = machine.server.table("data")
                stamp = table._encoding
                if (stamp is None or stamp[0] != table.version
                        or source is not stamp[1]):
                    machine.stale_scans.append((seq, table.version, stamp))
            return submit(pool, seq, source, *args)

        ScanWorkerPool.submit = checked

        #: The table version at every encode (only the server's
        #: ``HeapTable.columnar()`` encodes rows).
        self.encoded_versions = []
        self._from_rows = from_rows = ColumnarPartition.from_rows.__func__

        def recording(cls, rows):
            machine.encoded_versions.append(
                machine.server.table("data").version
            )
            return from_rows(cls, rows)

        ColumnarPartition.from_rows = classmethod(recording)

    @initialize(rows=st.lists(rows_st, min_size=20, max_size=40))
    def load(self, rows):
        load_dataset(self.server, "data", SPEC, rows)
        self.model = list(rows)
        for name, overrides in SESSIONS.items():
            self.sessions[name] = Middleware(
                self.server, "data", SPEC,
                MiddlewareConfig.no_staging(1_000_000, **overrides),
            )

    def teardown(self):
        ScanWorkerPool.submit = self._submit
        ExecutionModule._partition_source = self._partition_source
        ColumnarPartition.from_rows = classmethod(self._from_rows)
        for session in self.sessions.values():
            session.close()

    # -- DML -----------------------------------------------------------

    @rule(rows=st.lists(rows_st, min_size=1, max_size=6))
    def insert(self, rows):
        values = ", ".join(
            "(" + ", ".join(map(str, row)) + ")" for row in rows
        )
        self.server.execute(f"INSERT INTO data VALUES {values}")
        self.model.extend(rows)

    @precondition(lambda self: len(self.model) > 12)
    @rule(attribute=st.sampled_from(NAMES[:2]), a=st.integers(0, 2),
          c=st.integers(0, 1))
    def delete(self, attribute, a, c):
        self.server.execute(
            f"DELETE FROM data WHERE {attribute} = {a} AND {NAMES[2]} = {c}"
        )
        position = NAMES.index(attribute)
        self.model = [
            row for row in self.model
            if not (row[position] == a and row[2] == c)
        ]

    # -- readers -------------------------------------------------------

    @rule(executor=st.sampled_from(sorted(SESSIONS)),
          paths=st.lists(conditions_st, min_size=1, max_size=3))
    def batch(self, executor, paths):
        session = self.sessions[executor]
        slices_before = self.server_slices
        expected = {}
        for conditions in paths:
            self.next_id += 1
            node_id = f"n{self.next_id}"
            subset = matching(self.model, conditions)
            expected[node_id] = subset
            session.queue_request(CountsRequest(
                node_id=node_id, lineage=("root", node_id),
                conditions=conditions, attributes=NAMES,
                n_rows=len(subset), est_cc_pairs=16,
            ))
        while session.pending:
            for result in session.process_next_batch():
                assert result.cc == build_cc_from_rows(
                    expected.pop(result.node_id), SPEC, NAMES
                )
            record = session.trace[-1]
            assert record.mode == "SERVER" and record.cached
        assert not expected
        assert self.server_slices > slices_before or not self.model

    @rule(group=st.sampled_from(NAMES), skip=st.integers(0, 2))
    def grouped_select(self, group, skip):
        other = NAMES[(NAMES.index(group) + 1) % len(NAMES)]
        result = self.server.execute(
            f"SELECT {group}, {SPEC.class_name}, COUNT(*) FROM data "
            f"WHERE {other} <> {skip} GROUP BY {group}, {SPEC.class_name}"
        )
        position, filtered = NAMES.index(group), NAMES.index(other)
        assert Counter({
            (value, label): count for value, label, count in result
        }) == Counter(
            (row[position], row[-1]) for row in self.model
            if row[filtered] != skip
        )

    @rule(executor=st.sampled_from(sorted(SESSIONS)))
    def whole_fit(self, executor):
        slices_before = self.server_slices
        tree = DecisionTreeClassifier(max_depth=3).fit(
            self.sessions[executor]
        ).tree
        assert self.server_slices > slices_before or not self.model
        assert tree_signature(tree.root) == tree_signature(
            grow_in_memory(self.model, SPEC, GrowthPolicy(max_depth=3)).root
        )

    @rule(executor=st.sampled_from(sorted(SESSIONS)))
    def staged_fit(self, executor):
        # A fresh session that stages its root in memory: the root scan
        # keeps nothing, so it reads whatever version the server holds
        # now.  Its MEMORY scans count over the staged set's encoding,
        # which the version check leaves alone.
        config = MiddlewareConfig(memory_bytes=1_000_000, file_staging=False,
                                  **SESSIONS[executor])
        slices_before = self.server_slices
        with Middleware(self.server, "data", SPEC, config) as session:
            tree = DecisionTreeClassifier(max_depth=3).fit(session).tree
            root_scan = session.trace[0]
            assert root_scan.mode == "SERVER" and not root_scan.cached
            assert root_scan.rows_seen == len(self.model)
        assert self.server_slices > slices_before or not self.model
        assert tree_signature(tree.root) == tree_signature(
            grow_in_memory(self.model, SPEC, GrowthPolicy(max_depth=3)).root
        )
        table = self.server.table("data")
        assert table._encoding[0] == table.version

    # -- what must hold after every step ------------------------------

    @invariant()
    def no_scan_counted_a_stale_encoding(self):
        assert self.stale_scans == []

    @invariant()
    def one_encoding_per_version(self):
        assert len(self.encoded_versions) == len(set(self.encoded_versions))

    @invariant()
    def at_most_one_entry_and_it_is_the_servers(self):
        if not self.sessions:
            return
        table = self.server.table("data")
        assert table.row_count == len(self.model)
        for session in self.sessions.values():
            entries = list(session.execution.scan_cache._entries.values())
            assert len(entries) <= 1
            for entry in entries:
                # An entry of an older version may linger until the
                # next scan's admit drops it; a current one is the
                # server's object, not a second copy.
                if entry.key == ("table", "data", table.version):
                    assert entry.partition is table.columnar()


TestDmlUnderScans = DmlUnderScans.TestCase
TestDmlUnderScans.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None,
)
