"""Integration tests for the TBQL execution engine against simulated audit data."""

from __future__ import annotations

import pytest

from repro.auditing.workload.attacks import Figure2DataLeakageChain
from repro.auditing.workload.base import ScenarioBuilder
from repro.auditing.workload.benign import SoftwareUpdateWorkload
from repro.errors import ExecutionError, TBQLAnalysisError
from repro.storage.loader import AuditStore
from repro.tbql.executor import TBQLExecutionEngine, execute_query

FIG2_QUERY = """
proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4["%/usr/bin/curl%"] connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5,
     evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1
"""


@pytest.fixture(scope="module")
def store():
    builder = ScenarioBuilder(seed=17)
    SoftwareUpdateWorkload(packages=4).generate(builder)
    attack = Figure2DataLeakageChain()
    attack.generate(builder)
    SoftwareUpdateWorkload(packages=3).generate(builder)
    audit_store = AuditStore()
    audit_store.load_trace(builder.build())
    return audit_store


@pytest.fixture(scope="module")
def attack_ground_truth():
    builder = ScenarioBuilder(seed=17)
    SoftwareUpdateWorkload(packages=4).generate(builder)
    attack = Figure2DataLeakageChain()
    attack.generate(builder)
    return attack.ground_truth


class TestSinglePatternExecution:
    def test_single_event_pattern(self, store):
        result = execute_query(
            store, 'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p, f'
        )
        assert len(result) == 1
        assert result.rows[0] == ("/bin/tar", "/etc/passwd")

    def test_wildcard_matches_benign_and_malicious(self, store):
        result = execute_query(store, 'proc p["%/bin/tar%"] read file f as e return distinct f')
        names = set(result.column("f.name"))
        assert "/etc/passwd" in names
        assert any("pkg" in name for name in names)  # benign apt archives

    def test_no_match_returns_empty(self, store):
        result = execute_query(store, 'proc p["%nonexistent%"] read file f as e return p')
        assert len(result) == 0
        assert not result

    def test_return_attribute_projection(self, store):
        result = execute_query(
            store, 'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p.pid, f.name'
        )
        assert result.columns == ("p.pid", "f.name")
        assert result.rows[0][1] == "/etc/passwd"

    def test_ip_pattern(self, store):
        result = execute_query(
            store, 'proc p connect ip i["192.168.29.128"] as e return p, i'
        )
        assert ("/usr/bin/curl", "192.168.29.128") in set(result.rows)

    def test_operation_alternatives(self, store):
        result = execute_query(
            store, 'proc p["%/bin/bzip2%"] read or write file f as e return distinct f'
        )
        assert {"/tmp/upload.tar", "/tmp/upload.tar.bz2"} <= set(result.column("f.name"))

    def test_matched_event_ids_populated(self, store, attack_ground_truth):
        result = execute_query(
            store, 'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e return p'
        )
        matched = result.matched_event_ids["e"]
        expected = {
            step.event_id
            for step in attack_ground_truth.steps
            if step.subject_exe == "/bin/tar" and step.object_identifier == "/etc/passwd"
        }
        assert expected <= matched


class TestMultiPatternExecution:
    def test_figure2_query_finds_exactly_the_attack(self, store, attack_ground_truth):
        result = execute_query(store, FIG2_QUERY)
        assert len(result) == 1
        assert result.rows[0] == (
            "/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/bin/bzip2",
            "/tmp/upload.tar.bz2", "/usr/bin/gpg", "/tmp/upload", "/usr/bin/curl",
            "192.168.29.128",
        )
        assert result.all_matched_event_ids() == attack_ground_truth.event_ids

    def test_unoptimized_execution_same_result(self, store):
        optimized = execute_query(store, FIG2_QUERY, optimize=True)
        unoptimized = execute_query(store, FIG2_QUERY, optimize=False)
        assert set(optimized.rows) == set(unoptimized.rows)
        assert optimized.all_matched_event_ids() == unoptimized.all_matched_event_ids()
        # Constraint propagation is what scheduling buys: fewer candidate
        # records per pattern, never more.
        assert sum(optimized.statistics["pattern_matches"].values()) <= sum(
            unoptimized.statistics["pattern_matches"].values()
        )

    def test_graph_backend_same_result(self, store):
        engine = TBQLExecutionEngine(store, backend="graph")
        result = engine.execute(FIG2_QUERY)
        assert len(result) == 1
        assert result.rows[0][0] == "/bin/tar"

    @pytest.mark.parametrize("mode", ["enforce", "warn", "off"])
    @pytest.mark.parametrize(
        "query",
        [
            "proc p not read file f as e1 return p, f",
            'proc p["%/bin/tar%"] ~>(1~2)[not read] file f as e1 return distinct p, f',
        ],
    )
    def test_negated_operation_means_the_same_on_both_backends(self, store, query, mode):
        """The graph backend once dropped ``not`` and returned the complement."""
        auto = TBQLExecutionEngine(store, analysis_mode=mode).execute(query)
        graph = TBQLExecutionEngine(store, backend="graph", analysis_mode=mode).execute(query)
        assert auto.all_matched_event_ids() == graph.all_matched_event_ids()
        assert len(auto.all_matched_event_ids()) >= 1
        plain = TBQLExecutionEngine(store, backend="graph").execute(query.replace("not ", ""))
        assert not auto.all_matched_event_ids() & plain.all_matched_event_ids()

    def test_temporal_constraint_filters_out_of_order_chains(self, store):
        # Reversing the order requirement (evt8 before evt1) makes the
        # ordering cyclic.  The static analyzer now proves that contradiction
        # up front (TR104) and the default enforcing gate rejects the query;
        # warn mode still executes it and must find nothing.
        reversed_query = FIG2_QUERY.replace(
            "with evt1 before evt2", "with evt8 before evt1, evt1 before evt2"
        )
        with pytest.raises(TBQLAnalysisError, match="TR104"):
            execute_query(store, reversed_query)
        engine = TBQLExecutionEngine(store, analysis_mode="warn")
        assert len(engine.execute(reversed_query)) == 0

    def test_entity_reuse_enforced(self, store):
        # f2 is written by tar and read by bzip2; requiring the same file id
        # links the two patterns — a query using two *different* file
        # variables with the same filter would also match, but entity reuse
        # must at least not lose the match.
        query = (
            'proc p1["%/bin/tar%"] write file f2["%/tmp/upload.tar%"] as e1 '
            'proc p2["%/bin/bzip2%"] read file f2 as e2 '
            "with e1 before e2 return p1, p2, f2"
        )
        result = execute_query(store, query)
        assert ("/bin/tar", "/bin/bzip2", "/tmp/upload.tar") in set(result.rows)

    def test_explicit_attribute_relation(self, store):
        query = (
            'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 '
            'proc p2 write file f2["%/tmp/upload.tar%"] as e2 '
            "with e1.srcid = e2.srcid return distinct p1, p2"
        )
        result = execute_query(store, query)
        assert set(result.rows) == {("/bin/tar", "/bin/tar")}

    def test_distinct_deduplicates(self, store):
        with_distinct = execute_query(store, 'proc p["%/bin/tar%"] read file f as e return distinct p')
        without_distinct = execute_query(store, 'proc p["%/bin/tar%"] read file f as e return p')
        assert len(with_distinct) <= len(without_distinct)
        assert len(with_distinct) == len(set(without_distinct.rows))

    def test_statistics_recorded(self, store):
        result = execute_query(store, FIG2_QUERY)
        stats = result.statistics
        assert stats["optimized"] is True
        assert len(stats["schedule"]) == 8
        assert set(stats["pattern_matches"]) <= set(stats["schedule"])
        assert stats["total_seconds"] > 0

    def test_early_termination_on_empty_pattern(self, store):
        query = (
            'proc p["%nonexistent%"] read file f["%nope%"] as e1 '
            'proc q["%/bin/tar%"] read file g as e2 '
            "return p, q"
        )
        result = execute_query(store, query)
        assert len(result) == 0


class TestPathPatternExecution:
    def test_variable_length_path_bridges_forked_process(self):
        """bash forks tar which writes the archive: proc bash ~>(1~3)[write] file."""
        builder = ScenarioBuilder(seed=5)
        bash = builder.spawn_process("/bin/bash")
        tar = builder.spawn_process("/bin/tar")
        archive = builder.file("/tmp/upload.tar")
        builder.fork(bash, tar)
        builder.write(tar, archive)
        store = AuditStore()
        store.load_trace(builder.build())
        result = execute_query(
            store,
            'proc p["%/bin/bash%"] ~>(1~3)[write] file f["%/tmp/upload.tar%"] as e return p, f',
        )
        assert len(result) == 1
        assert result.rows[0] == ("/bin/bash", "/tmp/upload.tar")
        assert len(result.matched_event_ids["e"]) == 2  # fork edge + write edge

    def test_path_search_agrees_with_its_two_pattern_emulation(self):
        """EXP-PATH: a (1~2) path is the fixed two-hop join; a longer bound loses nothing."""
        builder = ScenarioBuilder(seed=37)
        SoftwareUpdateWorkload(packages=2).generate(builder)
        chains = 12
        for index in range(chains):
            bash = builder.spawn_process("/bin/bash", cmdline=f"bash -c stage-{index}")
            helper = builder.spawn_process("/usr/bin/python3", cmdline=f"python3 stage-{index}.py")
            builder.fork(bash, helper)
            builder.read(helper, builder.file("/home/alice/documents/doc0.txt"))
            builder.write(helper, builder.file(f"/tmp/staging/archive-{index}.tar"))
        store = AuditStore()
        store.load_trace(builder.build())
        engine = TBQLExecutionEngine(store)

        def path_rows(max_length: int) -> set:
            return set(
                engine.execute(
                    f'proc p["%/bin/bash%"] ~>(1~{max_length})[write] '
                    'file f["%/tmp/staging/%"] as e return distinct p, f'
                ).rows
            )

        emulated = engine.execute(
            'proc p["%/bin/bash%"] fork proc h as e1 '
            'proc h write file f["%/tmp/staging/%"] as e2 '
            "with e1 before e2 return distinct p, f"
        )
        assert len(emulated) == chains
        assert path_rows(2) == set(emulated.rows)
        assert path_rows(2) <= path_rows(3) <= path_rows(4)

    def test_direct_hop_excluded_when_min_length_two(self):
        builder = ScenarioBuilder(seed=5)
        tar = builder.spawn_process("/bin/tar")
        archive = builder.file("/tmp/upload.tar")
        builder.write(tar, archive)
        store = AuditStore()
        store.load_trace(builder.build())
        result = execute_query(
            store, 'proc p["%/bin/tar%"] ~>(2~3)[write] file f as e return p, f'
        )
        assert len(result) == 0

    def test_mixed_event_and_path_patterns(self):
        builder = ScenarioBuilder(seed=5)
        bash = builder.spawn_process("/bin/bash")
        tar = builder.spawn_process("/bin/tar")
        passwd = builder.file("/etc/passwd")
        archive = builder.file("/tmp/upload.tar")
        builder.fork(bash, tar)
        builder.read(tar, passwd)
        builder.write(tar, archive)
        store = AuditStore()
        store.load_trace(builder.build())
        query = (
            'proc p["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 '
            'proc b["%/bin/bash%"] ~>(1~2)[write] file f2["%upload%"] as e2 '
            "with e1 before e2 return p, b, f2"
        )
        result = execute_query(store, query)
        assert ("/bin/tar", "/bin/bash", "/tmp/upload.tar") in set(result.rows)


class TestErrors:
    def test_unknown_backend_rejected(self, store):
        with pytest.raises(ExecutionError):
            TBQLExecutionEngine(store, backend="quantum")

    def test_result_column_accessors(self, store):
        result = execute_query(store, 'proc p["%/bin/tar%"] read file f as e return distinct p, f')
        assert len(result.as_dicts()) == len(result)
        with pytest.raises(KeyError):
            result.column("nonexistent")

    def test_to_table_rendering(self, store):
        result = execute_query(store, 'proc p["%/bin/tar%"] read file f as e return distinct p, f')
        table = result.to_table(limit=2)
        assert "p.exename" in table
        empty = execute_query(store, 'proc p["%none%"] read file f as e return p')
        assert empty.to_table() == "(no results)"


class TestJoin:
    """Regression tests for shared-key derivation in the binding join."""

    @staticmethod
    def _binding(identifier_ids: dict, event_id: int) -> dict:
        binding = {name: {"id": entity_id} for name, entity_id in identifier_ids.items()}
        binding[f"@e{event_id}"] = {"id": event_id, "edge_ids": (event_id,)}
        return binding

    def test_join_keys_come_from_declared_identifiers(self):
        left = [self._binding({"p": 1, "f": 10}, 1), self._binding({"p": 2, "f": 20}, 2)]
        right = [self._binding({"p": 1, "g": 30}, 3), self._binding({"p": 3, "g": 40}, 4)]
        joined = TBQLExecutionEngine._join(left, right, shared=("p",))
        assert len(joined) == 1
        assert joined[0]["p"]["id"] == 1
        assert joined[0]["f"]["id"] == 10 and joined[0]["g"]["id"] == 30

    def test_binding_missing_shared_identifier_fails_loudly(self):
        """A binding without a declared join identifier must not silently
        drop the key and cross-join (the old behavior when the *first*
        binding happened to lack the identifier)."""
        left = [self._binding({"f": 10}, 1), self._binding({"p": 2, "f": 20}, 2)]
        right = [self._binding({"p": 1, "g": 30}, 3)]
        with pytest.raises(ExecutionError, match="missing shared entity identifier"):
            TBQLExecutionEngine._join(left, right, shared=("p",))

    def test_empty_shared_is_a_cross_join(self):
        left = [self._binding({"p": 1}, 1)]
        right = [self._binding({"q": 2}, 2), self._binding({"q": 3}, 3)]
        joined = TBQLExecutionEngine._join(left, right, shared=())
        assert len(joined) == 2

    def test_disconnected_then_connected_patterns_join_correctly(self, store):
        """End to end: a pattern connected to the *first* but not the most
        recently joined pattern must still join on its identifier."""
        result = execute_query(
            store,
            'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 '
            'proc p2["%/usr/bin/curl%"] connect ip i1["192.168.29.128"] as e2 '
            'proc p1 write file f2["%/tmp/upload.tar%"] as e3 '
            "return distinct p1, f1, f2, p2",
        )
        assert len(result) == 1
        assert result.rows[0] == ("/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/usr/bin/curl")
