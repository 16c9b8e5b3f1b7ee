"""Rule-by-rule matrix for the TBQL static analyzer.

Every rule id in the catalog gets at least one positive case (a query that
fires it) and one negative case (a near-identical query that must not), plus
coverage of the policy machinery, report rendering and the analyzer API.
"""

from __future__ import annotations

import pytest

from repro.errors import TBQLAnalysisError, TBQLSemanticError
from repro.storage.loader import AuditStore
from repro.tbql.analysis import (
    RULES,
    AnalysisPolicy,
    Severity,
    StaticAnalyzer,
    analyze_query,
)
from repro.tbql.ast import (
    EntityDeclaration,
    EventPattern,
    OperationExpression,
    Query,
    ReturnItem,
    TimeWindow,
)
from repro.auditing.entities import EntityType


def rules_for(text: str, **kwargs) -> tuple[str, ...]:
    return analyze_query(text, **kwargs).rules()


CLEAN = 'proc p["%sh%"] read file f["/etc/%"] as e1 return p, f'


# ---------------------------------------------------------------------------
# Satisfiability (TR101-TR106)
# ---------------------------------------------------------------------------


class TestSatisfiabilityRules:
    def test_tr101_contradictory_range(self):
        fired = rules_for(
            'proc p["x"] read file f[id > 100 and id < 10] as e1 return p, f'
        )
        assert "TR101" in fired

    def test_tr101_equality_outside_bounds(self):
        fired = rules_for(
            'proc p["x"] read file f[id = 5 and id > 100] as e1 return p, f'
        )
        assert "TR101" in fired

    def test_tr101_negative_satisfiable_range(self):
        fired = rules_for(
            'proc p["x"] read file f[id > 10 and id < 100] as e1 return p, f'
        )
        assert "TR101" not in fired

    def test_tr102_conflicting_equalities(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "a" and name = "b"] as e1 return p, f'
        )
        assert "TR102" in fired

    def test_tr102_eq_and_neq_same_value(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "a" and name != "a"] as e1 return p, f'
        )
        assert "TR102" in fired

    def test_tr102_negative_single_equality(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "a"] as e1 return p, f'
        )
        assert "TR102" not in fired

    def test_tr103_empty_like_pattern(self):
        fired = rules_for(
            'proc p["x"] read file f[name like ""] as e1 return p, f'
        )
        assert "TR103" in fired

    def test_tr103_disjoint_like_patterns(self):
        fired = rules_for(
            'proc p["x"] read file f[name like "a%" and name like "b%"] as e1 '
            "return p, f"
        )
        assert "TR103" in fired

    def test_tr103_equality_contradicting_like(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "abc" and name like "x%"] as e1 '
            "return p, f"
        )
        assert "TR103" in fired

    def test_tr103_negative_compatible_likes(self):
        fired = rules_for(
            'proc p["x"] read file f[name like "/etc/%" and name like "%.conf"] '
            "as e1 return p, f"
        )
        assert "TR103" not in fired

    def test_tr104_temporal_cycle(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2, e2 before e1 return p, f"
        )
        assert "TR104" in fired

    def test_tr104_negative_acyclic_chain(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2 return p, f"
        )
        assert "TR104" not in fired

    def test_tr105_windows_contradict_ordering(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 during (1000, 2000) '
            'proc p write file g["z"] as e2 during (100, 200) '
            "with e1 before e2 return p, f"
        )
        assert "TR105" in fired

    def test_tr105_negative_compatible_windows(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 during (100, 200) '
            'proc p write file g["z"] as e2 during (1000, 2000) '
            "with e1 before e2 return p, f"
        )
        assert "TR105" not in fired

    def test_tr105_degenerate_window_ast_only(self):
        # The parser rejects end < start, but synthesized/AST-built queries
        # can still carry one; the analyzer must catch it statically.
        query = Query(
            patterns=[
                EventPattern(
                    subject=EntityDeclaration(
                        entity_type=EntityType.PROCESS, identifier="p"
                    ),
                    operation=OperationExpression(operations=("read",)),
                    obj=EntityDeclaration(
                        entity_type=EntityType.FILE, identifier="f"
                    ),
                    event_id="e1",
                    window=TimeWindow(start=100, end=50),
                )
            ],
            return_items=[ReturnItem(identifier="p")],
        )
        report = analyze_query(query)
        assert "TR105" in report.rules()
        assert report.has_errors()

    def test_tr106_irreflexive_self_relation(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 with e1.id < e1.id return p, f'
        )
        assert "TR106" in fired

    def test_tr106_contradictory_relation_pair(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2, e1.id < e2.id, e1.id > e2.id return p, f"
        )
        assert "TR106" in fired

    def test_tr106_negative_consistent_relations(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2, e1.id < e2.id return p, f"
        )
        assert "TR106" not in fired


# ---------------------------------------------------------------------------
# Dead / redundant predicates (TR201-TR206)
# ---------------------------------------------------------------------------


class TestDeadCodeRules:
    def test_tr201_duplicate_filter_term(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "a" and name = "a"] as e1 return p, f'
        )
        assert "TR201" in fired

    def test_tr201_negative_distinct_terms(self):
        fired = rules_for(
            'proc p["x"] read file f[name = "a" and id = 3] as e1 return p, f'
        )
        assert "TR201" not in fired

    def test_tr202_subsumed_bound(self):
        fired = rules_for(
            'proc p["x"] read file f[id > 10 and id > 5] as e1 return p, f'
        )
        assert "TR202" in fired

    def test_tr202_tautological_self_relation(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 with e1.id = e1.id return p, f'
        )
        assert "TR202" in fired

    def test_tr202_negative_tight_bounds(self):
        fired = rules_for(
            'proc p["x"] read file f[id > 10 and id < 20] as e1 return p, f'
        )
        assert "TR202" not in fired

    def test_tr203_duplicate_temporal_relation(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2, e1 before e2 return p, f"
        )
        assert "TR203" in fired

    def test_tr203_relation_implied_by_entity_reuse(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2, e1.srcid = e2.srcid return p, f"
        )
        assert "TR203" in fired

    def test_tr203_negative_distinct_relations(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2 return p, f"
        )
        assert "TR203" not in fired

    def test_tr204_transitively_implied_before(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            'proc p create file h["w"] as e3 '
            "with e1 before e2, e2 before e3, e1 before e3 return p, f"
        )
        assert "TR204" in fired

    def test_tr204_negative_minimal_chain(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            'proc p create file h["w"] as e3 '
            "with e1 before e2, e2 before e3 return p, f"
        )
        assert "TR204" not in fired

    def test_tr205_unreferenced_entity(self):
        fired = rules_for('proc p["x"] read file f as e1 return p')
        assert "TR205" in fired

    def test_tr205_negative_entity_returned(self):
        assert "TR205" not in rules_for(CLEAN)

    def test_tr206_repeated_filter_across_patterns(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p["x"] write file g["z"] '
            "as e2 with e1 before e2 return p, f"
        )
        assert "TR206" in fired

    def test_tr206_negative_filter_stated_once(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2 return p, f"
        )
        assert "TR206" not in fired


# ---------------------------------------------------------------------------
# Cost / cardinality (TR301-TR304)
# ---------------------------------------------------------------------------


class TestCostRules:
    def test_tr301_unwindowable_standing_query(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "return p, f"
        )
        assert "TR301" in fired

    def test_tr301_negative_with_temporal_sink(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 proc p write file g["z"] as e2 '
            "with e1 before e2 return p, f"
        )
        assert "TR301" not in fired

    def test_tr302_unanchored_multi_hop_path(self):
        fired = rules_for("proc p ~>(1~4)[read] file f return p, f")
        assert "TR302" in fired

    def test_tr302_negative_anchored_path(self):
        fired = rules_for('proc p["%sh%"] ~>(1~4)[read] file f return p, f')
        assert "TR302" not in fired

    def test_tr303_cross_product_groups(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 '
            'proc q["z"] write file g["w"] as e2 return p, q'
        )
        assert "TR303" in fired

    def test_tr303_negative_connected_by_relation(self):
        fired = rules_for(
            'proc p["x"] read file f["y"] as e1 '
            'proc q["z"] write file g["w"] as e2 '
            "with e1 before e2 return p, q"
        )
        assert "TR303" not in fired

    def test_tr304_full_scan_against_store_statistics(self, figure2_store):
        policy = AnalysisPolicy(scan_row_threshold=1)
        report = analyze_query(
            "proc p read file f as e1 return p, f",
            store=figure2_store,
            policy=policy,
        )
        assert "TR304" in report.rules()
        [diagnostic] = [d for d in report if d.rule == "TR304"]
        assert "stored events" in diagnostic.message

    def test_tr304_negative_filtered_pattern(self, figure2_store):
        policy = AnalysisPolicy(scan_row_threshold=1)
        report = analyze_query(CLEAN, store=figure2_store, policy=policy)
        assert "TR304" not in report.rules()

    def test_tr304_negative_without_store(self):
        policy = AnalysisPolicy(scan_row_threshold=1)
        report = analyze_query(
            "proc p read file f as e1 return p, f", policy=policy
        )
        assert "TR304" not in report.rules()


# ---------------------------------------------------------------------------
# Portability (TR401-TR403)
# ---------------------------------------------------------------------------


class TestPortabilityRules:
    def test_tr401_path_pattern_is_graph_bound(self):
        fired = rules_for('proc p["%sh%"] ~>(1~2)[read] file f["/etc/%"] return p, f')
        assert "TR401" in fired

    def test_tr401_negative_event_pattern(self):
        assert "TR401" not in rules_for(CLEAN)

    def test_negated_operations_are_portable(self):
        """Both backends evaluate a negated operation (there was a TR402 once)."""
        for text in (
            'proc p["x"] not read file f["y"] as e1 return p, f',
            'proc p["x"] ~>(1~2)[not read] file f["y"] return p, f',
        ):
            assert not analyze_query(text).has_errors()

    def test_tr403_compiler_failure_surfaces(self, monkeypatch):
        def exploding_compile(pattern):
            raise RuntimeError("injected compiler failure")

        monkeypatch.setattr(
            "repro.tbql.analysis.portability.compile_select", exploding_compile
        )
        report = StaticAnalyzer().analyze(CLEAN)
        [diagnostic] = [d for d in report if d.rule == "TR403"]
        assert diagnostic.severity is Severity.ERROR
        assert "SQL backend" in diagnostic.message
        assert "injected compiler failure" in diagnostic.message

    def test_tr403_negative_default_compilers(self):
        assert "TR403" not in rules_for(CLEAN)


# ---------------------------------------------------------------------------
# Policy, report and API behavior
# ---------------------------------------------------------------------------


class TestPolicyAndReport:
    BAD = 'proc p["x"] read file f[id > 100 and id < 10] as e1 return p, f'

    def test_clean_query_has_no_findings(self):
        report = analyze_query(CLEAN)
        assert len(report) == 0
        assert not report.has_errors()
        assert report.render() == "no findings"

    def test_every_rule_has_a_catalog_entry(self):
        assert set(RULES) == {
            "TR101", "TR102", "TR103", "TR104", "TR105", "TR106",
            "TR201", "TR202", "TR203", "TR204", "TR205", "TR206",
            "TR301", "TR302", "TR303", "TR304",
            "TR401", "TR403",
        }
        for rule, spec in RULES.items():
            assert spec.rule == rule
            assert spec.title

    def test_raise_for_errors_carries_diagnostics(self):
        report = analyze_query(self.BAD)
        with pytest.raises(TBQLAnalysisError, match="TR101") as excinfo:
            report.raise_for_errors()
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].rule == "TR101"

    def test_lenient_policy_demotes_errors(self):
        report = analyze_query(self.BAD, policy=AnalysisPolicy.lenient())
        assert "TR101" in report.rules()
        assert not report.has_errors()
        report.raise_for_errors()  # must not raise

    def test_disabled_rule_is_dropped(self):
        policy = AnalysisPolicy(disabled=frozenset({"TR101"}))
        report = analyze_query(self.BAD, policy=policy)
        assert "TR101" not in report.rules()

    def test_severity_override_promotes_rule(self):
        policy = AnalysisPolicy(severity_overrides={"TR205": Severity.ERROR})
        report = analyze_query('proc p["x"] read file f as e1 return p', policy=policy)
        assert report.has_errors()
        assert report.errors[0].rule == "TR205"

    def test_diagnostics_sorted_errors_first(self):
        text = (
            'proc p read file f[id > 100 and id < 10] as e1 '
            "proc q write file g as e2 return p, q"
        )
        report = analyze_query(text)
        severities = [d.severity.rank for d in report]
        assert severities == sorted(severities)
        assert report.diagnostics[0].severity is Severity.ERROR

    def test_diagnostic_spans_point_into_source(self):
        report = analyze_query(self.BAD)
        [diagnostic] = [d for d in report if d.rule == "TR101"]
        assert diagnostic.span is not None
        assert diagnostic.span.line == 1
        assert diagnostic.span.column > 1
        rendered = diagnostic.render("query.tbql")
        assert rendered.startswith("query.tbql:1:")
        assert "error[TR101]" in rendered

    def test_report_to_dict_shape(self):
        payload = analyze_query(self.BAD).to_dict()
        assert payload["errors"] == 1
        assert payload["diagnostics"][0]["rule"] == "TR101"
        assert payload["diagnostics"][0]["severity"] == "error"

    def test_semantic_errors_propagate(self):
        analyzer = StaticAnalyzer()
        with pytest.raises(TBQLSemanticError):
            analyzer.analyze("proc p exec file f as e1 return p")

    def test_analyzer_accepts_ast_and_text(self):
        from repro.tbql.parser import parse_query

        text_report = analyze_query(self.BAD)
        ast_report = analyze_query(parse_query(self.BAD))
        assert text_report.rules() == ast_report.rules()

    def test_store_statistics_tolerates_missing_api(self):
        from repro.tbql.analysis.cost import store_statistics

        assert store_statistics(None) is None
        assert store_statistics(object()) is None
        assert store_statistics(AuditStore()) is not None
