"""Command-line interface for the ThreatRaptor reproduction.

The CLI exposes the same end-to-end flow the paper demonstrates through its
web UI, as four subcommands:

* ``threatraptor simulate`` — generate a simulated audit log (benign workload
  plus the demo attacks, or a seeded multi-stage campaign with ``--campaign``)
  and write it in Sysdig format;
* ``threatraptor extract`` — run threat behavior extraction on an OSCTI report
  and print the threat behavior graph;
* ``threatraptor synthesize`` — additionally synthesize and print the TBQL
  query;
* ``threatraptor hunt`` — full pipeline: load an audit log, extract, synthesize
  and execute, printing the matched system auditing records;
* ``threatraptor watch`` — continuous hunting: stream an audit log through
  micro-batched ingestion with a standing query, printing alerts as they fire;
* ``threatraptor corpus`` — corpus-scale hunting: extract a whole directory of
  OSCTI reports (optionally in parallel), dedup equivalent synthesized queries
  into standing hunts, and stream an audit log through them, printing alerts
  with per-report provenance;
* ``threatraptor lint`` — statically analyze TBQL query files (the same
  satisfiability/dead-predicate/cost/portability rules that gate hunt
  registration) without executing anything; exits non-zero on errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.auditing.sysdig import write_trace
from repro.auditing.workload.attacks import ATTACK_SCENARIOS
from repro.auditing.workload.generator import HostSimulator
from repro.core.config import ThreatRaptorConfig
from repro.core.pipeline import ThreatRaptor
from repro.errors import ThreatRaptorError
from repro.tbql.formatter import format_query


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatraptor",
        description="Threat hunting in system audit logs using OSCTI (ThreatRaptor reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="generate a simulated audit log")
    simulate.add_argument("output", help="path of the Sysdig-format log file to write")
    simulate.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")
    simulate.add_argument(
        "--scale", type=float, default=1.0, help="benign workload scale factor (default: 1.0)"
    )
    simulate.add_argument(
        "--attack",
        action="append",
        choices=sorted(ATTACK_SCENARIOS),
        default=None,
        help="attack scenario to inject (repeatable; default: both demo attacks)",
    )
    simulate.add_argument(
        "--campaign",
        action="store_true",
        help=(
            "generate a seeded multi-stage kill-chain campaign (repro.scenarios) "
            "instead of the fixed demo attacks"
        ),
    )
    simulate.add_argument(
        "--ground-truth",
        default=None,
        metavar="JSON",
        help=(
            "with --campaign: also write the campaign ground truth (malicious "
            "event ids plus expected TBQL hunts) to this JSON file"
        ),
    )

    extract = subparsers.add_parser("extract", help="extract a threat behavior graph from a report")
    extract.add_argument("report", help="path of the OSCTI report text file")

    synthesize = subparsers.add_parser(
        "synthesize", help="extract a behavior graph and synthesize a TBQL query"
    )
    synthesize.add_argument("report", help="path of the OSCTI report text file")
    synthesize.add_argument(
        "--path-patterns", action="store_true", help="synthesize variable-length path patterns"
    )

    hunt = subparsers.add_parser("hunt", help="run the full hunting pipeline")
    hunt.add_argument("report", help="path of the OSCTI report text file")
    hunt.add_argument("log", help="path of the Sysdig-format audit log to search")
    hunt.add_argument(
        "--backend",
        choices=("auto", "graph"),
        default="auto",
        help="query execution backend (default: auto)",
    )
    hunt.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable pruning-score scheduling and constraint propagation",
    )
    hunt.add_argument("--limit", type=int, default=20, help="max result rows to print")

    query = subparsers.add_parser("query", help="run a hand-written TBQL query over an audit log")
    query.add_argument("tbql", help="path of the TBQL query file (or '-' for stdin)")
    query.add_argument("log", help="path of the Sysdig-format audit log to search")
    query.add_argument("--limit", type=int, default=20, help="max result rows to print")

    watch = subparsers.add_parser(
        "watch", help="continuously hunt over a streamed audit log (standing query)"
    )
    watch.add_argument("report", help="path of the OSCTI report text file")
    watch.add_argument("log", help="path of the Sysdig-format audit log to stream")
    watch.add_argument(
        "--batch-size", type=int, default=256, help="events per ingestion micro-batch (default: 256)"
    )
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the log for new records instead of stopping at EOF",
    )
    watch.add_argument(
        "--max-events", type=int, default=None, help="stop after streaming this many events"
    )
    watch.add_argument(
        "--alerts", default=None, help="also append alerts as JSON lines to this file"
    )
    watch.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for crash-safe state: standing state is checkpointed "
            "after every micro-batch and alerts are journaled durably; an "
            "existing checkpoint there is resumed (no alert re-emitted)"
        ),
    )
    watch.add_argument(
        "--data-dir",
        default=None,
        help=(
            "store audit data durably in this directory as time-partitioned "
            "on-disk segments (storage='segments'); reopening the directory "
            "restores the stored data"
        ),
    )
    watch.add_argument(
        "--backend",
        choices=("auto", "graph"),
        default="auto",
        help="query execution backend for the standing hunt (default: auto)",
    )

    corpus = subparsers.add_parser(
        "corpus",
        help="hunt a whole corpus of OSCTI reports over a streamed audit log",
    )
    corpus.add_argument(
        "reports",
        help=(
            "directory of OSCTI report .txt files, a .jsonl feed dump, or the "
            "literal 'bundled' for the built-in annotated corpus"
        ),
    )
    corpus.add_argument("log", help="path of the Sysdig-format audit log to stream")
    corpus.add_argument(
        "--batch-size", type=int, default=256, help="events per ingestion micro-batch (default: 256)"
    )
    corpus.add_argument(
        "--max-events", type=int, default=None, help="stop after streaming this many events"
    )
    corpus.add_argument(
        "--alerts", default=None, help="also append alerts as JSON lines to this file"
    )
    corpus.add_argument(
        "--data-dir",
        default=None,
        help=(
            "store audit data durably in this directory as time-partitioned "
            "on-disk segments (storage='segments')"
        ),
    )

    lint = subparsers.add_parser(
        "lint", help="statically analyze TBQL query files without executing them"
    )
    lint.add_argument(
        "files",
        nargs="+",
        help="TBQL query files to analyze (or '-' for stdin)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    lint.add_argument(
        "--log",
        default=None,
        help=(
            "optional Sysdig-format audit log; when given, its index "
            "statistics feed the cost/cardinality rules (TR304)"
        ),
    )
    return parser


def _command_simulate(args: argparse.Namespace) -> int:
    if args.campaign:
        return _simulate_campaign(args)
    if args.ground_truth is not None:
        print("error: --ground-truth requires --campaign", file=sys.stderr)
        return 2
    simulator = HostSimulator(seed=args.seed, benign_scale=args.scale).add_default_benign()
    attack_names = args.attack or ["password-cracking", "data-leakage"]
    for name in attack_names:
        simulator.add_attack(ATTACK_SCENARIOS[name]())
    result = simulator.run()
    with open(args.output, "w", encoding="utf-8") as handle:
        count = write_trace(result.trace, handle)
    summary = result.trace.summary()
    print(f"wrote {count} audit records to {args.output}")
    print(f"entities={summary['entities']} events={summary['events']} malicious={summary['malicious_events']}")
    return 0


def _simulate_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import generate_labeled_trace

    if args.attack:
        print("error: --attack cannot be combined with --campaign", file=sys.stderr)
        return 2
    campaign = generate_labeled_trace(seed=args.seed, noise_scale=args.scale)
    with open(args.output, "w", encoding="utf-8") as handle:
        count = write_trace(campaign.trace, handle)
    summary = campaign.summary()
    print(f"wrote {count} audit records to {args.output}")
    print(f"campaign {campaign.name}: stages={','.join(campaign.spec.variants)}")
    print(
        f"events={summary['events']} malicious={summary['malicious_events']} "
        f"hosts={summary['hosts']} hunts={','.join(hunt.name for hunt in campaign.hunts)}"
    )
    if args.ground_truth is not None:
        payload = {
            "name": campaign.name,
            "seed": campaign.seed,
            "stages": list(campaign.spec.variants),
            "hosts": campaign.spec.hosts,
            "event_ids": sorted(campaign.ground_truth.event_ids),
            "hunts": [
                {
                    "name": hunt.name,
                    "tbql": hunt.query_text,
                    "expected_event_ids": sorted(hunt.expected_event_ids),
                }
                for hunt in campaign.hunts
            ],
        }
        with open(args.ground_truth, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote ground truth to {args.ground_truth}")
    return 0


def _command_extract(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as handle:
        text = handle.read()
    raptor = ThreatRaptor()
    extraction = raptor.extract_behavior_graph(text)
    print(f"IOCs recognised: {len(extraction.canonical_iocs())}")
    print("Threat behavior graph:")
    for line in extraction.graph.to_lines():
        print(f"  {line}")
    return 0


def _command_synthesize(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as handle:
        text = handle.read()
    config = ThreatRaptorConfig(synthesis_use_path_patterns=args.path_patterns)
    raptor = ThreatRaptor(config)
    extraction = raptor.extract_behavior_graph(text)
    query = raptor.synthesize_query(extraction.graph)
    print(format_query(query))
    return 0


def _command_hunt(args: argparse.Namespace) -> int:
    config = ThreatRaptorConfig(
        execution_backend=args.backend, optimize_execution=not args.no_optimize
    )
    raptor = ThreatRaptor(config)
    raptor.load_log_file(args.log)
    with open(args.report, "r", encoding="utf-8") as handle:
        text = handle.read()
    report = raptor.hunt(text)
    print("Synthesized TBQL query:")
    print(report.query_text)
    print()
    print("Matched system auditing records:")
    print(report.result.to_table(limit=args.limit))
    summary = report.summary()
    print()
    print(
        f"behavior edges={summary['behavior_edges']} patterns={summary['query_patterns']} "
        f"rows={summary['result_rows']} matched events={summary['matched_events']}"
    )
    return 0


def _command_query(args: argparse.Namespace) -> int:
    if args.tbql == "-":
        source = sys.stdin.read()
    else:
        with open(args.tbql, "r", encoding="utf-8") as handle:
            source = handle.read()
    raptor = ThreatRaptor()
    raptor.load_log_file(args.log)
    result = raptor.execute_query(source)
    print(result.to_table(limit=args.limit))
    print(f"({len(result)} rows, {len(result.all_matched_event_ids())} matched events)")
    return 0


def _storage_config(args: argparse.Namespace) -> ThreatRaptorConfig | None:
    """Pipeline config for the ``--data-dir`` / ``--backend`` flags.

    Returns ``None`` (pipeline defaults) when no flag was given.
    """
    data_dir = getattr(args, "data_dir", None)
    backend = getattr(args, "backend", "auto")
    if data_dir is None and backend == "auto":
        return None
    return ThreatRaptorConfig(
        storage="segments" if data_dir is not None else "memory",
        data_dir=data_dir,
        execution_backend=backend,
    )


def _command_watch(args: argparse.Namespace) -> int:
    from repro.streaming import CallbackSink, JSONLSink, LogTailSource

    with open(args.report, "r", encoding="utf-8") as handle:
        text = handle.read()
    raptor = ThreatRaptor(_storage_config(args))
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    service = raptor.watch(
        text, name="watch", batch_size=args.batch_size, checkpoint_dir=checkpoint_dir
    )
    if service.resumed:
        journal = service.journal
        recovered = journal.recovered_entries if journal is not None else 0
        print(f"Resumed from checkpoint in {checkpoint_dir} ({recovered} journaled alerts)")
    service.add_sink(CallbackSink(lambda alert: print(f"ALERT {alert.describe()}")))

    standing = service.hunts[0]
    print("Standing TBQL query:")
    print(standing.query_text)
    print()

    source = LogTailSource(
        path=args.log, follow=args.follow, max_events=args.max_events
    )
    if args.alerts is not None:
        with open(args.alerts, "a", encoding="utf-8") as alert_stream:
            service.add_sink(JSONLSink(alert_stream))
            service.run(source)
    else:
        service.run(source)

    stats = service.statistics()
    ingest = stats["ingest"]
    hunt_stats = stats["hunts"]["watch"]
    print()
    print(
        f"batches={ingest['batches']} events={ingest['events_ingested']} "
        f"stored={ingest['events_stored']} "
        f"throughput={ingest['events_per_second']:.0f} events/s"
    )
    print(
        f"evaluations={hunt_stats['evaluations']} alerts={hunt_stats['alerts']} "
        f"matched events={hunt_stats['matched_events']}"
    )
    if service.journal is not None:
        service.journal.close()
    return 0


def _load_corpus(spec: str):
    from repro.intel import ReportCorpus

    if spec == "bundled":
        return ReportCorpus.bundled()
    if spec.endswith(".jsonl"):
        return ReportCorpus.from_jsonl(spec)
    return ReportCorpus.from_directory(spec)


def _command_corpus(args: argparse.Namespace) -> int:
    from repro.streaming import CallbackSink, JSONLSink, LogTailSource

    corpus = _load_corpus(args.reports)
    raptor = ThreatRaptor(_storage_config(args))
    result = raptor.hunt_corpus(corpus, batch_size=args.batch_size)
    service = result.service
    service.add_sink(CallbackSink(lambda alert: print(f"ALERT {alert.describe()}")))

    summary = result.summary()
    print(
        f"corpus: {summary['reports']} reports -> {summary['hunts']} standing hunts "
        f"({summary['hunts_registered']} new, {summary['skipped_reports']} skipped, "
        f"dedup ratio {summary['dedup_ratio']:.2f})"
    )
    for hunt in result.hunts:
        print(f"  {hunt.name}: reports={','.join(hunt.report_ids)}")
    for report_id, reason in result.skipped.items():
        print(f"  skipped {report_id}: {reason}")
    for rejection in result.rejected:
        rules = ",".join(sorted({d.rule for d in rejection.diagnostics}))
        print(
            f"  rejected [{rules}] reports={','.join(rejection.report_ids)}: "
            f"{rejection.query_text.splitlines()[0]}"
        )
    print()

    source = LogTailSource(path=args.log, follow=False, max_events=args.max_events)
    if args.alerts is not None:
        with open(args.alerts, "a", encoding="utf-8") as alert_stream:
            service.add_sink(JSONLSink(alert_stream))
            alerts = service.run(source)
    else:
        alerts = service.run(source)

    stats = service.statistics()
    ingest = stats["ingest"]
    evaluations = sum(hunt["evaluations"] for hunt in stats["hunts"].values())
    print()
    print(
        f"batches={ingest['batches']} events={ingest['events_ingested']} "
        f"stored={ingest['events_stored']} "
        f"throughput={ingest['events_per_second']:.0f} events/s"
    )
    print(f"hunts={len(stats['hunts'])} evaluations={evaluations} alerts={len(alerts)}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    import json

    from repro.errors import TBQLSemanticError, TBQLSyntaxError
    from repro.tbql.analysis import StaticAnalyzer

    store = None
    if args.log is not None:
        raptor = ThreatRaptor()
        raptor.load_log_file(args.log)
        store = raptor.store
    analyzer = StaticAnalyzer(store=store)

    exit_code = 0
    payload = []
    for path in args.files:
        if path == "-":
            source = sys.stdin.read()
            display = "<stdin>"
        else:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            display = path
        try:
            report = analyzer.analyze(source)
        except (TBQLSyntaxError, TBQLSemanticError) as exc:
            # A file that does not parse or type-check is rendered like any
            # other error finding, so tooling consumes one uniform shape.
            exit_code = 1
            if args.format == "json":
                payload.append(
                    {
                        "file": display,
                        "errors": 1,
                        "warnings": 0,
                        "infos": 0,
                        "failure": f"{type(exc).__name__}: {exc}",
                        "diagnostics": [],
                    }
                )
            else:
                print(f"{display}: error: {exc}")
            continue
        if report.has_errors():
            exit_code = 1
        if args.format == "json":
            payload.append({"file": display, **report.to_dict()})
        else:
            if len(report) == 0:
                print(f"{display}: clean")
            else:
                print(report.render(source_name=display))
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    return exit_code


_COMMANDS = {
    "simulate": _command_simulate,
    "extract": _command_extract,
    "synthesize": _command_synthesize,
    "hunt": _command_hunt,
    "query": _command_query,
    "watch": _command_watch,
    "corpus": _command_corpus,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ThreatRaptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
