"""Command-line interface to the benchmarking framework.

Usability is one of the paper's explicit requirements (Section 2.3:
"ease of deploying, configuring, and use … convenient user interfaces"),
so the framework ships a CLI::

    repro-bench list                      # prescriptions, engines, generators
    repro-bench run micro-wordcount --volume 300 --repeats 3
    repro-bench run oltp-read-write --engine nosql --param operation_count=500
    repro-bench generate lda-text --volume 50 --fit-on text-corpus --format text-lines
    repro-bench tables                    # regenerate Table 1 and Table 2
    repro-bench miniature HiBench --scale 0.5
    repro-bench run micro-sort --repeats 5 --record   # persist to the run store
    repro-bench runs list                 # inspect recorded runs
    repro-bench baseline promote latest main
    repro-bench compare r0001 r0002       # statistical comparison
    repro-bench gate --baseline main      # exit 1 on regression (CI)
    repro-bench submit micro-wordcount --record       # one job via the service
    repro-bench serve --spec-file batch.json          # a batch of jobs
    repro-bench jobs list                 # audit the service job log

Every verb is parse → one :mod:`repro.api` (or store) call → render:
each subparser registers its handler and :func:`main` calls it.  Shared
flags are parent parsers scoped to what a verb honours, so a flag a
verb would ignore does not parse: ``--store-dir`` on every verb that
touches the run store (the only shared flag ``compare``, ``gate`` and
the ``runs``/``baseline``/``jobs`` verbs take), ``--executor`` and
``--workers`` on ``run``, ``submit``, ``serve`` and ``ablate``,
``--record`` on ``run``, ``submit``, ``serve`` and ``load``,
``--layout`` on ``run``, ``submit``, ``ablate`` and ``load``.  Every
command is also callable in-process via :func:`main` (what the tests
do).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping, Sequence
from itertools import islice
from pathlib import Path

from repro.core.errors import ReproError, SpecError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="A 4V-aware big data benchmarking framework "
        "(reproduction of Han & Lu, 'On Big Data Benchmarking', 2014).",
    )
    # Shared flags are parent parsers, composed per verb (module docstring).
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store-dir", default=None, metavar="DIR",
                       help="run-store directory (default: "
                            "REPRO_STORE_DIR, else .repro-runs)")
    record = argparse.ArgumentParser(add_help=False)
    record.add_argument("--record", action="store_true",
                        help="record outcomes into the persistent run "
                             "store")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--executor", default="serial",
                      choices=["serial", "thread", "process"],
                      help="fan-out backend for independent runs")
    pool.add_argument("--workers", type=int, default=None,
                      help="worker count for the pooled executor "
                           "backends (default: one per CPU)")
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--layout", default="row",
                        choices=["row", "columnar"],
                        help="execution layout: row-at-a-time iterators "
                             "(the correctness oracle) or batch-at-a-time "
                             "columnar operators on the DBMS (other "
                             "engines ignore it)")
    param = argparse.ArgumentParser(add_help=False)
    param.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="workload parameter override")
    # The flags `run` and `submit` build their BenchmarkSpec from.
    spec = argparse.ArgumentParser(
        add_help=False, parents=[param, store, record, pool, layout]
    )
    spec.add_argument("prescription", help="prescription name")
    spec.add_argument("--engine", action="append", default=[],
                      help="engine(s) to run on (default: all supported)")
    spec.add_argument("--volume", type=int, default=None,
                      help="data volume override")
    spec.add_argument("--repeats", type=int, default=1)
    spec.add_argument("--json", action="store_true",
                      help="emit results as JSON")
    spec.add_argument("--tuning", default="normal", metavar="PROFILE",
                      help="tuning profile applied to every engine: "
                           "normal, optimized, or normal+<knob> "
                           "(see repro.tuning.profiles)")
    schedulers = argparse.ArgumentParser(add_help=False)
    schedulers.add_argument("--schedulers", type=int, default=2,
                            help="scheduler threads of the in-process "
                                 "service")
    client = argparse.ArgumentParser(add_help=False, parents=[schedulers])
    client.add_argument("--client", default="cli", dest="client_name",
                        metavar="NAME",
                        help="client identity for admission quotas")
    # compare and gate judge the same way.
    judge = argparse.ArgumentParser(add_help=False, parents=[store])
    judge.add_argument("--metric", action="append", default=[],
                       help="metric(s) to judge (default: all shared)")
    judge.add_argument("--tolerance", type=float, default=None,
                       help="relative effect-size threshold (default 0.05)")
    judge.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    commands = parser.add_subparsers(dest="command", required=True)

    def verb(group, name, handler, parents=(), **options):
        """One subcommand; ``main`` dispatches to its ``handler``."""
        subparser = group.add_parser(name, parents=list(parents), **options)
        subparser.set_defaults(handler=handler)
        return subparser

    verb(commands, "list", _list,
         help="list prescriptions, engines, generators, workloads, and "
              "formats")

    run_parser = verb(
        commands, "run", _run, [spec],
        help="run a prescription through the five-step process",
    )
    run_parser.add_argument("--partitions", type=int, default=1,
                            help="parallel data-generator partitions")
    run_parser.add_argument("--chunk-size", type=int, default=None,
                            help="stream the data set as record batches "
                                 "of this size (bounded memory); default "
                                 "is fully materialized")
    run_parser.add_argument("--on-error", default="abort",
                            choices=["abort", "continue"],
                            help="failure policy: abort the run on the "
                                 "first task error, or capture per-task "
                                 "failures and keep going")
    run_parser.add_argument("--retries", type=int, default=0,
                            help="extra attempts per task after the first")
    run_parser.add_argument("--retry-backoff", type=float, default=0.0,
                            help="base backoff (seconds) before the second "
                                 "attempt; grows exponentially with seeded "
                                 "jitter")
    run_parser.add_argument("--task-timeout", type=float, default=None,
                            help="wall-clock budget per task attempt, in "
                                 "seconds")
    run_parser.add_argument("--trace", action="store_true",
                            help="record spans and print the ASCII span "
                                 "tree after the run")
    run_parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="write the recorded span trees as JSONL "
                                 "(implies tracing)")
    run_parser.add_argument("--repository", default=None,
                            help="load prescriptions from a JSON file "
                                 "instead of the built-in repository")
    run_parser.add_argument("--history", action="store_true",
                            help="render the history style (per-metric "
                                 "sparklines from the run store) instead "
                                 "of the plain table; implies --record")
    run_parser.add_argument("--baseline", default=None, metavar="NAME",
                            help="with --history: show per-metric deltas "
                                 "against this promoted baseline")
    run_parser.add_argument("--inject-latency", type=float, default=None,
                            metavar="SECONDS",
                            help="synthetic per-execution slowdown through "
                                 "the fault substrate (regression-gate "
                                 "demos and CI)")

    runs_commands = commands.add_parser(
        "runs", help="inspect the persistent run store"
    ).add_subparsers(dest="runs_command", required=True)
    runs_list = verb(runs_commands, "list", _runs_list, [store],
                     help="list recorded runs")
    runs_list.add_argument("--series", default=None, metavar="KEY",
                           help="only runs of this series (fingerprint "
                                "hash prefix)")
    runs_list.add_argument("--latest", action="store_true",
                           help="print only the newest record id "
                                "(script-friendly)")
    runs_show = verb(runs_commands, "show", _runs_show, [store],
                     help="show one recorded run in full")
    runs_show.add_argument("record", help="record id, unique prefix, "
                                          "series key, or 'latest'")

    compare_parser = verb(
        commands, "compare", _compare, [judge],
        help="statistically compare two recorded runs",
    )
    compare_parser.add_argument("baseline", help="baseline record reference")
    compare_parser.add_argument("candidate", help="candidate record reference")

    gate_parser = verb(
        commands, "gate", _gate, [judge],
        help="check a candidate run against a baseline "
             "(exit 0 = pass, 1 = regression)",
    )
    gate_parser.add_argument("candidate", nargs="?", default=None,
                             help="candidate record reference (default: "
                                  "newest run in the baseline's series)")
    gate_parser.add_argument("--baseline", required=True, metavar="NAME",
                             help="promoted baseline name to gate against")
    gate_parser.add_argument("--fail-on-inconclusive", action="store_true",
                             help="treat inconclusive verdicts as failures")

    baseline_commands = commands.add_parser(
        "baseline", help="manage named baselines in the run store"
    ).add_subparsers(dest="baseline_command", required=True)
    baseline_promote = verb(
        baseline_commands, "promote", _baseline_promote, [store],
        help="promote a recorded run to a named baseline",
    )
    baseline_promote.add_argument("record", help="record reference "
                                                 "(id/prefix/'latest')")
    baseline_promote.add_argument("name", help="baseline name")
    verb(baseline_commands, "list", _baseline_list, [store],
         help="list promoted baselines")
    baseline_remove = verb(
        baseline_commands, "remove", _baseline_remove, [store],
        help="remove a named baseline (the record stays)",
    )
    baseline_remove.add_argument("name", help="baseline name")

    submit_parser = verb(
        commands, "submit", _submit, [spec, client],
        help="submit one benchmark job to the service and wait for it",
    )
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="queue priority (higher drains first)")

    ablate_parser = verb(
        commands, "ablate", _ablate, [param, store, pool, layout, schedulers],
        help="run a workload × engine × tuning-profile ablation matrix "
             "with statistical verdicts",
    )
    ablate_parser.add_argument("--workloads", required=True,
                               metavar="NAMES",
                               help="comma-separated prescription names, "
                                    "aliases (relational, micro, oltp, "
                                    "realtime), or unambiguous prefixes")
    ablate_parser.add_argument("--engines", default=None, metavar="NAMES",
                               help="comma-separated engines (default: "
                                    "dbms,mapreduce)")
    ablate_parser.add_argument("--repeats", type=int, default=5,
                               help="repeats per cell (>= 5 gives the "
                                    "Mann-Whitney test enough power at "
                                    "alpha=0.05)")
    ablate_parser.add_argument("--volume", type=int, default=None,
                               help="data volume override")
    ablate_parser.add_argument("--seed", type=int, default=0,
                               help="generation + bootstrap seed (same "
                                    "seed, same verdicts)")
    ablate_parser.add_argument("--chunk-size", type=int, default=None,
                               help="stream data sets as record batches "
                                    "of this size")
    ablate_parser.add_argument("--no-one-offs", action="store_true",
                               help="skip the per-knob one-off profiles "
                                    "(normal vs optimized only)")
    ablate_parser.add_argument("--metric", action="append", default=[],
                               help="metric(s) to judge; the first is the "
                                    "lead metric (default: the "
                                    "prescription's lead metric)")
    ablate_parser.add_argument("--tolerance", type=float, default=None,
                               help="relative effect-size threshold for "
                                    "verdicts (default: 0.05)")
    ablate_parser.add_argument("--alpha", type=float, default=None,
                               help="significance level (default: 0.05)")
    ablate_parser.add_argument("--style", default="ascii",
                               choices=["ascii", "markdown", "json"],
                               help="report rendering style")
    ablate_parser.add_argument("--service", action="store_true",
                               help="submit each cell as a queued job to "
                                    "the in-process benchmark service "
                                    "instead of a local runner")

    load_parser = verb(
        commands, "load", _load, [param, store, record, layout, schedulers],
        help="drive a workload, the service, or a synthetic model at a "
             "controlled rate and judge the run against an SLO "
             "(exit 0 = SLO met)",
    )
    load_parser.add_argument("prescription", nargs="?", default=None,
                             help="prescribed workload to drive (omit "
                                  "for the synthetic service-time "
                                  "model)")
    load_parser.add_argument("--arrival", default="poisson",
                             choices=["constant", "poisson", "bursty",
                                      "diurnal"],
                             help="open-loop arrival process shape")
    load_parser.add_argument("--rate", type=float, default=100.0,
                             help="target offered rate, requests/s")
    load_parser.add_argument("--duration", type=float, default=10.0,
                             help="run length in (virtual or wall) "
                                  "seconds")
    load_parser.add_argument("--sessions", type=int, default=0,
                             help="closed-loop session count (>0 "
                                  "replaces the arrival schedule)")
    load_parser.add_argument("--think-time", type=float, default=0.0,
                             help="mean think time between closed-loop "
                                  "requests, seconds")
    load_parser.add_argument("--seed", type=int, default=0,
                             help="seed for arrivals, service times, "
                                  "and think times")
    load_parser.add_argument("--clock", default="virtual",
                             choices=["virtual", "real"],
                             help="virtual = deterministic simulation; "
                                  "real = paced wall-clock dispatch")
    load_parser.add_argument("--concurrency", type=int, default=4,
                             help="simulated servers / worker threads")
    load_parser.add_argument("--queue-capacity", type=int, default=64,
                             help="waiting requests beyond which "
                                  "arrivals are shed")
    load_parser.add_argument("--engine", default=None,
                             help="engine for a prescribed workload "
                                  "(default: first supported)")
    load_parser.add_argument("--volume", type=int, default=None,
                             help="data volume override for a "
                                  "prescribed workload")
    load_parser.add_argument("--service", action="store_true",
                             help="drive the benchmark service (one "
                                  "request = one job submit+wait)")
    load_parser.add_argument("--mean-service", type=float, default=0.005,
                             help="synthetic target mean service time, "
                                  "seconds")
    load_parser.add_argument("--service-distribution", default="lognormal",
                             choices=["constant", "exponential",
                                      "lognormal"],
                             help="synthetic service-time distribution")
    load_parser.add_argument("--burst-factor", type=float, default=None,
                             help="bursty arrivals: burst-to-nominal "
                                  "rate ratio")
    load_parser.add_argument("--period", type=float, default=None,
                             help="diurnal arrivals: cycle length, "
                                  "seconds")
    load_parser.add_argument("--amplitude", type=float, default=None,
                             help="diurnal arrivals: modulation depth "
                                  "in [0, 1)")
    load_parser.add_argument("--slo-min-rate", type=float, default=0.95,
                             help="completion rate must reach this "
                                  "fraction of the offered rate")
    load_parser.add_argument("--slo-p50", type=float, default=None,
                             metavar="SECONDS",
                             help="p50 latency budget")
    load_parser.add_argument("--slo-p95", type=float, default=None,
                             metavar="SECONDS",
                             help="p95 latency budget")
    load_parser.add_argument("--slo-p99", type=float, default=None,
                             metavar="SECONDS",
                             help="p99 latency budget")
    load_parser.add_argument("--slo-max-shed", type=float, default=0.05,
                             help="tolerated shed fraction")
    load_parser.add_argument("--slo-max-errors", type=float, default=0.0,
                             help="tolerated error fraction")
    load_parser.add_argument("--json", action="store_true",
                             help="emit the report as JSON")

    serve_parser = verb(
        commands, "serve", _serve, [store, record, pool, client],
        help="run a batch of job specs through the service "
             "(exit 0 = all done)",
    )
    serve_parser.add_argument("--spec-file", required=True, metavar="PATH",
                              help="JSON file holding one versioned "
                                   "BenchmarkSpec payload or a list of "
                                   "them")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress the live job-event lines")

    jobs_commands = commands.add_parser(
        "jobs", help="inspect the service job log"
    ).add_subparsers(dest="jobs_command", required=True)
    jobs_list = verb(jobs_commands, "list", _jobs_list, [store],
                     help="list logged jobs")
    jobs_list.add_argument("--state", default=None,
                           help="only jobs in this lifecycle state")
    jobs_show = verb(jobs_commands, "show", _jobs_show, [store],
                     help="show one job's full lifecycle")
    jobs_show.add_argument("job", help="job id or unique prefix")
    jobs_cancel = verb(
        jobs_commands, "cancel", _jobs_cancel, [store],
        help="mark a non-terminal logged job cancelled (an orphan from "
             "a dead service process; a live orchestrator is not "
             "notified)",
    )
    jobs_cancel.add_argument("job", help="job id or unique prefix")

    export_parser = verb(
        commands, "export-prescriptions", _export,
        help="write the prescription repository to a JSON file (§5.2 "
             "reusable prescriptions)",
    )
    export_parser.add_argument("path", help="output file path")

    generate_parser = verb(
        commands, "generate", _generate,
        help="run one data generator and print a sample",
    )
    generate_parser.add_argument("generator", help="registered generator name")
    generate_parser.add_argument("--volume", type=int, default=100)
    generate_parser.add_argument("--fit-on", default=None,
                                 help="seed data set for veracity-aware "
                                      "generators")
    generate_parser.add_argument("--format", dest="format_name",
                                 default=None,
                                 help="convert output to this format")
    generate_parser.add_argument("--sample", type=int, default=5,
                                 help="records to print")
    generate_parser.add_argument("--seed", type=int, default=0)

    verb(commands, "tables", _tables,
         help="regenerate the paper's Table 1 and Table 2")

    miniature_parser = verb(commands, "miniature", _miniature,
                            help="run a surveyed suite's miniature")
    miniature_parser.add_argument("suite", help="suite name (see `tables`)")
    miniature_parser.add_argument("--scale", type=float, default=1.0)

    return parser


def _parse_params(entries: list[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for entry in entries:
        if "=" not in entry:
            raise SpecError(f"--param expects KEY=VALUE, got {entry!r}")
        key, _, raw = entry.partition("=")
        value: object = raw
        for caster in (int, float):
            try:
                value = caster(raw)
                break
            except ValueError:
                continue
        params[key] = value
    return params


def _given(args, *names: str) -> dict[str, object]:
    """Keyword arguments for the flags actually passed.

    A flag left at ``None`` is omitted, so the callee's own default
    (an environment variable, a module constant) applies.
    """
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name) is not None
    }


def _spec(args, record: bool, **fields):
    """The BenchmarkSpec `run` and `submit` build from their shared
    flags; ``fields`` are the flags only the caller has."""
    from repro.core.spec import BenchmarkSpec

    return BenchmarkSpec(
        prescription=args.prescription,
        engines=list(args.engine),
        volume=args.volume,
        repeats=args.repeats,
        params=_parse_params(args.param),
        executor=args.executor,
        max_workers=args.workers,
        record=record,
        layout=args.layout,
        tuning=args.tuning,
        **_given(args, "store_dir"),
        **fields,
    )


def _open_store(args):
    from repro.analysis.store import RunStore, resolve_store_dir

    return RunStore(resolve_store_dir(args.store_dir))


def _job_log(args):
    from repro.analysis.store import resolve_store_dir
    from repro.service.jobs import JobLog

    return JobLog(resolve_store_dir(args.store_dir))


def _list(args, out) -> int:
    from repro.core import registry
    from repro.core.prescription import builtin_repository
    from repro.datagen.formats import available_formats

    repository = builtin_repository()
    print("prescriptions:", file=out)
    for name in repository.names():
        prescription = repository.get(name)
        print(f"  {name:36s} [{prescription.domain}] "
              f"workload={prescription.workload}", file=out)
    print("engines:       " + ", ".join(registry.engines.names()), file=out)
    print("generators:    " + ", ".join(registry.generators.names()),
          file=out)
    print("workloads:     " + ", ".join(registry.workloads.names()), file=out)
    print("formats:       " + ", ".join(available_formats()), file=out)
    return 0


def _run(args, out) -> int:
    from repro import api
    from repro.analysis.store import RunStore, resolve_store_dir
    from repro.core.prescription import builtin_repository
    from repro.execution.report import render_results, render_trace
    from repro.observability import NULL_TRACER, Tracer

    repository = None
    if args.repository:
        from repro.core.serialization import repository_from_json

        repository = repository_from_json(
            Path(args.repository).read_text()
        )
    # --store-dir overrides the REPRO_STORE_DIR default the spec reads
    # when it is absent; --history needs the run recorded to have
    # anything to chart.
    spec = _spec(
        args,
        record=args.record or args.history,
        data_partitions=args.partitions,
        on_error=args.on_error,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        task_timeout=args.task_timeout,
        inject_latency=args.inject_latency,
        chunk_size=args.chunk_size,
    )
    tracing = args.trace or args.trace_out is not None
    tracer = Tracer() if tracing else NULL_TRACER
    report = api.run(spec, repository=repository, tracer=tracer)
    if args.trace_out is not None:
        Path(args.trace_out).write_text(tracer.to_jsonl() + "\n")
    outcomes = report.results + report.failures
    if args.json:
        print(render_results(outcomes, style="json"), file=out)
        return 0
    print("five-step process:", file=out)
    for step in report.steps:
        print(f"  {step.step:22s} {step.elapsed_seconds * 1e3:10.2f} ms",
              file=out)
    cache_stats = report.step("execution").detail["dataset_cache"]
    print(f"dataset cache: {cache_stats['hits']} hits, "
          f"{cache_stats['misses']} misses", file=out)
    metric_names = (
        (repository or builtin_repository()).get(args.prescription)
        .metric_names
        or ["duration", "throughput"]
    )
    store_dir = resolve_store_dir(spec.store_dir)
    if args.history:
        print(
            render_results(
                outcomes,
                style="history",
                metrics=metric_names,
                store=RunStore(store_dir),
                baseline=args.baseline,
            ),
            file=out,
        )
    else:
        print(render_results(outcomes, metrics=metric_names), file=out)
    if report.record_ids:
        print(
            f"recorded {len(report.record_ids)} run(s) to {store_dir}: "
            + ", ".join(report.record_ids),
            file=out,
        )
    if report.failures:
        print(f"failures: {len(report.failures)} task(s) failed "
              f"(on-error=continue kept the run going)", file=out)
    if args.trace:
        print("\nspan tree:", file=out)
        print(render_trace(tracer.roots()), file=out)
    return 0


def _generate(args, out) -> int:
    from repro.core import registry
    from repro.datagen.formats import convert
    from repro.datagen.models import PROCESS_MODELS

    if args.sample < 0:
        raise SpecError(f"--sample must be non-negative, got {args.sample}")
    generator = registry.generators.create(args.generator)
    generator.seed = args.seed
    generator = PROCESS_MODELS.fitted(generator, args.fit_on or None)
    dataset = generator.generate(args.volume)
    print(f"generated {dataset.num_records} records "
          f"({dataset.data_type.label}, ~{dataset.estimated_bytes()} bytes)",
          file=out)
    if args.format_name:
        payload = convert(dataset, args.format_name).payload
        if isinstance(payload, Mapping):
            payload = payload.items()
        for line in islice(payload, args.sample):
            print(f"  {line}", file=out)
    else:
        for record in dataset.head(args.sample):
            print(f"  {record!r}", file=out)
    return 0


def _tables(args, out) -> int:
    from repro.execution.report import ascii_table
    from repro.suites import (
        generate_table1,
        generate_table2,
        table1_matches_paper,
        table2_matches_paper,
    )

    print("Table 1 — data generation techniques:", file=out)
    print(
        ascii_table(
            [
                {"Benchmark": row.benchmark, "Volume": row.volume,
                 "Velocity": row.velocity, "Variety": row.variety,
                 "Veracity": row.veracity}
                for row in generate_table1()
            ]
        ),
        file=out,
    )
    ok1, _ = table1_matches_paper()
    print(f"matches the paper: {'yes' if ok1 else 'NO'}", file=out)

    print("\nTable 2 — benchmarking techniques:", file=out)
    print(
        ascii_table(
            [
                {"Benchmark": row.benchmark, "Type": row.workload_type,
                 "Examples": row.examples[:50], "Stacks": row.software_stacks}
                for row in generate_table2()
            ]
        ),
        file=out,
    )
    ok2, _ = table2_matches_paper()
    print(f"matches the paper: {'yes' if ok2 else 'NO'}", file=out)
    return 0 if ok1 and ok2 else 1


def _miniature(args, out) -> int:
    from repro.execution.report import ascii_table
    from repro.suites import run_miniature

    report = run_miniature(args.suite, scale=args.scale)
    print(f"{report.suite}: {report.notes}", file=out)
    print(
        ascii_table(
            [
                {"workload": name, "duration_s": seconds}
                for name, seconds in sorted(report.summary().items())
            ]
        ),
        file=out,
    )
    return 0


def _runs_show(args, out) -> int:
    from repro.execution.report import ascii_table, format_value

    record = _open_store(args).get(args.record)
    print(f"record:      {record.record_id}", file=out)
    print(f"series:      {record.series}", file=out)
    print(f"created:     {record.created_at}", file=out)
    print(f"status:      {record.status}", file=out)
    for section in ("fingerprint", "environment"):
        payload = getattr(record, section)
        pairs = ", ".join(
            f"{key}={format_value(value)}"
            for key, value in payload.items()
            if value not in (None, {}, [])
        )
        print(f"{section + ':':12s} {pairs}", file=out)
    if record.ok:
        from repro.core.results import MetricStats

        print(
            ascii_table(
                [
                    {
                        "metric": name,
                        "mean": stats.mean,
                        "p50": stats.p50,
                        "p95": stats.p95,
                        "p99": stats.p99,
                        "stdev": stats.stdev,
                        "n": len(stats.samples),
                    }
                    for name, stats in (
                        (name, MetricStats(name, samples))
                        for name, samples in record.metrics.items()
                    )
                ]
            ),
            file=out,
        )
    else:
        error = record.result.get("error_type", "")
        message = record.result.get("error_message", "")
        print(f"error:       {error}: {message}", file=out)
    return 0


def _runs_list(args, out) -> int:
    from repro.execution.report import ascii_table

    store = _open_store(args)
    records = store.records()
    if args.series:
        records = [r for r in records if r.series.startswith(args.series)]
    if args.latest:
        if not records:
            print("error: run store has no records", file=sys.stderr)
            return 2
        print(records[-1].record_id, file=out)
        return 0
    if not records:
        print(f"(no recorded runs under {store.path})", file=out)
        return 0
    print(
        ascii_table(
            [
                {
                    "id": record.record_id,
                    "created": record.created_at,
                    "test": record.test_name,
                    "engine": record.engine,
                    "status": record.status,
                    "series": record.series,
                    "git": record.environment.get("git_sha") or "-",
                }
                for record in records
            ]
        ),
        file=out,
    )
    return 0


def _render_comparison(comparison, out) -> None:
    from repro.execution.report import ascii_table

    rows = []
    for metric in comparison.metrics.values():
        ci = (
            f"[{metric.ci_low:+.3f}, {metric.ci_high:+.3f}]"
            if metric.ci_low is not None
            else "n/a (n<2)"
        )
        rows.append(
            {
                "metric": metric.metric,
                "better": metric.direction,
                "baseline": metric.baseline_mean,
                "candidate": metric.candidate_mean,
                "Δ": f"{metric.relative_delta:+.1%}",
                "95% CI": ci,
                "p": metric.p_value if metric.p_value is not None else "n/a",
                "verdict": metric.verdict,
            }
        )
    print(ascii_table(rows), file=out)
    print(
        f"overall: {comparison.overall} "
        f"({comparison.baseline} → {comparison.candidate})",
        file=out,
    )


def _compare(args, out) -> int:
    from repro import api

    comparison = api.compare(
        args.baseline,
        args.candidate,
        store_dir=args.store_dir,
        metrics=args.metric or None,
        **_given(args, "tolerance"),
    )
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=2), file=out)
    else:
        _render_comparison(comparison, out)
    return 0


def _gate(args, out) -> int:
    from repro import api

    report = api.gate(
        args.baseline,
        args.candidate,
        store_dir=args.store_dir,
        metrics=args.metric or None,
        fail_on_inconclusive=args.fail_on_inconclusive,
        **_given(args, "tolerance"),
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2), file=out)
        return report.exit_code
    if report.comparison is not None:
        _render_comparison(report.comparison, out)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gate: {verdict} — baseline {report.baseline_name} "
        f"({report.baseline_id}) vs candidate {report.candidate_id}",
        file=out,
    )
    for reason in report.reasons:
        print(f"  - {reason}", file=out)
    return report.exit_code


def _baseline_promote(args, out) -> int:
    from repro.analysis.baselines import BaselineManager

    baseline = BaselineManager(_open_store(args)).promote(
        args.record, args.name
    )
    print(
        f"promoted {baseline.record_id} to baseline "
        f"{baseline.name!r} (series {baseline.series})",
        file=out,
    )
    return 0


def _baseline_remove(args, out) -> int:
    from repro.analysis.baselines import BaselineManager

    BaselineManager(_open_store(args)).remove(args.name)
    print(f"removed baseline {args.name!r}", file=out)
    return 0


def _baseline_list(args, out) -> int:
    from repro.analysis.baselines import BaselineManager
    from repro.execution.report import ascii_table

    baselines = BaselineManager(_open_store(args)).all()
    if not baselines:
        print("(no baselines promoted)", file=out)
        return 0
    print(
        ascii_table(
            [
                {
                    "name": baseline.name,
                    "record": baseline.record_id,
                    "series": baseline.series,
                    "promoted": baseline.promoted_at,
                }
                for baseline in baselines.values()
            ]
        ),
        file=out,
    )
    return 0


def _export(args, out) -> int:
    from repro.core.prescription import builtin_repository
    from repro.core.serialization import repository_to_json

    repository = builtin_repository()
    Path(args.path).write_text(repository_to_json(repository))
    print(f"wrote {len(repository)} prescriptions to {args.path}", file=out)
    return 0


def _print_job_summary(jobs, out) -> None:
    from repro.execution.report import ascii_table

    print(
        ascii_table(
            [
                {
                    "job": job.job_id,
                    "state": job.state,
                    "client": job.client,
                    "prescription": job.spec.prescription,
                    "wait_s": (
                        f"{job.queue_wait_seconds():.3f}"
                        if job.queue_wait_seconds() is not None
                        else "-"
                    ),
                    "records": ",".join(job.record_ids) or "-",
                    "failures": job.failure_count,
                }
                for job in jobs
            ]
        ),
        file=out,
    )


def _submit(args, out) -> int:
    from repro.api import ServiceClient
    from repro.execution.report import render_results

    with ServiceClient(
        schedulers=args.schedulers, store_dir=args.store_dir
    ) as service:
        handle = service.submit(
            _spec(args, record=args.record), client=args.client_name,
            priority=args.priority,
        )
        # Status chatter must not corrupt machine output: stdout is
        # reserved for the JSON document under --json.
        print(f"submitted {handle.job_id}",
              file=sys.stderr if args.json else out)
        job = handle.wait()
    if job.state != "done":
        print(
            f"job {job.job_id} {job.state}"
            + (
                f": {job.error_type}: {job.error_message}"
                if job.error_type
                else ""
            ),
            file=out,
        )
        return 1
    if args.json:
        print(render_results(job.outcomes, style="json"), file=out)
    else:
        print(render_results(job.outcomes), file=out)
        _print_job_summary([job], out)
    return 0


def _ablate(args, out) -> int:
    from repro import api
    from repro.tuning import render_ablation

    metrics = list(args.metric) or None
    report = api.ablate(
        args.workloads,
        args.engines,
        repeats=args.repeats,
        volume=args.volume,
        seed=args.seed,
        params=_parse_params(args.param),
        layout=args.layout,
        executor=args.executor,
        max_workers=args.workers,
        chunk_size=args.chunk_size,
        include_one_offs=not args.no_one_offs,
        metrics=metrics,
        store_dir=args.store_dir,
        service=args.service,
        schedulers=args.schedulers,
        **_given(args, "tolerance", "alpha"),
    )
    print(render_ablation(report, style=args.style, metrics=metrics),
          file=out)
    return 0


def _load(args, out) -> int:
    from repro import api

    report = api.load(
        args.prescription,
        arrival=args.arrival,
        rate=args.rate,
        duration=args.duration,
        sessions=args.sessions,
        think_time=args.think_time,
        seed=args.seed,
        clock=args.clock,
        concurrency=args.concurrency,
        queue_capacity=args.queue_capacity,
        engine=args.engine,
        volume=args.volume,
        params=_parse_params(args.param),
        layout=args.layout,
        service=args.service,
        schedulers=args.schedulers,
        mean_service=args.mean_service,
        service_distribution=args.service_distribution,
        slo=api.SLOPolicy(
            min_rate_fraction=args.slo_min_rate,
            p50_budget=args.slo_p50,
            p95_budget=args.slo_p95,
            p99_budget=args.slo_p99,
            max_shed_fraction=args.slo_max_shed,
            max_error_fraction=args.slo_max_errors,
        ),
        record=args.record,
        store_dir=args.store_dir,
        **_given(args, "burst_factor", "period", "amplitude"),
    )
    verdict = report.verdict
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True),
              file=out)
        return 0 if verdict.passed else 1
    shape = (
        f"{report.plan.sessions} sessions (closed loop)"
        if report.plan.mode == "closed"
        else f"{report.plan.arrival} @ {report.plan.rate:g} req/s"
    )
    print(
        f"load: {shape} for {report.plan.duration:g}s against "
        f"{report.target_name} [{report.clock} clock, "
        f"concurrency {report.concurrency}, seed {report.plan.seed}]",
        file=out,
    )
    print(
        f"  offered {report.offered} ({report.offered_rate:.4g}/s)  "
        f"completed {report.completed} ({report.achieved_rate:.4g}/s)  "
        f"shed {report.shed} ({report.shed_fraction:.1%})  "
        f"errors {report.errors} ({report.error_fraction:.1%})",
        file=out,
    )
    if report.latencies:
        stats = report.latency_stats()
        print(
            f"  latency p50 {stats.p50 * 1e3:.3g}ms  "
            f"p95 {stats.p95 * 1e3:.3g}ms  "
            f"p99 {stats.p99 * 1e3:.3g}ms  "
            f"max {stats.maximum * 1e3:.3g}ms  "
            f"queue depth max {report.queue_depth_max}",
            file=out,
        )
    else:
        print("  no completed requests (no latency samples)", file=out)
    print(f"SLO: {'PASS' if verdict.passed else 'FAIL'}", file=out)
    for check in verdict.checks:
        print(f"  {check.describe()}", file=out)
    if report.record_id is not None:
        print(f"recorded {report.record_id}", file=out)
    return 0 if verdict.passed else 1


def _serve(args, out) -> int:
    import dataclasses

    from repro.api import BenchmarkSpec, ServiceClient

    payloads = json.loads(Path(args.spec_file).read_text())
    if isinstance(payloads, dict):
        payloads = [payloads]
    specs = [BenchmarkSpec.from_dict(payload) for payload in payloads]
    # The shared flags act as batch-wide overrides on top of whatever
    # each payload says (the executor default can't be distinguished
    # from an explicit "serial", so only a non-default value overrides).
    overrides = {}
    if args.record:
        overrides["record"] = True
    if args.workers is not None:
        overrides["max_workers"] = args.workers
    if args.executor != "serial":
        overrides["executor"] = args.executor
    if overrides:
        specs = [
            dataclasses.replace(spec, **overrides) for spec in specs
        ]

    def _echo(event) -> None:
        if not args.quiet:
            print(f"  [{event.at:.3f}] {event.job_id} -> {event.state}",
                  file=out)

    with ServiceClient(
        schedulers=args.schedulers, store_dir=args.store_dir
    ) as service:
        service.subscribe(_echo)
        handles = [
            service.submit(spec, client=args.client_name)
            for spec in specs
        ]
        print(f"submitted {len(handles)} job(s) "
              f"({args.schedulers} scheduler(s))", file=out)
        jobs = [handle.wait() for handle in handles]
    _print_job_summary(jobs, out)
    done = sum(1 for job in jobs if job.state == "done")
    print(f"{done}/{len(jobs)} job(s) done", file=out)
    return 0 if done == len(jobs) else 1


def _jobs_list(args, out) -> int:
    log = _job_log(args)
    jobs = list(log.replay().values())
    if args.state:
        jobs = [job for job in jobs if job.state == args.state]
    if not jobs:
        print(f"(no jobs logged under {log.path})", file=out)
        return 0
    _print_job_summary(jobs, out)
    return 0


def _jobs_cancel(args, out) -> int:
    job = _job_log(args).cancel(
        args.job, reason="cancelled offline via CLI"
    )
    print(f"cancelled {job.job_id} (log updated)", file=out)
    return 0


def _jobs_show(args, out) -> int:
    import time as time_module

    job = _job_log(args).get(args.job)
    print(f"job:         {job.job_id}", file=out)
    print(f"state:       {job.state}", file=out)
    print(f"client:      {job.client} (priority {job.priority})", file=out)
    print(f"spec:        {job.spec.prescription} "
          f"engines={job.spec.engines or 'all'} "
          f"volume={job.spec.volume} repeats={job.spec.repeats} "
          f"executor={job.spec.executor}", file=out)
    print(f"queue depth: {job.queue_depth_at_submit} at submit", file=out)
    print("history:", file=out)
    for state, at in job.history:
        stamp = time_module.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time_module.gmtime(at)
        )
        print(f"  {stamp}  {state}", file=out)
    if job.error_type:
        print(f"error:       {job.error_type}: {job.error_message}",
              file=out)
    if job.record_ids:
        print(f"records:     {', '.join(job.record_ids)}", file=out)
    if job.failure_count:
        print(f"failures:    {job.failure_count} captured task "
              f"failure(s)", file=out)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
