"""``repro campaign`` — the sweep engine.

``campaign list``
    Show the campaign catalog (every experiment id is one).
``campaign show E4 [--scale full] [--store results/store]``
    Describe a campaign's grid, trial count, spec key, and cache state.
``campaign run E4 [--scale] [--workers 8] [--store DIR] [--fresh]
[--csv out.csv]``
    Execute a campaign through the sweep engine — serially or on a
    process pool — replaying cached trials from the result store, then
    print its table and execution summary.  ``--queue DIR`` switches
    to elastic execution (enqueue chunk leases, join as one worker;
    see ``docs/SCALING.md``).
``campaign enqueue E4 --queue DIR [--scale] [--chunk-size 4]
[--store DIR]``
    Publish a campaign's pending chunks to a work-queue directory for
    detached workers.
``campaign worker --queue DIR --store DIR [--worker-id W]
[--lease-ttl 60] [--max-chunks N]``
    Drain a work queue: claim chunk leases (reclaiming stale ones),
    run trials, write this worker's store shard.

``campaign run --telemetry`` instruments every executed trial with the
metrics registry, prints the aggregated counters, and, with
``--store``, persists the byte-stable ``<spec_key>.telemetry.json``
sidecar; ``--progress`` prints live heartbeats (trials done, rolling
events/sec, ETA) to stderr.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.campaigns import available_campaigns, campaign_definition
from repro.cli.execution import (
    campaign_or_exit,
    execute_or_exit,
    execution_flags,
)
from repro.cli.shared import (
    backend_parent,
    execution_parent,
    output_or_exit,
    store_or_exit,
)


def _command_campaign_list(_args: argparse.Namespace) -> int:
    for name in available_campaigns():
        definition = campaign_definition(name)
        print(f"{name:<6} {definition.description}")
    return 0


def _command_campaign_show(args: argparse.Namespace) -> int:
    store = store_or_exit(args.store) if args.store else None
    definition = campaign_or_exit(args.campaign)
    spec = definition.spec()
    info = spec.describe(args.scale)
    print(f"campaign {info['name']} [{info['scale']}] — "
          f"{info['description']}")
    print(f"  seed       {info['seed']}")
    print(f"  spec key   {info['spec_key']}")
    measurement = info["measurement"]
    print(
        f"  measure    pulses={measurement['pulses']} "
        f"warmup={measurement['warmup']} "
        f"liveness={measurement['liveness']}"
    )
    for scenario in info["scenarios"]:
        print(f"  scenario   {scenario['builder']}: "
              f"{scenario['cases']} cases")
    print(f"  trials     {info['trials']}")
    if store is not None:
        cached = store.count(spec.spec_key(args.scale))
        print(f"  store      {cached}/{info['trials']} trials cached "
              f"in {args.store}")
    return 0


def _command_campaign_run(args: argparse.Namespace) -> int:
    from repro.build import resolve_backend
    from repro.campaigns.aggregate import (
        campaign_throughput,
        run_summary_table,
    )

    if args.queue and not args.store:
        raise SystemExit(
            "--queue requires --store: elastic workers coordinate "
            "through the shared result store"
        )
    if args.queue and args.fresh:
        raise SystemExit(
            "--fresh is incompatible with --queue (workers skip "
            "persisted case keys); clear the store instead"
        )
    if args.csv:
        output_or_exit(args.csv)
    flags = execution_flags(args, "queue", "worker_id", "lease_ttl")
    definition = campaign_or_exit(args.campaign)
    spec = definition.spec()
    if args.backend is not None:
        # Re-keying is deliberate: a backend override changes every
        # case/spec hash, so cached event-backend trials are never
        # replayed as vectorized ones (or vice versa).
        backend = resolve_backend(args.backend)
        if any(
            m.backend != backend for m in spec.measurements.values()
        ):
            spec = replace(
                spec,
                measurements={
                    scale: replace(m, backend=backend)
                    for scale, m in spec.measurements.items()
                },
            )
    run = execute_or_exit(
        spec, args.scale, telemetry=args.telemetry, **flags
    )
    store = flags["store"]
    table = definition.tabulate(run)
    print(table.render())
    print()
    print(run_summary_table(run).render())
    print(run.summary() + f" (workers={args.workers})")
    if args.perf:
        throughput = campaign_throughput(run)
        print(
            f"throughput: {throughput['events']} events in "
            f"{throughput['duration']:.2f}s across "
            f"{throughput['measured']} executed trials "
            f"({throughput['events_per_sec']:,.0f} events/sec, "
            f"peak RSS {throughput['peak_rss_kib']} KiB)"
        )
        if store is not None:
            path = store.write_summary(
                spec.spec_key(args.scale), throughput
            )
            print(f"wrote {path}")
    if args.telemetry:
        from repro.telemetry.campaign import (
            campaign_telemetry,
            render_campaign_telemetry,
        )

        payload = campaign_telemetry(run)
        print(render_campaign_telemetry(payload))
        if store is not None:
            path = store.write_summary(
                spec.spec_key(args.scale),
                payload,
                kind="telemetry",
            )
            print(f"wrote {path}")
    if args.csv:
        table.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0 if run.failed == 0 else 1


def _command_campaign_enqueue(args: argparse.Namespace) -> int:
    from repro.campaigns.queue import QueueError, WorkQueue

    definition = campaign_or_exit(args.campaign)
    spec = definition.spec()
    plans = spec.trials_for(args.scale)
    try:
        manifest = WorkQueue(args.queue).enqueue(
            spec,
            args.scale,
            plans=plans,
            chunk_size=args.chunk_size,
            store=store_or_exit(args.store) if args.store else None,
        )
    except (QueueError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"enqueued campaign {spec.name} [{args.scale}]: "
        f"{manifest['trials']}/{len(plans)} trials in "
        f"{manifest['chunks']} chunks at {args.queue}"
    )
    print(f"spec key {manifest['spec_key']}")
    print(
        f"start workers with: repro campaign worker "
        f"--queue {args.queue} --store DIR"
    )
    return 0


def _command_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaigns.queue import QueueError, run_worker

    store = store_or_exit(args.store)
    try:
        stats = run_worker(
            args.queue,
            store,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            poll=args.poll,
            max_chunks=args.max_chunks,
        )
    except (QueueError, KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"worker {stats['worker']}: {stats['chunks']} chunks — "
        f"{stats['trials']} trials executed, {stats['skipped']} "
        f"skipped (cached), {stats['reclaimed']} leases reclaimed"
    )
    return 0


def register_campaign(parser: argparse.ArgumentParser) -> None:
    campaign_sub = parser.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_sub.add_parser(
        "list", help="list the campaign catalog"
    ).set_defaults(handler=_command_campaign_list)

    show_parser = campaign_sub.add_parser(
        "show", help="describe a campaign's grid and cache state"
    )
    show_parser.add_argument("campaign", help="campaign id, e.g. E4")
    show_parser.add_argument("--scale", default="quick")
    show_parser.add_argument(
        "--store", help="result-store directory to inspect"
    )
    show_parser.set_defaults(handler=_command_campaign_show)

    campaign_run_parser = campaign_sub.add_parser(
        "run", help="execute a campaign through the sweep engine",
        parents=[backend_parent(), execution_parent()],
    )
    campaign_run_parser.add_argument("campaign", help="campaign id")
    campaign_run_parser.add_argument("--scale", default="quick")
    campaign_run_parser.add_argument(
        "--csv", help="also write the table as CSV"
    )
    campaign_run_parser.add_argument(
        "--perf", action="store_true",
        help="record per-case throughput (events/sec) and, with "
        "--store, persist it as <spec_key>.perf.json",
    )
    campaign_run_parser.add_argument(
        "--telemetry", action="store_true",
        help="instrument executed trials with the metrics registry and, "
        "with --store, persist <spec_key>.telemetry.json",
    )
    campaign_run_parser.add_argument(
        "--queue",
        help="run through a work-queue directory instead of a local "
        "pool: enqueue pending chunks there (unless already "
        "enqueued) and join as one worker alongside any external "
        "'repro campaign worker' processes (requires --store)",
    )
    campaign_run_parser.add_argument(
        "--worker-id", default=None,
        help="store shard / lease owner name for queue mode "
        "(default: host-pid)",
    )
    campaign_run_parser.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds without a heartbeat before a queue chunk lease "
        "is presumed dead and reclaimed (default 60)",
    )
    campaign_run_parser.set_defaults(handler=_command_campaign_run)

    enqueue_parser = campaign_sub.add_parser(
        "enqueue",
        help="publish a campaign's chunks to a work-queue directory",
    )
    enqueue_parser.add_argument("campaign", help="campaign id")
    enqueue_parser.add_argument("--scale", default="quick")
    enqueue_parser.add_argument(
        "--queue", required=True,
        help="work-queue directory (fresh per run; shared with every "
        "worker)",
    )
    enqueue_parser.add_argument(
        "--chunk-size", type=int, default=4,
        help="trials per chunk lease",
    )
    enqueue_parser.add_argument(
        "--store",
        help="result-store directory; already-cached trials are not "
        "enqueued",
    )
    enqueue_parser.set_defaults(handler=_command_campaign_enqueue)

    worker_parser = campaign_sub.add_parser(
        "worker",
        help="drain a work queue: claim chunk leases, run trials, "
        "write one store shard",
    )
    worker_parser.add_argument(
        "--queue", required=True, help="work-queue directory"
    )
    worker_parser.add_argument(
        "--store", required=True,
        help="shared result-store directory (this worker writes its "
        "own shard)",
    )
    worker_parser.add_argument(
        "--worker-id", default=None,
        help="shard / lease owner name (default: host-pid)",
    )
    worker_parser.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds without a heartbeat before another worker's "
        "lease is presumed dead and reclaimed (default 60)",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between queue scans while waiting on other "
        "workers' leases (default 0.5)",
    )
    worker_parser.add_argument(
        "--max-chunks", type=int, default=None,
        help="stop after completing this many chunks (default: drain "
        "the queue)",
    )
    worker_parser.set_defaults(handler=_command_campaign_worker)
