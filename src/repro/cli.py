"""Command-line interface: ``python -m repro <command> ...``.

Gives the library's main workflows a shell entry point, mirroring how the
paper's Netbench artifact is driven from configs:

* ``topology``   — build a topology and print its structural properties;
* ``throughput`` — fluid-flow skew sweep (the Fig 5/6 engine);
* ``simulate``   — packet-level experiment with a chosen workload/routing;
* ``sweep``      — parallel, cached experiment sweep from a JSON spec file;
* ``profile``    — run a sweep in-process under observability and print
  the per-stage span/counter breakdown (trace + manifest on disk);
* ``resilience`` — failure campaign from a JSON file: throughput
  retained vs. fraction failed across topologies (x routings);
* ``design``     — inverse design: cheapest topology meeting a
  declarative SLO target (see ``docs/design.md``);
* ``cost``       — Table 1 port costs and a topology's port cost;
* ``cabling``    — Fig 3-style cabling/bundling report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import registry
from .analysis import format_number, format_series, format_table
from .cost import (
    FIREFLY_PORT,
    PROJECTOR_PORT_HIGH,
    PROJECTOR_PORT_LOW,
    STATIC_PORT,
    delta_ratio,
    topology_port_cost,
)
from .topologies import fattree_cabling, flat_cabling, xpander_cabling

__all__ = ["main"]

#: Which CLI flags feed each topology family's registry factory.
_FAMILY_ARGS = {
    "fattree": ("k", "core_fraction", "servers"),
    "jellyfish": ("switches", "degree", "servers", "seed"),
    "xpander": ("degree", "lift", "servers", "seed"),
    "slimfly": ("q", "servers"),
    "longhop": ("n", "degree", "servers"),
}


def _topology_from_args(kind: str, args: argparse.Namespace):
    """Registry-built ``(Topology, raw_or_None)`` from parsed CLI flags."""
    names = _FAMILY_ARGS.get(kind)
    if names is None:
        raise ValueError(
            f"unknown topology kind {kind!r}; valid choices: "
            + ", ".join(sorted(_FAMILY_ARGS))
        )
    params = {name: getattr(args, name) for name in names}
    if params.get("servers") == 0:
        del params["servers"]  # family default
    return registry.build_topology({"family": kind, **params})


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "kind",
        choices=list(registry.TOPOLOGIES.available()),
        help="topology family",
    )
    p.add_argument("--k", type=int, default=8, help="fat-tree arity")
    p.add_argument(
        "--core-fraction",
        type=float,
        default=1.0,
        help="fat-tree core fraction (oversubscription)",
    )
    p.add_argument("--switches", type=int, default=32, help="jellyfish switches")
    p.add_argument(
        "--degree", type=int, default=6, help="network degree (jellyfish/xpander/longhop)"
    )
    p.add_argument("--lift", type=int, default=8, help="xpander lift size")
    p.add_argument("--q", type=int, default=5, help="slimfly prime (q = 1 mod 4)")
    p.add_argument("--n", type=int, default=5, help="longhop log2 switch count")
    p.add_argument(
        "--servers", type=int, default=0, help="servers per switch (0 = family default)"
    )
    p.add_argument("--seed", type=int, default=0, help="construction seed")
    p.add_argument(
        "--failure",
        default="",
        help=(
            "degrade the topology first: a failure spec like "
            "'links:fraction=0.08,seed=3' or 'pods:count=1' "
            "(modes: links, switches, pods, aggregation, metanodes, "
            "bisection); append lcc=true to keep only the largest "
            "surviving component"
        ),
    )


def _maybe_degrade(topo, args: argparse.Namespace):
    """Apply the --failure spec (if any) to a freshly built topology."""
    failure = getattr(args, "failure", "")
    if not failure:
        return topo
    return topo.degrade(failure)


def _build_degraded(command: str, kind: str, args: argparse.Namespace):
    """Build and degrade the requested topology, or ``None`` after reporting.

    Bad family names, bad construction parameters, and bad ``--failure``
    specs all surface as ``ValueError`` from the registry; report them on
    stderr and let the handler exit 2 (usage error) instead of leaking a
    traceback.
    """
    try:
        topo, raw = _topology_from_args(kind, args)
        return _maybe_degrade(topo, args), raw
    except ValueError as exc:
        sys.stderr.write(f"{command}: {exc}\n")
        return None


def _default_servers(kind: str, args: argparse.Namespace) -> None:
    if args.servers == 0:
        args.servers = {"fattree": 0}.get(kind, 4)


def _cmd_topology(args: argparse.Namespace) -> int:
    _default_servers(args.kind, args)
    built = _build_degraded("topology", args.kind, args)
    if built is None:
        return 2
    topo, _ = built
    connected = topo.is_connected()
    rows = [
        ["name", topo.name],
        ["switches", topo.num_switches],
        ["links", topo.num_links],
        ["servers", topo.num_servers],
        ["connected", connected],
        ["diameter", topo.diameter() if connected else "-"],
        [
            "avg shortest path",
            round(topo.average_shortest_path_length(), 4) if connected else "-",
        ],
        ["total ports", topo.total_ports()],
    ]
    if getattr(args, "failure", ""):
        rows += [
            ["failed links", len(topo.failed_links)],
            ["failed switches", len(topo.failed_switches)],
            ["connectivity", round(topo.connectivity(), 4)],
        ]
    print(format_table(["property", "value"], rows))
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from .throughput import skew_sweep

    _default_servers(args.kind, args)
    built = _build_degraded("throughput", args.kind, args)
    if built is None:
        return 2
    topo, _ = built
    fractions = [float(x) for x in args.fractions.split(",")]
    result = skew_sweep(
        topo,
        fractions,
        solver=args.solver,
        k_paths=args.k_paths,
        seed=args.seed,
    )
    print(
        format_series(
            "fraction",
            result.fractions,
            {topo.name: result.throughput},
            title="Per-server throughput under longest-matching TMs",
        )
    )
    if not result.ok:
        bad = sorted(set(s for s in result.statuses if s != "optimal"))
        sys.stderr.write(
            f"throughput: solver {args.solver} reported non-optimal "
            f"solves ({', '.join(bad)}); nan entries above\n"
        )
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import NetworkParams, run_packet_experiment
    from .traffic import PoissonArrivals, Workload, pareto_hull, pfabric_web_search

    _default_servers(args.kind, args)
    built = _build_degraded("simulate", args.kind, args)
    if built is None:
        return 2
    topo, _ = built
    if args.pattern == "skew":
        pattern_spec = {"pattern": "skew", "theta": 0.1, "phi": 0.77,
                        "seed": args.seed}
    else:
        pattern_spec = {"pattern": args.pattern, "fraction": args.fraction,
                        "seed": args.seed}
    pairs = registry.traffic(pattern_spec, topo)
    sizes = (
        pfabric_web_search(args.mean_flow_bytes)
        if args.sizes == "pfabric"
        else pareto_hull(args.mean_flow_bytes)
    )
    workload = Workload(pairs, sizes, PoissonArrivals(args.rate), seed=args.seed)
    stats = run_packet_experiment(
        topo,
        workload,
        routing=args.routing,
        measure_start=args.measure_start,
        measure_end=args.measure_end,
        network_params=NetworkParams(link_rate_bps=args.link_gbps * 1e9),
        seed=args.seed,
    )
    summary = stats.summary()
    print(
        format_table(
            ["metric", "value"],
            [[k, round(v, 4) if isinstance(v, float) else v] for k, v in summary.items()],
            title=f"{topo.name} / {args.routing} / {args.pattern}({args.fraction})",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .harness import (
        ResultCache,
        ResultsStore,
        Runner,
        SpecError,
        load_sweep_file,
    )

    try:
        specs = load_sweep_file(args.spec)
    except (OSError, json.JSONDecodeError, SpecError) as exc:
        sys.stderr.write(f"sweep: cannot load {args.spec}: {exc}\n")
        return 2
    if args.resume and args.no_cache:
        sys.stderr.write(
            "sweep: --resume reads the result cache and cannot be combined "
            "with --no-cache\n"
        )
        return 2
    if args.shard:
        from .harness import ShardSpec, select_shard

        try:
            shard = ShardSpec.parse(args.shard)
        except SpecError as exc:
            sys.stderr.write(f"sweep: bad --shard: {exc}\n")
            return 2
        total = len(specs)
        specs = select_shard(specs, shard)
        sys.stderr.write(
            f"sweep: shard {shard} runs {len(specs)} of {total} points\n"
        )
        if not specs:
            print(f"Shard {shard} is empty: nothing to run.")
            return 0
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = ResultsStore(args.results) if args.results else None

    skipped = 0
    if args.resume:
        # Pre-filter completed points so an interrupted sweep restarts
        # with only the remaining work (cache hits would be skipped
        # anyway, but resume reports them up front and avoids
        # re-submitting them at all).
        remaining = [s for s in specs if cache.get(s) is None]
        skipped = len(specs) - len(remaining)
        sys.stderr.write(
            f"sweep: resume skipped {skipped}/{len(specs)} "
            "already-completed points\n"
        )
        specs = remaining
        if not specs:
            print(f"Sweep already complete: all {skipped} points cached.")
            return 0

    def show_progress(p: dict) -> None:
        sys.stderr.write(
            f"\rsweep: {p['done']}/{p['total']} done "
            f"({p['ok']} ok, {p['cached']} cached, {p['failed']} failed), "
            f"{p['running']} running"
        )
        sys.stderr.flush()

    runner = Runner(
        jobs=args.jobs or None,
        cache=cache,
        store=store,
        timeout_s=args.timeout or None,
        retries=args.retries,
        progress=None if args.quiet else show_progress,
    )
    result = runner.run(specs)
    if not args.quiet:
        sys.stderr.write("\n")
    rows = []
    for record in result.records:
        headline = ("avg_fct_ms", "per_server_throughput")
        key_metric = next(
            (
                (k, record.metrics[k])
                for k in (*headline, *sorted(record.metrics))
                if k in record.metrics
            ),
            ("-", float("nan")),
        )
        rows.append([
            record.name,
            record.spec["engine"],
            record.status + (" (cached)" if record.cached else ""),
            record.attempts,
            round(record.wall_clock_s, 2),
            f"{key_metric[0]}={format_number(key_metric[1])}"
            if record.ok
            else (record.error or ""),
        ])
    counts = result.counts
    print(
        format_table(
            ["point", "engine", "status", "attempts", "wall (s)", "result"],
            rows,
            title=(
                f"Sweep of {counts['total']} points: {counts['ok']} computed, "
                f"{counts['cached']} cached, {counts['failed']} failed "
                f"in {result.wall_clock_s:.1f}s"
                + (f" ({skipped} skipped by --resume)" if skipped else "")
            ),
        )
    )
    return 0 if result.ok else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    import json

    from .harness import SpecError, load_sweep_file
    from .harness.shard import merge_stores

    specs = None
    if args.spec:
        try:
            specs = load_sweep_file(args.spec)
        except (OSError, json.JSONDecodeError, SpecError) as exc:
            sys.stderr.write(f"merge: cannot load {args.spec}: {exc}\n")
            return 2
    try:
        merged = merge_stores(args.inputs, args.output, specs=specs)
    except (OSError, json.JSONDecodeError, SpecError, ValueError) as exc:
        sys.stderr.write(f"merge: {exc}\n")
        return 2
    print(
        f"Merged {len(merged.inputs)} stores -> {merged.path}: "
        f"{merged.records} records "
        f"({merged.duplicates} duplicates dropped, {merged.failed} failed)"
    )
    return 0 if merged.failed == 0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from . import obs
    from .harness import Runner, SpecError, load_sweep_file
    from .obs import load_manifest, render_profile

    try:
        specs = load_sweep_file(args.spec)
    except (OSError, json.JSONDecodeError, SpecError) as exc:
        sys.stderr.write(f"profile: cannot load {args.spec}: {exc}\n")
        return 2
    if obs.enabled():
        sys.stderr.write("profile: an observability run is already active\n")
        return 2
    run_dir = args.run_dir
    if not run_dir:
        run_dir = os.path.join(
            ".repro-obs", time.strftime("%Y%m%dT%H%M%S")
        )
    obs.enable(
        run_dir=run_dir,
        meta={"sweep_file": args.spec, "points": len(specs)},
    )
    try:
        # Inline execution keeps every point's spans (engine, flowsim,
        # LP, pathcache) on this process's run; a worker pool would lose
        # them with the workers.
        runner = Runner(inline=True, retries=args.retries)
        result = runner.run(specs)
    finally:
        manifest_path = obs.disable()
    try:
        manifest = load_manifest(manifest_path)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"profile: invalid manifest: {exc}\n")
        return 1
    print(render_profile(manifest))
    print(f"\ntrace: {os.path.join(run_dir, 'trace.jsonl')}")
    print(f"manifest: {manifest_path}")
    if not result.ok:
        for record in result.records:
            if not record.ok:
                sys.stderr.write(
                    f"profile: point {record.name} failed: {record.error}\n"
                )
        return 1
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    import json
    import os

    from .harness import ResultCache, Runner
    from .resilience import CampaignError, load_campaign_file, run_campaign

    try:
        campaign = load_campaign_file(args.campaign)
    except (OSError, json.JSONDecodeError, CampaignError) as exc:
        sys.stderr.write(f"resilience: cannot load {args.campaign}: {exc}\n")
        return 2

    manifest_path = ""
    if args.run_dir:
        from . import obs

        if obs.enabled():
            sys.stderr.write(
                "resilience: an observability run is already active\n"
            )
            return 2
        obs.enable(
            run_dir=args.run_dir,
            meta={"campaign_file": args.campaign, "campaign": campaign.name},
        )
        # Inline execution keeps the campaign's spans/gauges on this
        # process's obs run (workers would take theirs with them).
        runner = Runner(inline=True, retries=args.retries)
    else:

        def show_progress(p: dict) -> None:
            sys.stderr.write(
                f"\rresilience: {p['done']}/{p['total']} done "
                f"({p['ok']} ok, {p['cached']} cached, "
                f"{p['failed']} failed), {p['running']} running"
            )
            sys.stderr.flush()

        runner = Runner(
            jobs=args.jobs or None,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            timeout_s=args.timeout or None,
            retries=args.retries,
            progress=None if args.quiet else show_progress,
        )
    try:
        result = run_campaign(campaign, runner)
    finally:
        if args.run_dir:
            from . import obs

            manifest_path = obs.disable()
    if not args.quiet and not args.run_dir:
        sys.stderr.write("\n")

    print(result.render())
    counts = result.counts
    print(
        f"\n{counts['total']} points: {counts['ok']} computed, "
        f"{counts['cached']} cached, {counts['failed']} failed "
        f"in {result.wall_clock_s:.1f}s"
    )
    for record in result.records:
        if not record.ok:
            sys.stderr.write(
                f"resilience: point {record.name} failed: {record.error}\n"
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result.to_payload(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"series: {args.out}")
    if manifest_path:
        print(f"trace: {os.path.join(args.run_dir, 'trace.jsonl')}")
        print(f"manifest: {manifest_path}")
    return 0 if result.ok else 1


def _cmd_design(args: argparse.Namespace) -> int:
    import json

    from .design import DesignError, DesignTarget, design_search

    try:
        with open(args.target) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"design: cannot load {args.target}: {exc}\n")
        return 2
    try:
        target = DesignTarget.from_dict(doc)
        if args.no_sensitivity:
            target = target.replace(sensitivity=False)
        report = design_search(target)
    except DesignError as exc:
        sys.stderr.write(f"design: {exc}\n")
        return 2
    print(report.render())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report: {args.out}")
    if not report.feasible:
        sys.stderr.write(
            "design: no enumerated candidate meets the target "
            "(see the pruned/evaluated tables above)\n"
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import serve_forever

    serve_forever(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir or None,
        quiet=args.quiet,
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    rows = [
        [p.name, round(p.total, 2), round(delta_ratio(p), 3)]
        for p in (STATIC_PORT, FIREFLY_PORT, PROJECTOR_PORT_LOW, PROJECTOR_PORT_HIGH)
    ]
    print(
        format_table(
            ["port type", "cost ($)", "delta vs static"],
            rows,
            title="Table 1 per-port costs",
        )
    )
    if args.kind:
        _default_servers(args.kind, args)
        built = _build_degraded("cost", args.kind, args)
        if built is None:
            return 2
        topo, _ = built
        print(f"\n{topo.name}: total port cost ${topology_port_cost(topo):,.0f}")
    return 0


def _cmd_cabling(args: argparse.Namespace) -> int:
    _default_servers(args.kind, args)
    built = _build_degraded("cabling", args.kind, args)
    if built is None:
        return 2
    topo, ft = built
    if args.kind == "xpander":
        report = xpander_cabling(topo)
    elif args.kind == "fattree":
        report = fattree_cabling(ft)
    else:
        report = flat_cabling(topo)
    rows = [
        ["cables", report.num_cables],
        ["bundles", report.num_bundles],
        ["cables per bundle", round(report.cables_per_bundle, 2)],
        ["total fiber (m)", round(report.total_length_m, 1)],
        ["bundled fraction", round(report.bundled_fraction, 3)],
        ["fiber cost ($, bundling discount)", round(report.fiber_cost(), 2)],
    ]
    print(format_table(["property", "value"], rows, title=f"Cabling: {topo.name}"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="build and describe a topology")
    _add_topology_args(p)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("throughput", help="fluid-flow skew sweep")
    _add_topology_args(p)
    p.add_argument("--fractions", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument(
        "--solver",
        choices=sorted(registry.SOLVERS.available()),
        default=registry.DEFAULT_SOLVER,
        help="throughput solver backend (see docs/solvers.md)",
    )
    p.add_argument("--k-paths", type=int, default=8)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("simulate", help="packet-level experiment")
    _add_topology_args(p)
    p.add_argument(
        "--routing",
        choices=list(registry.ROUTINGS.available()),
        default="hyb",
    )
    p.add_argument("--pattern", choices=["a2a", "permute", "skew"], default="permute")
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--sizes", choices=["pfabric", "hull"], default="pfabric")
    p.add_argument("--mean-flow-bytes", type=float, default=200_000)
    p.add_argument("--rate", type=float, default=2000.0, help="flow starts/s")
    p.add_argument("--link-gbps", type=float, default=1.0)
    p.add_argument("--measure-start", type=float, default=0.02)
    p.add_argument("--measure-end", type=float, default=0.06)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="parallel, cached experiment sweep from a JSON spec file",
    )
    p.add_argument("spec", help="sweep JSON (defaults/grid/points document)")
    p.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = auto)"
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache", help="result cache directory"
    )
    p.add_argument(
        "--no-cache", action="store_true", help="recompute every point"
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip points already in the cache; run only the remainder",
    )
    p.add_argument(
        "--results", default="", help="append RunRecords to this JSONL file"
    )
    p.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-point timeout in seconds (0 = unlimited)",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for failed/timed-out points",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress live progress output"
    )
    p.add_argument(
        "--shard", default="",
        help="run only shard i/N of the sweep (deterministic hash "
        "partition; e.g. --shard 0/3) and merge the JSONL outputs "
        "afterwards with `repro merge`",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "merge",
        help="merge sharded sweep JSONL results into one canonical store",
    )
    p.add_argument(
        "inputs", nargs="+", help="shard JSONL files (from sweep --results)"
    )
    p.add_argument(
        "-o", "--output", required=True, help="merged JSONL output path"
    )
    p.add_argument(
        "--spec", default="",
        help="sweep JSON the shards came from; orders the merged records "
        "in sweep-submission order (otherwise sorted by spec hash)",
    )
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser(
        "profile",
        help="run a sweep in-process under observability; print the breakdown",
    )
    p.add_argument("spec", help="sweep JSON (defaults/grid/points document)")
    p.add_argument(
        "--run-dir",
        default="",
        help="trace/manifest output directory (default: .repro-obs/<stamp>)",
    )
    p.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts for failed points",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "resilience",
        help="failure campaign: throughput retained vs. fraction failed",
    )
    p.add_argument(
        "campaign",
        help="campaign JSON (topologies/failures grid; see docs/resilience.md)",
    )
    p.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = auto)"
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache", help="result cache directory"
    )
    p.add_argument(
        "--no-cache", action="store_true", help="recompute every point"
    )
    p.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-point timeout in seconds (0 = unlimited)",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for failed/timed-out points",
    )
    p.add_argument(
        "--out", default="", help="write the retained-throughput series JSON here"
    )
    p.add_argument(
        "--run-dir",
        default="",
        help=(
            "run inline under observability, writing trace + manifest "
            "to this directory (disables the worker pool)"
        ),
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress live progress output"
    )
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "design",
        help="inverse design: cheapest topology meeting an SLO target",
    )
    p.add_argument(
        "target", help="design target JSON (see docs/design.md)"
    )
    p.add_argument(
        "--no-sensitivity", action="store_true",
        help="skip the tornado sensitivity pass",
    )
    p.add_argument(
        "--out", default="", help="write the full DesignReport JSON here"
    )
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser(
        "serve",
        help="long-lived topology-evaluation HTTP service (repro.api)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8070, help="bind port")
    p.add_argument(
        "--workers", type=int, default=4,
        help="max requests doing library work concurrently",
    )
    p.add_argument(
        "--cache-dir", default="",
        help="on-disk result cache for /simulate and /sweep "
        "(default: in-memory warm state only)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress the access log"
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("cost", help="Table 1 costs (+ optional topology cost)")
    p.add_argument("--kind", default="", help="optionally price a topology")
    _add_topology_args_optional(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("cabling", help="Fig 3-style cabling report")
    _add_topology_args(p)
    p.set_defaults(func=_cmd_cabling)

    args = parser.parse_args(argv)
    return args.func(args)


def _add_topology_args_optional(p: argparse.ArgumentParser) -> None:
    """Topology args without the positional kind (for `cost`)."""
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--core-fraction", type=float, default=1.0)
    p.add_argument("--switches", type=int, default=32)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--lift", type=int, default=8)
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--servers", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
