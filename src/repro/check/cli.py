"""The ``repro-check`` CLI: model-based verification from the shell.

``repro-check run`` replays one seeded workload two ways -- a
sequential differential pass (every response compared with the oracle
and across all transport/protocol configurations) and a concurrent
4-client sharded pass whose recorded history goes to the
linearizability checker -- and prints a per-configuration verdict with
the deterministic history digest.  By default each configuration also
runs pipelined (``--pipeline-depth`` commands in flight): the same
oracle replay with key-disjoint windows in flight, plus a pipelined
concurrent pass.  ``repro-check fuzz`` sweeps seeds,
shrinks any mismatch it finds, and writes JSON repro cases;
``repro-check shrink`` re-minimizes a previously dumped case.

Exit code 0 means every check passed; 1 means a mismatch, a
non-linearizable history, or a parser crash.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def _configs_by_name() -> dict:
    from repro.check.differential import CONFIGS

    return {name: (name, transport, binary) for name, transport, binary in CONFIGS}


def _select_configs(names: Optional[list[str]]) -> list:
    from repro.check.differential import CONFIGS

    if not names:
        return list(CONFIGS)
    table = _configs_by_name()
    missing = [n for n in names if n not in table]
    if missing:
        raise SystemExit(
            f"unknown config(s) {missing}; choose from {sorted(table)}"
        )
    return [table[n] for n in names]


def _cmd_run(args: argparse.Namespace) -> int:
    # Deferred: building clusters pulls in the whole simulator.
    from repro.check.differential import (
        PRESSURE_STORE_CONFIG,
        differential_run,
        generate_commands,
        replay_concurrent,
        replay_sequential,
    )

    configs = _select_configs(args.config)
    failed = False
    pressure = args.pressure
    store_config = PRESSURE_STORE_CONFIG if pressure else None

    commands = generate_commands(args.seed, args.sequential_ops, pressure=pressure)
    diff = differential_run(
        commands, seed=args.seed, configs=configs, store_config=store_config
    )
    status = "ok" if diff.ok else "MISMATCH"
    label = "pressure sequential" if pressure else "sequential"
    print(
        f"{label}: {len(commands)} commands x {len(configs)} configs "
        f"(seed {args.seed}): {status}"
    )
    if pressure:
        for replay in diff.replays:
            print(
                f"  {replay.config:<22} evictions {replay.evictions} "
                f"reclaimed {replay.reclaimed} oom {replay.oom_errors} "
                f"slab_moves {replay.slab_moves}"
            )
        print(f"  cross-config divergences tolerated: {len(diff.tolerated)}")
    if not diff.ok:
        failed = True
        for replay in diff.replays:
            for index, actual, expected in replay.mismatches[:5]:
                print(
                    f"  {replay.config} #{index}: client {actual!r}"
                    f" != oracle {expected!r}"
                )
        for a, b, index in diff.disagreements[:5]:
            print(f"  {a} vs {b}: first disagreement at #{index}")

    depth = args.pipeline_depth
    if depth > 1 and pressure:
        # A pipelined window has no per-op eviction drain point, so the
        # windowed replay refuses a pressure store; pressure pipelining
        # is covered by the concurrent pass below instead.
        print("pipelined: skipped under --pressure")
    elif depth > 1:
        print(
            f"pipelined: {len(commands)} commands x {len(configs)} configs "
            f"(depth {depth}, seed {args.seed})"
        )
        for config in configs:
            replay = replay_sequential(config, commands, seed=args.seed, depth=depth)
            verdict = "ok" if replay.ok else "MISMATCH"
            print(f"  {replay.config:<22} {verdict}")
            if not replay.ok:
                failed = True
                for index, actual, expected in replay.mismatches[:5]:
                    print(
                        f"    #{index}: client {actual!r} != oracle {expected!r}"
                    )

    print(
        f"concurrent: {args.clients} clients x {args.ops} ops over "
        f"{args.shards} shards (seed {args.seed}"
        + (", chaos)" if args.chaos else ")")
    )
    depths = [1] if depth <= 1 else [1, depth]
    for config in configs:
        for d in depths:
            result = replay_concurrent(
                config,
                seed=args.seed,
                n_clients=args.clients,
                n_servers=args.shards,
                n_ops=args.ops,
                chaos=args.chaos,
                pipeline_depth=d,
                store_config=store_config,
            )
            verdict = "linearizable" if result.ok else "NOT LINEARIZABLE"
            extra = (
                f"  evictions {result.evictions} oom {result.oom_errors} "
                f"evictable {len(result.check.evictable)}"
                if pressure
                else ""
            )
            print(
                f"  {result.config:<22} {result.n_records} ops "
                f"{verdict}  digest {result.digest[:16]}{extra}"
            )
            if not result.ok:
                failed = True
                for key, server, reason in result.check.failures[:3]:
                    print(f"    {reason}")
    return 1 if failed else 0


def _shrink_and_dump(
    path: str,
    commands: list,
    seed: int,
    names: list[str],
    mutation: Optional[str],
    pressure: bool,
) -> bool:
    """ddmin a failing case and dump it to *path*; False (and no dump)
    when the case does not fail.

    *names* is the failure: one config that disagrees with its oracle,
    or two configs whose replays disagree with each other.  The case
    shrinks on "this differential run over *names* still fails".
    """
    from repro.check.differential import (
        PRESSURE_STORE_CONFIG,
        differential_run,
        dump_mismatch,
        shrink_commands,
    )

    table = _configs_by_name()

    def run(sub):
        return differential_run(
            sub,
            seed=seed,
            configs=[table[name] for name in names],
            mutation=mutation,
            store_config=PRESSURE_STORE_CONFIG if pressure else None,
        )

    if run(commands).ok:
        return False
    small = shrink_commands(commands, lambda sub: not run(sub).ok)
    diff = run(small)
    bad = next((r for r in diff.replays if not r.ok), diff.replays[0])
    dump_mismatch(
        path,
        seed,
        bad.config,
        small,
        bad,
        mutation=mutation,
        pressure=pressure,
        disagreement=None if bad.mismatches else diff.disagreements[0],
    )
    print(f"  shrunk {len(commands)} -> {len(small)} commands; wrote {path}")
    for entry in small:
        print(f"    {_describe(entry)}")
    return True


def _describe(entry) -> str:
    """One line for a sequence entry: op, key, value length and a short
    prefix (a pressure value is ~124 KB; the dump holds it in full)."""
    if entry.op == "sleep":
        return f"sleep {entry.seconds}s"
    line = f"{entry.op} {entry.keys[0] if entry.keys else ''!r}"
    if entry.value:
        more = "..." if len(entry.value) > 16 else ""
        line += f" value[{len(entry.value)}]={entry.value[:16]!r}{more}"
    return line


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.differential import (
        PRESSURE_STORE_CONFIG,
        differential_run,
        fuzz_parsers,
        generate_commands,
    )

    configs = _select_configs(args.config)
    pressure = args.pressure
    store_config = PRESSURE_STORE_CONFIG if pressure else None
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        commands = generate_commands(
            seed, args.ops, pressure=pressure, zipf=args.zipf, lease=args.lease
        )
        diff = differential_run(
            commands,
            seed=seed,
            configs=configs,
            mutation=args.mutation,
            store_config=store_config,
        )
        if diff.ok:
            note = ""
            if pressure:
                evictions = sum(r.evictions for r in diff.replays)
                ooms = sum(r.oom_errors for r in diff.replays)
                note = f", evictions {evictions}, oom {ooms}"
            print(f"seed {seed}: ok ({len(commands)} commands{note})")
            continue
        failures += 1
        bad = next((r for r in diff.replays if not r.ok), None)
        # Every replay may match its own oracle while two configs still
        # disagree with each other: then the pair is the failure.
        names = [bad.config] if bad else list(diff.disagreements[0][:2])
        print(f"seed {seed}: MISMATCH on {' vs '.join(names)}; shrinking ...")
        _shrink_and_dump(
            f"{args.out}/mismatch-seed{seed}.json",
            commands, seed, names, args.mutation, pressure,
        )

    parser_failures = fuzz_parsers(args.seed, n_cases=args.parser_cases)
    if parser_failures:
        failures += len(parser_failures)
        print(f"parser fuzz: {len(parser_failures)} failures")
        for line in parser_failures[:10]:
            print(f"  {line}")
    else:
        print(f"parser fuzz: {args.parser_cases} cases ok")
    return 1 if failures else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    from repro.check.differential import load_commands

    doc, commands = load_commands(args.repro_file)
    # Dumps written before pair shrinking name one config only.
    names = doc.get("configs") or [doc["config"]]
    for name in names:
        if name not in _configs_by_name():
            print(f"unknown config {name!r} in {args.repro_file}", file=sys.stderr)
            return 1
    out = args.output or args.repro_file.replace(".json", "") + ".min.json"
    if not _shrink_and_dump(
        out, commands, doc.get("seed", 42), names, doc.get("mutation"),
        doc.get("pressure", False),
    ):
        print(f"{args.repro_file}: no longer fails ({len(commands)} commands) -- fixed?")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-check`` argument parser (run / fuzz / shrink)."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Model-based verification for the memcached reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one seeded differential + linearizability pass")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--ops", type=int, default=500, help="concurrent ops total")
    run.add_argument("--sequential-ops", type=int, default=120)
    run.add_argument("--clients", type=int, default=4)
    run.add_argument("--shards", type=int, default=2)
    run.add_argument("--chaos", action="store_true", help="arm a seeded fault schedule")
    run.add_argument(
        "--pipeline-depth", type=int, default=4, metavar="N",
        help="also run pipelined variants with N in flight (1 disables)",
    )
    run.add_argument(
        "--config", action="append", metavar="NAME",
        help="restrict to a configuration (repeatable); default: all",
    )
    run.add_argument(
        "--pressure", action="store_true",
        help="memory-pressure mode: 2 MiB stores + slab-edge values "
        "(eviction-aware oracle, tolerant cross-config comparator)",
    )
    run.set_defaults(func=_cmd_run)

    fuzz = sub.add_parser("fuzz", help="sweep seeds; shrink and dump mismatches")
    fuzz.add_argument("--seed", type=int, default=1, help="first seed")
    fuzz.add_argument("--seeds", type=int, default=10, help="number of seeds")
    fuzz.add_argument("--ops", type=int, default=80, help="commands per seed")
    fuzz.add_argument("--parser-cases", type=int, default=200)
    fuzz.add_argument("--out", default=".repro-check", help="repro dump directory")
    fuzz.add_argument(
        "--mutation", default=None,
        help="TEST-ONLY: inject a named store bug (see MUTATIONS)",
    )
    fuzz.add_argument("--config", action="append", metavar="NAME")
    fuzz.add_argument(
        "--lease", action="store_true",
        help="lease mode: mix in getl/setl, longer sleeps and more "
        "expiring stores so sequences cross lease TTLs and stale windows",
    )
    fuzz.add_argument(
        "--zipf", action="store_true",
        help="Zipf-skewed key draws (hot-key mode) instead of uniform",
    )
    fuzz.add_argument(
        "--pressure", action="store_true",
        help="fuzz against 2 MiB stores with slab-edge values",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    shrink = sub.add_parser("shrink", help="re-minimize a dumped repro case")
    shrink.add_argument("repro_file")
    shrink.add_argument("-o", "--output", default=None)
    shrink.set_defaults(func=_cmd_shrink)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Console entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via repro-check
    raise SystemExit(main())
