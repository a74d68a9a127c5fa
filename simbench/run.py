"""Benchmark the memcached simulator: host cost and simulated results.

    python3 simbench/run.py --workload ucr_get_fanout --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced rounds for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  ``--workload all`` runs every
workload, each in a child process of its own.  The last line of
standard output is one JSON object; the exit status is 1 if any output
was wrong.  Metric names and units come from ``BENCHMARK.json``.  See
``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Untraced rounds per run, at least; more while ``--seconds`` allows.
MIN_ROUNDS = 3
#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Metric name -> unit, end-to-end and per-layer, from BENCHMARK.json."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples ranked beyond it:
    ``(percentile, value, samples beyond)``."""
    n = len(samples)
    pct = next((p for p in PERCENTILES if n * (100 - p) / 100 >= 10), 50.0)
    value = statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
    return pct, value, n - round(n * pct / 100)


def sim_metrics(r) -> dict[str, float]:
    """The simulated outcomes of one round; they repeat exactly per seed."""
    return {
        "sim_tps": r.ops / (r.sim_elapsed_us / 1e6),
        "sim_get_mean_us": statistics.fmean(r.get_lat),
    }


def same_simulation(rounds) -> bool:
    """Whether every round simulated exactly what the first one did."""
    r0 = rounds[0]
    return all(
        (r.events, r.sim_elapsed_us, r.get_lat, r.set_lat)
        == (r0.events, r0.sim_elapsed_us, r0.get_lat, r0.set_lat)
        for r in rounds
    )


def timed_rounds(seconds: float, minimum: int, one_round) -> list:
    """Call *one_round* at least *minimum* times, then while another
    round of average length still fits in *seconds* of wall time."""
    t0 = time.monotonic()
    out = []
    while True:
        out.append(one_round())
        elapsed = time.monotonic() - t0
        if len(out) >= minimum and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


class Report:
    """Verdicts and op counts over every round of the run."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add_rounds(self, rounds) -> None:
        for r in rounds:
            self.attempted += r.ops
            self.failed += r.failed
            self.problems += r.problems

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {text:>14} {unit:<9} {note}".rstrip())


def latency_lines(op: str, samples: list[float]) -> None:
    """Median and tail of one op's simulated latency, with sample counts."""
    n = len(samples)
    if not n:
        print(f"  sim_{op}_*: no {op.title()}s in this workload")
        return
    line(f"sim_{op}_p50_us", statistics.median(samples), "us", f"n={n}")
    pct, value, beyond = tail(samples)
    line(f"sim_{op}_p{pct:g}_us", value, "us", f"n={n}, {beyond} ranked beyond")


def run_untraced(wl, inputs, seed: int, seconds: float, report: Report,
                 units: dict[str, str]) -> dict:
    from simbench.workloads import run_round

    rounds = timed_rounds(seconds, MIN_ROUNDS, lambda: run_round(wl, inputs, seed))
    report.add_rounds(rounds)
    report.require(
        same_simulation(rounds),
        "simulated results or event counts differ between rounds of one seed",
    )
    sim = sim_metrics(rounds[0])
    # Host CPU time in reference-host seconds (see hostclock).
    per_round = [r.ops_per_ref_cpu_s for r in rounds]
    metrics = {
        "ops_per_cpu_s": statistics.median(per_round),
        "setup_s": statistics.median(r.setup_s * r.setup_scale for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    r0 = rounds[0]
    print(f"end-to-end: median of {len(rounds)} untraced rounds, {r0.ops} ops each "
          f"(sim_* repeat exactly in every round)")
    line("ops_per_cpu_s", metrics["ops_per_cpu_s"], units["ops_per_cpu_s"],
         "rounds: " + " ".join(f"{v:.0f}" for v in per_round))
    line("  raw (uncalibrated)", statistics.median(r.ops_per_cpu_s for r in rounds),
         units["ops_per_cpu_s"], "host speed vs reference: "
         + " ".join(f"{r.timed_scale:.2f}" for r in rounds))
    line("setup_s", metrics["setup_s"], units["setup_s"], f"median of {len(rounds)}")
    line("  raw (uncalibrated)", statistics.median(r.setup_s for r in rounds),
         units["setup_s"])
    line("peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"],
         "this process's peak")
    if wl.reference_tps:
        error = sim["sim_tps"] / wl.reference_tps - 1
        tps_note = f"model error {error:+.1%} vs {wl.reference}"
    else:
        tps_note = "simulated; unvalidated against hardware"
    line("sim_tps", sim["sim_tps"], "ops/s", tps_note)
    line("sim_get_mean_us", sim["sim_get_mean_us"], "us", f"n={len(r0.get_lat)}")
    latency_lines("get", r0.get_lat)
    latency_lines("set", r0.set_lat)
    line("sim.events", r0.events, "events", "per round")
    if wl.checked:
        line("check_history groups", r0.check_groups, "count", "all linearizable"
             if not any(p.startswith("check_history") for p in report.problems)
             else "FAILED")
    line("failed_op_ratio", report.failed / report.attempted, "ratio",
         f"{report.failed} of {report.attempted} ops")
    return metrics


def run_traced(wl, inputs, seed: int, seconds: float, report: Report,
               units: dict[str, str]) -> dict:
    from simbench.layers import TracedRound, median_metrics
    from simbench.workloads import run_round

    def pair():
        plain = run_round(wl, inputs, seed, calibrate=False)
        with TracedRound() as probe:
            traced = run_round(wl, inputs, seed, probe, calibrate=False)
        return plain, traced, probe.metrics(traced), probe.extra_self_us_per_op

    pairs = timed_rounds(seconds, 1, pair)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    report.add_rounds(plain + traced)
    neutral = same_simulation(plain + traced)
    report.require(
        neutral, "traced and untraced rounds differ in simulated results or event counts"
    )
    metrics = median_metrics([p[2] for p in pairs])
    untraced_rate = statistics.median(r.ops_per_cpu_s for r in plain)
    metrics["sim.events_per_cpu_s"] = statistics.median(
        r.events / r.timed_cpu_s for r in plain
    )
    metrics["trace.overhead_ratio"] = untraced_rate / statistics.median(
        r.ops_per_cpu_s for r in traced
    )
    extra = median_metrics([p[3] for p in pairs])
    print(f"per layer: median of {len(pairs)} traced rounds, {plain[0].ops} ops each; "
          "self time is cProfile host CPU (inflated by the profiler)")
    self_times = [name for name in metrics if name.endswith("self_us_per_op")]
    for name in self_times:
        line(name, metrics[name], units[name])
    for name, value in extra.items():
        line(name, value, "us/op", "(outside the named layers)")
    for name in sorted(set(metrics) - set(self_times)):
        line(name, metrics[name], units[name])
    print(f"  observer neutrality: traced sim_* and events "
          f"{'equal' if neutral else 'DIFFER from'} untraced")
    return metrics


def run_all(args, names: list[str]) -> int:
    """Run each workload in a child process of its own, so that
    ``peak_rss_mb`` is every workload's own peak; merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines() or [""]
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            lines.append("")
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"simbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # The program imports numpy; keep its math libraries single-threaded
    # so the run starts no threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [SRC, ROOT]
    from simbench.workloads import WORKLOADS, make_inputs

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    end_to_end, per_layer = declared_units()
    declared = per_layer if args.trace else end_to_end

    print(f"== {wl.name}  seed={args.seed}  ({wl.spec.name}, {wl.transport}, "
          f"{wl.n_clients} clients x {wl.ops_per_client} ops, {wl.n_servers} "
          f"server(s) x {wl.n_workers} workers, {wl.value_size} B, "
          f"{wl.key_mode} over {wl.key_space} keys)")
    print(f"   why: {wl.why}")
    report = Report()
    run = run_traced if args.trace else run_untraced
    measured = run(wl, make_inputs(wl, args.seed), args.seed, args.seconds, report,
                   {**end_to_end, **per_layer})
    missing = sorted(set(declared) - set(measured))
    report.require(not missing, f"declared metrics not measured: {missing}")

    for problem in report.problems[:20]:
        print(f"WRONG: {problem}")
    correct = not report.problems
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": measured[k], "unit": unit}
                    for k, unit in declared.items() if k in measured},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
