"""Benchmark of qcc-lab: time to verdict on three CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and exits 2 when there is none.  Every qcc-lab command of the
workload (see workloads.py) runs through `qcc_lab.cli.main` in a fresh
single-threaded process, so each pays the cold caches a CLI call pays.
Iterations of the workload are repeated, one after the other, until S
seconds have passed, and each command's exit code and report are checked.

With --trace 0 every iteration is untraced and the end-to-end metrics are:

  verdict_s    seconds inside cli.main, summed over the workload's
               commands; median over iterations
  setup_s      seconds from process start to qcc_lab.cli imported; median
               over every process started, including a few that only import
  peak_rss_mb  largest ru_maxrss among an iteration's command processes;
               median over iterations

With --trace 1 untraced and traced iterations alternate.  The traced ones
wrap each layer's public functions (layertrace.py) and give the per-layer
metrics, low medians over traced iterations so that counts stay whole.
Every traced iteration must reproduce the workload's exact layer counts.
`trace.overhead_frac` is the traced verdict_s over the untraced one,
minus 1.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; `attempted` and `failed` count commands.  A summary
with run counts and tail percentiles goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace
from workloads import WORKLOADS, expected_counts, gate

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / ".out"
SETUP_PROBES = 3  # import-only processes at the start of every run
RUN_LIMIT_S = 170.0  # no child may run past this point of a run

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAT_UNITS = {"calls": "count", "hits": "count", "s": "s", "self_s": "s",
              "us_p50": "us", "us_p99": "us", "cells": "count",
              "samples_per_s": "1/s", "hook_hit_ratio": "ratio",
              "overhead_frac": "ratio"}
PER_LAYER = [
    "oracle.predict_joint_probs.calls",
    "oracle.predict_joint_probs.self_s",
    "oracle.predict_joint_probs.us_p50",
    "oracle.predict_joint_probs.us_p99",
    "oracle.sign_vector_projector.self_s",
    "dj.promise_scenarios.s",
    "dj.promise_scenarios.self_s",
    "protocols.outcome_table.calls",
    "protocols.outcome_table.hits",
    "protocols.outcome_table.self_s",
    "harness.tail_mass.calls",
    "harness.tail_mass.self_s",
    "reduction.check_tail_hypothesis.s",
    "reduction.check_tail_hypothesis.self_s",
    "harness.run.calls",
    "harness.run.self_s",
    "harness.run.us_p50",
    "harness.run.us_p99",
    "protocols.step.calls",
    "protocols.step.self_s",
    "reduction.partition_inputs.s",
    "reduction.partition_inputs.self_s",
    "reduction.partition.cells",
    "harness.RandomnessSpace.sample_index.calls",
    "harness.RandomnessSpace.sample_index.self_s",
    "harness.sample_distribution.calls",
    "harness.sample_distribution.self_s",
    "harness.sample_distribution.samples_per_s",
    "protocols.batch_outcomes.calls",
    "protocols.batch_outcomes.hits",
    "protocols.batch_outcomes.self_s",
    "protocols.exact_distribution.calls",
    "protocols.exact_distribution.hits",
    "protocols.exact_distribution.self_s",
    "harness.check_exact_blqms.s",
    "harness.check_exact_blqms.self_s",
    "harness.output_distribution.calls",
    "reduction.build_certificate.calls",
    "reduction.build_certificate.self_s",
    "reduction.verify_certificate.calls",
    "reduction.verify_certificate.self_s",
    "reduction.verify_certificate.us_p50",
    "reduction.verify_certificate.us_p99",
    "protocols.hook_hit_ratio",
    "cli.main.reduce.s",
    "cli.main.verify.s",
    "cli.main.simulate.s",
    "cli.canonical_json.s",
    "trace.overhead_frac",
]


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or STAT_UNITS[metric.rsplit(".", 1)[1]]


class ChildFailure(Exception):
    """A measured process crashed, timed out or imported the wrong package.

    A fatal failure ends the run: there is no time left for another child.
    """

    def __init__(self, message: str, fatal: bool = False):
        super().__init__(message)
        self.fatal = fatal


def run_child(argv: list[str], spans: str) -> dict:
    """Run child.py with one qcc-lab command (or none) and return its record."""
    budget = RUN_LIMIT_S - (time.monotonic() - STARTED)
    if budget <= 0:
        raise ChildFailure("run time limit reached", fatal=True)
    env = dict(os.environ)
    env.pop("QCC_LAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(start), str(ROOT), spans,
             *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        raise ChildFailure(f"timed out after {budget:.0f} s", fatal=True) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailure(f"process exited {proc.returncode}: {tail[0]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if not Path(record["cli_file"]).resolve().is_relative_to(ROOT / "src"):
        raise ChildFailure(f"imported {record['cli_file']}, not the checkout's")
    return record


@dataclass
class Iteration:
    traced: bool
    verdict_s: float
    peak_rss_mb: float
    layers: dict


@dataclass
class Measurement:
    iterations: list
    setups: list
    attempted: int
    failed: int
    problems: list


def merge_layers(records: list) -> dict:
    """Sum one iteration's per-command layer summaries; `cli.main` is kept
    apart per subcommand."""
    total: dict = {}
    for subcommand, summary in records:
        for name, entry in summary.items():
            if name == "cli.main":
                name = f"cli.main.{subcommand}"
            slot = total.setdefault(name, {})
            for key, value in entry.items():
                if key == "us":
                    slot.setdefault("us", []).extend(value)
                else:
                    slot[key] = slot.get(key, 0) + value
    return total


def measure(commands: list, seconds: float, trace: bool, label: str) -> Measurement:
    """Repeat the workload for `seconds`, gating every command's result."""
    result = Measurement([], [], 0, 0, [])
    try:
        for _ in range(SETUP_PROBES):
            result.setups.append(run_child([], "-")["setup_s"])
    except ChildFailure as exc:
        result.problems.append(f"set-up probe: {exc}")
        return result
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    spans_written = False
    index = 0
    begin = time.monotonic()
    while index < 1 + trace or time.monotonic() - begin < seconds:
        traced = trace and index % 2 == 1
        verdict, peak, layers, complete = 0.0, 0.0, [], True
        for k, command in enumerate(commands):
            spans = "-"
            if traced:
                path = SPANS_DIR / f"{label}-{k}-{command.argv[0]}.jsonl.gz"
                spans = "trace" if spans_written else str(path)
            result.attempted += 1
            name = " ".join(command.argv)
            try:
                record = run_child(command.argv, spans)
            except ChildFailure as exc:
                result.failed += 1
                result.problems.append(f"{name}: {exc}")
                complete = False
                if exc.fatal:
                    return result
                continue
            result.setups.append(record["setup_s"])
            found = gate(command, record["code"], record["stdout"])
            if found:
                result.failed += 1
                result.problems.extend(f"{name}: {problem}" for problem in found)
            verdict += record["main_s"]
            peak = max(peak, record["maxrss_kb"] / 1024)
            layers.append((command.argv[0], record.get("layers", {})))
        spans_written = spans_written or traced
        if complete:
            merged = merge_layers(layers)
            result.iterations.append(Iteration(traced, verdict, peak, merged))
            if traced:
                result.problems.extend(count_problems(commands, merged))
        index += 1
    return result


def count_problems(commands: list, layers: dict) -> list[str]:
    """A traced count that differs means a call slipped past a wrapper."""
    problems = []
    for key, expected in expected_counts(commands).items():
        name, stat = key.rsplit(".", 1)
        found = layers.get(name, {}).get(stat, 0)
        if found != expected:
            problems.append(f"traced {key} = {found}, expected {expected}")
    return problems


def percentile(values: list, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(layers: dict) -> dict[str, float]:
    """Every per-layer metric of one traced iteration; absent layers read 0."""
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_frac":
            continue  # a ratio of two iterations, computed by the caller
        name, stat = metric.rsplit(".", 1)
        entry = layers.get(name, {})
        if metric == "reduction.partition.cells":
            out[metric] = layers.get(metric, {}).get("value", 0)
        elif stat == "samples_per_s":
            samples = layers.get(name + ".samples", {}).get("value", 0)
            out[metric] = samples / entry["s"] if samples else 0.0
        elif stat == "hook_hit_ratio":
            calls = sum(layers.get(h, {}).get("calls", 0) for h in layertrace.HOOKS)
            hits = sum(layers.get(h, {}).get("hits", 0) for h in layertrace.HOOKS)
            out[metric] = hits / calls if calls else 0.0
        elif stat.startswith("us_p"):
            out[metric] = percentile(entry.get("us", []), int(stat[4:]))
        else:
            out[metric] = entry.get(stat, 0)
    return out


def tail_text(values: list, unit: str) -> str:
    """Median plus the highest percentile with at least ten runs beyond it."""
    count = len(values)
    p = 100 * (count - 10) // count
    text = f"median {statistics.median(values):.6g} {unit}"
    if p > 50:
        text += f", p{p} {percentile(values, p):.6g} {unit}"
    else:
        text += (f", max {max(values):.6g} {unit} (no percentile above the "
                 f"median has ten runs beyond it)")
    return f"{text}, {count} runs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcc_lab" / "cli.py").is_file():
        print(f"error: no qcc-lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    result = measure(commands, args.seconds, bool(args.trace), args.workload)
    for problem in result.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    plain = [it for it in result.iterations if not it.traced]
    traced = [it for it in result.iterations if it.traced]
    if not plain or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1

    verdicts = [it.verdict_s for it in plain]
    print(f"{args.workload} seed {args.seed}: "
          f"failed {result.failed} of {result.attempted} commands "
          f"(failed_frac {result.failed / result.attempted:.4g})", file=sys.stderr)
    print(f"  verdict_s {tail_text(verdicts, 's')}", file=sys.stderr)
    print(f"  setup_s {tail_text(result.setups, 's')}", file=sys.stderr)
    if args.trace:
        per_iteration = [layer_metrics(it.layers) for it in traced]
        metrics = {name: statistics.median_low(m[name] for m in per_iteration)
                   for name in per_iteration[0]}
        traced_verdict = statistics.median(it.verdict_s for it in traced)
        metrics["trace.overhead_frac"] = traced_verdict / statistics.median(verdicts) - 1
        print(f"  traced verdict_s {tail_text([it.verdict_s for it in traced], 's')}",
              file=sys.stderr)
    else:
        metrics = {
            "verdict_s": statistics.median(verdicts),
            "setup_s": statistics.median(result.setups),
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in plain),
        }
        print(f"  peak_rss_mb {tail_text([it.peak_rss_mb for it in plain], 'MB')}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
