"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Runs each workload once, untraced and traced, at a small size, and checks
that the correctness gate passes honest reports and counts corrupted ones
as failed, that the traced counts match and a slipped call is caught, that
every per-layer metric is produced, that BENCHMARK.json names the metrics
this code prints, and that the benchmark refuses to run without sources.
Exits 1 and lists what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import (DEFAULT_SEED, WORKLOADS, Reduce, SimulateTonerBacon,
                       VerifyExact, VerifySampled, gate)

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def small_workloads(seed: int) -> dict:
    return {
        "reduce": [Reduce(4, seed)],
        "verify": [VerifyExact(4, seed)],
        "sampled": [VerifySampled(2, 50, seed),
                    SimulateTonerBacon.for_seed(20_000, seed)],
    }


def check_small_runs() -> None:
    for seed in (DEFAULT_SEED, 7):
        for label, commands in small_workloads(seed).items():
            result = run.measure(commands, 0, True, f"selftest-{label}")
            where = f"{label} seed {seed}"
            expect(result.failed == 0 and not result.problems,
                   f"{where}: {result.problems}")
            expect(result.attempted == 2 * len(commands),
                   f"{where}: attempted {result.attempted}")
            traced = [it for it in result.iterations if it.traced]
            expect(len(traced) == 1, f"{where}: {len(traced)} traced iterations")
            if traced:
                metrics = run.layer_metrics(traced[0].layers)
                missing = set(run.PER_LAYER) - set(metrics) - {"trace.overhead_frac"}
                expect(not missing, f"{where}: no value for {sorted(missing)}")
                slipped = dict(traced[0].layers)
                slipped["harness.run"] = dict(slipped.get("harness.run", {}), calls=-1)
                expect(run.count_problems(commands, slipped),
                       f"{where}: a wrong traced count went unnoticed")


def check_corrupted_reports() -> None:
    for seed in (DEFAULT_SEED, 7):
        for command in sum(small_workloads(seed).values(), []):
            record = run.run_child(command.argv, "-")
            honest = record["stdout"]
            where = f"{' '.join(command.argv)}"
            expect(not gate(command, record["code"], honest), f"{where}: honest report fails")
            expect(gate(command, 3, honest), f"{where}: exit code 3 passes")
            report = json.loads(honest)
            report["seed"] = seed + 1
            expect(gate(command, 0, json.dumps(report)), f"{where}: wrong seed echo passes")
            field, value = {
                "reduce": ("completeness", {"ok": True, "passed": 15, "total": 16}),
                "verify": ("scenarios", 1),
                "simulate": ("t_mean", 1.5),
            }[command.argv[0]]
            report = json.loads(honest)
            report[field] = value
            expect(gate(command, 0, json.dumps(report)), f"{where}: corrupted {field} passes")
            expect(gate(command, 0, honest[:-2]), f"{where}: truncated report passes")

    # a corrupted report is counted as failed by the measuring loop itself
    real_run_child = run.run_child

    def corrupting(argv, spans):
        record = real_run_child(argv, spans)
        if argv:
            record["stdout"] = record["stdout"].replace("true", "false")
        return record

    run.run_child = corrupting
    try:
        result = run.measure([Reduce(4, DEFAULT_SEED)], 0, False, "selftest-corrupt")
    finally:
        run.run_child = real_run_child
    expect(result.attempted == 1 and result.failed == 1,
           f"corrupted reduce counted {result.failed} failed of {result.attempted}")


def check_seeds() -> None:
    pair = SimulateTonerBacon.for_seed(10, 5)
    expect(pair == SimulateTonerBacon.for_seed(10, 5), "seed 5 draws differ")
    expect(pair != SimulateTonerBacon.for_seed(10, 6), "seeds 5 and 6 draw alike")
    for text in (pair.a, pair.b):
        norm = sum(float(x) ** 2 for x in text.split(",")) ** 0.5
        expect(abs(norm - 1) < 1e-12, f"drawn direction {text} is not a unit vector")
    for name, make in WORKLOADS.items():
        expect(all(command.seed == 11 for command in make(11)), f"{name} ignores the seed")


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(declared == [(m, run.unit_of(m)) for m in run.PER_LAYER],
           "BENCHMARK.json per_layer differs from run.py")


def check_refuses_without_sources() -> None:
    bare = run.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reduce-n6",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run.SPANS_DIR.mkdir(exist_ok=True)
    for check in (check_benchmark_json, check_seeds, check_corrupted_reports,
                  check_small_runs, check_refuses_without_sources):
        check()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
