"""The benchmark's workloads: qcc-lab commands, the checks on their reports,
and the layer counts a traced run must reproduce.

Every workload is built from its seed.  The exact commands have no random
input, so there the seed only changes the field echoed in the report.  The
sampled commands get the seed as `--seed`, and at any seed but the default
the toner_bacon direction pair is drawn from it as well; the program only
ever sees the generated vectors.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
SIGMAS = 6  # statistical checks allow six standard deviations

# sha256 of stdout at the default seed; reports must stay byte-identical
PINNED_STDOUT = {
    "reduce --protocol send_all_reply --n 4 --seed 0":
        "9d83ba7a9db14f4651d25121223d2a28a6d8a185dbaee93117217b0adcfb013e",
    "reduce --protocol send_all_reply --n 6 --seed 0":
        "28500633fa1e40a40ca7e9769ff995224bbfda04c1135d9b7005e11e6943cf23",
    "verify --protocol send_all_reply --n 4 --seed 0":
        "80847cba7ecedb88169f32f0ec5ee75e212af081aefaf74fa0ba439db2c8a064",
    "verify --protocol send_all_reply --n 8 --seed 0":
        "e57c8b6b6f56f71ec2cbbda2d4ff17e473cdfbdd5f6ab0cb6cb9ba392ebea366",
    "verify --protocol send_all_reply --n 2 --samples 50 --seed 0":
        "bf047f570dca207f599071a3a950029463a2b16bbca250056a4b5bd3602da327",
    "verify --protocol send_all_reply --n 4 --samples 400 --seed 0":
        "0628b097590d4f07f9f198acc2c41bc44959700467915871b8c3366b0799dd2a",
    "simulate --protocol toner_bacon --a=0,0,1 --b=0.6,0,0.8 --samples 20000 --seed 0":
        "3cd5d75f7ea81a36b0d0e001c792adf39eacd99562268e730a76b636e701ced6",
    "simulate --protocol toner_bacon --a=0,0,1 --b=0.6,0,0.8 --samples 2000000 --seed 0":
        "63d137f4c2a1f0a20ef50c4d37117f491eba97c93b6b66259c368786a7c4d776",
}
# derandomization-table digests of the single-cell send_all_reply partition
TABLE_DIGESTS = {
    4: "8d3456e1a2a48cd26c44b5643ac6afbfc109245302327dc0f4ef3619c0d4a93e",
    6: "aebd5730d921c63c5c21206ee2c4a0f6387b6396770f925f8906bb13cd6ff305",
}


def promise_pair_count(n: int) -> int:
    """Ordered promise pairs: 2^n equal pairs plus C(n, n/2) per vector."""
    return 2**n * (1 + math.comb(n, n // 2))


def reject_pair_count(n: int) -> int:
    return 2**n * math.comb(n, n // 2)


class _Missing:
    def __repr__(self) -> str:
        return "missing"


MISSING = _Missing()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Checks:
    """Collects every mismatch between a report and its expected fields."""

    def __init__(self, report: dict):
        self.report = report
        self.problems: list[str] = []

    def get(self, path: str):
        value = self.report
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                return MISSING
            value = value[key]
        return value

    def equal(self, path: str, expected) -> None:
        value = self.get(path)
        if value != expected or isinstance(value, bool) != isinstance(expected, bool):
            self.problems.append(f"{path} is {value!r}, expected {expected!r}")

    def at_most(self, path: str, limit: float) -> None:
        value = self.get(path)
        if not _is_number(value) or not 0 <= value <= limit:
            self.problems.append(f"{path} is {value!r}, expected 0 to {limit:.3g}")

    def within(self, path: str, target: float, tolerance: float) -> None:
        value = self.get(path)
        if not _is_number(value) or abs(value - target) > tolerance:
            self.problems.append(
                f"{path} is {value!r}, expected {target!r} within {tolerance:.3g}")


@dataclass(frozen=True)
class Reduce:
    """The full certificate pipeline for send_all_reply."""

    n: int
    seed: int

    @property
    def argv(self) -> list[str]:
        return ["reduce", "--protocol", "send_all_reply", "--n", str(self.n),
                "--seed", str(self.seed)]

    def check(self, c: _Checks) -> None:
        pairs, vectors = promise_pair_count(self.n), 2**self.n
        for path in ("acceptance_mass.ok", "tail.ok", "partition.ok",
                     "partition.within_bound", "completeness.ok", "soundness.ok",
                     "certificate_bits.within_reference"):
            c.equal(path, True)
        c.equal("command", "reduce")
        c.equal("n", self.n)
        c.equal("seed", self.seed)
        c.equal("acceptance_mass.pairs", pairs)
        c.equal("tail.pairs_checked", pairs)
        c.equal("tail.worst_mass", "0/1")
        c.equal("partition.cells", 1)
        c.equal("partition.table_digest", TABLE_DIGESTS.get(self.n))
        c.equal("completeness.passed", vectors)
        c.equal("completeness.total", vectors)
        c.equal("soundness.pairs", reject_pair_count(self.n))
        c.equal("soundness.jointly_accepted", 0)

    def counts(self) -> dict[str, int]:
        # partition: every vector at every point of the n^3 grid; then one
        # honest certificate per completeness vector and per reject pair,
        # each replayed once by Alice (two steps) and once by Bob (one step)
        pairs = promise_pair_count(self.n)
        runs = 2**self.n * self.n**3 + pairs
        return {"harness.run.calls": runs,
                "protocols.step.calls": 3 * runs + 3 * pairs,
                "oracle.predict_joint_probs.calls": pairs,
                "protocols.outcome_table.calls": pairs,
                "reduction.build_certificate.calls": pairs,
                "reduction.verify_certificate.calls": 2 * pairs}


@dataclass(frozen=True)
class VerifyExact:
    """The exact law audit of send_all_reply over every promise pair."""

    n: int
    seed: int

    @property
    def argv(self) -> list[str]:
        return ["verify", "--protocol", "send_all_reply", "--n", str(self.n),
                "--seed", str(self.seed)]

    def check(self, c: _Checks) -> None:
        c.equal("command", "verify")
        c.equal("n", self.n)
        c.equal("seed", self.seed)
        c.equal("mode", "exact")
        c.equal("scenarios", promise_pair_count(self.n))
        c.equal("all_full", True)
        c.equal("all_restricted", True)
        c.equal("worst_error", 0)
        c.equal("failure_count", 0)

    def counts(self) -> dict[str, int]:
        pairs = promise_pair_count(self.n)
        return {"oracle.predict_joint_probs.calls": pairs,
                "protocols.exact_distribution.hits": pairs,
                "harness.run.calls": 0}


@dataclass(frozen=True)
class VerifySampled:
    """The Monte Carlo law audit of send_all_reply through the generic runner."""

    n: int
    samples: int
    seed: int

    @property
    def argv(self) -> list[str]:
        return ["verify", "--protocol", "send_all_reply", "--n", str(self.n),
                "--samples", str(self.samples), "--seed", str(self.seed)]

    @property
    def tolerance(self) -> float:
        # a frequency over `samples` draws has variance at most 1/(4 samples)
        return SIGMAS * 0.5 / math.sqrt(self.samples)

    def check(self, c: _Checks) -> None:
        c.equal("command", "verify")
        c.equal("n", self.n)
        c.equal("seed", self.seed)
        c.equal("mode", "sampled")
        c.equal("samples", self.samples)
        c.equal("scenarios", promise_pair_count(self.n))
        c.equal("all_full", None)
        c.equal("failure_count", 0)
        c.at_most("worst_error", self.tolerance)

    def counts(self) -> dict[str, int]:
        # one generic run per sample, three protocol steps per run; the
        # batch hook is asked once per pair and declines
        draws = promise_pair_count(self.n) * self.samples
        return {"harness.run.calls": draws,
                "harness.RandomnessSpace.sample_index.calls": draws,
                "protocols.step.calls": 3 * draws,
                "protocols.batch_outcomes.calls": promise_pair_count(self.n),
                "protocols.batch_outcomes.hits": 0}


@dataclass(frozen=True)
class SimulateTonerBacon:
    """The one-bit singlet simulation on its vectorized batch path."""

    a: str
    b: str
    samples: int
    seed: int

    @classmethod
    def for_seed(cls, samples: int, seed: int) -> "SimulateTonerBacon":
        """The documented direction pair at the default seed, else a drawn one."""
        if seed == DEFAULT_SEED:
            return cls("0,0,1", "0.6,0,0.8", samples, seed)
        rng = random.Random(seed)
        pair = []
        for _ in range(2):
            draw = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in draw))
            pair.append(",".join(repr(x / norm) for x in draw))
        return cls(pair[0], pair[1], samples, seed)

    @property
    def argv(self) -> list[str]:
        return ["simulate", "--protocol", "toner_bacon", f"--a={self.a}",
                f"--b={self.b}", "--samples", str(self.samples),
                "--seed", str(self.seed)]

    def check(self, c: _Checks) -> None:
        # a mean of +/-1 values over `samples` draws has variance at most
        # 1/samples; the singlet gives E[y_A y_B] = -a.b and flat marginals
        tolerance = SIGMAS / math.sqrt(self.samples)
        dot = sum(float(x) * float(y)
                  for x, y in zip(self.a.split(","), self.b.split(",")))
        c.equal("command", "simulate")
        c.equal("protocol", "toner_bacon")
        c.equal("input_a", self.a)
        c.equal("input_b", self.b)
        c.equal("seed", self.seed)
        c.equal("mode", "sampled")
        c.equal("samples", self.samples)
        c.equal("t_mean", 1)
        c.equal("t_max", 1)
        c.within("expectations_float.e_ab", -dot, tolerance)
        c.within("expectations_float.e_a", 0.0, tolerance)
        c.within("expectations_float.e_b", 0.0, tolerance)

    def counts(self) -> dict[str, int]:
        return {"protocols.batch_outcomes.calls": 1,
                "protocols.batch_outcomes.hits": 1}


def gate(command, code: int, stdout: str) -> list[str]:
    """Every reason the command's result is wrong; empty when it passes."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if command.seed == DEFAULT_SEED:
        key = " ".join(command.argv)
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if PINNED_STDOUT.get(key) != digest:
            problems.append(f"stdout sha256 {digest} is not the pinned digest")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"]
    checks = _Checks(report)
    command.check(checks)
    return problems + checks.problems


def expected_counts(commands) -> dict[str, int]:
    """Layer counts of a whole workload: the sum over its commands."""
    total: dict[str, int] = {}
    for command in commands:
        for key, value in command.counts().items():
            total[key] = total.get(key, 0) + value
    return total


# name -> commands for a seed; BENCHMARK.json says why each was chosen
WORKLOADS = {
    "reduce-n6": lambda seed: [Reduce(6, seed)],
    "verify-n8": lambda seed: [VerifyExact(8, seed)],
    "sampled-audit": lambda seed: [VerifySampled(4, 400, seed),
                                   SimulateTonerBacon.for_seed(2_000_000, seed)],
}
