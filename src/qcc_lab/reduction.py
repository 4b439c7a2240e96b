"""From cheap-on-average protocols to one-sided certificates.

Pipeline, run end to end by `reduce`: check that no promise input pair,
equal (diagonal) or at a.b = 0, puts randomness mass 1/(2n) or more on
runs costing at least M bits, read from each pair's `cost_law` (the
partition itself runs only diagonal pairs); greedily partition the 2^n
sign vectors into cells, each owning one shared-randomness point that
makes every member accept below budget; then a certificate for "my input
is in your cell" is just the cell index plus the full run transcript,
which one party alone can replay and audit.  The formula evaluators at
the bottom quantify why such certificates cannot stay short for
protocols that are cheap at every order.

Certificate length (`DjCertificate.bit_length`): the cell index field,
`cell_index_width(n)` bits, plus 2 bits per transcript entry, a sender bit
and a payload bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .dj import n1_lower_bound, promise_pairs, promise_scenarios
from .errors import InvariantError, PartitionError, QccLabError
from .harness import (ALICE, BOB, Action, CheckResult, Party, Protocol, Transcript,
                      _finite_space, _run_rows, check_exact_blqms, cost_law, pair_label, run)
from .oracle import SignVector, _at_least, _integer


def cell_bound(n: int) -> int:
    """2 n^2: the most cells the greedy partition needs when the tail check holds."""
    n = _at_least("cell_bound", "n", n, 2)
    return 2 * n * n


def cell_index_width(n: int) -> int:
    """ceil(log2(cell_bound(n))): bits reserved for the cell index field."""
    return (cell_bound(n) - 1).bit_length()


def certificate_reference_bits(n: int, threshold_bits) -> float:
    """2 log2 n + 2 M: the length an accept certificate at budget M is held to.

    An honest certificate's run sends at most M - 1 bits, so it is at most
    ceil(log2 2n^2) + 2M - 2 < (1 + 2 log2 n) + 1 + 2M - 2 = 2 log2 n + 2M bits."""
    n = _at_least("certificate_reference_bits", "n", n, 2)
    return 2 * math.log2(n) + 2 * threshold_bits


class TailReport(NamedTuple):
    """Worst-case mass of runs with T >= threshold over the checked pairs."""

    ok: bool
    threshold_bits: int
    mass_bound: Fraction  # masses must stay strictly below 1/(2n)
    worst_mass: Fraction
    worst_pair: str
    pairs_checked: int


def check_tail_hypothesis(protocol: Protocol, n: int, threshold_bits: int,
                          pairs: Optional[Iterable[tuple]] = None) -> TailReport:
    """Check mass(T >= M) < 1/(2n) for every pair (default: all promise
    pairs, streamed as they are generated)."""
    n = _at_least("check_tail_hypothesis", "n", n, 2)
    threshold_bits = _integer("check_tail_hypothesis", "threshold_bits", threshold_bits)
    bound = Fraction(1, 2 * n)
    worst = 0  # numerator over the protocol's one den, shared by every pair
    worst_pair = ""
    checked = 0
    for checked, (input_a, input_b) in enumerate(
            promise_pairs(n) if pairs is None else pairs, start=1):
        law = cost_law(protocol, input_a, input_b)
        mass = law.tail(threshold_bits)
        if mass > worst or not worst_pair:
            worst, worst_pair = mass, pair_label(input_a, input_b)
    if not checked:
        raise InvariantError("no pairs to check; an empty tail check would pass vacuously")
    worst = Fraction(worst, law.den)
    return TailReport(worst < bound, threshold_bits, bound, worst, worst_pair, checked)


@dataclass(frozen=True)
class PartitionCell:
    """Inputs sharing one randomness point that accepts them all below budget."""

    vectors: tuple[SignVector, ...]
    lam_index: int
    lam: object


@dataclass(frozen=True, eq=False)
class Partition:
    """Greedy cover of all sign vectors by accepting randomness points."""

    n: int
    threshold_bits: int
    cells: tuple[PartitionCell, ...]

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def within_bound(self) -> bool:
        """Cell count within `cell_bound(n)`, as guaranteed when the tail check holds."""
        return self.cell_count <= cell_bound(self.n)

    @cached_property
    def _locator(self) -> dict:
        table = {}
        for j, cell in enumerate(self.cells, start=1):
            for vec in cell.vectors:
                table[vec.coords] = (j, cell)
        return table

    def cell_of(self, a: SignVector) -> tuple[int, PartitionCell]:
        """1-based cell index and cell for an input; errors if uncovered."""
        try:
            return self._locator[a.coords]
        except KeyError:
            raise InvariantError(f"input {a.to_text()} is not covered") from None

    def table(self) -> "DerandomizationTable":
        return DerandomizationTable(self.n, tuple(c.lam for c in self.cells))


def partition_inputs(protocol: Protocol, n: int, threshold_bits: int) -> Partition:
    """Greedy partition: repeatedly take the point accepting the most inputs.

    Acceptance for input a at point lam means g(a, a, lam) = 1 with strictly
    fewer than threshold_bits transmitted.  Ties pick the lowest point index;
    an input accepted nowhere raises PartitionError naming it.
    """
    n = _at_least("partition_inputs", "n", n, 2, even=True)
    threshold_bits = _integer("partition_inputs", "threshold_bits", threshold_bits)
    space = _finite_space(protocol, "partitioning")
    vectors = list(SignVector.all_vectors(n))
    # accepts[v, i]: vector v accepts at point i; filled vector by vector
    accepts = np.zeros((len(vectors), len(space)), dtype=bool)
    for vec, row in zip(vectors, accepts):
        y_a, y_b, t = _run_rows(protocol, vec, vec, space.points)
        row[:] = (y_a == 1) & (y_b == 1) & (t < threshold_bits)
        if not row.any():
            raise PartitionError(
                f"input {vec.to_text()} accepts nowhere below {threshold_bits} bits",
                witness=vec)

    # every row accepts somewhere, so each pick covers at least one input
    remaining = np.ones(len(vectors), dtype=bool)
    cells = []
    while remaining.any():
        best = int(accepts[remaining].sum(axis=0).argmax())  # ties: lowest index
        members = tuple(compress(vectors, remaining & accepts[:, best]))
        cells.append(PartitionCell(members, best, space.points[best]))
        remaining &= ~accepts[:, best]
    return Partition(n, threshold_bits, tuple(cells))


def _canon_lambda(lam) -> str:
    """A finite space's point, a Fraction or an int, as digest text."""
    if isinstance(lam, Fraction):
        return f"{lam.numerator}/{lam.denominator}"
    if isinstance(lam, bool):
        raise InvariantError("boolean randomness points are not canonical")
    if isinstance(lam, int):
        return str(lam)
    raise InvariantError(f"cannot canonicalize randomness point {lam!r}")


def _root_bits(prime: int, k: int) -> int:
    """The first 32 bits of the fractional part of prime^(1/k), exactly: the
    integer k-th root of prime * 2^(32 k), corrected from its float estimate."""
    scaled = prime << 32 * k
    root = round(scaled ** (1 / k))
    while root**k > scaled:
        root -= 1
    while (root + 1) ** k <= scaled:
        root += 1
    return root & 0xFFFFFFFF


def _sha256_hex(data: bytes) -> str:
    """FIPS 180-4 SHA-256 of `data`, as `hashlib.sha256(data).hexdigest()` gives it.

    Pure Python, so the digest is one route on every CPython build and maps no
    OpenSSL; a table body is a few hundred bytes at most, so speed does not matter,
    and the constants are derived per call (about 0.5 ms), not at import.
    """
    mask = 0xFFFFFFFF

    def rotr(x, r):
        return (x >> r | x << 32 - r) & mask

    # from the first 64 primes: the initial hash from the square roots of the first 8,
    # the round constants from the cube roots of all 64
    primes = [p for p in range(2, 312) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    h = [_root_bits(p, 2) for p in primes[:8]]
    rounds = [_root_bits(p, 3) for p in primes]
    data = data + b"\x80" + bytes(-(len(data) + 9) % 64) + (8 * len(data)).to_bytes(8, "big")
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(block, block + 64, 4)]
        for i in range(16, 64):
            s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ w[i - 15] >> 3
            s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ w[i - 2] >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        a, b, c, d, e, f, g, hh = h
        for k, wi in zip(rounds, w):
            t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + (e & f ^ ~e & g) + k + wi
            t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, hh = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        h = [(x + y) & mask for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


@dataclass(frozen=True, eq=False)
class DerandomizationTable:
    """Shared map from 1-based cell index to randomness point.

    Both parties must hold the same table; the content digest lets them
    prove it without exchanging the table itself.
    """

    n: int
    entries: tuple

    @cached_property
    def digest(self) -> str:
        body = f"n={self.n};" + ";".join(_canon_lambda(x) for x in self.entries)
        return _sha256_hex(body.encode())

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DjCertificate:
    """Cell index plus full transcript; enough for one-sided replay."""

    n: int
    j: int  # 1-based cell index
    transcript: Transcript

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("DjCertificate", "n", self.n))
        object.__setattr__(self, "j", _integer("DjCertificate", "j", self.j))
        if self.j < 1 or self.j - 1 >= 1 << cell_index_width(self.n):
            raise InvariantError(
                f"cell index {self.j} does not fit {cell_index_width(self.n)} bits")
        if not isinstance(self.transcript, Transcript):
            raise InvariantError(
                f"DjCertificate transcript must be a Transcript, got {self.transcript!r}")

    @property
    def bit_length(self) -> int:
        """Quoted length: index width + 2 bits per transcript entry."""
        return cell_index_width(self.n) + 2 * len(self.transcript)


def build_certificate(a: SignVector, partition: Partition,
                      protocol: Protocol) -> DjCertificate:
    """Honest certificate for input a: its cell index and the replayed run."""
    j, cell = partition.cell_of(a)
    record = run(protocol, a, a, cell.lam)
    if record.g != 1 or record.t >= partition.threshold_bits:
        raise PartitionError(
            f"replay broke the cell promise for {a.to_text()} "
            f"(g={record.g}, t={record.t})", witness=a)
    return DjCertificate(partition.n, j, record.transcript)


def verify_certificate(party: Party, own: SignVector, cert: DjCertificate,
                       table: DerandomizationTable,
                       protocol: Protocol) -> CheckResult:
    """Replay one side against the transcript; accept iff it matches and
    the own output is +1.

    The party is asked on `run`'s schedule: Alice first with nothing heard,
    Bob first with Alice's first move, and each again only once the peer's
    next move (its next run of transcript bits) has reached it.  Each own
    action's bits must be the transcript's next entries, as one block.
    Protocol-level rejections (promise violations, malformed actions)
    reject rather than raise.
    """
    if cert.n != table.n:
        return CheckResult(False, f"certificate n={cert.n} vs table n={table.n}")
    if not 1 <= cert.j <= len(table):
        return CheckResult(False, f"cell index {cert.j} outside 1..{len(table)}")
    lam = table.entries[cert.j - 1]
    entries = cert.transcript.entries
    end = len(entries)
    side = 0 if party is ALICE else 1  # this party's index in `Action._entries`
    received: list[int] = []
    pos = 0
    if side:  # Bob's first ask hears Alice's first move, which may be empty
        while pos < end and entries[pos][0] is ALICE:
            received.append(entries[pos][1])
            pos += 1
    while True:
        try:
            action = protocol.step(party, own, lam, tuple(received))
        except QccLabError as exc:
            return CheckResult(False, f"protocol rejected: {exc}")
        if not isinstance(action, Action):
            return CheckResult(False, "protocol returned a malformed action")
        sent = action._entries[side]
        if entries[pos:pos + len(sent)] != sent:
            return CheckResult(False, f"own bits differ from the transcript's at entry {pos}")
        pos += len(sent)
        if action.output is not None:
            if any(sender is party for sender, _ in entries[pos:]):
                return CheckResult(False, "transcript claims own bits after halting")
            if action.output != 1:
                return CheckResult(False, "own output is -1")
            return CheckResult(True, "")
        start = pos
        while pos < end and entries[pos][0] is not party:
            received.append(entries[pos][1])
            pos += 1
        if pos == start:  # nothing new heard, so `run` would not ask again
            if pos >= end:
                return CheckResult(False, "transcript exhausted before halting")
            return CheckResult(False, f"desync at entry {pos}: expected to receive")


def reduce(protocol: Protocol, n: int, threshold_bits: int) -> tuple[dict, bool]:
    """`qcc-lab reduce`'s report sections at budget M = threshold_bits, from
    `acceptance_mass` on (ending at `partition` if the law audit or partition fails),
    and whether the tail check, cell bound, completeness and soundness all hold; a
    replay that breaks a cell's promise raises `PartitionError`."""
    threshold_bits = _integer("reduce", "threshold_bits", threshold_bits)
    # the partition construction presumes the protocol reproduces the
    # target acceptance mass on every promise pair; audit that first
    law_report = check_exact_blqms(protocol, promise_scenarios(n))
    witness = law_report.first_restricted_failure
    sections = {"acceptance_mass": {
        "ok": witness is None,
        "pairs": law_report.scenarios,
        "witness": None if witness is None else {
            "pair": witness.label,
            "measured_p_pp": float(witness.computed.p_pp),
            "target_p_pp": float(witness.target.p_pp),
        },
    }}
    if witness is not None:
        sections["partition"] = None
        return sections, False

    tail = check_tail_hypothesis(protocol, n, threshold_bits)
    sections["tail"] = tail._asdict()

    try:
        partition = partition_inputs(protocol, n, threshold_bits)
    except PartitionError as exc:
        sections["partition"] = {"ok": False, "witness": str(exc)}
        return sections, False
    table = partition.table()
    sections["partition"] = {
        "ok": True,
        "cells": partition.cell_count,
        "cell_bound": cell_bound(n),
        "within_bound": partition.within_bound,
        "table_digest": table.digest,
    }

    # a's honest certificate on every promise pair: completeness needs equal
    # inputs jointly accepted, soundness needs every reject pair refused
    total = passed = reject_pairs = jointly_accepted = max_bits = 0
    for a, b in promise_pairs(n):
        cert = build_certificate(a, partition, protocol)
        max_bits = max(max_bits, cert.bit_length)
        ok_a = verify_certificate(ALICE, a, cert, table, protocol)
        ok_b = verify_certificate(BOB, b, cert, table, protocol)
        accepted = bool(ok_a.accepted and ok_b.accepted)
        if a == b:
            total += 1
            passed += accepted
        else:
            reject_pairs += 1
            jointly_accepted += accepted
    sections["completeness"] = {"ok": passed == total, "passed": passed, "total": total}
    sections["soundness"] = {"ok": jointly_accepted == 0, "pairs": reject_pairs,
                             "jointly_accepted": jointly_accepted}

    # holds for every honest certificate (see certificate_reference_bits), so
    # the verdict does not read it
    reference_bits = certificate_reference_bits(n, threshold_bits)
    sections["certificate_bits"] = {"max": max_bits, "reference": reference_bits,
                                    "within_reference": max_bits <= reference_bits}
    return sections, partition.within_bound and all(
        sections[key]["ok"] for key in ("tail", "completeness", "soundness"))


def m_of_n(n: int) -> float:
    """Budget curve 0.003 n / log2 n."""
    n = _at_least("m_of_n", "n", n, 2, even=True)
    return 0.003 * n / math.log2(n)


def moment_bound_forms(n: int, k: int) -> tuple[float, float]:
    """Both arrangements of the order-k bound: direct, and routed through
    m_of_n as m_of_n(n)**k / (0.006 n).  Algebraically equal; exposed
    separately so callers can check the agreement themselves.
    """
    n = _at_least("moment_bound", "n", n, 2, even=True)
    k = _at_least("moment_bound", "k", k, 1)
    direct = 0.5 * (0.003 * n) ** (k - 1) / math.log2(n) ** k
    via_threshold = m_of_n(n) ** k / (0.006 * n)
    return direct, via_threshold


def moment_bound(n: int, k: int) -> float:
    """Order-k cost bound 0.5 (0.003 n)^(k-1) / (log2 n)^k.

    Evaluated in two algebraically equal arrangements that must agree to
    1e-12 relative; a disagreement means a transcription slip in one.
    """
    direct, via_threshold = moment_bound_forms(n, k)
    if not math.isclose(direct, via_threshold, rel_tol=1e-12):
        raise InvariantError(
            f"moment bound arrangements disagree: {direct!r} vs {via_threshold!r}")
    return direct


def contradiction_holds(n: int) -> bool:
    """True when `n1_lower_bound(n)` exceeds `certificate_reference_bits(n, m_of_n(n))`:
    a protocol on the budget curve at n would then give accept certificates
    shorter than N1 allows, so none can sit there."""
    n = _at_least("contradiction_holds", "n", n, 2, even=True)
    return n1_lower_bound(n) > certificate_reference_bits(n, m_of_n(n))


def contradiction_threshold(limit: int = 10_000_002) -> int:
    """Smallest even n where contradiction_holds, found by even bisection.

    Verifies the claim at the limit, at spot checks above it, and that the
    threshold is a genuine sign change (holds there, fails two below).
    """
    limit = _at_least("contradiction_threshold", "limit", limit, 4, even=True)
    if not contradiction_holds(limit):
        raise InvariantError(f"contradiction does not hold at limit {limit}")
    for probe in (limit, 2 * limit, 16 * limit):
        if not contradiction_holds(probe):
            raise InvariantError(f"contradiction fails above the limit at {probe}")
    low, high = 4, limit  # low fails, high holds
    if contradiction_holds(low):
        return low
    while high - low > 2:
        mid = (low + high) // 2
        mid -= mid % 2
        if contradiction_holds(mid):
            high = mid
        else:
            low = mid
    if not contradiction_holds(high) or contradiction_holds(high - 2):
        raise InvariantError("threshold bisection did not isolate a sign change")
    return high
