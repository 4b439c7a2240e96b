"""Acceptance gate: eight criteria, one pass/fail line each (run with -s).

Each test prints `criterion N: PASS/FAIL - detail` and asserts; tolerances
and runtime budgets are stated inline next to the checks.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qcc_lab.cli import main
from qcc_lab.dj import n1_lower_bound, promise_pairs, promise_scenarios
from qcc_lab.harness import (ALICE, BOB, Transcript, check_exact_blqms,
                             cost_law, run, sample_distribution)
from qcc_lab.oracle import (JointProbs, SignVector, bloch_observable,
                            expectations_to_probs, maximally_entangled,
                            predict_expectations, predict_joint_probs,
                            probs_to_expectations, sign_vector_projector,
                            singlet)
from qcc_lab.protocols import SendAllReplyProtocol, TonerBaconProtocol
from qcc_lab.reduction import (DjCertificate, build_certificate,
                               check_tail_hypothesis, contradiction_holds,
                               contradiction_threshold, moment_bound,
                               moment_bound_forms, partition_inputs,
                               verify_certificate)


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_exactness():
    start = time.perf_counter()
    checked = 0
    for n in (2, 4, 8):
        state = maximally_entangled(n)
        projectors = {a.coords: sign_vector_projector(a)
                      for a in SignVector.all_vectors(n)}
        for a, b in promise_pairs(n):
            probs = predict_joint_probs(projectors[a.coords],
                                        projectors[b.coords], state)
            expected = Fraction(1, n) if a == b else Fraction(0)
            assert probs.exact
            assert probs.p_pp == expected
            checked += 1
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 10.0,
            f"{checked} promise pairs at n in {{2,4,8}} exact, "
            f"{elapsed:.2f}s (budget 10s)")


def test_criterion_2_bijection_roundtrip():
    rng = random.Random(92)
    worst = 0.0
    for _ in range(10**4):
        raw = [rng.random() + 1e-9 for _ in range(4)]
        total = sum(raw)
        probs = JointProbs(*[x / total for x in raw])
        back = expectations_to_probs(probs_to_expectations(probs))
        worst = max(worst, abs(back.p_pp - probs.p_pp),
                    abs(back.p_mp - probs.p_mp), abs(back.p_pm - probs.p_pm),
                    abs(back.p_mm - probs.p_mm))
    exact_failures = 0
    for _ in range(10**4):
        weights = [rng.randrange(64) for _ in range(4)]
        if not any(weights):
            weights[rng.randrange(4)] = 1
        total = sum(weights)
        probs = JointProbs(*[Fraction(w, total) for w in weights])
        if expectations_to_probs(probs_to_expectations(probs)) != probs:
            exact_failures += 1
    _report(2, worst <= 1e-12 and exact_failures == 0,
            f"1e4 float round trips worst error {worst:.2e} (tol 1e-12), "
            f"1e4 rational round trips {exact_failures} mismatches")


def _random_unit(rng):
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return tuple(float(x) / norm for x in v)


def test_criterion_3_toner_bacon_statistics():
    start = time.perf_counter()
    protocol = TonerBaconProtocol()
    state = singlet()
    rng = np.random.default_rng(77)
    worst_corr = worst_marg = 0.0
    for i in range(20):
        a, b = _random_unit(rng), _random_unit(rng)
        target = predict_expectations(bloch_observable(a), bloch_observable(b),
                                      state)
        stats = sample_distribution(protocol, a, b, samples=10**6,
                                    seed=1000 + i)
        est = probs_to_expectations(stats.probs)
        worst_corr = max(worst_corr, abs(float(est.e_ab) - float(target.e_ab)))
        worst_marg = max(worst_marg, abs(float(est.e_a)), abs(float(est.e_b)))
        assert stats.t_max == 1 and stats.t_mean == 1.0
    elapsed = time.perf_counter() - start
    _report(3, worst_corr <= 5e-3 and worst_marg <= 5e-3 and elapsed < 60.0,
            f"20 direction pairs x 1e6 samples: worst |corr err| "
            f"{worst_corr:.2e}, worst |marginal| {worst_marg:.2e} "
            f"(tol 5e-3), T = 1 throughout, {elapsed:.1f}s (budget 60s)")


def test_criterion_4_send_all_reply_exact_law_and_moments():
    for n in (2, 4, 6, 8):
        protocol = SendAllReplyProtocol(n)
        report = check_exact_blqms(protocol, promise_scenarios(n))
        assert report.mode == "exact"
        assert report.all_restricted is True
        assert report.all_full is True

        if n <= 4:
            pairs = list(promise_pairs(n))
        else:
            diagonal = [(a, a) for a in SignVector.all_vectors(n)]
            mixed = [p for p in promise_pairs(n) if p[0].dot(p[1]) == 0][:40]
            pairs = diagonal + mixed
        laws = [cost_law(protocol, a, b) for a, b in pairs]
        for k in (1, 2, 3):
            assert max(law.moment(k) for law in laws) == Fraction((n + 1)**k)
    _report(4, True,
            "law matches the quantum targets exactly at n in {2,4,6,8} "
            "(full and restricted), cost moments are (n+1)^k exactly")


def test_criterion_5_tail_and_partition():
    start = time.perf_counter()
    details = []
    for n in (2, 4):
        protocol = SendAllReplyProtocol(n)
        threshold = n + 2
        tail = check_tail_hypothesis(protocol, n, threshold)
        assert tail.ok, f"tail mass {tail.worst_mass} at n={n}"
        partition = partition_inputs(protocol, n, threshold)
        assert partition.cell_count <= 2 * n * n
        covered = 0
        for cell in partition.cells:
            for vec in cell.vectors:
                record = run(protocol, vec, vec, cell.lam)
                assert record.g == 1 and record.t < threshold
                covered += 1
        assert covered == 2**n
        details.append(f"n={n}: {partition.cell_count} cells (bound {2 * n * n})")
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 30.0,
            "; ".join(details) + f", every cell replayed, {elapsed:.2f}s "
            f"(budget 30s)")


def test_criterion_6_certificate_completeness_and_soundness():
    fixtures = {}
    for n in (2, 4):
        protocol = SendAllReplyProtocol(n)
        partition = partition_inputs(protocol, n, n + 2)
        fixtures[n] = (protocol, partition, partition.table())
        length_bound = 2 * math.log2(n) + 1 + 2 * (n + 1)
        for a in SignVector.all_vectors(n):
            cert = build_certificate(a, partition, protocol)
            assert cert.bit_length <= length_bound
            assert verify_certificate(ALICE, a, cert, fixtures[n][2], protocol)
            assert verify_certificate(BOB, a, cert, fixtures[n][2], protocol)

    # n=2: every certificate with any cell index and transcripts one entry
    # longer than honest ones, against every reject pair
    protocol, partition, table = fixtures[2]
    reject2 = [(a, b) for a, b in promise_pairs(2) if a.dot(b) == 0]
    alphabet = ((ALICE, 0), (ALICE, 1), (BOB, 0), (BOB, 1))
    searched = joint2 = 0
    for j in range(1, 9):
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                cert = DjCertificate(2, j, Transcript(combo))
                searched += 1
                for a, b in reject2:
                    if (verify_certificate(ALICE, a, cert, table, protocol).accepted
                            and verify_certificate(BOB, b, cert, table,
                                                   protocol).accepted):
                        joint2 += 1
    assert joint2 == 0

    # n=4: seeded adversarial forgeries, honest-certificate mutations included
    protocol, partition, table = fixtures[4]
    reject4 = [(a, b) for a, b in promise_pairs(4) if a.dot(b) == 0]
    honest = {a.coords: build_certificate(a, partition, protocol)
              for a in SignVector.all_vectors(4)}
    rng = random.Random(31)
    forged = joint4 = 0
    for _ in range(10**5):
        a, b = reject4[rng.randrange(len(reject4))]
        kind = rng.randrange(5)
        base = honest[a.coords]
        entries = base.transcript.entries
        if kind == 0:
            entries = tuple((ALICE if rng.randrange(2) else BOB,
                             rng.randrange(2)) for _ in range(rng.randrange(9)))
            cert = DjCertificate(4, rng.randrange(1, 33), Transcript(entries))
        elif kind == 1:
            cert = base  # honest for a, replayed against the wrong peer
        elif kind == 2:
            k = rng.randrange(len(entries))
            flipped = (entries[:k] + ((entries[k][0], 1 - entries[k][1]),)
                       + entries[k + 1:])
            cert = DjCertificate(4, base.j, Transcript(flipped))
        elif kind == 3:
            k = rng.randrange(len(entries))
            other = BOB if entries[k][0] is ALICE else ALICE
            cert = DjCertificate(4, base.j, Transcript(
                entries[:k] + ((other, entries[k][1]),) + entries[k + 1:]))
        else:
            if rng.randrange(2):
                cert = DjCertificate(4, base.j,
                                     Transcript(entries[:rng.randrange(len(entries))]))
            else:
                extra = (ALICE if rng.randrange(2) else BOB, rng.randrange(2))
                cert = DjCertificate(4, base.j, Transcript(entries + (extra,)))
        forged += 1
        if (verify_certificate(ALICE, a, cert, table, protocol).accepted
                and verify_certificate(BOB, b, cert, table, protocol).accepted):
            joint4 += 1
    assert joint4 == 0
    _report(6, True,
            f"completeness 100% at n in {{2,4}} within the length bound; "
            f"soundness: {searched} exhaustive n=2 certificates and "
            f"{forged} seeded n=4 forgeries, 0 joint acceptances")


def test_criterion_7_bound_formulas():
    v1 = n1_lower_bound(2**20)
    v2 = moment_bound(2**20, 2)
    assert abs(v1 - 318.13) <= 0.01
    assert abs(v2 - 3.932) <= 0.001
    for n in (2, 4, 16, 256, 1024, 2**16, 2**20):
        for k in (1, 2, 3, 4, 5):
            direct, via_threshold = moment_bound_forms(n, k)
            assert math.isclose(direct, via_threshold, rel_tol=1e-12)
    assert contradiction_holds(10**7 + 2)
    assert not contradiction_holds(10**3)
    threshold = contradiction_threshold()
    assert threshold <= 10**7 + 2
    _report(7, True,
            f"n1_lower_bound(2^20) = {v1:.4f} (318.13 +/- 0.01), "
            f"moment_bound(2^20, 2) = {v2:.5f} (3.932 +/- 0.001), forms agree "
            f"to 1e-12, contradiction false at 1e3 / true at 1e7+2 "
            f"(threshold {threshold})")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "state": "maximally_entangled", "n": 4,
        "alice": {"vector": "++--"}, "bob": {"vector": "++--"},
    }))
    command_sets = [
        ["predict", "--scenario", str(scenario)],
        ["predict", "--scenario", str(scenario), "--format", "csv"],
        ["simulate", "--protocol", "send_all_reply", "--a", "++", "--b", "+-"],
        ["simulate", "--protocol", "toner_bacon", "--a", "0,0,1",
         "--b", "0.6,0,0.8", "--samples", "20000", "--seed", "11"],
        ["simulate", "--protocol", "constant"],
        ["verify", "--protocol", "send_all_reply", "--n", "2"],
        ["verify", "--protocol", "send_all_reply", "--n", "2",
         "--samples", "300", "--seed", "5"],
        ["dj", "cert", "--a", "++--", "--b=-++-"],
        ["dj", "verify", "--party", "A", "--vector", "++", "--cert", "10"],
        ["dj", "bounds", "--n", "2", "8", "1024"],
        ["reduce", "--protocol", "send_all_reply", "--n", "2", "--M", "4"],
        ["bounds", "--n", "1024", "--k", "1", "2"],
        ["bounds", "--n", "1024", "--format", "csv"],
    ]
    for argv in command_sets:
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code == 0, argv
        assert first and first == second, argv
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["reduce", "--protocol", "send_all_reply", "--n", "2",
          "--out", str(out_a)])
    main(["reduce", "--protocol", "send_all_reply", "--n", "2",
          "--out", str(out_b)])
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    _report(8, True,
            f"{len(command_sets)} commands rerun byte-identical on stdout, "
            f"file output byte-identical")
