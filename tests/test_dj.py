"""Promise equality task, reject certificates, and cost-bound formulas."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qcc_lab.dj import (RejectCertificate, auy_min_n1, check_promise, n0_certificate,
                        n0_upper_bound, n0_verify, n1_lower_bound, promise_pairs,
                        promise_scenarios)
from qcc_lab.errors import (DimensionMismatchError, InvariantError,
                            PromiseViolationError)
from qcc_lab import harness
from qcc_lab.harness import ALICE, BOB, check_exact_blqms, pair_label
from qcc_lab.oracle import SignVector, joint_plus_probability
from qcc_lab.protocols import ConstantProtocol, SendAllReplyProtocol


def sv(text):
    return SignVector.parse(text)


def test_check_promise_known_values():
    assert check_promise(sv("++"), sv("++")) == 2
    assert check_promise(sv("++"), sv("+-")) == 0
    assert check_promise(sv("++--"), sv("+-+-")) == 0
    with pytest.raises(PromiseViolationError):
        check_promise(sv("++++"), sv("+++-"))  # dot = 2
    with pytest.raises(DimensionMismatchError):
        check_promise(sv("++"), sv("++++"))


@pytest.mark.parametrize("n,count", [(2, 12), (4, 112), (6, 1344)])
def test_promise_pairs_exhaustive(n, count):
    pairs = list(promise_pairs(n))
    assert len(pairs) == count
    seen = set()
    for a, b in pairs:
        assert check_promise(a, b) in (0, n)
        seen.add((a.coords, b.coords))
    assert len(seen) == count
    with pytest.raises(InvariantError):
        list(promise_pairs(3))


def reference_promise_pairs(n):
    """The per-pair construction `promise_pairs` replaced: a fresh, validated
    `SignVector` for every flipped b."""
    if n < 2 or n % 2:
        raise InvariantError(f"n must be even and at least 2, got {n}")
    for a in SignVector.all_vectors(n):
        yield a, a
        for flips in itertools.combinations(range(n), n // 2):
            flipped = list(a.coords)
            for i in flips:
                flipped[i] = -flipped[i]
            yield a, SignVector(tuple(flipped))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_promise_pairs_matches_reference_and_shares_vectors(n):
    pairs = list(promise_pairs(n))
    assert pairs == list(reference_promise_pairs(n))  # same pairs, same order
    assert len({id(v) for pair in pairs for v in pair}) == 2**n
    assert all(a is b for a, b in pairs if a == b)


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 5])
def test_promise_pairs_refusals_match_reference(n):
    with pytest.raises(InvariantError) as reference:
        next(reference_promise_pairs(n))
    with pytest.raises(InvariantError, match=re.escape(str(reference.value))):
        next(promise_pairs(n))


def test_certificate_spec_examples():
    cert = n0_certificate(sv("++"), sv("+-"))
    assert (cert.index, cert.alpha) == (2, 1)
    assert cert.encode(2) == (1, 0)
    cert2 = n0_certificate(sv("-+"), sv("++"))
    assert (cert2.index, cert2.alpha) == (1, -1)
    assert cert2.encode(2) == (0, 1)
    with pytest.raises(InvariantError):
        n0_certificate(sv("++"), sv("++"))


def test_certificate_verify_examples():
    cert = RejectCertificate(2, 1)
    assert n0_verify(ALICE, sv("++"), cert)
    assert not n0_verify(BOB, sv("++"), cert)
    assert n0_verify(BOB, sv("-+"), RejectCertificate(1, 1))


def test_certificate_encode_decode_roundtrip():
    for n in (2, 4, 6, 1024):
        width = max(1, (n - 1).bit_length())
        for index in list(range(1, min(n, 8) + 1)) + [n]:
            for alpha in (1, -1):
                cert = RejectCertificate(index, alpha)
                bits = cert.encode(n)
                assert len(bits) == cert.bit_length(n) == width + 1
                assert RejectCertificate.decode(bits, n) == cert
    assert RejectCertificate(2, 1).bit_length(2) == 2
    assert RejectCertificate(2, 1).bit_length(4) == 3
    assert RejectCertificate(2, 1).bit_length(6) == 4
    assert RejectCertificate(2, 1).bit_length(1024) == 11


def test_certificate_decode_validation():
    with pytest.raises(InvariantError):
        RejectCertificate.decode((1,), 4)  # too short
    with pytest.raises(InvariantError):
        RejectCertificate.decode((1, 0, 2), 4)
    # bits are checked against {0, 1} before any cast, so nothing is truncated
    for bits in ([0.5, 1], ["x", 1], [1, "1"], [-1, 0], [0, 1.5], [[1], 0]):
        with pytest.raises(InvariantError, match="each 0 or 1"):
            RejectCertificate.decode(bits, 2)
    assert RejectCertificate.decode([True, 0.0], 2) == RejectCertificate(2, 1)
    with pytest.raises(InvariantError):
        RejectCertificate(2, 1).encode(1024) and RejectCertificate(2000, 1).encode(1024)
    # n=6 leaves slack in 3 index bits; the verifier catches what decode allows
    phantom = RejectCertificate.decode((1, 1, 0, 0), 6)
    assert phantom.index == 7
    result = n0_verify(ALICE, sv("++--+-"), phantom)
    assert not result and "out of range" in result.reason


def test_certificate_fields_are_integers():
    """index and alpha are integers before any comparison: a float or bool
    equal to an allowed value is refused, not carried into encode."""
    for field, bad in (("index", 1.5), ("index", 2.0), ("index", True), ("index", "2"),
                       ("index", None), ("alpha", True), ("alpha", 1.0), ("alpha", -1.0),
                       ("alpha", "1")):
        fields = {"index": 1, "alpha": 1, field: bad}
        with pytest.raises(InvariantError,
                           match=f"RejectCertificate parameter {field} must be an integer"):
            RejectCertificate(**fields)
    for alpha in (0, 2, np.int64(3)):
        with pytest.raises(InvariantError, match="alpha must be"):
            RejectCertificate(1, alpha)
    cert = RejectCertificate(np.int64(2), np.int64(-1))
    assert cert == RejectCertificate(2, -1)
    assert type(cert.index) is int and type(cert.alpha) is int
    assert cert.encode(2) == (1, 1)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_certificate_completeness_and_soundness(n):
    for a, b in promise_pairs(n):
        if a.dot(b) == 0:
            cert = n0_certificate(a, b)
            assert n0_verify(ALICE, a, cert)
            assert n0_verify(BOB, b, cert)
        else:
            for index in range(1, n + 1):
                for alpha in (1, -1):
                    cert = RejectCertificate(index, alpha)
                    jointly = (bool(n0_verify(ALICE, a, cert))
                               and bool(n0_verify(BOB, b, cert)))
                    assert not jointly


def test_n0_upper_bound():
    assert n0_upper_bound(2) == 2
    assert n0_upper_bound(8) == 4
    assert n0_upper_bound(6) == 4
    with pytest.raises(InvariantError):
        n0_upper_bound(1)


def test_n1_lower_bound_frozen_values():
    assert n1_lower_bound(2**20) == pytest.approx(318.1318260869565, rel=1e-12)
    assert n1_lower_bound(1024) == pytest.approx(-0.4486153846153846, rel=1e-12)
    assert n1_lower_bound(1024) < 0  # vacuous at desk scale
    with pytest.raises(InvariantError):
        n1_lower_bound(1)


def test_n1_lower_bound_monotone_from_16():
    values = [n1_lower_bound(n) for n in range(16, 4097, 16)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_auy_gate():
    # measured n=8: trivial protocol cost 9, witness cost 4
    assert auy_min_n1(9, 4) == pytest.approx(0.8)
    assert auy_min_n1(8, 3) == pytest.approx(1.0)
    assert auy_min_n1(2, 4) == 0.0
    with pytest.raises(InvariantError):
        auy_min_n1(1, -2)


def test_promise_scenarios_match_closed_form():
    for n in (2, 4):
        scenarios = list(promise_scenarios(n))
        assert [(sc.input_a, sc.input_b) for sc in scenarios] == list(promise_pairs(n))
        for sc in scenarios:
            assert sc.target.p_pp == joint_plus_probability(sc.input_a, sc.input_b)
            expected = Fraction(1, n) if sc.input_a == sc.input_b else Fraction(0)
            assert sc.target.p_pp == expected


def test_promise_scenarios_refuse_bad_n_on_the_call():
    """The state and projectors are built when called, so a bad n raises
    before any scenario is asked for."""
    for n in (-2, 0, 1, 3, 5):
        with pytest.raises(InvariantError, match=f"promise_scenarios parameter n must be "
                                                 f"even and at least 2, got {n}"):
            promise_scenarios(n)


def test_law_audit_keeps_nothing_per_passing_pair(monkeypatch):
    """The audit streams the scenarios: a passing pair builds no
    `ScenarioResult` and no label, a failing one builds one of each."""
    built = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "ScenarioResult", counted("result", harness.ScenarioResult))
    monkeypatch.setattr(harness, "pair_label", counted("label", harness.pair_label))
    scenarios = promise_scenarios(6)
    assert iter(scenarios) is scenarios  # an iterator, not a list
    report = check_exact_blqms(SendAllReplyProtocol(6), scenarios)
    assert report.scenarios == 2**6 * (1 + math.comb(6, 3)) == 1344
    assert report.failures == () and report.worst_error == 0
    assert report.all_full is True and report.all_restricted is True
    assert built == Counter()
    failing = check_exact_blqms(ConstantProtocol(), promise_scenarios(2))
    assert len(failing.failures) == failing.scenarios == 12
    assert built == Counter(result=12, label=12)
