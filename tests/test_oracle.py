"""Exact-arithmetic core: rational matrices, wrappers, and the joint law."""

import copy
import pickle
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc_lab import oracle
from qcc_lab.dj import check_promise, promise_scenarios
from qcc_lab.errors import (DimensionMismatchError, InvariantError,
                            PromiseViolationError)
from qcc_lab.oracle import (OPERATOR_ATOL, BinaryObservable, DensityMatrix, ExpectationTriple,
                            JointProbs, Projector, RationalMatrix, SignVector,
                            bloch_observable, expectations_to_probs,
                            joint_plus_probability, maximally_entangled,
                            observable_to_projector, predict_expectations,
                            predict_joint_probs, probs_to_expectations,
                            projector_to_observable, sign_vector_observable,
                            sign_vector_projector, singlet)
from qcc_lab.protocols import SendAllReplyProtocol


# --- rational matrices ----------------------------------------------------


def test_rational_matrix_identity_and_trace():
    eye = RationalMatrix.identity(3)
    assert eye.trace() == 1 * 3
    assert eye.entry(0, 0) == 1 and eye.entry(0, 1) == 0


def test_rational_matrix_equals_across_denominators():
    half = RationalMatrix(np.array([[1, 0], [0, 1]], dtype=object) * 2, 4)
    also_half = RationalMatrix(np.array([[1, 0], [0, 1]], dtype=object), 2)
    assert half.equals(also_half)
    assert not half.equals(RationalMatrix.identity(2))


def test_rational_matmul_matches_float():
    rng = np.random.default_rng(5)
    a = RationalMatrix(rng.integers(-9, 10, (4, 4)), 7)
    b = RationalMatrix(rng.integers(-9, 10, (4, 4)), 3)
    np.testing.assert_allclose((a @ b).to_float(), a.to_float() @ b.to_float(),
                               atol=1e-12)
    np.testing.assert_allclose(a.kron(b).to_float(),
                               np.kron(a.to_float(), b.to_float()), atol=1e-12)


def test_rational_one_minus_and_trace_dot():
    p = RationalMatrix(np.array([[1, 1], [1, 1]], dtype=object), 2)
    q = p.one_minus()
    assert (p.to_float() + q.to_float() == np.eye(2)).all()
    # Tr(p q) = Fraction sum of elementwise products with q^T
    expected = Fraction(
        int((p.num * q.num.T).sum()), p.den * q.den)
    assert p.trace_dot(q) == expected == 0


def test_rational_matrix_rejects_float_input():
    with pytest.raises(InvariantError):
        RationalMatrix(np.array([[0.5, 0], [0, 0.5]]), 2)
    with pytest.raises(InvariantError):
        RationalMatrix(np.eye(2, dtype=np.int64), 0)


def assert_python_ints(matrix: RationalMatrix) -> None:
    assert matrix.num.dtype == object
    assert all(type(x) is int for x in matrix.num.flat)


def test_rational_matrix_python_ints_past_int64_stay_exact():
    # numpy alone infers uint64 for [[2**63]] and float64 for the mixed matrix
    top = RationalMatrix([[2**63]], 1)
    assert top.entry(0, 0) == 2**63 and top.num.dtype == object
    mixed = RationalMatrix([[2**63, 0], [0, 1]], 1)
    assert mixed.num.dtype == object
    assert [mixed.entry(i, j) for i in (0, 1) for j in (0, 1)] == [2**63, 0, 0, 1]
    low = RationalMatrix([[-(2**63) - 1, 2**70]], 3)
    assert low.entry(0, 0) == Fraction(-(2**63) - 1, 3) and low.entry(0, 1) == Fraction(2**70, 3)
    unsigned = RationalMatrix(np.array([[2**63, 1]], dtype=np.uint64), 1)
    assert unsigned.entry(0, 0) == 2**63 and unsigned.num.dtype == object
    # entries that fit are Python ints too, at both ends of the int64 range
    for rows in ([[1, -2], [3, 4]], [[2**63 - 1, -(2**63)]], [[np.int64(5), 7]]):
        exact = RationalMatrix(rows, 1)
        assert_python_ints(exact)
        assert exact.num.tolist() == [[int(x) for x in row] for row in rows]
    assert RationalMatrix(np.array([[1]], dtype=object), 1).num.dtype == object
    for bad in ([[1.5]], [[2**63, 0.5]], [[True, 0]], np.array([[1.5]], dtype=object),
                np.array([[True]]), [[1, 2], [3]], [1, 2]):
        with pytest.raises(InvariantError):
            RationalMatrix(bad, 1)


def test_rational_trace_sums_past_int64():
    """Numerators that fit int64, whose diagonal sum passes 2^63 - 1, trace exactly."""
    wide = RationalMatrix([[2**62, 0], [0, 2**62]], 1)
    assert_python_ints(wide)
    assert wide.trace() == 2**63
    # trace 4 * 2^61 / 2^63 = 1, so the state is accepted
    state = DensityMatrix(RationalMatrix(np.diag([2**61] * 4), 2**63))
    assert state.exact and state.entries.trace() == 1


def _fraction_rows(matrix: RationalMatrix) -> list[list[Fraction]]:
    rows, cols = matrix.shape
    return [[matrix.entry(i, j) for j in range(cols)] for i in range(rows)]


def _as_input(rows: list[list[int]], form: str):
    if form == "int64":
        return np.array(rows, dtype=np.int64)
    if form == "np.int64 entries":
        return [[np.int64(x) for x in row] for row in rows]
    if form == "object":
        return np.array(rows, dtype=object)
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_matrix_matches_fraction_reference(data):
    """Every exact operation agrees with nested lists of Fractions, for
    numerators small and past int64 and denominators past 2^64."""
    bound = data.draw(st.sampled_from([10, 2**70]))
    forms = ["list", "object"] + (["int64", "np.int64 entries"] if bound < 2**63 else [])
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def draw(rows, cols):
        num = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=cols,
                                          max_size=cols), min_size=rows, max_size=rows))
        den = data.draw(st.integers(1, 2**66))
        matrix = RationalMatrix(_as_input(num, data.draw(st.sampled_from(forms))), den)
        return matrix, [[Fraction(x, den) for x in row] for row in num]

    (a, ref_a), (b, ref_b), (sq, ref_sq) = draw(r, c), draw(c, r), draw(r, r)
    product = [[sum((ref_a[i][k] * ref_b[k][j] for k in range(c)), start=Fraction(0))
                for j in range(r)] for i in range(r)]
    kron = [[ref_a[i][j] * ref_b[k][m] for j in range(c) for m in range(r)]
            for i in range(r) for k in range(c)]
    one_minus = [[int(i == j) - ref_sq[i][j] for j in range(r)] for i in range(r)]
    for matrix, ref in ((a, ref_a), (b, ref_b), (sq, ref_sq), (a @ b, product),
                        (a.kron(b), kron), (sq.one_minus(), one_minus)):
        assert_python_ints(matrix)
        assert _fraction_rows(matrix) == ref
    assert sq.trace() == sum(ref_sq[i][i] for i in range(r))
    assert a.trace_dot(b) == sum(product[i][i] for i in range(r))
    scale = data.draw(st.integers(1, 2**66))
    scaled = a.num * scale
    assert a.equals(RationalMatrix(scaled, a.den * scale))
    scaled[0, 0] += 1
    assert not a.equals(RationalMatrix(scaled, a.den * scale))
    assert sq.equals(a) == (ref_sq == ref_a)
    assert (a @ b).equals(sq) == (product == ref_sq)


# --- sign vectors ----------------------------------------------------------


def test_sign_vector_parse_both_formats():
    assert SignVector.parse("+-+-").coords == (1, -1, 1, -1)
    assert SignVector.parse("1,-1,1,-1").coords == (1, -1, 1, -1)
    with pytest.raises(InvariantError):
        SignVector.parse("+-+")  # odd length
    with pytest.raises(InvariantError):
        SignVector.parse("+0+-")
    for text, token in ((",", "''"), ("+,-", "'+'"), ("a,b", "'a'"), ("1,,1", "''")):
        with pytest.raises(InvariantError, match=re.escape(f"token {token}")):
            SignVector.parse(text)
    # coordinates are integers: no bool, float, text or unhashable passes for +/-1
    for coords in ((1.5, -1), (1.0, -1), (True, -1), (1, np.float64(-1)), ("1", -1),
                   ([1], 1)):
        with pytest.raises(InvariantError, match="integers"):
            SignVector(coords)
    numpy_ints = SignVector((np.int64(1), np.int8(-1))).coords
    assert numpy_ints == (1, -1) and all(type(c) is int for c in numpy_ints)


def test_sign_vector_roundtrips():
    for text in ("++", "+-", "-+--", "++--+-"):
        vec = SignVector.parse(text)
        assert vec.to_text() == text
        assert SignVector.from_bits(vec.to_bits()) == vec
        # iteration and membership go through `__getitem__`, as on the coordinates
        flipped = SignVector(tuple(-c for c in vec.coords))
        assert list(vec) == list(vec.coords) and tuple(vec) == vec.coords
        assert list(zip(vec, flipped)) == list(zip(vec.coords, flipped.coords))
        assert (-1 in vec) == (-1 in vec.coords) and (1 in flipped) == (1 in flipped.coords)


def test_sign_vector_bits_are_computed_once():
    vec = SignVector.parse("+--+")
    assert vec.to_bits() == (1, 0, 0, 1)
    assert vec.to_bits() is vec.to_bits()
    assert vec == SignVector.parse("+--+") and hash(vec) == hash(SignVector.parse("+--+"))


def test_all_vectors_enumeration():
    vectors = list(SignVector.all_vectors(4))
    assert len(vectors) == 16
    assert len({v.coords for v in vectors}) == 16
    with pytest.raises(InvariantError):
        list(SignVector.all_vectors(3))


def test_sign_vector_dot():
    a = SignVector.parse("++--")
    b = SignVector.parse("+-+-")
    assert a.dot(b) == 0
    assert a.dot(a) == 4
    with pytest.raises(DimensionMismatchError):
        a.dot(SignVector.parse("++"))
    for other in ((1, -1, 1, -1), "+-+-", None):
        with pytest.raises(InvariantError, match="needs a SignVector"):
            a.dot(other)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sign_vector_dot_matches_coordinate_sum(n):
    """Differential: the bit-index popcount against the coordinate sum on
    every ordered pair; the index is the position in `all_vectors`."""
    vectors = list(SignVector.all_vectors(n))
    assert [v.index for v in vectors] == list(range(2**n))
    for a in vectors:
        for b in vectors:
            assert a.dot(b) == sum(x * y for x, y in zip(a.coords, b.coords))
    with pytest.raises(DimensionMismatchError):
        vectors[0].dot(SignVector((1,) * (n + 2)))


# --- operator wrappers ------------------------------------------------------


def test_projector_rejects_non_idempotent():
    with pytest.raises(InvariantError):
        Projector(np.array([[0.5, 0.0], [0.0, 0.7]]))
    with pytest.raises(InvariantError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvariantError, match=r"projector is not symmetric \(exact mode\)"):
        Projector(RationalMatrix([[0, 1], [0, 0]], 1))
    # diag(1, 0) over 2^40: num * den leaves int64, idempotence stays exact
    big = 2**40
    Projector(RationalMatrix(np.array([[big, 0], [0, 0]]), big))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[big, 0], [0, big // 2]]), big))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[big + 1, 0], [0, 0]]), big))
    huge = 2**70
    Projector(RationalMatrix(np.array([[huge, 0], [0, 0]], dtype=object), huge))
    with pytest.raises(InvariantError):
        Projector(RationalMatrix(np.array([[huge, 0], [0, 1]], dtype=object), huge))


def test_observable_projector_conversion():
    a = sign_vector_observable(SignVector.parse("++--"))
    p = observable_to_projector(a)
    back = projector_to_observable(p)
    assert back.entries.equals(a.entries)
    # object-dtype numerators over a denominator past int64
    huge = 2**70
    z = BinaryObservable(RationalMatrix(
        np.array([[huge, 0], [0, -huge]], dtype=object), huge))
    p = observable_to_projector(z)
    assert p.entries.equals(RationalMatrix(np.array([[1, 0], [0, 0]]), 1))
    assert projector_to_observable(p).entries.equals(z.entries)
    q = Projector(RationalMatrix(np.array([[0, 0], [0, huge]], dtype=object), huge))
    assert projector_to_observable(q).entries.equals(
        RationalMatrix(np.array([[-1, 0], [0, 1]]), 1))


def test_observable_to_projector_skips_checks_it_would_pass(monkeypatch):
    """(A + 1)/2 of a validated observable is built without the projector
    checks, and the validating constructor accepts the same entries: exact
    sign-vector observables, Bloch observables, and a float observable whose
    square is off the identity by almost OPERATOR_ATOL."""
    edge = BinaryObservable(np.diag([1 + 0.99 * OPERATOR_ATOL / 2, -1.0]))
    observables = [sign_vector_observable(v) for v in SignVector.all_vectors(4)]
    observables += [bloch_observable(u) for u in ((0, 0, 1), (0.6, 0, 0.8), (0, -1, 0))]
    observables.append(edge)
    checks = []
    validate = Projector.__post_init__
    monkeypatch.setattr(Projector, "__post_init__",
                        lambda self: (checks.append(self), validate(self))[1])
    for obs in observables:
        fast = observable_to_projector(obs)
        assert not checks and fast.exact == obs.exact
        checked = Projector(fast.entries)
        assert len(checks) == 1
        for f in fields(Projector):  # every field the validating build sets
            if f.name != "entries":
                assert getattr(fast, f.name) == getattr(checked, f.name), f.name
        checks.clear()
        if obs.exact:
            assert projector_to_observable(fast).entries.equals(obs.entries)
        else:
            assert not fast.entries.flags.writeable
            np.testing.assert_array_equal(checked.entries, (obs.entries + np.eye(obs.dim)) / 2)


def _checks_counted(monkeypatch, cls):
    """Count the validating constructor's runs on `cls`."""
    checks, validate = [], cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: (checks.append(self), validate(self))[1])
    return checks


def _same_build(fast, checked, reference, tag):
    """`fast` holds the reference's entries as read-only Python-int numerators
    over the same den, and every field of the validated build but the tag."""
    num = fast.entries.num
    assert num.dtype == object and not num.flags.writeable
    assert all(type(x) is int for x in num.flat)
    assert num.tolist() == reference.entries.num.tolist()
    assert fast.entries.den == reference.entries.den
    for f in fields(type(fast)):
        if f.name not in ("entries", tag):
            assert getattr(fast, f.name) == getattr(checked, f.name), f.name
    assert getattr(checked, tag) is None


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sign_vector_projector_skips_checks_it_would_pass(monkeypatch, n):
    """a a^T / n is built without the projector checks, which its entries pass;
    `Projector` on a a^T over n is the validating reference."""
    checks = _checks_counted(monkeypatch, Projector)
    for a in SignVector.all_vectors(n):
        fast = sign_vector_projector(a)
        assert not checks and fast._sign_vector is a
        checked = Projector(fast.entries)
        reference = Projector(RationalMatrix(np.outer(a.coords, a.coords), n))
        assert len(checks) == 2
        _same_build(fast, checked, reference, "_sign_vector")
        checks.clear()


def test_maximally_entangled_skips_checks_it_would_pass(monkeypatch):
    """phi phi^T / n is built without the state checks, which its entries pass;
    `DensityMatrix` on phi phi^T over n is the validating reference."""
    checks = _checks_counted(monkeypatch, DensityMatrix)
    for n in range(1, 9):
        fast = maximally_entangled(n)
        assert not checks and fast._entangled_n == n and fast.dim == n * n
        phi = np.eye(n, dtype=np.int64).ravel()
        checked = DensityMatrix(fast.entries)
        reference = DensityMatrix(RationalMatrix(np.outer(phi, phi), n))
        assert len(checks) == 2
        _same_build(fast, checked, reference, "_entangled_n")
        checks.clear()


def test_unchecked_build_refuses_an_unknown_tag():
    """A misspelled tag would build an untagged operator that takes the slow
    route without a word, so `_unchecked` refuses names that are not fields."""
    entries = sign_vector_projector(SignVector.parse("+-")).entries
    with pytest.raises(TypeError, match="Projector has no field _sign_vectr"):
        Projector._unchecked(entries, _sign_vectr=SignVector.parse("+-"))
    assert Projector._unchecked(entries)._sign_vector is None


def test_observable_requires_involution():
    with pytest.raises(InvariantError):
        BinaryObservable(np.diag([1.0, 0.5]))
    with pytest.raises(InvariantError, match="observable squared is not the identity"):
        BinaryObservable(RationalMatrix([[1, 0], [0, 0]], 1))
    # a valid non-exact observable: Pauli X
    BinaryObservable(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_maximally_entangled_needs_a_positive_integer_dimension():
    for n in (True, 2.0, "2"):
        with pytest.raises(InvariantError,
                           match="maximally_entangled parameter n must be an integer"):
            maximally_entangled(n)
    with pytest.raises(InvariantError,
                       match="maximally_entangled parameter n must be at least 1, got 0"):
        maximally_entangled(0)
    assert maximally_entangled(np.int64(2)).dim == 4


def test_density_matrix_validation():
    with pytest.raises(InvariantError):
        DensityMatrix(np.eye(4) / 2)  # trace 2
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    with pytest.raises(InvariantError):
        DensityMatrix(np.eye(3) / 3)  # dimension not a perfect square
    with pytest.raises(InvariantError, match="state trace is 2, expected 1"):
        DensityMatrix(RationalMatrix(np.eye(4, dtype=np.int64), 2))
    state = maximally_entangled(2)
    assert state.dim == 4 and state.exact


# --- joint law and closed forms ---------------------------------------------


@pytest.mark.parametrize("n", [2, 4])
def test_trace_law_matches_closed_form_all_pairs(n):
    """Trace route vs the (a.b)^2/n^3 closed form, all pairs (not just promise)."""
    state = maximally_entangled(n)
    vectors = list(SignVector.all_vectors(n))
    projectors = {v: sign_vector_projector(v) for v in vectors}
    for a in vectors:
        for b in vectors:
            probs = predict_joint_probs(projectors[a], projectors[b], state)
            assert probs.p_pp == joint_plus_probability(a, b) == Fraction(a.dot(b) ** 2, n**3)
            assert probs.exact


def test_joint_probs_marginals_match_quantum_targets():
    n = 4
    state = maximally_entangled(n)
    a = SignVector.parse("++--")
    b = SignVector.parse("+-+-")
    probs = predict_joint_probs(sign_vector_projector(a),
                                sign_vector_projector(b), state)
    # each local projector is rank 1 on a maximally mixed marginal
    assert probs.p_pp + probs.p_pm == Fraction(1, n)
    assert probs.p_pp + probs.p_mp == Fraction(1, n)
    assert probs.p_pp + probs.p_mp + probs.p_pm + probs.p_mm == 1


def test_float_path_agrees_with_exact():
    n = 4
    state_f = DensityMatrix(maximally_entangled(n).entries.to_float())
    state_e = maximally_entangled(n)
    rng = np.random.default_rng(11)
    vectors = list(SignVector.all_vectors(n))
    for _ in range(25):
        a = vectors[rng.integers(len(vectors))]
        b = vectors[rng.integers(len(vectors))]
        exact = predict_joint_probs(sign_vector_projector(a),
                                    sign_vector_projector(b), state_e)
        loose = predict_joint_probs(Projector(sign_vector_projector(a).entries.to_float()),
                                    Projector(sign_vector_projector(b).entries.to_float()), state_f)
        assert not loose.exact
        for field in ("p_pp", "p_mp", "p_pm", "p_mm"):
            assert getattr(loose, field) == pytest.approx(
                float(getattr(exact, field)), abs=1e-12)


def test_predict_expectations_consistent_with_probs():
    """Every ordered pair at n = 4, on the tagged state and on the same
    entries built by value."""
    vectors = list(SignVector.all_vectors(4))
    for state in (maximally_entangled(4), by_value(maximally_entangled(4))):
        for a in vectors:
            for b in vectors:
                probs = predict_joint_probs(sign_vector_projector(a),
                                            sign_vector_projector(b), state)
                triple = predict_expectations(sign_vector_observable(a),
                                              sign_vector_observable(b), state)
                assert triple.exact and probs_to_expectations(probs) == triple


def test_singlet_expectations_from_bloch_observables():
    state = singlet()
    z = bloch_observable((0.0, 0.0, 1.0))
    x = bloch_observable((1.0, 0.0, 0.0))
    tilted = bloch_observable((0.6, 0.0, 0.8))
    same = predict_expectations(z, z, state)
    assert same.e_ab == pytest.approx(-1.0, abs=1e-12)
    assert same.e_a == pytest.approx(0.0, abs=1e-12)
    assert same.e_b == pytest.approx(0.0, abs=1e-12)
    cross = predict_expectations(z, x, state)
    assert cross.e_ab == pytest.approx(0.0, abs=1e-12)
    slant = predict_expectations(z, tilted, state)
    assert slant.e_ab == pytest.approx(-0.8, abs=1e-12)


def test_bloch_observable_requires_unit_direction():
    with pytest.raises(InvariantError):
        bloch_observable((1.0, 1.0, 0.0))
    obs = bloch_observable((0.0, 1.0, 0.0))
    np.testing.assert_allclose(obs.entries @ obs.entries, np.eye(2), atol=1e-12)


NAN, INF = float("nan"), float("inf")
NON_FINITE_ENTRIES = {
    "projector nan": lambda: Projector(np.array([[NAN, 0], [0, 1]])),
    "projector inf": lambda: Projector(np.array([[INF, 0], [0, 1]])),
    "observable nan": lambda: BinaryObservable(np.array([[NAN, 0], [0, -1]])),
    "state nan": lambda: DensityMatrix(np.diag([NAN, 0, 0, 1])),
    "bloch nan": lambda: bloch_observable([NAN, 0, 1]),
    "bloch inf": lambda: bloch_observable([0, INF, 1]),
}


@pytest.mark.parametrize("build", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES.keys())
def test_non_finite_entries_are_refused(build):
    # a comparison with nan is false, so a tolerance check alone admits it
    with pytest.raises(InvariantError):
        build()


# --- probability/expectation bijection --------------------------------------


def test_bijection_known_points():
    certain = JointProbs(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert probs_to_expectations(certain) == ExpectationTriple(
        Fraction(1), Fraction(1), Fraction(1))
    flat = JointProbs(*([Fraction(1, 4)] * 4))
    assert probs_to_expectations(flat) == ExpectationTriple(
        Fraction(0), Fraction(0), Fraction(0))


def test_bijection_roundtrip_exact():
    rng = np.random.default_rng(3)
    for _ in range(300):
        weights = rng.integers(0, 20, 4)
        if weights.sum() == 0:
            continue
        total = int(weights.sum())
        probs = JointProbs(*(Fraction(int(w), total) for w in weights))
        back = expectations_to_probs(probs_to_expectations(probs))
        assert back == probs and back.exact


def test_bijection_rejects_incoherent_triple():
    # e_ab = 1 with opposite marginals would force a negative probability
    with pytest.raises(InvariantError):
        expectations_to_probs(ExpectationTriple(
            Fraction(1), Fraction(1), Fraction(-1)))


def test_joint_probs_validation():
    with pytest.raises(InvariantError):
        JointProbs(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                   Fraction(-1, 2))
    with pytest.raises(InvariantError):
        JointProbs(0.5, 0.5, 0.5, 0.5)  # sums to 2
    # an entry that is not an int, a float or a Fraction is named, not compared
    for bad in ("0.5", None, 1 + 0j, True):
        with pytest.raises(InvariantError, match="p_pp must be an int, a float or a Fraction"):
            JointProbs(bad, 0.5, 0, 0)
        with pytest.raises(InvariantError, match="p_mm must be an int, a float or a Fraction"):
            JointProbs(0, 0, 0.5, bad)
        with pytest.raises(InvariantError, match="e_a must be an int, a float or a Fraction"):
            ExpectationTriple(0, bad, 0)
    point_mass = JointProbs(1, 0, 0, 0)
    assert point_mass.p_pp == 1 and point_mass.exact
    assert all(type(p) is Fraction for p in point_mass.as_dict().values())
    assert ExpectationTriple(Fraction(1, 2), -1, 0.25).e_b == 0.25


@pytest.mark.parametrize("value,exact", [
    (JointProbs(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)), True),
    (JointProbs(0.5, Fraction(1, 4), Fraction(1, 4), Fraction(0)), False),
    (ExpectationTriple(Fraction(1, 2), Fraction(-1), Fraction(0)), True),
    (ExpectationTriple(Fraction(1, 2), -1, 0.0), False),
    (ExpectationTriple(Fraction(1, 2), -1, 0), True),
])
def test_exact_is_computed_once_and_leaves_value_semantics(value, exact):
    """`exact` is cached on the frozen instance: equality, hashing, copies
    and pickles see only the fields, cached or not."""
    fresh = copy.copy(value)
    assert value.exact is exact and vars(value)["exact"] is exact
    assert "exact" not in vars(fresh)
    assert value == fresh and hash(value) == hash(fresh)
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value)), pickle.loads(pickle.dumps(fresh))):
        assert clone == value and hash(clone) == hash(value) and clone.exact is exact


# --- promise-family closed forms ---------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_target_probability_on_promise(n):
    for a in SignVector.all_vectors(n):
        assert joint_plus_probability(a, a) == Fraction(1, n)
    a = SignVector((1,) * n)
    b = SignVector((1,) * (n // 2) + (-1,) * (n // 2))
    assert joint_plus_probability(a, b) == 0


def test_target_probability_rejects_off_promise():
    a = SignVector.parse("++++")
    b = SignVector.parse("+++-")  # dot = 2
    with pytest.raises(PromiseViolationError):
        check_promise(a, b)
    # the general closed form still applies off-promise
    assert joint_plus_probability(a, b) == Fraction(4, 64)


# --- closed form against the kron reference --------------------------------


def by_value(state):
    """The same entries without the structural tag: takes the kron path."""
    return DensityMatrix(state.entries)


@pytest.fixture
def kron_calls(monkeypatch):
    calls = []
    reference = oracle._trace_kron_exact

    def counted(left, right, state):
        calls.append(1)
        return reference(left, right, state)

    monkeypatch.setattr(oracle, "_trace_kron_exact", counted)
    return calls


@pytest.fixture
def law_parts_calls(monkeypatch):
    calls = []
    reference = oracle._law_parts

    def counted(pa, pb, state):
        calls.append(1)
        return reference(pa, pb, state)

    monkeypatch.setattr(oracle, "_law_parts", counted)
    return calls


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sign_vector_law_matches_sum_and_kron_routes(n, law_parts_calls, kron_calls):
    """Every ordered pair, off the promise too: the cached closed form on
    tagged projectors equals the kron route on the same entries built by
    value, and on the state built by value; the observables 2 P - 1, which
    carry no tag, give the closed form's expectations through the kron
    route exactly."""
    state = maximally_entangled(n)
    reference = by_value(state)
    vectors = list(SignVector.all_vectors(n))
    tagged = [sign_vector_projector(v) for v in vectors]
    untagged = [Projector(RationalMatrix(np.outer(v.coords, v.coords), n)) for v in vectors]
    observables = [projector_to_observable(p) for p in tagged]
    for pa, qa, oa in zip(tagged, untagged, observables):
        for pb, qb, ob in zip(tagged, untagged, observables):
            closed = predict_joint_probs(pa, pb, state)
            assert closed.exact
            assert closed == predict_joint_probs(qa, qb, state)
            assert closed == predict_joint_probs(pa, pb, reference)
            expectations = predict_expectations(oa, ob, state)
            assert expectations.exact
            assert expectations == probs_to_expectations(closed)
    # the closed form reaches no trace; each other law takes three
    pairs = len(vectors) ** 2
    assert len(law_parts_calls) == 3 * pairs and len(kron_calls) == 9 * pairs


def test_tagged_state_skips_kron(kron_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = maximally_entangled(4)
    predict_joint_probs(sign_vector_projector(a), sign_vector_projector(b), state)
    assert kron_calls == []
    # the observables 2 P - 1 carry no tag
    predict_expectations(sign_vector_observable(a), sign_vector_observable(b), state)
    assert len(kron_calls) == 3


def test_state_built_by_value_takes_kron(kron_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = by_value(maximally_entangled(4))
    assert state.entries.equals(maximally_entangled(4).entries)
    predict_joint_probs(sign_vector_projector(a), sign_vector_projector(b), state)
    assert len(kron_calls) == 3
    predict_expectations(sign_vector_observable(a), sign_vector_observable(b), state)
    assert len(kron_calls) == 6


def test_untagged_operands_reach_law_parts(law_parts_calls):
    a, b = SignVector.parse("++--"), SignVector.parse("+-+-")
    state = maximally_entangled(4)
    tagged_a, tagged_b = sign_vector_projector(a), sign_vector_projector(b)
    closed = predict_joint_probs(tagged_a, tagged_b, state)
    # the tag is set only by `sign_vector_projector`, never by value
    untagged = [Projector(tagged_a.entries),
                Projector(sign_vector_projector(a).entries.to_float()),
                observable_to_projector(sign_vector_observable(a))]
    assert tagged_a._sign_vector is a
    assert all(p._sign_vector is None for p in untagged)
    assert predict_joint_probs(untagged[0], tagged_b, state) == closed
    assert len(law_parts_calls) == 1
    loose = predict_joint_probs(untagged[1], Projector(sign_vector_projector(b).entries.to_float()),
                                DensityMatrix(state.entries.to_float()))
    assert not loose.exact and len(law_parts_calls) == 2
    assert predict_joint_probs(tagged_a, tagged_b, by_value(state)) == closed
    assert len(law_parts_calls) == 3
    assert probs_to_expectations(closed) == predict_expectations(
        sign_vector_observable(a), sign_vector_observable(b), state)
    assert len(law_parts_calls) == 4
    # tagged operands whose lengths are not the state's n: 2 x 8 = 4^2
    short, wide = SignVector.parse("+-"), SignVector.parse("++--+-+-")
    odd = predict_joint_probs(sign_vector_projector(short), sign_vector_projector(wide), state)
    assert len(law_parts_calls) == 5
    assert odd == predict_joint_probs(sign_vector_projector(short),
                                      sign_vector_projector(wide), by_value(state))


def test_promise_sweep_builds_two_laws(law_parts_calls):
    """One law per (n, a.b), shared by every scenario that has that key;
    no tagged pair reaches `_law_parts`."""
    oracle._sign_vector_law.cache_clear()
    scenarios = list(promise_scenarios(8))
    assert law_parts_calls == []
    info = oracle._sign_vector_law.cache_info()
    assert info.currsize == 2 and info.misses == 2
    assert info.hits == len(scenarios) - 2 == 18_174
    assert len({id(sc.target) for sc in scenarios}) == 2
    # the protocol derives its own law: equal to the oracle's, never the same object
    protocol = SendAllReplyProtocol(8)
    for sc in scenarios[:2]:
        law = protocol.exact_distribution(sc.input_a, sc.input_b)
        assert law == sc.target and law is not sc.target


def test_unequal_party_dims_take_kron(kron_calls):
    """1 x 4 party dims match a 4 x 4 state; untagged, they take the kron route.
    1 x 1 dims do not, and are refused before any trace."""
    state = maximally_entangled(2)
    scalar = Projector(RationalMatrix(np.array([[1]]), 1))
    wide = Projector(RationalMatrix(np.diag([1, 0, 0, 1]), 1))
    probs = predict_joint_probs(scalar, wide, state)
    assert len(kron_calls) == 3
    assert probs == predict_joint_probs(scalar, wide, by_value(state))
    assert probs.p_pp == 1  # the diagonal of Phi lies on |00> and |11>
    with pytest.raises(DimensionMismatchError, match="party dims 1 x 1 do not match state dim 4"):
        predict_joint_probs(scalar, scalar, state)
