import math

import numpy as np
import pytest

from loqsim.encoding import (
    LogicalState,
    QubitEncoding,
    bloch,
    decode,
    decompose_su2,
    encode,
    marginal_bloch,
    pbs_convert,
    reconstruct_waveplates,
)
from loqsim.fock import make_basis_state, superpose
from loqsim.interferometer import apply, compose, hwp, qwp

from conftest import full_operator, random_logical_amps, random_unitary

SQRT_HALF = 1.0 / math.sqrt(2.0)
IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_basis():
    enc = QubitEncoding.dual_rail(1)
    photonic = encode(LogicalState.from_bits("0"), enc)
    assert photonic == make_basis_state([1, 0])


def test_encode_superposition():
    enc = QubitEncoding.dual_rail(1)
    plus = LogicalState([SQRT_HALF, SQRT_HALF])
    photonic = encode(plus, enc)
    assert abs(photonic.amplitude([1, 0]) - SQRT_HALF) < 1e-15
    assert abs(photonic.amplitude([0, 1]) - SQRT_HALF) < 1e-15


def test_encode_two_qubits():
    enc = QubitEncoding.dual_rail(2)
    photonic = encode(LogicalState.from_bits("10"), enc)
    assert photonic == make_basis_state([0, 1, 1, 0])


def test_decode_round_trip(rng):
    for n in (1, 2, 3):
        enc = QubitEncoding.dual_rail(n)
        state = LogicalState(random_logical_amps(rng, n))
        logical, leakage = decode(encode(state, enc), enc)
        assert leakage < 1e-12
        assert logical.overlap(state) > 1 - 1e-12


def test_decode_double_occupancy_is_leakage():
    logical, leakage = decode(make_basis_state([2, 0]), QubitEncoding.dual_rail(1))
    assert logical is None
    assert leakage == 1.0


def test_decode_partial_leakage():
    state = superpose(
        make_basis_state([1, 0, 1, 0]), SQRT_HALF,
        make_basis_state([2, 0, 0, 0]), SQRT_HALF,
    )
    logical, leakage = decode(state, QubitEncoding.dual_rail(2))
    assert abs(leakage - 0.5) < 1e-12
    assert logical.overlap(LogicalState.from_bits("00")) > 1 - 1e-12


def test_encoding_validation():
    with pytest.raises(ValueError):
        QubitEncoding(((0, 1), (1, 2)), "path", 4)
    with pytest.raises(ValueError):
        QubitEncoding(((0, 0),), "path", 2)
    with pytest.raises(ValueError):
        encode(LogicalState.from_bits("01"), QubitEncoding.dual_rail(1))


# ---------------------------------------------------------------------------
# Bloch sphere
# ---------------------------------------------------------------------------

def test_bloch_poles_and_equator():
    assert np.allclose(bloch(LogicalState.from_bits("0")), (0, 0, 1))
    a = LogicalState([SQRT_HALF, -SQRT_HALF])
    assert np.allclose(bloch(a), (-1, 0, 0))
    left = LogicalState([SQRT_HALF, -1j * SQRT_HALF])
    assert np.allclose(bloch(left), (0, -1, 0))
    d = LogicalState([SQRT_HALF, SQRT_HALF])
    assert np.allclose(bloch(d), (1, 0, 0))
    r = LogicalState([SQRT_HALF, 1j * SQRT_HALF])
    assert np.allclose(bloch(r), (0, 1, 0))


def test_bloch_unit_norm_and_phase_invariance(rng):
    for _ in range(20):
        amps = random_logical_amps(rng, 1)
        v = bloch(LogicalState(amps))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        rotated = bloch(LogicalState(amps * np.exp(1j * rng.uniform(0, 2 * np.pi))))
        assert np.allclose(v, rotated, atol=1e-12)


def test_bloch_needs_single_qubit():
    with pytest.raises(ValueError):
        bloch(LogicalState.from_bits("00"))


def test_marginal_of_entangled_pair_is_mixed():
    from loqsim.teleport import bell_pair

    vec, pure = marginal_bloch(bell_pair(), 0)
    assert np.linalg.norm(vec) < 1e-12
    assert not pure
    vec1, pure1 = marginal_bloch(LogicalState.from_bits("01"), 1)
    assert pure1 and np.allclose(vec1, (0, 0, -1))


# ---------------------------------------------------------------------------
# qubit kernels against the bit-arithmetic operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, qubits",
    [
        (3, (0,)), (4, (3,)), (5, (2,)),
        (3, (2, 0)), (6, (5, 2)), (4, (1, 3)), (5, (4, 0)),
        (4, (3, 0, 1)), (6, (5, 1, 3)), (3, (2, 1, 0)), (5, (0, 4, 2)),
    ],
)
def test_apply_matches_full_operator(rng, n, qubits):
    amps = random_logical_amps(rng, n)
    u = random_unitary(rng, 1 << len(qubits))
    got = LogicalState(amps).apply(u, qubits).amps
    want = full_operator(u, qubits, n) @ amps
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("x, z", [(True, False), (False, True), (True, True), (False, False)])
def test_pauli_matches_full_operator(rng, x, z):
    n = 4
    amps = random_logical_amps(rng, n)
    matrix = (PAULI_Z if z else IDENTITY) @ (PAULI_X if x else IDENTITY)
    for q in range(n):
        got = LogicalState(amps).pauli(q, x, z).amps
        assert np.abs(got - full_operator(matrix, (q,), n) @ amps).max() < 1e-12


# ---------------------------------------------------------------------------
# waveplate decomposition
# ---------------------------------------------------------------------------

def _phase_distance(a, b):
    return 1.0 - abs(np.trace(np.conj(a.T) @ b)) / 2.0


def test_decompose_hadamard_middle_plate():
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    t1, t2, t3 = decompose_su2(hadamard)
    assert abs(t2 - math.radians(22.5)) < 1e-9
    assert _phase_distance(reconstruct_waveplates((t1, t2, t3)), hadamard) < 1e-10


def test_decompose_identity():
    angles = decompose_su2(np.eye(2))
    assert _phase_distance(reconstruct_waveplates(angles), np.eye(2)) < 1e-10


def test_decompose_random_su2(rng):
    for _ in range(50):
        target = random_unitary(rng, 2)
        angles = decompose_su2(target)
        assert all(0.0 <= a < math.pi for a in angles)
        assert _phase_distance(reconstruct_waveplates(angles), target) < 1e-8


def test_decompose_deterministic(rng):
    target = random_unitary(rng, 2)
    assert decompose_su2(target) == decompose_su2(target)


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        decompose_su2(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_waveplates_preserve_dual_rail(rng):
    enc = QubitEncoding.dual_rail(1)
    for _ in range(10):
        state = LogicalState(random_logical_amps(rng, 1))
        elements = [
            hwp(0, float(rng.uniform(0, math.pi))),
            qwp(0, float(rng.uniform(0, math.pi))),
        ]
        out = apply(compose(elements, 2), encode(state, enc))
        _logical, leakage = decode(out, enc)
        assert leakage < 1e-12


# ---------------------------------------------------------------------------
# polarization -> path conversion
# ---------------------------------------------------------------------------

def test_pbs_convert_basis_states():
    enc = QubitEncoding.dual_rail(1, flavor="polarization")
    zero, new_enc = pbs_convert(encode(LogicalState.from_bits("0"), enc), enc)
    assert new_enc.flavor == "path"
    assert abs(abs(zero.amplitude([1, 0, 0, 0])) - 1.0) < 1e-12

    one, _ = pbs_convert(encode(LogicalState.from_bits("1"), enc), enc)
    assert abs(abs(one.amplitude([0, 0, 1, 0])) - 1.0) < 1e-12


def test_pbs_convert_preserves_bloch(rng):
    enc = QubitEncoding.dual_rail(1, flavor="polarization")
    for _ in range(10):
        state = LogicalState(random_logical_amps(rng, 1))
        converted, new_enc = pbs_convert(encode(state, enc), enc)
        logical, leakage = decode(converted, new_enc)
        assert leakage < 1e-12
        assert np.allclose(bloch(logical), bloch(state), atol=1e-12)


def test_pbs_convert_needs_polarization():
    enc = QubitEncoding.dual_rail(1, flavor="path")
    with pytest.raises(ValueError):
        pbs_convert(encode(LogicalState.from_bits("0"), enc), enc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_logical_state_refuses_bad_input():
    with pytest.raises(ValueError, match="power of two"):
        LogicalState([1, 0, 0])
    with pytest.raises(ValueError, match="normalized"):
        LogicalState([1, 1])
    with pytest.raises(ValueError, match="normalized"):
        LogicalState.from_json_dict({"n": 1, "amps": [[1.0, 0.0], [1.0, 0.0]]})


def test_logical_json_round_trip(rng):
    state = LogicalState(random_logical_amps(rng, 2))
    data = state.to_json_dict()
    assert data["n"] == 2 and len(data["amps"]) == 4
    back = LogicalState.from_json_dict(data)
    assert back.overlap(state) > 1 - 1e-12


def test_decompose_real_rotations():
    # real rotations exercise the degenerate quaternion branch
    for theta in np.linspace(-3.0, 3.0, 7):
        c, s = math.cos(theta), math.sin(theta)
        target = np.array([[c, -s], [s, c]])
        angles = decompose_su2(target)
        assert _phase_distance(reconstruct_waveplates(angles), target) < 1e-9
