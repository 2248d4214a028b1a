import math

import pytest

from loqsim.fock import (
    PRUNE_THRESHOLD,
    PhotonicState,
    inner_product,
    make_basis_state,
    superpose,
    tensor,
    total_photon_number,
    vacuum,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_make_basis_state():
    s = make_basis_state([1, 1])
    assert s.amplitude([1, 1]) == 1.0
    assert s.term_count() == 1
    assert s.mode_count == 2

    v = make_basis_state([0, 0, 0])
    assert v == vacuum(3)
    assert total_photon_number(v) == 0

    s2 = make_basis_state([2, 0])
    assert total_photon_number(s2) == 2


def test_negative_occupation_rejected():
    with pytest.raises(ValueError):
        make_basis_state([1, -1])


def test_public_constructors_refuse_bad_input():
    with pytest.raises(ValueError, match=">= 0"):
        PhotonicState(2, {(1, -1): 1.0})
    with pytest.raises(ValueError, match="3 modes, expected 2"):
        PhotonicState(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="mode_count"):
        PhotonicState(-1, {})
    text = make_basis_state([1, 0]).to_json()
    assert '"occ": [1, 0]' in text
    with pytest.raises(ValueError, match=">= 0"):
        PhotonicState.from_json(text.replace('"occ": [1, 0]', '"occ": [1, -1]'))


def test_engine_outputs_skip_the_occupation_check(monkeypatch, rng):
    from loqsim import fock
    from loqsim.detection import HeraldPattern, herald
    from loqsim.interferometer import ModeUnitary, apply, sector_size

    from conftest import random_unitary

    u = ModeUnitary(random_unitary(rng, 12))
    state = make_basis_state([1] * 6 + [0] * 6)
    checked = []
    real_check = fock._check_occupation

    def spy(occ, mode_count):
        checked.append(occ)
        return real_check(occ, mode_count)

    monkeypatch.setattr(fock, "_check_occupation", spy)
    out = apply(u, state)
    record = herald(out, HeraldPattern.from_dict({0: 1, 1: 0}))
    assert out.term_count() == sector_size(6, 12)
    assert 0.0 < record.probability < 1.0
    assert abs(record.residual_state.norm() - 1.0) < 1e-12
    assert checked == []
    # data from outside still goes through the check
    with pytest.raises(ValueError):
        PhotonicState(2, {(1, -1): 1.0})
    assert checked == [(1, -1)]


def test_superpose_diagonal_state():
    # |D> = (|0> + |1>) with the normalized-amplitude convention
    d = superpose(make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), SQRT_HALF)
    assert abs(d.norm() - 1.0) < 1e-12
    assert abs(d.amplitude([1, 0]) - SQRT_HALF) < 1e-15
    assert abs(d.amplitude([0, 1]) - SQRT_HALF) < 1e-15


def test_superpose_cancellation():
    psi = superpose(make_basis_state([1, 0]), 0.6, make_basis_state([0, 1]), 0.8)
    zero = superpose(psi, 1.0, psi, -1.0)
    assert zero.is_zero()
    assert zero.term_count() == 0


def test_superpose_circular_state():
    r = superpose(make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), 1j * SQRT_HALF)
    assert abs(r.amplitude([0, 1]) - 1j * SQRT_HALF) < 1e-15
    assert abs(r.norm() - 1.0) < 1e-12


def test_superpose_mode_mismatch():
    with pytest.raises(ValueError):
        superpose(make_basis_state([1]), 1.0, make_basis_state([1, 0]), 1.0)


def test_inner_product_basics():
    psi = superpose(make_basis_state([1, 0]), 0.6, make_basis_state([0, 1]), 0.8j)
    assert abs(inner_product(psi, psi) - 1.0) < 1e-12
    assert inner_product(make_basis_state([1, 0]), make_basis_state([0, 1])) == 0.0


def test_inner_product_d_r():
    # <D|R> by direct 2-term expansion: (1*1 + 1*i) / 2
    d = superpose(make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), SQRT_HALF)
    r = superpose(make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), 1j * SQRT_HALF)
    expected = (1.0 + 1j) / 2.0
    assert abs(inner_product(d, r) - expected) < 1e-15


def test_inner_product_hermitian(rng):
    for _ in range(20):
        a = _random_state(rng, 3, 2)
        b = _random_state(rng, 3, 2)
        lhs = inner_product(a, b)
        rhs = inner_product(b, a).conjugate()
        assert abs(lhs - rhs) < 1e-15


def test_tensor():
    assert tensor(make_basis_state([1]), make_basis_state([1])) == make_basis_state([1, 1])

    psi = superpose(make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), SQRT_HALF)
    lifted = tensor(vacuum(2), psi)
    assert abs(lifted.amplitude([0, 0, 1, 0]) - SQRT_HALF) < 1e-15

    prod = tensor(psi, make_basis_state([1]))
    assert abs(prod.amplitude([1, 0, 1]) - SQRT_HALF) < 1e-15
    assert abs(prod.amplitude([0, 1, 1]) - SQRT_HALF) < 1e-15


def test_tensor_associative(rng):
    a = _random_state(rng, 2, 1)
    b = _random_state(rng, 2, 2)
    c = _random_state(rng, 1, 1)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.mode_count == right.mode_count
    for occ, amp in left.items():
        assert abs(amp - right.amplitude(occ)) < 1e-12


def test_total_photon_number_mixed():
    assert total_photon_number(make_basis_state([1, 1])) == 2
    s = superpose(make_basis_state([2, 0]), SQRT_HALF, make_basis_state([0, 2]), SQRT_HALF)
    assert total_photon_number(s) == 2
    mixed = superpose(vacuum(2), 1.0, make_basis_state([1, 0]), 1.0)
    assert total_photon_number(mixed) is None


def test_superpose_bilinear(rng):
    a = _random_state(rng, 3, 2)
    b = _random_state(rng, 3, 2)
    x, y, u, v = (complex(rng.normal(), rng.normal()) for _ in range(4))
    lhs = superpose(superpose(a, x, b, y), 1.0, superpose(a, u, b, v), 1.0)
    rhs = superpose(a, x + u, b, y + v)
    for occ, amp in rhs.items():
        assert abs(amp - lhs.amplitude(occ)) < 1e-12


def test_normalized():
    s = superpose(make_basis_state([1, 0]), 3.0, make_basis_state([0, 1]), 4.0)
    n = s.normalized()
    assert abs(n.norm_squared() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        PhotonicState(2, {}).normalized()


def test_prune_threshold():
    s = superpose(
        make_basis_state([1, 0]), 1.0, make_basis_state([0, 1]), PRUNE_THRESHOLD / 10
    )
    assert s.term_count() == 1


def test_json_round_trip_lexicographic():
    s = superpose(make_basis_state([0, 2]), 0.6, make_basis_state([2, 0]), 0.8j)
    data = s.to_json_dict()
    assert data["modes"] == 2
    assert [t["occ"] for t in data["terms"]] == [[0, 2], [2, 0]]
    back = PhotonicState.from_json(s.to_json())
    assert back == s


def _random_state(rng, modes, photons):
    from loqsim.interferometer import compositions

    terms = {}
    for occ in compositions(photons, modes):
        terms[occ] = complex(rng.normal(), rng.normal())
    state = PhotonicState(modes, terms)
    return state.normalized()
