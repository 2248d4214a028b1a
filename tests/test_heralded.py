import math
from dataclasses import replace

import numpy as np
import pytest

from loqsim.detection import DetectorModel
from loqsim.encoding import LogicalState, decode, encode
from loqsim.fock import PhotonicState, make_basis_state, tensor
from loqsim.heralded import (
    conditional_logical_map,
    klm_cnot,
    klm_cz,
    ns_gate,
    run_heralded,
    run_photonic,
)
from loqsim.interferometer import apply, compose
from loqsim.teleport import cnot_matrix

from conftest import (
    brute_force_apply,
    random_logical_amps,
    reference_groups,
    reference_herald,
)

SQRT_THIRD = 1.0 / math.sqrt(3.0)


# ---------------------------------------------------------------------------
# NS gate
# ---------------------------------------------------------------------------

def test_ns_on_two_photons():
    record = run_photonic(ns_gate(), make_basis_state([2]))
    assert abs(record.probability - 0.25) < 1e-10
    amp = record.residual_state.amplitude([2])
    assert abs(amp + 1.0) < 1e-10  # sign flipped


def test_ns_vacuum_passes():
    record = run_photonic(ns_gate(), make_basis_state([0]))
    assert abs(record.probability - 0.25) < 1e-10
    assert abs(record.residual_state.amplitude([0]) - 1.0) < 1e-10


def test_ns_superposition():
    state = PhotonicState(1, {(0,): SQRT_THIRD, (1,): SQRT_THIRD, (2,): SQRT_THIRD})
    record = run_photonic(ns_gate(), state)
    assert abs(record.probability - 0.25) < 1e-10
    out = record.residual_state
    assert abs(out.amplitude([0]) - SQRT_THIRD) < 1e-10
    assert abs(out.amplitude([1]) - SQRT_THIRD) < 1e-10
    assert abs(out.amplitude([2]) + SQRT_THIRD) < 1e-10


def test_ns_network_matches_brute_force():
    # independent first-quantized expansion of the same 3-mode network
    gate = ns_gate()
    u = gate.unitary().matrix
    full = tensor(make_basis_state([2]), make_basis_state([1, 0]))
    fast = apply(gate.unitary(), full)
    slow = brute_force_apply(u, full)
    for occ, amp in fast.items():
        assert abs(amp - slow.amplitude(occ)) < 1e-10


# ---------------------------------------------------------------------------
# KLM CNOT / CZ
# ---------------------------------------------------------------------------

def test_cnot_truth_table():
    gate = klm_cnot()
    table = {"00": "00", "01": "01", "10": "11", "11": "10"}
    for bits, expected in table.items():
        result = run_heralded(gate, LogicalState.from_bits(bits))
        assert abs(result.probability - 1.0 / 16.0) < 1e-10
        assert result.logical_action.overlap(LogicalState.from_bits(expected)) > 1 - 1e-10
        assert result.leakage < 1e-10


def test_cnot_makes_bell_state():
    plus_zero = LogicalState([0.5**0.5, 0.0, 0.5**0.5, 0.0])
    result = run_heralded(klm_cnot(), plus_zero)
    bell = LogicalState([0.5**0.5, 0.0, 0.0, 0.5**0.5])
    assert result.logical_action.overlap(bell) > 1 - 1e-10
    assert abs(result.probability - 1.0 / 16.0) < 1e-10


def test_herald_probability_input_independent(rng):
    gate = klm_cnot()
    for _ in range(20):
        state = LogicalState(random_logical_amps(rng, 2))
        result = run_heralded(gate, state)
        assert abs(result.probability - 1.0 / 16.0) < 1e-10


def test_logical_action_is_cnot(rng):
    gate = klm_cnot()
    cnot = cnot_matrix()
    for _ in range(10):
        state = LogicalState(random_logical_amps(rng, 2))
        result = run_heralded(gate, state)
        expected = LogicalState(cnot @ state.amps)
        assert result.logical_action.overlap(expected) > 1 - 1e-10
        assert result.leakage < 1e-10


def test_failure_branches_account_for_the_rest():
    gate = klm_cnot()
    logical = LogicalState.from_bits("10")
    result = run_heralded(gate, logical)
    assert abs(result.probability - 1.0 / 16.0) < 1e-10

    # the success mass and residual are the reference herald's, and the
    # reference branches (success and every failure) hold all the mass
    full = tensor(
        encode(logical, gate.logical_io), make_basis_state(gate.ancilla_occupations)
    )
    out = apply(gate.unitary(), full)
    success = reference_herald(out, gate.herald)
    assert result.probability == success.probability
    logical_out, leakage = decode(success.residual_state, gate.logical_io)
    assert np.array_equal(result.logical_action.amps, logical_out.amps)
    assert result.leakage == leakage
    branches = reference_groups(out, gate.herald.modes)
    total = sum(abs(a) ** 2 for terms in branches.values() for a in terms.values())
    assert abs(total - 1.0) < 1e-10


def test_detector_efficiency_scaling():
    gate = klm_cnot()
    result = run_heralded(
        gate, LogicalState.from_bits("10"), DetectorModel(efficiency=0.7)
    )
    assert abs(result.probability - (1.0 / 16.0) * 0.49) < 1e-10

    dead = run_heralded(gate, LogicalState.from_bits("10"), DetectorModel(efficiency=0.0))
    assert dead.probability == 0.0
    assert not dead.success


def test_cz_conditional_map_is_controlled_phase():
    # NS x NS sandwiched by the splitter pair, checked by the full
    # 8-mode / 4-photon evolution
    m = conditional_logical_map(klm_cz())
    target = np.diag([1.0, 1.0, 1.0, -1.0])
    phase = m[0, 0] / abs(m[0, 0])
    assert np.abs(m / phase - 0.25 * target).max() < 1e-10


def test_cnot_conditional_map():
    m = conditional_logical_map(klm_cnot())
    phase = m[0, 0] / abs(m[0, 0])
    assert np.abs(m / phase - 0.25 * cnot_matrix()).max() < 1e-10


def test_cnot_evolution_matches_brute_force():
    # one full 8-mode, 4-photon network cross-checked against the
    # permanent-free first-quantized oracle
    gate = klm_cnot()
    encoded = tensor(make_basis_state([0, 1, 1, 0]), make_basis_state([1, 0, 1, 0]))
    fast = apply(gate.unitary(), encoded)
    slow = brute_force_apply(gate.unitary().matrix, encoded)
    assert fast.term_count() == slow.term_count()
    for occ, amp in fast.items():
        assert abs(amp - slow.amplitude(occ)) < 1e-9


def test_run_heralded_validations():
    with pytest.raises(ValueError):
        run_heralded(ns_gate(), LogicalState.from_bits("0"))
    with pytest.raises(ValueError):
        run_heralded(klm_cnot(), LogicalState.from_bits("0"))
    with pytest.raises(ValueError):
        run_photonic(klm_cnot(), make_basis_state([1, 0]))


def test_gate_unitary_is_composed_once_per_gate():
    gate = klm_cnot()
    u = gate.unitary()
    assert gate.unitary() is u
    # bit-identical to a fresh composition, and shared read-only
    assert np.array_equal(u.matrix, compose(gate.network, gate.total_modes).matrix)
    assert not u.matrix.flags.writeable
    reversed_gate = replace(gate, network=gate.network[::-1])
    assert reversed_gate.unitary() is not u
    want = compose(gate.network[::-1], gate.total_modes).matrix
    assert np.array_equal(reversed_gate.unitary().matrix, want)
