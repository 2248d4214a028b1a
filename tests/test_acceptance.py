"""Acceptance suite: one test per quantitative claim the artifact must hit.

Each test enforces its stated tolerance and runtime budget and prints a
PASS line (visible with pytest -s / -rA; the -v result line mirrors it).
"""

import itertools
import math
import time

import numpy as np

from loqsim.cluster import linear_rotation_pattern, run_pattern
from loqsim.detection import HeraldPattern, herald
from loqsim.encoding import LogicalState, decompose_su2, reconstruct_waveplates
from loqsim.fock import PhotonicState, make_basis_state
from loqsim.heralded import klm_cnot, ns_gate, run_heralded, run_photonic
from loqsim.interferometer import (
    ModeUnitary,
    apply,
    beamsplitter,
    compose,
    hom_coincidence,
    hwp,
    permanent,
    phase,
)
from loqsim.runner import teleport_cnot_report
from loqsim.teleport import BellLabel, cnot_matrix, teleport_qubit

from conftest import (
    assert_matches_monolithic,
    naive_permanent,
    random_logical_amps,
    random_unitary,
)

from test_cluster import _random_case, _rotation_oracle


def _budget(t0: float, limit: float, label: str) -> float:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (budget {limit}s)"
    return elapsed


def test_criterion_1_hom_null():
    t0 = time.perf_counter()
    out = apply(compose([beamsplitter(0, 1, 0.5)], 2), make_basis_state([1, 1]))
    record = herald(out, HeraldPattern.from_dict({0: 1, 1: 1}))
    assert abs(record.probability) <= 1e-12
    assert abs(hom_coincidence(0.5, 0.0) - 0.5) <= 1e-12
    elapsed = _budget(t0, 1.0, "criterion 1")
    print(f"\nACCEPTANCE 1 PASS: HOM coincidence 0 (indistinguishable), "
          f"1/2 (distinguishable) [{elapsed:.2f}s]")


def test_criterion_2_klm_cnot():
    t0 = time.perf_counter()
    gate = klm_cnot()
    assert gate.total_modes == 8
    cnot = cnot_matrix()
    for index in range(4):
        bits = format(index, "02b")
        state = LogicalState.from_bits(bits)
        result = run_heralded(gate, state)
        assert abs(result.probability - 1.0 / 16.0) <= 1e-9, bits
        expected = LogicalState(cnot @ state.amps)
        assert result.logical_action.overlap(expected) >= 1 - 1e-10, bits
    elapsed = _budget(t0, 10.0, "criterion 2")
    print(f"ACCEPTANCE 2 PASS: heralded CNOT at 1/16 with exact logical action "
          f"(8 modes, 4 photons) [{elapsed:.2f}s]")


def test_criterion_3_ns_gate():
    t0 = time.perf_counter()
    gate = ns_gate()
    s = 1.0 / math.sqrt(3.0)
    state = PhotonicState(1, {(0,): s, (1,): s, (2,): s})
    record = run_photonic(gate, state)
    assert abs(record.probability - 0.25) <= 1e-9
    out = record.residual_state
    assert abs(out.amplitude([0]) - s) <= 1e-10
    assert abs(out.amplitude([1]) - s) <= 1e-10
    assert abs(out.amplitude([2]) + s) <= 1e-10  # sign flipped |2> component
    elapsed = _budget(t0, 1.0, "criterion 3")
    print(f"ACCEPTANCE 3 PASS: NS gate heralds at 1/4 with the two-photon "
          f"sign flip [{elapsed:.2f}s]")


def test_criterion_4_teleported_cnot_resources():
    t0 = time.perf_counter()
    report = teleport_cnot_report(trials=100_000, seed=20)
    agg = dict(report.aggregate)
    assert 31.5 <= agg["mean_pairs"] <= 32.5, agg["mean_pairs"]
    assert 15.8 <= agg["mean_attempts"] <= 16.2  # geometric with p = 1/16
    assert agg["min_overlap"] >= 1 - 1e-10
    elapsed = _budget(t0, 60.0, "criterion 4")
    print(f"ACCEPTANCE 4 PASS: teleported CNOT consumes "
          f"{agg['mean_pairs']:.3f} pairs on average over 1e5 trials, "
          f"every output correct [{elapsed:.1f}s]")


def test_criterion_5_teleportation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(100):
        state = LogicalState(random_logical_amps(rng, 1))
        for label in BellLabel:
            out, _ = teleport_qubit(state, 0, force=label)
            assert out.overlap(state) >= 1 - 1e-12
    elapsed = _budget(t0, 5.0, "criterion 5")
    print(f"ACCEPTANCE 5 PASS: teleportation exact for 100 random states x 4 "
          f"forced Bell outcomes [{elapsed:.2f}s]")


def test_criterion_6_cluster_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(20):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        graph, schedule = linear_rotation_pattern(alpha, beta, gamma)
        oracle = _rotation_oracle(alpha, beta, gamma)
        for bits in itertools.product((0, 1), repeat=4):
            result = run_pattern(graph, schedule, 0, force=dict(zip(range(4), bits)))
            assert result.output.overlap(oracle) >= 1 - 1e-10
    for case in range(50):
        graph, schedule = _random_case(rng)
        seed = 6000 + case
        assert_matches_monolithic(run_pattern(graph, schedule, seed), graph, schedule, seed)
    elapsed = _budget(t0, 30.0, "criterion 6")
    print(f"ACCEPTANCE 6 PASS: linear-cluster rotation matches the circuit "
          f"oracle on all branches; just-in-time growth matches a full build "
          f"[{elapsed:.1f}s]")


def test_criterion_7_permanent_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        fast = permanent(m)
        slow = naive_permanent(m)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))
        checked += 1
    for _ in range(3):
        u = ModeUnitary(random_unitary(rng, 8))
        terms = {}
        for _ in range(25):
            occ = tuple(np.bincount(rng.integers(0, 8, size=4), minlength=8))
            terms[occ] = complex(rng.normal(), rng.normal())
        state = PhotonicState(8, terms).normalized()
        out = apply(u, state)
        assert abs(out.norm_squared() - 1.0) <= 1e-10
    elapsed = _budget(t0, 10.0, "criterion 7")
    print(f"ACCEPTANCE 7 PASS: Ryser permanent matches the naive oracle on "
          f"200 matrices; norm preserved on 8-mode 4-photon states "
          f"[{elapsed:.1f}s]")


def test_criterion_8_waveplate_algebra():
    t0 = time.perf_counter()
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    got = compose([hwp(0, math.radians(22.5))], 2).matrix
    assert np.abs(got - hadamard).max() <= 1e-12
    got_x = compose([hwp(0, math.radians(45.0))], 2).matrix
    assert np.abs(got_x - np.array([[0, 1], [1, 0]])).max() <= 1e-12

    rng = np.random.default_rng(808)
    for _ in range(50):
        target = random_unitary(rng, 2)
        angles = decompose_su2(target)
        rebuilt = reconstruct_waveplates(angles)
        err = 1.0 - abs(np.trace(rebuilt.conj().T @ target)) / 2.0
        assert err < 1e-8
    elapsed = _budget(t0, 10.0, "criterion 8")
    print(f"ACCEPTANCE 8 PASS: hwp(22.5)=Hadamard, hwp(45)=X, quarter-half-"
          f"quarter decomposition reconstructs 50 random targets [{elapsed:.2f}s]")
