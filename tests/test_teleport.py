import itertools
import math
from collections import Counter

import numpy as np
import pytest

from loqsim.detection import derive_rng, measure_all
from loqsim.encoding import LogicalState, QubitEncoding, decode, encode, marginal_bloch
from loqsim.interferometer import apply, beamsplitter, compose
from loqsim.teleport import (
    _ATTEMPT_DRAWS,
    BellLabel,
    FailureRecord,
    PauliCorrection,
    ResourceTally,
    bell_measure_ideal,
    bell_measure_linear_optics,
    bell_pair,
    cnot_draws,
    cnot_matrix,
    teleport_qubit,
    teleported_cnot,
)

from conftest import random_logical_amps, reference_cnot_draws, serial_teleported_cnot

SQRT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Bell pairs and ideal measurement
# ---------------------------------------------------------------------------

def test_bell_pair_definition():
    pair = bell_pair()
    expected = LogicalState([SQRT_HALF, 0, 0, SQRT_HALF])
    assert pair.overlap(expected) > 1 - 1e-12


def test_bell_pair_marginal_statistics():
    # sample computational readouts of the encoded pair; each qubit is uniform
    photonic = encode(bell_pair(), QubitEncoding.dual_rail(2))
    ones = 0
    n = 10_000
    for i in range(n):
        occ, _ = measure_all(photonic, derive_rng(77, i))
        ones += occ[1]  # V rail of qubit 0
    assert abs(ones / n - 0.5) < 0.01
    vec, pure = marginal_bloch(bell_pair(), 0)
    assert np.linalg.norm(vec) < 1e-12 and not pure


def test_measuring_fresh_pair_gives_phi_plus():
    for seed in range(10):
        label, rest = bell_measure_ideal(bell_pair(), (0, 1), seed)
        assert label is BellLabel.PHI_PLUS
        assert rest.n == 0


def test_bell_measure_on_00():
    # |00> = (phi+ + phi-)/sqrt(2): the two phi outcomes, half/half
    counts = {label: 0 for label in BellLabel}
    n = 10_000
    for i in range(n):
        label, _ = bell_measure_ideal(LogicalState.from_bits("00"), (0, 1), derive_rng(5, i))
        counts[label] += 1
    assert counts[BellLabel.PSI_PLUS] == 0 and counts[BellLabel.PSI_MINUS] == 0
    assert abs(counts[BellLabel.PHI_PLUS] / n - 0.5) < 0.015
    assert abs(counts[BellLabel.PHI_MINUS] / n - 0.5) < 0.015


def test_bell_measure_on_01_frequencies():
    counts = {label: 0 for label in BellLabel}
    n = 10_000
    for i in range(n):
        label, _ = bell_measure_ideal(LogicalState.from_bits("01"), (0, 1), derive_rng(6, i))
        counts[label] += 1
    assert counts[BellLabel.PHI_PLUS] == 0 and counts[BellLabel.PHI_MINUS] == 0
    assert abs(counts[BellLabel.PSI_PLUS] / n - 0.5) < 0.015
    assert abs(counts[BellLabel.PSI_MINUS] / n - 0.5) < 0.015


def test_bell_measure_seed_deterministic():
    state = LogicalState(random_logical_amps(np.random.default_rng(3), 2))
    runs = [bell_measure_ideal(state, (0, 1), 11)[0] for _ in range(5)]
    assert len(set(runs)) == 1


def test_bell_measure_invalid_qubits():
    with pytest.raises(ValueError):
        bell_measure_ideal(bell_pair(), (0, 0), 0)
    with pytest.raises(ValueError):
        bell_measure_ideal(bell_pair(), (0, 5), 0)


# ---------------------------------------------------------------------------
# linear-optics Bell analysis
# ---------------------------------------------------------------------------

def _bell_state(label: BellLabel) -> LogicalState:
    vecs = {
        BellLabel.PHI_PLUS: [1, 0, 0, 1],
        BellLabel.PHI_MINUS: [1, 0, 0, -1],
        BellLabel.PSI_PLUS: [0, 1, 1, 0],
        BellLabel.PSI_MINUS: [0, 1, -1, 0],
    }
    return LogicalState(np.array(vecs[label], dtype=complex) * SQRT_HALF)


def test_psi_states_identified():
    for label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
        for seed in range(5):
            got, _ = bell_measure_linear_optics(_bell_state(label), (0, 1), seed)
            assert got == label


def test_phi_states_fail_to_computational():
    counts = {(0, 0): 0, (1, 1): 0}
    n = 4000
    for i in range(n):
        got, _ = bell_measure_linear_optics(
            _bell_state(BellLabel.PHI_PLUS), (0, 1), derive_rng(8, i)
        )
        assert isinstance(got, FailureRecord)
        counts[got.bits] += 1
    assert abs(counts[0, 0] / n - 0.5) < 0.03
    assert abs(counts[1, 1] / n - 0.5) < 0.03


def test_uniform_bell_mixture_success_rate():
    n = 10_000
    successes = 0
    labels = list(BellLabel)
    for i in range(n):
        rng = derive_rng(21, i)
        state = _bell_state(labels[int(rng.integers(4))])
        got, _ = bell_measure_linear_optics(state, (0, 1), rng)
        successes += isinstance(got, BellLabel)
    assert abs(successes / n - 0.5) < 0.015


def test_linear_optics_outcome_probabilities_sum_to_one(rng):
    from loqsim.teleport import _BELL_VECTORS

    e00 = np.array([1, 0, 0, 0], dtype=complex)
    e11 = np.array([0, 0, 0, 1], dtype=complex)
    for _ in range(10):
        amps = random_logical_amps(rng, 2)
        total = sum(
            abs(np.vdot(v, amps)) ** 2
            for v in (
                _BELL_VECTORS[BellLabel.PSI_PLUS],
                _BELL_VECTORS[BellLabel.PSI_MINUS],
                e00,
                e11,
            )
        )
        assert abs(total - 1.0) < 1e-10


def test_analyzer_against_photonic_network():
    """Oracle: two polarization qubits interfered on a 50:50 splitter.

    Modes (H1, V1, H2, V2); the splitter acts on like polarizations.
    Anti-bunched orthogonal-polarization coincidences flag psi-, same-port
    orthogonal pairs flag psi+, and same-polarization double clicks are
    the failure branch reading out 00 or 11.
    """
    enc = QubitEncoding.dual_rail(2, flavor="polarization")
    network = compose([beamsplitter(0, 2, 0.5), beamsplitter(1, 3, 0.5)], 4)

    def photonic_table(label):
        out = apply(network, encode(_bell_state(label), enc))
        table = {}
        for occ, amp in out.items():
            table[occ] = table.get(occ, 0.0) + abs(amp) ** 2
        return table

    psi_minus = photonic_table(BellLabel.PSI_MINUS)
    assert abs(psi_minus.get((1, 0, 0, 1), 0) - 0.5) < 1e-10
    assert abs(psi_minus.get((0, 1, 1, 0), 0) - 0.5) < 1e-10

    psi_plus = photonic_table(BellLabel.PSI_PLUS)
    assert abs(psi_plus.get((1, 1, 0, 0), 0) - 0.5) < 1e-10
    assert abs(psi_plus.get((0, 0, 1, 1), 0) - 0.5) < 1e-10

    for label in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS):
        table = photonic_table(label)
        # all four outcomes are same-polarization double clicks
        assert abs(table.get((2, 0, 0, 0), 0) - 0.25) < 1e-10
        assert abs(table.get((0, 0, 2, 0), 0) - 0.25) < 1e-10
        assert abs(table.get((0, 2, 0, 0), 0) - 0.25) < 1e-10
        assert abs(table.get((0, 0, 0, 2), 0) - 0.25) < 1e-10


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def test_teleport_zero_all_outcomes():
    zero = LogicalState.from_bits("0")
    for label in BellLabel:
        out, _ = teleport_qubit(zero, 0, force=label)
        assert out.overlap(zero) > 1 - 1e-12


def test_teleport_random_states_all_outcomes(rng):
    for _ in range(100):
        state = LogicalState(random_logical_amps(rng, 1))
        for label in BellLabel:
            out, corr = teleport_qubit(state, 0, force=label)
            assert out.overlap(state) > 1 - 1e-12
            assert isinstance(corr, PauliCorrection)


def test_uncorrected_psi_minus_branch(rng):
    alpha, beta = random_logical_amps(rng, 1)
    state = LogicalState([alpha, beta])
    joint = state.tensor(bell_pair())
    _, residual = bell_measure_ideal(joint, (0, 1), 0, force=BellLabel.PSI_MINUS)
    pattern = LogicalState(np.array([-beta, alpha]) / 1.0)
    assert residual.overlap(pattern) > 1 - 1e-12


def test_pauli_correction_algebra():
    c = PauliCorrection(True, False)
    assert c.compose(c) == PauliCorrection(False, False)
    d = PauliCorrection(True, True)
    assert c.compose(d) == PauliCorrection(False, True)


# ---------------------------------------------------------------------------
# teleported CNOT
# ---------------------------------------------------------------------------

def test_teleported_cnot_truth():
    one = LogicalState.from_bits("1")
    zero = LogicalState.from_bits("0")
    expected = LogicalState.from_bits("11")
    for seed in range(10):
        out, tally = teleported_cnot(one, zero, seed)
        assert out.overlap(expected) > 1 - 1e-10
        assert tally.entangled_pairs_consumed == 2 * tally.attempts


def test_forced_first_attempt_tally():
    out, tally = teleported_cnot(
        LogicalState.from_bits("1"), LogicalState.from_bits("0"), 0, force_attempts=1
    )
    assert tally == ResourceTally(attempts=1, entangled_pairs_consumed=2)


def test_correction_commutation(rng):
    cnot = cnot_matrix()
    inputs = [
        (LogicalState.from_bits(c), LogicalState.from_bits(t))
        for c in "01"
        for t in "01"
    ]
    for _ in range(20):
        inputs.append(
            (
                LogicalState(random_logical_amps(rng, 1)),
                LogicalState(random_logical_amps(rng, 1)),
            )
        )
    for c, t in inputs:
        expected = LogicalState(cnot @ c.tensor(t).amps)
        for bells in itertools.product(BellLabel, repeat=2):
            out, _ = teleported_cnot(c, t, 0, force_attempts=1, force_bells=bells)
            assert out.overlap(expected) > 1 - 1e-10


def test_engine_outputs_skip_the_logical_checks(monkeypatch, rng):
    control = LogicalState(random_logical_amps(rng, 1))
    target = LogicalState(random_logical_amps(rng, 1))
    expected = LogicalState(cnot_matrix() @ control.tensor(target).amps)
    enc = QubitEncoding.dual_rail(2)
    photonic = encode(control.tensor(target), enc)
    checked = []
    real_init = LogicalState.__init__

    def spy(self, amps):
        checked.append(amps)
        real_init(self, amps)

    monkeypatch.setattr(LogicalState, "__init__", spy)
    out, _ = teleported_cnot(control, target, 7)
    assert out.overlap(expected) > 1 - 1e-10
    decoded = decode(photonic, enc)
    assert decoded.logical.overlap(control.tensor(target)) > 1 - 1e-12
    assert checked == []
    with pytest.raises(ValueError, match="normalized"):
        LogicalState([1, 1])
    assert len(checked) == 1


def test_attempts_are_geometric():
    total = 0
    n = 5000
    for i in range(n):
        _, tally = teleported_cnot(
            LogicalState.from_bits("0"),
            LogicalState.from_bits("0"),
            derive_rng(31, i),
        )
        total += tally.attempts
    mean = total / n
    assert 15.0 < mean < 17.0  # full 1e5-trial bound lives in acceptance


def test_resource_tally_invariant():
    with pytest.raises(ValueError):
        ResourceTally(attempts=3, entangled_pairs_consumed=5)


def test_forced_bells_are_checked_and_may_be_partial():
    zero = LogicalState.from_bits("0")
    with pytest.raises(ValueError, match="unknown forced outcome"):
        teleported_cnot(zero, zero, 0, force_bells=("phi+", None))
    with pytest.raises(ValueError, match="single-qubit"):
        teleported_cnot(LogicalState.from_bits("00"), zero, 0)
    one = LogicalState.from_bits("1")
    for bells in ((BellLabel.PSI_MINUS, None), (None, BellLabel.PHI_MINUS)):
        out, _ = teleported_cnot(one, zero, 3, force_bells=bells)
        assert out.overlap(LogicalState.from_bits("11")) > 1 - 1e-10


# ---------------------------------------------------------------------------
# batched Monte Carlo against the serial oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [20, 4])
def test_report_matches_serial_oracle(seed, monkeypatch):
    from loqsim import runner

    blocks = []
    real = runner.teleported_cnot_block

    def spy(*args):
        out, labels = real(*args)
        blocks.append((args[0], args[1], labels))
        return out, labels

    monkeypatch.setattr(runner, "teleported_cnot_block", spy)
    want, used = serial_teleported_cnot(seed, 1000)
    size = runner._BLOCK
    labels = list(BellLabel)
    for trials in (1, size - 1, size, size + 1, 1000):
        blocks.clear()
        report = runner.teleport_cnot_report(trials, seed)
        assert [len(b[0]) for b in blocks] == [
            min(size, trials - start) for start in range(0, trials, size)
        ]
        assert len(report.rows) == trials
        for got, ref in zip(report.rows, want):
            assert got[:3] == ref[:3]
            assert abs(got[3] - ref[3]) <= 1e-12
        control, target, bells = (np.concatenate(x) for x in zip(*blocks))
        for i, (c, t, bell_labels) in enumerate(used[:trials]):
            assert np.abs(control[i] - c).max() <= 1e-15
            assert np.abs(target[i] - t).max() <= 1e-15
            assert (labels[bells[i, 0]], labels[bells[i, 1]]) == bell_labels
        pairs = sum(row[2] for row in want[:trials])
        agg = dict(report.aggregate)
        assert agg["mean_pairs"] == pairs / trials
        assert agg["mean_attempts"] == pairs / trials / 2.0
        min_overlap = min([1.0] + [row[3] for row in want[:trials]])
        assert abs(agg["min_overlap"] - min_overlap) <= 1e-12


def test_one_trial_call_draws_in_the_report_order():
    want, used = serial_teleported_cnot(20, 40)
    cnot = cnot_matrix()
    for i, (c, t, _labels) in enumerate(used):
        rng = derive_rng(20, i)
        rng.normal(size=(4, 2))  # the report's input draws
        control, target = LogicalState(c), LogicalState(t)
        out, tally = teleported_cnot(control, target, rng)
        assert tally.attempts == want[i][1]
        assert out.overlap(LogicalState(cnot @ control.tensor(target).amps)) > 1 - 1e-12


def test_batched_cnot_draws_equal_the_one_draw_loop():
    # one scan over a stack of streams against one draw at a time per stream
    found = Counter()
    for seed in (0, 7919, 2**32 + 1):
        for force_attempts, bells in ((None, 2), (None, 1), (None, 0), (5, 2), (5, 0)):
            attempts, draws = cnot_draws(
                [derive_rng(seed, i) for i in range(2000)], force_attempts, bells
            )
            assert attempts.shape == (2000,) and draws.shape == (2000, bells)
            for i in range(2000):
                want = reference_cnot_draws(derive_rng(seed, i), force_attempts, (None,) * bells)
                assert (int(attempts[i]), tuple(draws[i].tolist())) == want, (seed, i)
            if force_attempts is None and bells == 2:
                found.update(min(int(a), _ATTEMPT_DRAWS + 1) for a in attempts)
    # no hit in the batch, and a hit at index 38 or 39, whose Bell draws
    # run past the batch, were all exercised
    assert found[_ATTEMPT_DRAWS + 1] > 100
    assert found[_ATTEMPT_DRAWS - 1] > 10 and found[_ATTEMPT_DRAWS] > 10


def test_cnot_draws_of_an_empty_stack():
    attempts, draws = cnot_draws([])
    assert attempts.shape == (0,) and draws.shape == (0, 2)
