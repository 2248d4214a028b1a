import importlib.resources
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from loqsim.detection import measure_all
from loqsim.encoding import LogicalState, QubitEncoding, decode, encode, marginal_bloch
from loqsim.interferometer import apply, beamsplitter, compose
from loqsim.streams import (
    Draws,
    PCG64Stack,
    _stream_states,
    derive_rng,
    standard_normals,
    trial_stacks,
)
from loqsim.teleport import (
    _FIRST_WINDOW,
    _ROW_BY_ROW,
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
    teleported_cnot_block,
)

from conftest import (
    BELL_CORRECTIONS,
    STREAM_SEEDS,
    bell_draw,
    random_logical_amps,
    reference_cnot_draws,
    serial_teleported_cnot,
)

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
    for k, label in enumerate(BellLabel):
        out, correction = teleport_qubit(zero, Draws([bell_draw(k)]))
        assert correction == BELL_CORRECTIONS[label]
        assert out.overlap(zero) > 1 - 1e-12


def test_teleport_random_states_all_outcomes(rng):
    for _ in range(100):
        state = LogicalState(random_logical_amps(rng, 1))
        for k, label in enumerate(BellLabel):
            out, correction = teleport_qubit(state, Draws([bell_draw(k)]))
            assert correction == BELL_CORRECTIONS[label]
            assert out.overlap(state) > 1 - 1e-12


def test_uncorrected_psi_minus_branch(rng):
    alpha, beta = random_logical_amps(rng, 1)
    state = LogicalState([alpha, beta])
    joint = state.tensor(bell_pair())
    psi_minus = list(BellLabel).index(BellLabel.PSI_MINUS)
    label, residual = bell_measure_ideal(joint, (0, 1), Draws([bell_draw(psi_minus)]))
    assert label is BellLabel.PSI_MINUS
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
    # one row per pair of Bell outcomes, each steered by its draws
    branches = np.array(list(itertools.product(range(4), repeat=2)))
    draws = bell_draw(branches)
    for c, t in inputs:
        expected = LogicalState(cnot @ c.tensor(t).amps)
        out, labels = teleported_cnot_block(
            np.tile(c.amps, (16, 1)), np.tile(t.amps, (16, 1)), draws
        )
        assert np.array_equal(labels, branches)
        for row in out:
            assert LogicalState(row).overlap(expected) > 1 - 1e-10


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


def test_teleported_cnot_takes_single_qubits():
    zero = LogicalState.from_bits("0")
    with pytest.raises(ValueError, match="single-qubit"):
        teleported_cnot(LogicalState.from_bits("00"), zero, 0)


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
        attempts, draws = cnot_draws(PCG64Stack(_stream_states(seed, 0, 2000)))
        assert attempts.shape == (2000,) and draws.shape == (2000, 2)
        for i in range(2000):
            want = reference_cnot_draws(derive_rng(seed, i))
            assert (int(attempts[i]), tuple(draws[i].tolist())) == want, (seed, i)
        found.update(attempts.tolist())
    # hits in the first window, at its last two columns (whose Bell draws
    # lie past its width), in the second window (twice as wide) and past it
    width = _FIRST_WINDOW
    assert sum(found[a] for a in range(1, width + 1)) > 3000
    assert found[width - 1] > 50 and found[width] > 50
    assert sum(found[a] for a in range(width + 1, 3 * width + 1)) > 1000
    assert sum(n for a, n in found.items() if a > 3 * width) > 100


def test_cnot_draws_row_by_row_on_small_stacks():
    # a stack of no more than _ROW_BY_ROW runs is scanned in Python ints
    for count in range(1, _ROW_BY_ROW + 2):
        attempts, draws = cnot_draws(PCG64Stack(_stream_states(11, 0, count)))
        for i in range(count):
            want = reference_cnot_draws(derive_rng(11, i))
            assert (int(attempts[i]), tuple(draws[i].tolist())) == want, (count, i)


def test_cnot_draws_of_an_empty_stack():
    attempts, draws = cnot_draws(PCG64Stack(np.empty((0, 4), np.uint64)))
    assert attempts.shape == (0,) and draws.shape == (0, 2)


def test_teleported_cnot_takes_draws():
    one, zero = LogicalState.from_bits("1"), LogicalState.from_bits("0")
    steered = [0.01, bell_draw(0), bell_draw(1)]
    attempts, draws = cnot_draws(Draws(steered))
    assert attempts.tolist() == [1] and draws.tolist() == [steered[1:]]
    _out, labels = teleported_cnot_block(one.amps[None], zero.amps[None], draws)
    assert [list(BellLabel)[k] for k in labels[0]] == [BellLabel.PHI_PLUS, BellLabel.PHI_MINUS]
    out, tally = teleported_cnot(one, zero, Draws(steered))
    assert tally.attempts == 1
    assert out.overlap(LogicalState.from_bits("11")) > 1 - 1e-12
    with pytest.raises(ValueError, match="no uniform draws left"):
        teleported_cnot(one, zero, Draws([0.5, 0.01, bell_draw(0)]))


def test_an_int_seed_is_the_default_rng_of_the_seed():
    control = LogicalState(random_logical_amps(np.random.default_rng(9), 1))
    target = LogicalState(random_logical_amps(np.random.default_rng(10), 1))
    for seed in (0, 3, 2**40 + 1):
        out, tally = teleported_cnot(control, target, seed)
        want, want_tally = teleported_cnot(control, target, np.random.default_rng(seed))
        assert tally == want_tally
        assert np.array_equal(out.amps, want.amps)


# ---------------------------------------------------------------------------
# a trial's draws from its stack row against numpy's Generator
# ---------------------------------------------------------------------------

def _stack_trial_draws(stack):
    """Each row's draws as `teleport_cnot_report` makes them: the eight
    input normals (0.0 + x, as normal() adds its loc), then `cnot_draws`."""
    normals = np.column_stack([0.0 + standard_normals(stack) for _ in range(8)])
    return normals, *cnot_draws(stack)


def _assert_generator_draws(seed, indices, normals, attempts, bells):
    for t, i in enumerate(indices):
        rng = np.random.default_rng([seed, i])
        want = rng.normal(size=(4, 2)).ravel()
        assert np.array_equal(normals[t].view(np.uint64), want.view(np.uint64)), (seed, i)
        want_attempts, want_bells = reference_cnot_draws(rng)
        assert int(attempts[t]) == want_attempts, (seed, i)
        assert np.array_equal(bells[t].view(np.uint64), np.array(want_bells).view(np.uint64))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_draws_are_the_default_rng_draws(seed):
    # two chunks of stacks, then a range across 2**32
    for start, stop in ((0, 1100), (2**32 - 40, 2**32 + 40)):
        stacks = trial_stacks(seed, start, stop)
        draws = [np.concatenate(x) for x in zip(*map(_stack_trial_draws, stacks))]
        _assert_generator_draws(seed, range(start, stop), *draws)


_ZIG_MANTISSA = (1 << 52) - 1


def _first_rejection(seed, i, ki):
    """How the ziggurat's fast path first rejects an input normal of
    default_rng([seed, i]), read off numpy's raw PCG64 outputs: "layer"
    (a wedge test), "tail" (layer 0) or None.  Up to the first rejection,
    normal j reads raw output j."""
    raw = np.random.PCG64(np.random.SeedSequence([seed, i])).random_raw(8)
    layer, rabs = raw & 0xFF, raw >> 9 & _ZIG_MANTISSA
    rejected = np.flatnonzero(rabs >= ki[layer])
    if not len(rejected):
        return None
    return "tail" if layer[rejected[0]] == 0 else "layer"


def test_trial_draws_through_wedges_and_tails():
    table = importlib.resources.files("loqsim").joinpath("ziggurat.bin").read_bytes()
    ki = np.frombuffer(table, "<u8", 256, 4096)
    found = {"layer": [], "tail": []}
    for seed in STREAM_SEEDS:
        for i in range(2000):
            kind = _first_rejection(seed, i, ki)
            if kind is not None:
                found[kind].append((seed, i))
    assert len(found["layer"]) > 500 and len(found["tail"]) > 5
    for seed, i in found["tail"] + found["layer"][:200]:
        _assert_generator_draws(
            seed, [i], *_stack_trial_draws(PCG64Stack(_stream_states(seed, i, i + 1)))
        )
