import importlib.resources
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loqsim import detection
from loqsim.detection import (
    DetectorModel,
    Draws,
    HeraldGroups,
    HeraldPattern,
    PCG64Stack,
    _HASH_CHUNK,
    _stream_states,
    born_pick,
    born_pick_rows,
    born_picker,
    derive_rng,
    herald,
    measure_all,
    sample,
    seed_stack,
    seed_uniforms,
    trial_stacks,
    trial_uniforms,
)
from loqsim.fock import PhotonicState, make_basis_state, superpose, tensor
from loqsim.interferometer import (
    ModeUnitary,
    apply,
    beamsplitter,
    compose,
    compositions,
    evolve_table,
)

from conftest import STREAM_SEEDS, random_unitary, reference_herald

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_hom_herald_is_impossible():
    out = apply(compose([beamsplitter(0, 1, 0.5)], 2), make_basis_state([1, 1]))
    record = herald(out, HeraldPattern.from_dict({0: 1, 1: 1}))
    assert record.probability == 0.0
    assert record.residual_state.is_zero()


def test_vacuum_pattern_herald():
    psi = superpose(make_basis_state([1, 0]), 0.6, make_basis_state([0, 1]), 0.8j)
    state = tensor(make_basis_state([0]), psi)
    record = herald(state, HeraldPattern.from_dict({0: 0}))
    assert abs(record.probability - 1.0) < 1e-12
    for occ, amp in psi.items():
        assert abs(record.residual_state.amplitude(occ) - amp) < 1e-12


def test_lossy_single_photon():
    state = make_basis_state([1])
    record = herald(state, HeraldPattern.from_dict({0: 1}), DetectorModel(efficiency=0.7))
    assert abs(record.probability - 0.7) < 1e-12


def test_herald_probability_is_presquared_norm():
    # sub-normalized input: probability scales with the squared norm
    psi = make_basis_state([1, 0]).scaled(0.5)
    record = herald(psi, HeraldPattern.from_dict({0: 1}))
    assert abs(record.probability - 0.25) < 1e-12
    assert abs(record.residual_state.norm() - 1.0) < 1e-12


def _random_three_photon_state(rng) -> PhotonicState:
    terms = {occ: complex(rng.normal(), rng.normal()) for occ in compositions(3, 3)}
    return PhotonicState(3, terms).normalized()


def test_completeness(rng):
    state = _random_three_photon_state(rng)
    total = 0.0
    for c0 in range(4):
        for c1 in range(4):
            pattern = HeraldPattern(((0, c0), (1, c1)))
            total += herald(state, pattern).probability
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("number_resolving", [True, False])
@pytest.mark.parametrize("eta", [0.3, 0.8])
def test_lossy_completeness(rng, eta, number_resolving):
    # every observable pattern on modes (0, 1): 0..3 counts per mode when
    # resolving numbers, click or no click per mode otherwise
    state = _random_three_photon_state(rng)
    detector = DetectorModel(efficiency=eta, number_resolving=number_resolving)
    observable = range(4) if number_resolving else range(2)
    total = sum(
        herald(state, HeraldPattern(((0, c0), (1, c1))), detector).probability
        for c0 in observable
        for c1 in observable
    )
    assert abs(total - 1.0) < 1e-10


def test_eta_monotonicity():
    state = superpose(make_basis_state([2, 0]), SQRT_HALF, make_basis_state([1, 1]), SQRT_HALF)
    pattern = HeraldPattern.from_dict({0: 1})
    last = -1.0
    for eta in np.linspace(0.0, 1.0, 11):
        p = herald(
            state, pattern, DetectorModel(efficiency=float(eta), number_resolving=False)
        ).probability
        assert p >= last - 1e-12
        last = p


def test_threshold_equals_number_resolving_for_single_photons():
    psi = superpose(make_basis_state([1, 0, 1]), 0.6, make_basis_state([0, 1, 1]), 0.8)
    pattern = HeraldPattern.from_dict({0: 1, 1: 0})
    nr = herald(psi, pattern, DetectorModel(number_resolving=True))
    th = herald(psi, pattern, DetectorModel(number_resolving=False))
    assert abs(nr.probability - th.probability) < 1e-12
    for occ, amp in nr.residual_state.items():
        assert abs(th.residual_state.amplitude(occ) - amp) < 1e-12


def test_post_selection_idempotent():
    psi = superpose(make_basis_state([1, 0, 1]), 0.6, make_basis_state([0, 1, 1]), 0.8)
    pattern = HeraldPattern.from_dict({2: 1})
    first = herald(psi, pattern)
    again = tensor(first.residual_state, make_basis_state([1]))
    second = herald(again, pattern)
    assert abs(second.probability - 1.0) < 1e-12
    for occ, amp in first.residual_state.items():
        assert abs(second.residual_state.amplitude(occ) - amp) < 1e-12


def test_zero_probability_is_a_record_not_an_error():
    record = herald(make_basis_state([1, 0]), HeraldPattern.from_dict({0: 0}))
    assert record.probability == 0.0
    assert record.residual_state.is_zero()


DETECTORS = [
    DetectorModel(efficiency=eta, number_resolving=resolving)
    for eta in (1.0, 0.7)
    for resolving in (True, False)
]
# exact zeros of both signs, pruned and tied magnitudes, and the rest
PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-13, 3e-7]) | st.floats(-1.0, 1.0)


@st.composite
def herald_inputs(draw):
    """A state of one or several sectors, its terms in a drawn order, and
    a pattern on some of its modes."""
    modes = draw(st.integers(1, 5))
    sectors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    occupations = [occ for n in sectors for occ in compositions(n, modes)]
    chosen = draw(st.lists(st.sampled_from(occupations), max_size=12, unique=True))
    amps = [complex(draw(PARTS), draw(PARTS)) for _ in chosen]
    measured = draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=modes, unique=True))
    pattern = HeraldPattern(tuple((m, draw(st.integers(0, 3))) for m in measured))
    return modes, dict(zip(chosen, amps)), pattern, draw(st.integers(0, 2**32 - 1))


def _assert_same_record(got, want):
    assert type(got.probability) is float
    assert repr(got.probability) == repr(want.probability)
    assert got.outcome == want.outcome
    assert got.residual_state.mode_count == want.residual_state.mode_count
    # the same terms, amplitudes and signed zeros, in the same order
    assert repr(list(got.residual_state.terms.items())) == repr(
        list(want.residual_state.terms.items())
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(herald_inputs())
def test_herald_equals_reference(case):
    modes, terms, pattern, seed = case
    state = PhotonicState(modes, terms)
    # the unpruned terms as rows: amplitudes at or below 1e-12 must go
    # before grouping, as the state's constructor drops them
    occ = np.array(list(terms), dtype=np.int64).reshape(len(terms), modes).T
    raw = HeraldGroups(occ, np.array(list(terms.values()), dtype=complex), pattern)
    u = ModeUnitary(random_unitary(np.random.default_rng(seed), modes))
    evolved = apply(u, state)
    groups = HeraldGroups(*evolve_table(u, state), pattern)  # one grouping, every detector
    for detector in DETECTORS:
        want = reference_herald(state, pattern, detector)
        _assert_same_record(herald(state, pattern, detector), want)
        _assert_same_record(raw.record(detector), want)
        _assert_same_record(groups.record(detector),
                            reference_herald(evolved, pattern, detector))


def test_threshold_herald_keeps_first_of_equal_groups():
    # counts 1 and 2 on mode 0 both click and weigh 0.36 each: the first
    # in count order is the residual
    state = PhotonicState(2, {(1, 0): 0.6, (2, 1): 0.6j, (0, 0): 0.8})
    pattern = HeraldPattern.from_dict({0: 1})
    threshold = DetectorModel(number_resolving=False)
    record = herald(state, pattern, threshold)
    _assert_same_record(record, reference_herald(state, pattern, threshold))
    assert record.residual_state.terms == {(0,): 1.0 + 0j}
    assert record.outcome == ((0, 1),)


def test_pattern_validation():
    with pytest.raises(ValueError):
        HeraldPattern(())
    with pytest.raises(ValueError):
        HeraldPattern(((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        herald(make_basis_state([1]), HeraldPattern.from_dict({3: 1}))
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)


def test_record_json_shape():
    record = herald(make_basis_state([1, 0]), HeraldPattern.from_dict({0: 1}))
    data = record.to_json_dict()
    assert set(data) == {"outcome", "prob", "residual"}
    assert data["outcome"] == {"0": 1}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_measure_all_deterministic_state():
    occ, p = measure_all(make_basis_state([1, 0]), 7)
    assert occ == (1, 0) and abs(p - 1.0) < 1e-12


def test_measure_all_frequencies():
    state = superpose(
        make_basis_state([2, 0]), SQRT_HALF, make_basis_state([0, 2]), SQRT_HALF
    )
    counts = {(2, 0): 0, (0, 2): 0}
    n = 100_000
    for i in range(n):
        occ, _ = measure_all(state, derive_rng(123, i))
        counts[occ] += 1
    assert abs(counts[2, 0] / n - 0.5) < 0.01
    assert abs(counts[0, 2] / n - 0.5) < 0.01


def test_measure_all_seed_reproducible():
    state = superpose(
        make_basis_state([1, 0]), SQRT_HALF, make_basis_state([0, 1]), SQRT_HALF
    )
    seq1 = [measure_all(state, derive_rng(9, i))[0] for i in range(50)]
    seq2 = [measure_all(state, derive_rng(9, i))[0] for i in range(50)]
    assert seq1 == seq2


def test_measure_all_requires_normalized():
    with pytest.raises(ValueError):
        measure_all(make_basis_state([1]).scaled(0.5), 0)


class _FixedDraw(np.random.Generator):
    """A generator whose uniform draw is fixed, to reach rounding edges."""

    def __init__(self, u: float):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


def test_sample_never_draws_a_zero_probability_outcome():
    for probs in ([0.0, 1.0], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]):
        for i in range(300):
            k = sample(probs, derive_rng(17, i))
            assert probs[k] > 0.0
    # a draw of exactly 0 must skip leading zero-probability outcomes
    assert sample([0.0, 0.0, 2.0, 1.0], _FixedDraw(0.0)) == 2


def test_sample_at_or_past_the_total_returns_last_positive_outcome():
    probs = [0.1] * 10 + [0.0, 0.0]
    assert sample(probs, _FixedDraw(1.0)) == 9  # u equals the running total
    assert sample(probs, _FixedDraw(1.5)) == 9  # u past it
    assert sample([0.25, 0.0, 0.75, 0.0], _FixedDraw(1.0)) == 2


def test_born_pick_needs_a_running_sum_past_u():
    assert born_pick([0.25, 0.75], 0.25) == 1  # u equals the first running sum
    assert born_pick([0.25, 0.75], 0.2499) == 0
    assert born_pick([0.0, 0.5, 0.0, 0.5], 0.5) == 3


def test_sample_refuses_all_zero_probabilities():
    with pytest.raises(ValueError):
        sample([0.0, 0.0, 0.0], 0)
    with pytest.raises(ValueError):
        sample([], 0)


def test_sample_frequencies_within_five_sigma():
    weights = [2.0, 3.0, 5.0]  # unnormalized on purpose
    n = 40_000
    rng = np.random.default_rng(2024)
    counts = [0, 0, 0]
    for _ in range(n):
        counts[sample(weights, rng)] += 1
    for count, w in zip(counts, weights):
        p = w / sum(weights)
        assert abs(count / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)


def test_derive_rng_is_the_default_rng_stream_of_seed_and_index():
    for seed in (0, 1, 20, 7919, 2**40 + 3):
        for i in range(0, 3000, 7):
            got, want = derive_rng(seed, i), np.random.default_rng([seed, i])
            assert got.random() == want.random()
            assert np.array_equal(got.normal(size=3), want.normal(size=3))
            assert got.random() == want.random()


def _assert_default_rng_streams(seed, start, stop):
    stacks = list(trial_stacks(seed, start, stop))
    assert [len(s) for s in stacks] == [
        min(_HASH_CHUNK, stop - a) for a in range(start, stop, _HASH_CHUNK)
    ]
    rows = ((stack, t) for stack in stacks for t in range(len(stack)))
    for i, (stack, t) in zip(range(start, stop), rows, strict=True):
        want = np.random.default_rng([seed, i]).bit_generator.state["state"]
        assert stack.state(t) == want, (seed, i)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_block_seeded_streams_are_the_default_rng_streams(seed):
    # indices 0..3000: three whole chunks, then a hashed partial one
    _assert_default_rng_streams(seed, 0, 3001)
    # starts off the chunk grid, short chunks of 15 streams and of one,
    # and chunks across 2**32, where an index gains a second word
    _assert_default_rng_streams(seed, 37, 37 + _HASH_CHUNK + 15)
    _assert_default_rng_streams(seed, 5, 6)
    _assert_default_rng_streams(seed, 2**32 - 20, 2**32 + 20)
    _assert_default_rng_streams(seed, 2**32 - 2, 2**32 + 3)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_block_hash_is_the_seed_sequence_hash(seed):
    # the kernel itself, on ranges too short for trial_stacks to hash
    for start, stop in ((0, 1), (2**32 - 2, 2**32 + 3), (2**64 - 1, 2**64 + 1)):
        states = _stream_states(seed, start, stop)
        assert states.dtype == np.uint64 and states.shape == (stop - start, 4)
        for i, row in zip(range(start, stop), states):
            want = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            assert np.array_equal(row, want), (seed, i)


def test_block_seeding_refuses_negative_entropy():
    with pytest.raises(ValueError):
        list(trial_stacks(-1, 0, 1))
    with pytest.raises(ValueError):
        seed_stack(-1)
    with pytest.raises(ValueError):
        _stream_states(0, -16, 0)


# seeds of four and five 32-bit words too: the command line takes any seed >= 0
WIDE_SEEDS = STREAM_SEEDS + (2**96 + 7, 10**40)
DRAW_COUNTS = (0, 1, 2, 19, 40)


def _as_bits(values, shape) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(shape).view(np.uint64)


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_uniform_tables_are_the_default_rng_draws(seed):
    # indices 0..3001 (two whole chunks and a partial one), then across 2**32
    for start, stop in ((0, 3002), (2**32 - 20, 2**32 + 20)):
        # random(k) is the first k values of random(40)
        want = np.array(
            [np.random.default_rng([seed, i]).random(max(DRAW_COUNTS)) for i in range(start, stop)]
        )
        for k in DRAW_COUNTS:
            got = np.concatenate(list(trial_uniforms(seed, start, stop, k))).view(np.uint64)
            assert np.array_equal(got, want[:, :k].view(np.uint64)), (seed, start, k)


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_seed_uniforms_are_the_default_rng_draws(seed):
    for k in DRAW_COUNTS:
        got = seed_uniforms(seed, k)
        assert all(type(r) is float for r in got)
        want = np.random.default_rng(seed).random(k).view(np.uint64)
        assert np.array_equal(_as_bits(got, k), want), (seed, k)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stack_steps_as_the_default_rng_streams(seed):
    # a raw output, a window of 45 that stands 40 on (a single jump on
    # the short range, blocks of columns on the long one), a window of one
    # more, and the states left, across 2**32
    for start, stop in ((0, 1500), (2**32 - 30, 2**32 + 30)):
        stack = PCG64Stack(_stream_states(seed, start, stop))
        raw = stack.raw()
        got = np.column_stack([stack.window(45, 40), stack.window(1, 1)])
        for t, i in enumerate(range(start, stop)):
            rng = np.random.default_rng([seed, i])
            assert int(raw[t]) == rng.bit_generator.random_raw(), (seed, i)
            want = rng.random(45)
            assert np.array_equal(got[t, :45].view(np.uint64), want.view(np.uint64)), (seed, i)
            assert got[t, 45] == want[40]
            rng = np.random.default_rng([seed, i])
            rng.bit_generator.advance(42)
            assert stack.state(t) == rng.bit_generator.state["state"], (seed, i)


def test_stack_rows_taken_and_streamed():
    stack = PCG64Stack(_stream_states(3, 0, 6))
    sub = stack.take([1, 4])
    sub.raw()
    stream = stack.stream(2)
    next(stream), next(stream)
    stack.raw()
    for t, steps in enumerate([1, 1, 3, 1, 1, 1]):
        rng = np.random.default_rng([3, t])
        rng.bit_generator.advance(steps)
        assert stack.state(t) == rng.bit_generator.state["state"], t
    for t, i in enumerate([1, 4]):
        rng = np.random.default_rng([3, i])
        rng.bit_generator.advance(1)
        assert sub.state(t) == rng.bit_generator.state["state"], i


def test_one_seed_stack_is_default_rng_of_the_seed():
    for seed in (0, 5, 2**32 + 9):
        stream = seed_stack(seed).stream(0)
        want = np.random.default_rng(seed).bit_generator.random_raw(30)
        assert [next(stream) for _ in range(30)] == want.tolist()


def test_ziggurat_tables_ship_as_package_data():
    data = importlib.resources.files("loqsim").joinpath("ziggurat.bin").read_bytes()
    assert len(data) == 6144
    fi, wi, ki = (np.frombuffer(data, "<u8", 256, 2048 * j) for j in range(3))
    fi, wi = fi.view("<f8"), wi.view("<f8")
    assert int(ki[0]) == 0x000EF33D8025EF6A
    assert fi[0] == 1.0
    assert wi[255] * 2**52 == 3.6541528853610088
    # declared, so that an installed package carries it
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert config["tool"]["setuptools"]["package-data"]["loqsim"] == ["ziggurat.bin"]


def test_uniform_tables_come_one_chunk_at_a_time(monkeypatch):
    shapes = []
    kernel = detection.pcg64_uniforms

    def spy(states, k):
        shapes.append(states.shape[0])
        return kernel(states, k)

    monkeypatch.setattr(detection, "pcg64_uniforms", spy)
    trials = 200_000
    tables = trial_uniforms(1, 0, trials, 1)
    assert next(tables).shape == (_HASH_CHUNK, 1)
    assert shapes == [_HASH_CHUNK]
    assert sum(len(table) for table in tables) == trials - _HASH_CHUNK
    assert len(shapes) == -(-trials // _HASH_CHUNK)
    assert max(shapes) == _HASH_CHUNK and sum(shapes) == trials


def test_uniform_draws_refuse_negative_entropy():
    with pytest.raises(ValueError):
        list(trial_uniforms(-1, 0, 5, 1))
    with pytest.raises(ValueError):
        list(trial_uniforms(0, -5, 0, 1))
    with pytest.raises(ValueError):
        seed_uniforms(-1, 1)


def test_draws_hand_out_their_values_in_order_then_refuse():
    draws = Draws([0.25, 0.75])
    assert (draws.random(), draws.random()) == (0.25, 0.75)
    with pytest.raises(ValueError, match="no uniform draws left"):
        draws.random()


PROBS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1e-300, 0.1]) | st.floats(0.0, 1.0)
DRAWS = st.sampled_from([0.0, 1.0 - 2**-53, 1.0, 1.5]) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(PROBS, min_size=1, max_size=12),
    st.lists(DRAWS, min_size=1, max_size=8),
)
def test_born_picker_equals_born_pick(zeros, probs, draws):
    # an all-zero prefix, then drawn values with repeats, zeros and ties
    probs = [0.0] * zeros + probs
    if not any(p > 0.0 for p in probs):
        for pick_all in (lambda: born_picker(probs), lambda: born_pick(probs, 0.5)):
            with pytest.raises(ValueError):
                pick_all()
        return
    got = born_picker(probs)(np.array(draws))
    assert got.tolist() == [born_pick(probs, r) for r in draws]


@st.composite
def pick_tables(draw):
    """Rows of probabilities with leading, trailing or all-but-one zero
    entries, each with a draw: an edge value, any value in [0, 1), or one
    that puts u on a running sum (exactly, for dyadic entries)."""
    width = draw(st.integers(1, 8))
    entries = PROBS | st.sampled_from([0.125, 0.25, 0.5])
    rows, draws = [], []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.lists(entries, min_size=width, max_size=width))
        j = draw(st.integers(0, width - 1))
        zeros = draw(st.sampled_from(["as drawn", "leading", "trailing", "all but one"]))
        if zeros == "leading":
            p[:j] = [0.0] * j
        elif zeros == "trailing":
            p[j + 1:] = [0.0] * (width - j - 1)
        elif zeros == "all but one":
            p = [x if k == j else 0.0 for k, x in enumerate(p)]
        cum = list(itertools.accumulate(p))
        on_sum = [c / cum[-1] for c in cum] if cum[-1] > 0.0 else [0.0]
        rows.append(p)
        draws.append(draw(DRAWS | st.sampled_from(on_sum)))
    return rows, draws


@settings(max_examples=300, deadline=None)
@given(pick_tables())
def test_born_pick_rows_equal_born_pick(table):
    rows, draws = table
    probs, r = np.array(rows), np.array(draws)
    if not all(any(p > 0.0 for p in row) for row in rows):
        with pytest.raises(ValueError, match="no support"):
            born_pick_rows(probs, r)
        return
    assert born_pick_rows(probs, r).tolist() == [born_pick(p, x) for p, x in zip(rows, draws)]


def test_born_pick_rows_edges():
    probs = np.array([[0.0, 0.25, 0.0, 0.75, 0.0]] * 4)
    # r = 0, u on the first running sum, r = 1 - 2**-53, and past the total
    r = np.array([0.0, 0.25, 1.0 - 2**-53, 1.5])
    assert born_pick_rows(probs, r).tolist() == [1, 3, 3, 3]
    assert born_picker(probs[0])(r).tolist() == [1, 3, 3, 3]
    assert [born_pick(probs[0].tolist(), x) for x in r.tolist()] == [1, 3, 3, 3]
    with pytest.raises(ValueError, match="no support"):
        born_pick_rows(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([0.5, 0.5]))


def test_born_totals_are_sequential_running_sums():
    # [0.1] * 10 adds up to 0.9999999999999999 term by term but to 1.0
    # exactly, which sum() returns from Python 3.12 on
    probs = [0.1] * 10
    running = 0.0
    for p in probs:
        running += p
    assert running == 0.9999999999999999 and math.fsum(probs) == 1.0
    # r is the ninth running sum: u = r * running falls below it, so
    # outcome 8 wins; u = r * 1.0 would equal it and let outcome 9 win
    r = list(itertools.accumulate(probs))[8]
    assert r * running < r == r * math.fsum(probs)
    assert born_pick(probs, r) == 8
    assert born_picker(probs)(np.array([r])).tolist() == [8]
    assert born_pick_rows(np.array([probs]), np.array([r])).tolist() == [8]
    # a state's squared norm and a herald probability add term by term too:
    # ten terms of weight 0.1, all in the group where mode 10 counts 0
    amp = math.sqrt(0.1)
    state = PhotonicState(11, {tuple(int(j == k) for j in range(11)): amp for k in range(10)})
    assert [abs(a) ** 2 for a in state.terms.values()] == probs
    assert state.norm_squared() == running
    assert herald(state, HeraldPattern(((10, 0),))).probability == running
