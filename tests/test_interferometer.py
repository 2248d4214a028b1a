import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from loqsim.dsl import parse
from loqsim.fock import PhotonicState, make_basis_state, superpose, total_photon_number
from loqsim.interferometer import (
    KEY_CAP,
    SECTOR_CAP,
    ModeUnitary,
    _occupations,
    _raising_tables,
    _table_keys,
    apply,
    beamsplitter,
    check_sector_size,
    compose,
    compositions,
    evolve_sector,
    hom_coincidence,
    hwp,
    pbs,
    permanent,
    phase,
    qwp,
    rotation_elements,
    sector_size,
    swap,
)
from loqsim.runner import run

from conftest import (
    brute_force_apply,
    dense_compose,
    mesh_spec,
    naive_permanent,
    per_mode_evolve_sector,
    random_unitary,
    ryser_apply,
)

DATA = Path(__file__).parent / "data"
SQRT_HALF = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]]) * SQRT_HALF


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def test_hwp_hadamard():
    u = compose([hwp(0, math.radians(22.5))], 2)
    assert np.abs(u.matrix - HADAMARD).max() < 1e-12


def test_hwp_45_swaps_h_and_v():
    u = compose([hwp(0, math.radians(45.0))], 2)
    assert np.abs(u.matrix - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_bs_zero_reflectivity_is_identity():
    u = compose([beamsplitter(0, 1, 0.0)], 2)
    assert np.abs(u.matrix - np.eye(2)).max() < 1e-12


def test_bs_convention():
    u = compose([beamsplitter(0, 1, 0.5)], 2)
    expected = SQRT_HALF * np.array([[1, 1j], [1j, 1]])
    assert np.abs(u.matrix - expected).max() < 1e-12


def test_pbs_transmits_h_reflects_v():
    u = compose([pbs(0, 1)], 4).matrix
    assert u[0, 0] == 1 and u[2, 2] == 1  # H rails transmitted
    assert u[3, 1] == 1 and u[1, 3] == 1  # V rails swapped
    assert u[1, 1] == 0 and u[3, 3] == 0


def test_swap_element():
    u = compose([swap(0, 2)], 3).matrix
    assert u[2, 0] == 1 and u[0, 2] == 1 and u[1, 1] == 1


def test_element_mode_out_of_range():
    with pytest.raises(ValueError, match="element touches mode 5 but only 2 modes are declared"):
        compose([phase(1, 0.3), beamsplitter(0, 5, 0.5)], 2)


def test_bad_reflectivity():
    with pytest.raises(ValueError):
        beamsplitter(0, 1, 1.5)


def test_rotation_elements(rng):
    for theta in rng.uniform(-7.0, 7.0, size=12):
        u = compose(rotation_elements(0, 1, theta), 2).matrix
        c, s = math.cos(theta), math.sin(theta)
        assert np.abs(u - np.array([[c, -s], [s, c]])).max() < 1e-12


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_two_balanced_bs():
    # 2x2 product oracle: B.B = [[t^2-r^2, 2irt], [2irt, t^2-r^2]] = [[0,i],[i,0]]
    u = compose([beamsplitter(0, 1, 0.5), beamsplitter(0, 1, 0.5)], 2).matrix
    b = SQRT_HALF * np.array([[1, 1j], [1j, 1]])
    assert np.abs(u - b @ b).max() < 1e-12
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-12)


def test_compose_empty_is_identity():
    for modes in (0, 1, 3, 16):
        assert np.array_equal(compose([], modes).matrix, np.eye(modes))


def test_compose_two_pi_phases():
    u = compose([phase(0, math.pi), phase(0, math.pi)], 2).matrix
    assert np.abs(u - np.eye(2)).max() < 1e-12


def _random_network(rng, modes: int, length: int, kinds) -> list:
    """`length` elements of the given kinds on random modes of `modes`."""
    elements = []
    for kind in rng.choice(kinds, size=length):
        value = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        if kind == "phase":
            elements.append(phase(int(rng.integers(modes)), value))
        elif kind in ("bs", "swap"):
            a, b = (int(x) for x in rng.choice(modes, size=2, replace=False))
            elements.append(
                beamsplitter(a, b, float(rng.uniform())) if kind == "bs" else swap(a, b)
            )
        elif kind == "pbs":
            pair_a, pair_b = (int(x) for x in rng.choice(modes // 2, size=2, replace=False))
            elements.append(pbs(pair_a, pair_b))
        else:
            plate = hwp if kind == "hwp" else qwp
            elements.append(plate(int(rng.integers(modes // 2)), value))
    return elements


@pytest.mark.parametrize("modes", [1, 2, 3, 5, 8, 10, 16])
def test_compose_matches_the_dense_product(rng, modes):
    kinds = ["phase"] + ["bs", "swap", "hwp", "qwp"] * (modes >= 2) + ["pbs"] * (modes >= 4)
    for length in range(0, 4 * modes + 8, 2):
        elements = _random_network(rng, modes, length, kinds)
        got = compose(elements, modes).matrix
        assert np.abs(got - dense_compose(elements, modes)).max() <= 1e-14


@pytest.mark.parametrize("modes", [4, 9, 16])
def test_compose_of_permutations_is_exact(rng, modes):
    for length in range(1, 30):
        elements = _random_network(rng, modes, length, ["swap", "pbs"])
        assert np.array_equal(compose(elements, modes).matrix, dense_compose(elements, modes))


def _edited_single_run(text: str, index: int, reflectivity: float) -> float:
    """Herald probability of `text` run once, its sweep line removed and
    its `index`-th splitter set to `reflectivity`."""
    lines = [line for line in text.splitlines() if not line.startswith("sweep")]
    splitter_lines = [i for i, line in enumerate(lines) if line.startswith("bs ")]
    _bs, a, b, _r = lines[splitter_lines[index]].split()
    lines[splitter_lines[index]] = f"bs {a} {b} {reflectivity!r}"
    report = run(parse("\n".join(lines) + "\n"))
    assert report.mode == "single" and len(report.rows) == 1
    return report.rows[0][0]


@pytest.mark.parametrize("name", ["mesh_8x4", "hom_reflectivity.lqs"])
def test_r_sweep_rows_are_single_runs_of_the_edited_spec(name):
    if name == "mesh_8x4":
        text = mesh_spec(random.Random(16), 8, [1, 0, 2, 0, 0, 1, 0, 0])
        text += "herald 1=1 3=0 6=1\nsweep r11 from 0.05 to 0.95 steps 6\n"
    else:
        text = (DATA / name).read_text()
    spec = parse(text)
    report = run(spec)
    assert len(report.rows) == spec.sweep.steps
    index = int(spec.sweep.param[1:])
    assert any(probability > 0.0 for _r, probability in report.rows)
    for reflectivity, probability in report.rows:
        single = _edited_single_run(text, index, reflectivity)
        assert single.hex() == probability.hex(), (reflectivity, single, probability)


def test_compose_600_modes_within_budget(rng):
    elements = []
    for _ in range(200):
        a, b = (int(x) for x in rng.choice(600, size=2, replace=False))
        elements.append(beamsplitter(a, b, float(rng.uniform())))
    t0 = time.perf_counter()
    u = compose(elements, 600)
    elapsed = time.perf_counter() - t0
    assert u.dim == 600
    assert elapsed < 1.0, f"composing 200 splitters on 600 modes took {elapsed:.2f}s"


def test_wide_r_sweep_with_herald_runs(tmp_path, capsys):
    from loqsim.cli import main

    lines = ["modes 600", "input 1" + " 0" * 599]
    lines += [f"bs {k} {k + 1} 0.{k % 9 + 1}" for k in range(10)]
    lines += [f"bs {k} {599 - k} 0.5" for k in range(10)]
    lines += ["herald 1=1 598=0", "sweep r3 from 0 to 1 steps 6"]
    path = tmp_path / "wide.lqs"
    path.write_text("\n".join(lines) + "\n")
    assert main(["run", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 6 and all(0.0 <= p <= 1.0 for _r, p in rows)


def test_occupation_table_is_one_shared_read_only_array():
    occ = _occupations(3, 4)
    assert occ is _occupations(3, 4)
    assert occ is _raising_tables(3, 4)[0]
    assert not occ.flags.writeable
    with pytest.raises(ValueError):
        occ[0, 0] = 1


def test_evolve_sector_returns_its_cached_table_and_the_permanent_amplitudes():
    u = compose([beamsplitter(0, 1, 0.3), beamsplitter(1, 2, 0.6), phase(2, 0.4)], 3)
    occ, amps = evolve_sector(u, 3, [((2, 1, 0), 1.0 + 0j)])
    assert occ is _occupations(3, 3) and amps.shape == (occ.shape[1],)
    want = ryser_apply(u, make_basis_state([2, 1, 0]))
    for key, amp in zip(_table_keys(occ), amps.tolist()):
        assert abs(amp - want.amplitude(key)) < 1e-12


def _random_terms(rng, modes: int, photons: int, count: int) -> list:
    """`count` distinct random occupations of one sector with random amplitudes."""
    terms = {}
    while len(terms) < min(count, sector_size(photons, modes)):
        occ = np.bincount(rng.integers(modes, size=photons), minlength=modes)
        terms[tuple(occ.tolist())] = complex(rng.normal(), rng.normal())
    return list(terms.items())


def _assert_bit_identical(u, photons, terms):
    occ, amps = evolve_sector(u, photons, terms)
    want = per_mode_evolve_sector(u, photons, terms)
    assert amps.shape == want.shape == (occ.shape[1],)
    assert np.array_equal(amps.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "modes, photons",
    [(1, 0), (1, 1), (1, 5), (2, 3), (3, 4), (8, 4), (16, 5), (16, 6), (40, 2)],
)
def test_evolve_sector_is_bit_identical_to_the_per_mode_loop(rng, modes, photons):
    # 16/5 takes blocks of 5 modes (816-row sector) and one mode per block
    # at 3876 rows, 16/6 goes one mode per block past _CREATE_BLOCK, and
    # 1 mode makes every product a single entry
    for count in (1, 3):
        for _ in range(4 if modes == 1 else 1):
            u = ModeUnitary(random_unitary(rng, modes))
            _assert_bit_identical(u, photons, _random_terms(rng, modes, photons, count))


@pytest.mark.parametrize("block", [1, 7, 30, 64, 500])
def test_evolve_sector_blocks_of_any_size_are_bit_identical(rng, monkeypatch, block):
    # small blocks put the one-mode-per-block boundary and ragged last
    # blocks inside desk-scale sectors
    monkeypatch.setattr("loqsim.interferometer._CREATE_BLOCK", block)
    for modes, photons in [(1, 3), (5, 3), (7, 4), (9, 2)]:
        u = ModeUnitary(random_unitary(rng, modes))
        for count in (1, 4):
            _assert_bit_identical(u, photons, _random_terms(rng, modes, photons, count))


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary(np.array([[1.0, 0.0], [1.0, 1.0]]))
    data = ModeUnitary(np.eye(2)).to_json_dict()
    data["matrix"][1][0] = [1.0, 0.0]
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary.from_json_dict(data)


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------

def test_permanent_identity():
    assert abs(permanent(np.eye(3)) - 1.0) < 1e-15
    assert permanent(np.zeros((0, 0))) == 1.0


def test_permanent_two_by_two():
    a, b, c, d = 1.2, 3.4j, -0.5, 2.0
    assert abs(permanent([[a, b], [c, d]]) - (a * d + b * c)) < 1e-12
    # the two-photon coincidence amplitude t*t + (ir)*(ir) at R = 1/2
    t, r = SQRT_HALF, SQRT_HALF
    m = [[t, 1j * r], [1j * r, t]]
    assert abs(permanent(m)) < 1e-15


def test_permanent_matches_naive(rng):
    for n in range(1, 7):
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            fast = permanent(m)
            slow = naive_permanent(m)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_permanent_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_hom_two_photon_output():
    u = compose([beamsplitter(0, 1, 0.5)], 2)
    out = apply(u, make_basis_state([1, 1]))
    assert abs(out.amplitude([1, 1])) < 1e-12
    assert abs(out.amplitude([2, 0]) - 1j * SQRT_HALF) < 1e-12
    assert abs(out.amplitude([0, 2]) - 1j * SQRT_HALF) < 1e-12


def test_identity_is_noop(rng):
    state = superpose(
        make_basis_state([2, 0, 1]), 0.6, make_basis_state([0, 2, 1]), 0.8j
    )
    out = apply(ModeUnitary(np.eye(3)), state)
    for occ, amp in state.items():
        assert abs(out.amplitude(occ) - amp) < 1e-12


def test_two_photon_sector_against_expm_oracle():
    # second-quantized BS generator on the {|2,0>,|1,1>,|0,2>} sector:
    # H = theta (a^dag b + b^dag a); U_sector = expm(iH)
    reflectivity = 0.5
    theta = math.asin(math.sqrt(reflectivity))
    h = theta * np.array(
        [[0, math.sqrt(2), 0], [math.sqrt(2), 0, math.sqrt(2)], [0, math.sqrt(2), 0]]
    )
    sector = scipy.linalg.expm(1j * h)
    expected = sector @ np.array([1.0, 0.0, 0.0])  # evolve |2,0>

    out = apply(compose([beamsplitter(0, 1, reflectivity)], 2), make_basis_state([2, 0]))
    got = np.array([out.amplitude(o) for o in [(2, 0), (1, 1), (0, 2)]])
    assert np.abs(got - expected).max() < 1e-12
    probs = np.abs(got) ** 2
    assert np.abs(probs - [0.25, 0.5, 0.25]).max() < 1e-12


def test_apply_matches_brute_force(rng):
    u = random_unitary(rng, 4)
    state = superpose(
        make_basis_state([2, 1, 0, 0]), 0.6, make_basis_state([0, 1, 1, 1]), 0.8j
    )
    fast = apply(ModeUnitary(u), state)
    slow = brute_force_apply(u, state)
    for occ in compositions(3, 4):
        assert abs(fast.amplitude(occ) - slow.amplitude(occ)) < 1e-10


def test_norm_preservation_random_networks(rng):
    for _ in range(4):
        elements = []
        for _ in range(6):
            a, b = rng.choice(8, size=2, replace=False)
            elements.append(beamsplitter(int(a), int(b), float(rng.uniform())))
            elements.append(phase(int(rng.integers(8)), float(rng.uniform(0, 2 * math.pi))))
        u = compose(elements, 8)
        terms = {}
        for _ in range(20):
            occ = tuple(np.bincount(rng.integers(0, 8, size=4), minlength=8))
            terms[occ] = complex(rng.normal(), rng.normal())
        from loqsim.fock import PhotonicState

        state = PhotonicState(8, terms).normalized()
        out = apply(u, state)
        assert abs(out.norm_squared() - 1.0) < 1e-10
        assert total_photon_number(out) == 4


def test_single_photon_sector_is_matrix_action(rng):
    u = random_unitary(rng, 5)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps /= np.linalg.norm(amps)
    from loqsim.fock import PhotonicState

    state = PhotonicState(
        5, {tuple(np.eye(5, dtype=int)[k]): amps[k] for k in range(5)}
    )
    out = apply(ModeUnitary(u), state)
    expected = u @ amps
    for k in range(5):
        occ = tuple(np.eye(5, dtype=int)[k])
        assert abs(out.amplitude(occ) - expected[k]) < 1e-12


def test_composition_homomorphism(rng):
    a = beamsplitter(0, 1, 0.3)
    b = beamsplitter(1, 2, 0.7)
    state = make_basis_state([1, 1, 0]).normalized()
    combined = apply(compose([a, b], 3), state)
    stepwise = apply(compose([b], 3), apply(compose([a], 3), state))
    for occ in compositions(2, 3):
        assert abs(combined.amplitude(occ) - stepwise.amplitude(occ)) < 1e-10


def test_mixed_sector_evolution():
    state = superpose(make_basis_state([0, 0]), SQRT_HALF, make_basis_state([1, 1]), SQRT_HALF)
    out = apply(compose([beamsplitter(0, 1, 0.5)], 2), state)
    assert abs(out.amplitude([0, 0]) - SQRT_HALF) < 1e-12
    assert abs(out.norm_squared() - 1.0) < 1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(ModeUnitary(np.eye(3)), make_basis_state([1, 0]))


def _random_input(rng, modes: int, photons: int, bunched: bool) -> tuple[int, ...]:
    """Collision-free input, or one with a doubly occupied mode."""
    if bunched:
        picks = [int(rng.integers(modes))] * 2 + list(rng.integers(0, modes, size=photons - 2))
    else:
        picks = rng.choice(modes, size=photons, replace=False)
    return tuple(int(c) for c in np.bincount(picks, minlength=modes))


def _assert_same_state(a: PhotonicState, b: PhotonicState, tol: float):
    for occ in set(a.terms) | set(b.terms):
        assert abs(a.amplitude(occ) - b.amplitude(occ)) <= tol, occ


def test_apply_matches_ryser_and_brute_force(rng):
    for modes, photons in [(2, 2), (3, 3), (4, 2), (5, 3), (6, 3), (8, 4)]:
        u = random_unitary(rng, modes)
        free = _random_input(rng, modes, photons, bunched=False)
        bunch = _random_input(rng, modes, photons, bunched=True)
        one = (1,) + (0,) * (modes - 1)
        states = [
            make_basis_state(free),
            make_basis_state(bunch),
            superpose(make_basis_state(free), 0.6, make_basis_state(bunch), 0.8j),
            PhotonicState(
                modes, {(0,) * modes: 0.4, one: -0.3j, free: 0.5, bunch: 0.7 + 0.1j}
            ).normalized(),
        ]
        for state in states:
            fast = apply(ModeUnitary(u), state)
            _assert_same_state(fast, ryser_apply(ModeUnitary(u), state), 1e-12)
            _assert_same_state(fast, brute_force_apply(u, state), 1e-12)


def test_sector_tables_follow_compositions():
    for modes in range(1, 6):
        for photons in range(5):
            keys = _table_keys(_occupations(photons, modes))
            assert keys == list(compositions(photons, modes))
            occ, up = _raising_tables(photons, modes)
            assert [tuple(col) for col in occ.T.tolist()] == keys
            above = list(compositions(photons + 1, modes))
            for s, occupation in enumerate(keys):
                for j in range(modes):
                    raised = list(occupation)
                    raised[j] += 1
                    assert above[up[j, s]] == tuple(raised)


def _repeat(occ) -> list[int]:
    return [i for i, c in enumerate(occ) for _ in range(c)]


def test_apply_16_modes_6_photons_budget(rng):
    u = random_unitary(rng, 16)
    occ = _random_input(rng, 16, 6, bunched=False)
    t0 = time.perf_counter()
    out = apply(ModeUnitary(u), make_basis_state(occ))
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"16/6 apply took {elapsed:.2f}s (budget 3s)"
    assert abs(out.norm_squared() - 1.0) < 1e-10
    targets = list(compositions(6, 16))
    for k in rng.choice(len(targets), size=5, replace=False):
        t = targets[k]
        norm = math.sqrt(math.prod(math.factorial(c) for c in t))
        expected = naive_permanent(u[np.ix_(_repeat(t), _repeat(occ))]) / norm
        assert abs(out.amplitude(t) - expected) < 1e-12


def test_apply_refuses_oversized_sector():
    assert sector_size(6, 16) <= sector_size(6, 20) <= SECTOR_CAP < sector_size(8, 16)
    assert sector_size(10, 40) > SECTOR_CAP
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="cap is 200000"):
        apply(ModeUnitary(np.eye(40)), make_basis_state([1] * 10 + [0] * 30))
    assert time.perf_counter() - t0 < 1.0


def test_apply_refuses_oversized_keys(monkeypatch):
    # 2 photons over 600 modes: 180 300 amplitudes fit SECTOR_CAP, but the
    # keys would hold 108 180 000 entries
    assert sector_size(2, 600) <= SECTOR_CAP < sector_size(2, 600) * 600
    for photons, modes in ((6, 20), (6, 16), (2, 150)):
        assert sector_size(photons, modes) * modes <= KEY_CAP
        check_sector_size(photons, modes)
    u = ModeUnitary(np.eye(600))
    state = make_basis_state([1, 1] + [0] * 598)

    def no_work(*args):
        raise AssertionError("apply started evolving an oversized sector")

    monkeypatch.setattr("loqsim.interferometer._raising_tables", no_work)
    with pytest.raises(ValueError, match=f"key entries, cap is {KEY_CAP}"):
        apply(u, state)


def test_apply_evolves_a_caller_built_unitary_past_the_spec_unitary_cap():
    # a spec's mode unitary is capped at KEY_CAP entries; a library caller
    # that already holds a larger one can still evolve the vacuum through it
    modes = math.isqrt(KEY_CAP) + 1
    u = ModeUnitary(np.eye(modes, dtype=complex))
    assert apply(u, make_basis_state([0] * modes)) == make_basis_state([0] * modes)


def test_apply_refuses_lost_precision(tmp_path, capsys):
    from loqsim.cli import main

    u = compose([beamsplitter(0, 1, 0.5)], 2)
    assert abs(apply(u, make_basis_state([30, 30])).norm_squared() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="lost floating-point precision"):
        apply(u, make_basis_state([64, 64]))
    spec = tmp_path / "bunched.lqs"
    spec.write_text("modes 2\ninput 64 64\nbs 0 1 0.5\n")
    assert main(["run", str(spec)]) == 1
    assert "lost floating-point precision" in capsys.readouterr().err


@st.composite
def networks(draw):
    """Random bs/phase network on 1-6 modes and a state of up to 4 photons."""
    modes = draw(st.integers(1, 6))
    elements = []
    for _ in range(draw(st.integers(0, 8))):
        if modes >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(modes)))[:2]
            elements.append(beamsplitter(a, b, draw(st.floats(0.0, 1.0))))
        else:
            m = draw(st.integers(0, modes - 1))
            elements.append(phase(m, draw(st.floats(-7.0, 7.0))))
    occupations = st.lists(st.integers(0, 2), min_size=modes, max_size=modes).filter(
        lambda occ: sum(occ) <= 4
    )
    amps = st.complex_numbers(max_magnitude=1.0, min_magnitude=0.1, allow_nan=False)
    terms = draw(st.dictionaries(occupations.map(tuple), amps, min_size=1, max_size=5))
    return compose(elements, modes), PhotonicState(modes, terms).normalized()


def _sector_weights(state: PhotonicState) -> dict[int, float]:
    weights: dict[int, float] = {}
    for occ, amp in state.items():
        weights[sum(occ)] = weights.get(sum(occ), 0.0) + abs(amp) ** 2
    return weights


@settings(max_examples=150, deadline=None, derandomize=True)
@given(networks())
def test_norm_and_photon_number_conserved(network):
    u, state = network
    out = apply(u, state)
    assert abs(out.norm_squared() - 1.0) < 1e-10
    before, after = _sector_weights(state), _sector_weights(out)
    assert set(after) <= set(before)
    for n, weight in before.items():
        assert abs(after.get(n, 0.0) - weight) < 1e-10, n


@pytest.mark.parametrize("modes, photons, bunched", [(12, 6, True), (16, 5, False)])
def test_cli_full_sector_against_permanents(tmp_path, capsys, rng, modes, photons, bunched):
    from loqsim.cli import main
    from loqsim.dsl import parse
    from loqsim.runner import lower_elements

    occ = _random_input(rng, modes, photons, bunched)
    text = mesh_spec(rng, modes, occ)
    path = tmp_path / "mesh.lqs"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == sector_size(photons, modes)
    assert abs(report["aggregate"]["norm_squared"] - 1.0) < 1e-10

    u = compose(lower_elements(parse(text).elements), modes).matrix
    in_norm = math.sqrt(math.prod(math.factorial(c) for c in occ))
    for k in rng.choice(len(report["rows"]), size=3, replace=False):
        label, re_part, im_part, _prob = report["rows"][k]
        t = tuple(int(x) for x in label.split())
        norm = in_norm * math.sqrt(math.prod(math.factorial(c) for c in t))
        expected = naive_permanent(u[np.ix_(_repeat(t), _repeat(occ))]) / norm
        assert abs(complex(re_part, im_part) - expected) < 1e-12


# ---------------------------------------------------------------------------
# two-photon interference with partial distinguishability
# ---------------------------------------------------------------------------

def test_hom_coincidence_endpoints():
    assert hom_coincidence(0.5, 1.0) == 0.0
    assert hom_coincidence(0.5, 0.0) == 0.5


def test_hom_coincidence_partial_against_label_mode_oracle():
    # photon 1 carries internal state x|a> + sqrt(1-x^2)|b>, photon 2 is |a>;
    # modes (0a, 0b, 1a, 1b); the BS acts on the spatial index only
    x = SQRT_HALF
    state = superpose(
        make_basis_state([1, 0, 1, 0]), x,
        make_basis_state([0, 1, 1, 0]), math.sqrt(1 - x * x),
    )
    u = compose([beamsplitter(0, 2, 0.5), beamsplitter(1, 3, 0.5)], 4)
    out = apply(u, state)
    coincidence = 0.0
    for occ, amp in out.items():
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1:
            coincidence += abs(amp) ** 2
    assert abs(coincidence - 0.25) < 1e-12
    assert abs(hom_coincidence(0.5, x) - coincidence) < 1e-12


def test_hom_dip_monotone():
    xs = np.linspace(0.0, 1.0, 21)
    values = [hom_coincidence(0.5, float(x)) for x in xs]
    assert values[0] == 0.5 and values[-1] == 0.0
    assert all(b < a for a, b in zip(values, values[1:]))


def test_hom_coincidence_range_errors():
    with pytest.raises(ValueError):
        hom_coincidence(1.5, 0.5)
    with pytest.raises(ValueError):
        hom_coincidence(0.5, -0.1)


def test_mode_unitary_json_round_trip(rng):
    u = ModeUnitary(random_unitary(rng, 3))
    data = u.to_json_dict()
    assert data["dim"] == 3
    back = ModeUnitary.from_json_dict(data)
    assert np.array_equal(back.matrix, u.matrix)
