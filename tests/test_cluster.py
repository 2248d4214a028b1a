import itertools
import math

import numpy as np
import pytest

import loqsim.cluster as cluster
from loqsim.cluster import (
    NODE_CAP,
    ClusterGraph,
    ClusterState,
    MeasurementInstruction,
    PauliFrame,
    initial_cluster_state,
    build_cluster,
    linear_rotation_pattern,
    measure_node,
    run_pattern,
)
from loqsim.detection import derive_rng
from loqsim.encoding import LogicalState
from loqsim.teleport import cnot_matrix

from conftest import assert_matches_monolithic, full_operator, random_logical_amps

SQRT_HALF = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def _hz(angle: float) -> np.ndarray:
    return HADAMARD @ np.diag([1.0, np.exp(1j * angle)])


def _rotation_oracle(alpha, beta, gamma) -> LogicalState:
    plus = np.array([1.0, 1.0]) * SQRT_HALF
    amps = _hz(0.0) @ _hz(-gamma) @ _hz(-beta) @ _hz(-alpha) @ plus
    return LogicalState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_two_node_cluster_amplitudes():
    state = build_cluster(ClusterGraph((0, 1), ((0, 1),)))
    expected = np.array([1, 1, 1, -1], dtype=complex) / 2.0
    assert np.abs(state.amps - expected).max() < 1e-12


def test_single_node_is_plus():
    state = build_cluster(ClusterGraph((0,), ()))
    assert np.abs(state.amps - np.array([SQRT_HALF, SQRT_HALF])).max() < 1e-12


def test_edge_order_irrelevant():
    edges = ((0, 1), (1, 2), (0, 2))
    a = build_cluster(ClusterGraph((0, 1, 2), edges))
    b = build_cluster(ClusterGraph((0, 1, 2), tuple(reversed(edges))))
    assert np.array_equal(a.amps, b.amps)


def test_graph_validation():
    with pytest.raises(ValueError):
        ClusterGraph((0, 1), ((0, 0),))
    with pytest.raises(ValueError):
        ClusterGraph((0, 1), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        ClusterGraph((0, 1), ((0, 2),))


def test_node_cap():
    nodes = tuple(range(NODE_CAP + 1))
    with pytest.raises(ValueError):
        build_cluster(ClusterGraph(nodes, ()))


def test_node_cap_refused_before_any_work(monkeypatch):
    n = NODE_CAP + 1
    chain = ClusterGraph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))

    def no_growth(*_args):
        raise AssertionError("a node was added before the cap check")

    monkeypatch.setattr(ClusterState, "with_node", no_growth)
    message = f"cluster has {n} nodes, cap is {NODE_CAP}"
    for build in (build_cluster, initial_cluster_state):
        with pytest.raises(ValueError, match=message):
            build(chain)


# ---------------------------------------------------------------------------
# single measurements
# ---------------------------------------------------------------------------

def test_measure_plus_at_zero_is_deterministic():
    graph = ClusterGraph((0,), ())
    state = initial_cluster_state(graph)
    result = measure_node(state, MeasurementInstruction(0, 0.0), {}, PauliFrame(), 0)
    assert result.outcome == 0


def test_measure_z_on_zero_state():
    graph = ClusterGraph((0,), ())
    state = ClusterState(graph, (0,), np.array([1.0, 0.0], dtype=complex))
    result = measure_node(
        state, MeasurementInstruction(0, basis="z"), {}, PauliFrame(), 0
    )
    assert result.outcome == 0


def test_two_node_teleportation_identity(rng):
    alpha = 0.83
    for outcome in (0, 1):
        graph = ClusterGraph((0, 1), ((0, 1),))
        state = initial_cluster_state(graph)
        result = measure_node(
            state,
            MeasurementInstruction(0, alpha, successor=1),
            {},
            PauliFrame(),
            0,
            force=outcome,
        )
        expected = _hz(alpha) @ np.array([SQRT_HALF, SQRT_HALF])
        if outcome == 1:
            expected = np.array([[0, 1], [1, 0]]) @ expected
        got = result.state.sorted_logical()
        assert got.overlap(LogicalState(expected / np.linalg.norm(expected))) > 1 - 1e-12
        assert result.frame.x(1) == bool(outcome)


def test_remeasurement_rejected():
    graph = ClusterGraph((0, 1), ((0, 1),))
    state = initial_cluster_state(graph)
    res = measure_node(state, MeasurementInstruction(0, 0.0), {}, PauliFrame(), 0)
    with pytest.raises(ValueError):
        measure_node(res.state, MeasurementInstruction(0, 0.0), {0: res.outcome}, res.frame, 0)


def test_unresolvable_adaptivity():
    graph = ClusterGraph((0, 1), ((0, 1),))
    state = initial_cluster_state(graph)
    with pytest.raises(ValueError):
        measure_node(
            state, MeasurementInstruction(0, 1.0, adapt=(1,)), {}, PauliFrame(), 0
        )


# ---------------------------------------------------------------------------
# full patterns
# ---------------------------------------------------------------------------

def test_linear_rotation_all_branches(rng):
    for _ in range(3):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        graph, schedule = linear_rotation_pattern(alpha, beta, gamma)
        oracle = _rotation_oracle(alpha, beta, gamma)
        for bits in itertools.product((0, 1), repeat=4):
            result = run_pattern(graph, schedule, 0, force=dict(zip(range(4), bits)))
            assert result.output.overlap(oracle) > 1 - 1e-10
            assert tuple(o for _n, _b, o in result.transcript) == bits


def test_empty_schedule_returns_cluster():
    graph = ClusterGraph((0, 1), ((0, 1),))
    result = run_pattern(graph, [], 0)
    assert result.frame.is_identity()
    assert result.output.overlap(build_cluster(graph)) > 1 - 1e-12
    assert result.transcript == ()


def _prepared_run(graph, inputs, schedule, force):
    """Measure `schedule` on a cluster whose listed nodes start in `inputs`.

    Cluster nodes start in |+>; a pattern's logical input is an arbitrary
    state on its input nodes, which this builds directly before bonding.
    """
    amps = np.ones(1, dtype=complex)
    for node in graph.nodes:
        amps = np.kron(amps, inputs.get(node, np.array([SQRT_HALF, SQRT_HALF])))
    state = ClusterState(graph, graph.nodes, amps)
    for a, b in graph.edges:
        state = state.with_bond(a, b)
    frame, outcomes = PauliFrame(), {}
    for instr in schedule:
        result = measure_node(state, instr, outcomes, frame, 0, force[instr.node])
        state, frame = result.state, result.frame
        outcomes[instr.node] = result.outcome
    for node, (x, z) in frame.items():
        state = state.with_pauli(node, x, z)
    return state.sorted_logical()


def test_horseshoe_cnot_pattern(rng):
    # nodes: 0 = control (stays), 1 = target in, 2 = middle, 3 = target out
    cnot = cnot_matrix()
    cases = [
        ((1.0 + 0j, 0j), (1.0 + 0j, 0j)),
        ((1.0 + 0j, 0j), (0j, 1.0 + 0j)),
        ((0j, 1.0 + 0j), (1.0 + 0j, 0j)),
        ((0j, 1.0 + 0j), (0j, 1.0 + 0j)),
    ]
    for _ in range(4):
        c = random_logical_amps(rng, 1)
        t = random_logical_amps(rng, 1)
        cases.append((tuple(c), tuple(t)))
    schedule = [
        MeasurementInstruction(1, 0.0, successor=2),
        MeasurementInstruction(2, 0.0, successor=3),
    ]
    graph = ClusterGraph((0, 1, 2, 3), ((0, 2), (1, 2), (2, 3)))
    for c_amp, t_amp in cases:
        c_amp, t_amp = np.array(c_amp), np.array(t_amp)
        expected = LogicalState(cnot @ np.kron(c_amp, t_amp))
        for bits in itertools.product((0, 1), repeat=2):
            force = {1: bits[0], 2: bits[1]}
            output = _prepared_run(graph, {0: c_amp, 1: t_amp}, schedule, force)
            assert output.overlap(expected) > 1 - 1e-10
    # run_pattern itself starts every node in |+>
    expected = LogicalState(cnot @ np.full(4, 0.5, dtype=complex))
    for bits in itertools.product((0, 1), repeat=2):
        result = run_pattern(graph, schedule, 0, force={1: bits[0], 2: bits[1]})
        assert result.output.overlap(expected) > 1 - 1e-10


def test_outcome_statistics():
    graph = ClusterGraph((0, 1), ((0, 1),))
    schedule = [MeasurementInstruction(0, 0.7, successor=1)]
    ones = 0
    n = 10_000
    for i in range(n):
        result = run_pattern(graph, schedule, derive_rng(13, i))
        ones += result.transcript[0][2]
    assert abs(ones / n - 0.5) < 0.02


def test_pauli_and_bond_match_full_operator(rng):
    # axis order differs from node-id order, so node -> axis is exercised
    nodes = (7, 2, 9, 5)
    state = ClusterState(ClusterGraph(nodes, ()), nodes, random_logical_amps(rng, 4))
    eye = np.eye(2, dtype=complex)
    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    z_mat = np.diag([1.0, -1.0]).astype(complex)
    cz_mat = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    for axis, node in enumerate(nodes):
        for x, z in ((True, False), (False, True), (True, True)):
            matrix = (z_mat if z else eye) @ (x_mat if x else eye)
            want = full_operator(matrix, (axis,), 4) @ state.amps
            assert np.abs(state.with_pauli(node, x, z).amps - want).max() < 1e-12
    for a, b in itertools.combinations(range(4), 2):
        want = full_operator(cz_mat, (a, b), 4) @ state.amps
        assert np.abs(state.with_bond(nodes[b], nodes[a]).amps - want).max() < 1e-12


def test_frame_applied_twice_is_identity():
    graph = ClusterGraph((0,), ())
    state = initial_cluster_state(graph)
    once = state.with_pauli(0, True, True)
    twice = once.with_pauli(0, True, True)
    phase = twice.amps[np.argmax(np.abs(twice.amps))] / state.amps[
        np.argmax(np.abs(state.amps))
    ]
    assert np.abs(twice.amps - phase * state.amps).max() < 1e-12
    assert abs(abs(phase) - 1.0) < 1e-12

    frame = PauliFrame().toggled(0, x=True, z=True).toggled(0, x=True, z=True)
    assert frame.is_identity()


# ---------------------------------------------------------------------------
# interleaved growth
# ---------------------------------------------------------------------------

def test_grown_linear_cluster_matches_monolithic():
    graph, schedule = linear_rotation_pattern(0.4, 1.3, -0.8)
    assert_matches_monolithic(run_pattern(graph, schedule, 99), graph, schedule, 99)


def test_single_added_node_measured_immediately():
    graph = ClusterGraph((0, 1), ((0, 1),))
    instr = MeasurementInstruction(0, 0.3, successor=1)
    grown = run_pattern(graph, [instr], 4)
    assert_matches_monolithic(grown, graph, [instr], 4, tol=1e-12)


def _chain(n):
    graph = ClusterGraph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))
    schedule = [
        MeasurementInstruction(i, 0.1 * i, adapt=tuple(range(i - 1, -1, -2)), successor=i + 1)
        for i in range(n - 1)
    ]
    return graph, schedule


def _grid(rows, cols):
    """rows x cols grid, node (r, c) = c * rows + r, measured column by column."""
    edges = []
    for c in range(cols):
        for r in range(rows):
            node = c * rows + r
            if r + 1 < rows:
                edges.append((node, node + 1))
            if c + 1 < cols:
                edges.append((node, node + rows))
    graph = ClusterGraph(tuple(range(rows * cols)), tuple(edges))
    schedule = [
        MeasurementInstruction(v, basis="z") if v % 4 == 3 else MeasurementInstruction(v, 0.2 * v)
        for v in range(rows * (cols - 1))
    ]
    return graph, schedule


@pytest.mark.parametrize(
    "case, widest",
    [(_chain(20), 2), (_grid(2, 10), 3), (_grid(4, 5), 5)],
    ids=["chain20", "ladder2x10", "grid4x5"],
)
def test_run_pattern_grows_just_in_time(monkeypatch, case, widest):
    # A full build would hold all 20 nodes at the first measurement.
    graph, schedule = case
    widths = []

    def spy(state, *args):
        widths.append(len(state.nodes))
        return measure_node(state, *args)

    monkeypatch.setattr(cluster, "measure_node", spy)
    run_pattern(graph, schedule, 3)
    assert len(widths) == len(schedule)
    assert max(widths) <= widest


@pytest.mark.parametrize("bad", [2, -1])
def test_forced_outcome_outside_outcome_set_rejected(bad):
    graph, schedule = linear_rotation_pattern(0.3, 0.2, 0.1)
    with pytest.raises(ValueError, match="not one of 2 outcomes"):
        run_pattern(graph, schedule, 0, force={0: bad})


def _random_case(rng):
    n = int(rng.integers(3, 8))
    nodes = tuple(range(n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.45
    ]
    if not edges:
        edges = [(0, 1)]
    graph = ClusterGraph(nodes, tuple(edges))
    measured = rng.permutation(n)[: int(rng.integers(1, n))]
    schedule = []
    for v in measured:
        if rng.random() < 0.3:
            schedule.append(MeasurementInstruction(int(v), basis="z"))
        else:
            schedule.append(
                MeasurementInstruction(int(v), float(rng.uniform(-math.pi, math.pi)))
            )
    return graph, schedule


def test_interleaving_equivalence_random(rng):
    for case in range(50):
        graph, schedule = _random_case(rng)
        seed = 1000 + case
        assert_matches_monolithic(run_pattern(graph, schedule, seed), graph, schedule, seed)


def test_transcript_json_shape():
    from loqsim.cluster import transcript_json

    graph, schedule = linear_rotation_pattern(0.1, 0.2, 0.3)
    result = run_pattern(graph, schedule, 5)
    data = transcript_json(result.transcript)
    assert len(data) == 4
    for node, basis, outcome in data:
        assert isinstance(node, int) and outcome in (0, 1)
        assert basis.startswith("xy:")
