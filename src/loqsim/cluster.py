"""Cluster-state (measurement-based) computation at the qubit level.

A cluster is |+>-initialized nodes with a CZ bond per edge.  Computation
is a schedule of single-qubit measurements: equatorial measurements at
angle a project onto (|0> +/- e^{-ia}|1>); outcome-dependent sign flips
of later angles are declared per instruction, which is what makes the
net rotation branch-independent.

Byproduct bookkeeping (the exact rules, since they are convention):

  * measuring node i in the equatorial plane teleports its logical
    content to a flow successor; the logical outcome is the raw outcome
    XOR the node's accumulated Z flip, and it lands as an X flip on the
    successor and a Z flip on the successor's other unmeasured neighbors
    (an X byproduct propagates through the implicit Hadamard to Z type);
  * an accumulated X flip on a node means later equatorial measurements
    of it need their angle sign flipped, which standard patterns declare
    via `adapt`;
  * measuring in the computational basis removes the node and leaves a Z
    flip on each unmeasured neighbor when the (X-corrected) outcome is 1.

The successor defaults to the unique unmeasured neighbor and otherwise
to the smallest-id one; patterns with branching flow declare it.  After
a full pattern the remaining frame is applied to the residual state, so
the returned output is branch-independent for properly adapted patterns.

`run_pattern` is the one run loop.  It grows the cluster just in time:
each node and bond is added right before the first measurement that
needs it, so the dense state spans only the active (added, unmeasured)
nodes.  A graph declares at most NODE_CAP nodes; the random stream is
drawn at most once per measurement.

The dense state runs on the qubit kernels of `encoding`: `with_node`
grows it with `outer`, `with_bond` (CZ) and `with_pauli` (X flips the
node's axis, Z negates its 1 slice) use `flip_sign`, `sorted_logical`
reorders with `axes_first`, and `measure_node` goes through
`detection.project`, which reorders with `axes_first` too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .detection import Draws, project, rng_from_seed, seed_uniforms
from .encoding import LogicalState, axes_first, flip_sign, outer

NODE_CAP = 20

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_PLUS = np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex)
_Z_BASIS = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


@dataclass(frozen=True)
class ClusterGraph:
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        nodes = tuple(sorted(set(int(n) for n in self.nodes)))
        if len(nodes) != len(self.nodes):
            raise ValueError("cluster nodes must be distinct")
        object.__setattr__(self, "nodes", nodes)
        node_set = set(nodes)
        seen = set()
        norm_edges = []
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-edge on node {a}")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) uses an undeclared node")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm_edges.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))

    def neighbors(self, node: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == node:
                out.append(b)
            elif b == node:
                out.append(a)
        return tuple(sorted(out))


@dataclass(frozen=True)
class MeasurementInstruction:
    """One measurement: equatorial at `angle`, or basis="z" (computational).

    `adapt` lists earlier nodes whose outcome XOR flips the angle sign;
    `successor` names the flow node inheriting the X byproduct.
    """

    node: int
    angle: float = 0.0
    basis: str = "xy"
    adapt: tuple[int, ...] = ()
    successor: int | None = None

    def __post_init__(self):
        if self.basis not in ("xy", "z"):
            raise ValueError(f"unknown measurement basis {self.basis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("measurement angle must be finite")


class PauliFrame:
    """Per-node deferred (x_flip, z_flip) pair; composition is XOR."""

    __slots__ = ("_flips",)

    def __init__(self, flips: Mapping[int, tuple[bool, bool]] | None = None):
        clean = {}
        for node, (x, z) in (flips or {}).items():
            if x or z:
                clean[int(node)] = (bool(x), bool(z))
        self._flips = clean

    def x(self, node: int) -> bool:
        return self._flips.get(node, (False, False))[0]

    def z(self, node: int) -> bool:
        return self._flips.get(node, (False, False))[1]

    def items(self) -> list[tuple[int, tuple[bool, bool]]]:
        return sorted(self._flips.items())

    def is_identity(self) -> bool:
        return not self._flips

    def toggled(self, node: int, x: bool = False, z: bool = False) -> "PauliFrame":
        cur_x, cur_z = self._flips.get(node, (False, False))
        out = dict(self._flips)
        out[node] = (cur_x ^ x, cur_z ^ z)
        return PauliFrame(out)

    def without(self, node: int) -> "PauliFrame":
        out = dict(self._flips)
        out.pop(node, None)
        return PauliFrame(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliFrame):
            return NotImplemented
        return self._flips == other._flips

    def __repr__(self) -> str:
        return f"PauliFrame({self._flips!r})"


class ClusterState:
    """Dense state over the currently active (added, unmeasured) nodes."""

    __slots__ = ("graph", "nodes", "amps")

    def __init__(self, graph: ClusterGraph, nodes: tuple[int, ...], amps: np.ndarray):
        self.graph = graph
        self.nodes = nodes
        self.amps = amps

    @staticmethod
    def empty(graph: ClusterGraph) -> "ClusterState":
        return ClusterState(graph, (), np.ones(1, dtype=complex))

    def axis(self, node: int) -> int:
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"node {node} is not active") from None

    def with_node(self, node: int) -> "ClusterState":
        if node in self.nodes:
            raise ValueError(f"node {node} already added")
        if node not in self.graph.nodes:
            raise ValueError(f"node {node} is not declared in the graph")
        if len(self.nodes) + 1 > NODE_CAP:
            raise ValueError(f"simulator cap of {NODE_CAP} nodes exceeded")
        return ClusterState(self.graph, self.nodes + (node,), outer(self.amps, _PLUS))

    def with_bond(self, a: int, b: int) -> "ClusterState":
        amps = flip_sign(self.amps, len(self.nodes), (), (self.axis(a), self.axis(b)))
        return ClusterState(self.graph, self.nodes, amps)

    def with_pauli(self, node: int, x: bool, z: bool) -> "ClusterState":
        i = (self.axis(node),)
        amps = flip_sign(self.amps, len(self.nodes), i if x else (), i if z else ())
        return ClusterState(self.graph, self.nodes, amps)

    def sorted_logical(self) -> LogicalState:
        """State on the active nodes in ascending node-id order."""
        n = len(self.nodes)
        order = np.argsort(self.nodes).tolist()
        return LogicalState._trusted(axes_first(self.amps, n, order).reshape(-1), n)


def build_cluster(graph: ClusterGraph) -> LogicalState:
    """All declared nodes initialized and bonded; qubit order = sorted ids."""
    return initial_cluster_state(graph).sorted_logical()


def _check_node_cap(graph: ClusterGraph) -> None:
    if len(graph.nodes) > NODE_CAP:
        raise ValueError(f"cluster has {len(graph.nodes)} nodes, cap is {NODE_CAP}")


def initial_cluster_state(graph: ClusterGraph) -> ClusterState:
    """Fully built, unmeasured cluster as a ClusterState (for measure_node)."""
    _check_node_cap(graph)
    state = ClusterState.empty(graph)
    for node in graph.nodes:
        state = state.with_node(node)
    for a, b in graph.edges:
        state = state.with_bond(a, b)
    return state


class MeasureResult(NamedTuple):
    outcome: int
    state: ClusterState
    frame: PauliFrame
    effective_angle: float


def _resolve_successor(
    state: ClusterState, instr: MeasurementInstruction, measured: set[int]
) -> int | None:
    if instr.successor is not None:
        if instr.successor == instr.node:
            raise ValueError("a node cannot be its own flow successor")
        if instr.successor in measured or instr.successor not in state.graph.nodes:
            raise ValueError(f"invalid flow successor {instr.successor}")
        return instr.successor
    candidates = [
        k for k in state.graph.neighbors(instr.node) if k not in measured
    ]
    if not candidates:
        return None
    return min(candidates)


def measure_node(
    state: ClusterState,
    instr: MeasurementInstruction,
    outcomes: Mapping[int, int],
    frame: PauliFrame,
    seed,
    force: int | None = None,
) -> MeasureResult:
    """Projectively measure one node and update the byproduct frame."""
    node = instr.node
    if node in outcomes:
        raise ValueError(f"node {node} was already measured")
    i = state.axis(node)
    for ref in instr.adapt:
        if ref not in outcomes:
            raise ValueError(
                f"adaptive sign for node {node} references unmeasured node {ref}"
            )

    if instr.basis == "xy":
        flip = 0
        for ref in instr.adapt:
            flip ^= outcomes[ref]
        eff = -instr.angle if flip else instr.angle
        e = cmath.exp(-1j * eff)
        vectors = (np.array([1.0, e]) * _SQRT_HALF, np.array([1.0, -e]) * _SQRT_HALF)
    else:
        eff = 0.0
        vectors = _Z_BASIS

    outcome, amps, _p = project(state.amps, len(state.nodes), (i,), vectors, seed, force)
    rest_nodes = state.nodes[:i] + state.nodes[i + 1 :]
    new_state = ClusterState(state.graph, rest_nodes, amps)

    measured = set(outcomes) | {node}
    new_frame = frame.without(node)
    if instr.basis == "xy":
        s_log = outcome ^ int(frame.z(node))
        successor = _resolve_successor(state, instr, measured)
        if successor is not None and s_log:
            new_frame = new_frame.toggled(successor, x=True)
            for k in state.graph.neighbors(successor):
                if k != node and k not in measured:
                    new_frame = new_frame.toggled(k, z=True)
    else:
        s_log = outcome ^ int(frame.x(node))
        if s_log:
            for k in state.graph.neighbors(node):
                if k not in measured:
                    new_frame = new_frame.toggled(k, z=True)

    return MeasureResult(outcome, new_state, new_frame, eff)


class PatternResult(NamedTuple):
    output: LogicalState
    transcript: tuple[tuple[int, str, int], ...]
    frame: PauliFrame


def _basis_label(instr: MeasurementInstruction, eff: float) -> str:
    if instr.basis == "z":
        return "z"
    return f"xy:{eff:.12g}"


def run_pattern(
    graph: ClusterGraph,
    schedule: Sequence[MeasurementInstruction],
    seed,
    force: Mapping[int, int] | None = None,
) -> PatternResult:
    """Run the schedule on a cluster grown just in time, then correct.

    Before each measurement the node and its not yet bonded edges (in
    declared order, with their missing endpoints) are added; the rest
    follow in declared order after the schedule.  `force` pins chosen
    nodes' outcomes (for exploring all branches); unforced nodes sample
    from the Born rule with the given seed.  A measurement takes at most
    one uniform draw (a forced one none), so an int seed takes its
    len(schedule) draws of default_rng(seed) up front.
    """
    _check_node_cap(graph)
    if isinstance(seed, (int, np.integer)):
        rng = Draws(seed_uniforms(seed, len(schedule)))
    else:
        rng = rng_from_seed(seed)
    state = ClusterState.empty(graph)
    frame = PauliFrame()
    outcomes: dict[int, int] = {}
    transcript: list[tuple[int, str, int]] = []
    added: set[int] = set()
    bonded: set[tuple[int, int]] = set()

    def add(*nodes: int) -> None:
        nonlocal state
        for v in nodes:
            if v not in added:
                state = state.with_node(v)
                added.add(v)

    def bond(edges) -> None:
        nonlocal state
        for e in edges:
            if e not in bonded:
                add(*e)
                state = state.with_bond(*e)
                bonded.add(e)

    for instr in schedule:
        add(instr.node)
        bond(e for e in graph.edges if instr.node in e)
        forced = None if force is None else force.get(instr.node)
        result = measure_node(state, instr, outcomes, frame, rng, forced)
        state, frame = result.state, result.frame
        outcomes[instr.node] = result.outcome
        transcript.append(
            (instr.node, _basis_label(instr, result.effective_angle), result.outcome)
        )
    add(*graph.nodes)
    bond(graph.edges)
    for node, (x, z) in frame.items():
        state = state.with_pauli(node, x, z)
    return PatternResult(state.sorted_logical(), tuple(transcript), frame)


def transcript_json(transcript: Sequence[tuple[int, str, int]]) -> list:
    return [[node, basis, outcome] for node, basis, outcome in transcript]


def linear_rotation_pattern(
    alpha: float, beta: float, gamma: float, nodes: Sequence[int] = (0, 1, 2, 3, 4)
) -> tuple[ClusterGraph, list[MeasurementInstruction]]:
    """5-node chain implementing the standard single-qubit rotation.

    Measurement angles are (-alpha, -beta, -gamma, 0) with the standard
    adaptive signs; the corrected output on the last node is the Euler
    composition H Z(0) H Z(-gamma) H Z(-beta) H Z(-alpha) |+> regardless
    of outcomes.
    """
    n0, n1, n2, n3, n4 = nodes
    graph = ClusterGraph(
        nodes=tuple(nodes),
        edges=((n0, n1), (n1, n2), (n2, n3), (n3, n4)),
    )
    schedule = [
        MeasurementInstruction(n0, -alpha, successor=n1),
        MeasurementInstruction(n1, -beta, adapt=(n0,), successor=n2),
        MeasurementInstruction(n2, -gamma, adapt=(n1,), successor=n3),
        MeasurementInstruction(n3, 0.0, adapt=(n0, n2), successor=n4),
    ]
    return graph, schedule
