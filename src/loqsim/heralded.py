"""Nondeterministic heralded entangling gates.

The nonlinear-sign (NS) gate flips the sign of the two-photon component
of one mode, heralded by finding the single ancilla photon back in its
own mode and nothing in the ancilla vacuum mode.  Its three-splitter
network (rotation angles 7*pi/8, arccos(1 - sqrt(2)), -pi/8, middle
transmission (sqrt(2) - 1)^2) is fixed by three conditions: the herald
amplitude must be the same constant s for 0 and 1 signal photons and -s
for 2, and |s| = 1/2 is the optimum.  These values are exercised by the
tests rather than trusted: the herald probability must come out 1/4 and
the conditional map diag(1, 1, -1).

A controlled-Z follows by interfering the two one-rails on a 50:50
splitter, applying an NS gate to each output, and undoing the splitter:
only the |11> component ever builds a two-photon amplitude, so it alone
inherits the sign flip.  Both NS heralds firing gives amplitude
(1/2)*(1/2), hence the 1/16 success probability, uniform over logical
inputs.  A CNOT is the same network conjugated by dual-rail Hadamards on
the target rails (50:50 splitter with phase compensation).

Running a gate evolves each input joined with the ancillas through
`evolve_table` and heralds the resulting arrays with
`detection.HeraldGroups`: no full output state is keyed, only the
heralded residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .detection import (
    DetectionRecord,
    DetectorModel,
    HeraldGroups,
    HeraldPattern,
    IDEAL_DETECTOR,
)
from .encoding import LogicalState, QubitEncoding, decode, encode, logical_projection
from .fock import PhotonicState, make_basis_state, tensor
from .interferometer import (
    ModeUnitary,
    OpticalElement,
    beamsplitter,
    compose,
    evolve_table,
    phase,
    rotation_elements,
)


@dataclass(frozen=True)
class HeraldedGate:
    """A linear network plus ancilla photons and a herald pattern.

    Modes [0, io_modes) carry the logical input/output; the remaining
    modes hold ancillas with the given starting occupations.
    """

    name: str
    total_modes: int
    io_modes: int
    network: tuple[OpticalElement, ...]
    ancilla_occupations: tuple[int, ...]
    herald: HeraldPattern
    logical_io: QubitEncoding | None = None

    def __post_init__(self):
        if len(self.ancilla_occupations) != self.total_modes - self.io_modes:
            raise ValueError("ancilla occupations must cover the ancilla modes")
        if any(m < self.io_modes for m in self.herald.modes):
            raise ValueError("herald modes must be ancilla modes")

    def unitary(self) -> ModeUnitary:
        """The network's mode unitary, composed once per gate (read-only)."""
        return self._unitary

    @cached_property
    def _unitary(self) -> ModeUnitary:
        # cached_property writes the instance __dict__, which frozen allows
        u = compose(self.network, self.total_modes)
        u.matrix.setflags(write=False)
        return u

    def herald_photons(self) -> int:
        return sum(c for _, c in self.herald.counts)


@dataclass(frozen=True)
class GateRunResult:
    success: bool
    probability: float
    logical_action: LogicalState | None
    leakage: float


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

_NS_THETA_1 = 7 * math.pi / 8
_NS_THETA_2 = math.acos(1.0 - math.sqrt(2.0))
_NS_THETA_3 = -math.pi / 8


def _ns_elements(signal: int, anc: int, vac: int) -> list[OpticalElement]:
    return (
        rotation_elements(anc, vac, _NS_THETA_1)
        + rotation_elements(signal, anc, _NS_THETA_2)
        + rotation_elements(anc, vac, _NS_THETA_3)
    )


def ns_gate() -> HeraldedGate:
    """Single-rail nonlinear sign gate on mode 0, heralded at 1/4."""
    return HeraldedGate(
        name="ns",
        total_modes=3,
        io_modes=1,
        network=tuple(_ns_elements(0, 1, 2)),
        ancilla_occupations=(1, 0),
        herald=HeraldPattern.from_dict({1: 1, 2: 0}),
    )


def _dual_rail_hadamard(rail0: int, rail1: int) -> list[OpticalElement]:
    # diag(1,-i) . BS(1/2) . diag(1,-i) = the real Hadamard on the rails
    return [
        phase(rail1, -math.pi / 2),
        beamsplitter(rail0, rail1, 0.5),
        phase(rail1, -math.pi / 2),
    ]


def _bs_dagger(mode_a: int, mode_b: int, reflectivity: float) -> list[OpticalElement]:
    return [
        phase(mode_a, math.pi),
        beamsplitter(mode_a, mode_b, reflectivity),
        phase(mode_a, math.pi),
    ]


def _cz_core(c1: int, t1: int, anc_start: int) -> list[OpticalElement]:
    a1, v1, a2, v2 = anc_start, anc_start + 1, anc_start + 2, anc_start + 3
    elements = [beamsplitter(c1, t1, 0.5)]
    elements += _ns_elements(c1, a1, v1)
    elements += _ns_elements(t1, a2, v2)
    elements += _bs_dagger(c1, t1, 0.5)
    return elements


def klm_cz() -> HeraldedGate:
    """Heralded controlled-Z on two dual-rail qubits, success 1/16."""
    return HeraldedGate(
        name="klm_cz",
        total_modes=8,
        io_modes=4,
        network=tuple(_cz_core(1, 3, 4)),
        ancilla_occupations=(1, 0, 1, 0),
        herald=HeraldPattern.from_dict({4: 1, 5: 0, 6: 1, 7: 0}),
        logical_io=QubitEncoding.dual_rail(2),
    )


def klm_cnot() -> HeraldedGate:
    """Heralded CNOT (control qubit 0, target qubit 1), success 1/16."""
    cz = klm_cz()
    h = tuple(_dual_rail_hadamard(2, 3))
    return replace(cz, name="klm_cnot", network=h + cz.network + h)


# ---------------------------------------------------------------------------
# running gates
# ---------------------------------------------------------------------------

def _heralded(gate: HeraldedGate, *io_states: PhotonicState) -> list[HeraldGroups]:
    """Each I/O state joined with the gate's ancillas, through its network,
    grouped on the gate's herald modes."""
    for state in io_states:
        if state.mode_count != gate.io_modes:
            raise ValueError(
                f"gate expects {gate.io_modes} I/O modes, state has {state.mode_count}"
            )
    u = gate.unitary()
    anc = make_basis_state(gate.ancilla_occupations)
    return [
        HeraldGroups(*evolve_table(u, tensor(state, anc)), gate.herald)
        for state in io_states
    ]


def run_photonic(
    gate: HeraldedGate,
    io_state: PhotonicState,
    detector: DetectorModel = IDEAL_DETECTOR,
) -> DetectionRecord:
    """Feed a photonic state into the gate's I/O modes and herald."""
    (groups,) = _heralded(gate, io_state)
    return groups.record(detector)


def run_heralded(
    gate: HeraldedGate,
    logical_input: LogicalState,
    detector: DetectorModel = IDEAL_DETECTOR,
) -> GateRunResult:
    """Encode, evolve, herald, decode.

    Success means the network truly produced the herald state and every
    herald photon was detected, so the probability is the ideal herald
    probability times eta per required photon.  Patterns faked by
    detector loss are false heralds and count as failures.
    """
    if gate.logical_io is None:
        raise ValueError(f"gate {gate.name!r} has no logical qubit interface")
    if gate.logical_io.qubit_count != logical_input.n:
        raise ValueError(
            f"gate acts on {gate.logical_io.qubit_count} qubits, "
            f"input has {logical_input.n}"
        )
    (groups,) = _heralded(gate, encode(logical_input, gate.logical_io))
    record = groups.record(IDEAL_DETECTOR)
    probability = record.probability * detector.efficiency ** gate.herald_photons()

    logical = None
    leakage = 0.0
    if record.probability > 0.0:
        logical, leakage = decode(record.residual_state, gate.logical_io)

    return GateRunResult(
        success=probability > 0.0,
        probability=probability,
        logical_action=logical,
        leakage=leakage,
    )


def conditional_logical_map(gate: HeraldedGate) -> np.ndarray:
    """Heralded amplitude map on the logical subspace (not normalized).

    Column j is the unnormalized dual-rail amplitude vector produced by
    computational input j conditioned on the herald; for a working gate
    this equals sqrt(p_success) times a unitary.
    """
    if gate.logical_io is None:
        raise ValueError(f"gate {gate.name!r} has no logical qubit interface")
    n = gate.logical_io.qubit_count
    dim = 1 << n
    inputs = [
        encode(LogicalState.from_bits(format(j, f"0{n}b")), gate.logical_io)
        for j in range(dim)
    ]
    m = np.zeros((dim, dim), dtype=complex)
    for j, groups in enumerate(_heralded(gate, *inputs)):
        record = groups.record(IDEAL_DETECTOR)
        if record.probability > 0.0:
            m[:, j] = logical_projection(
                record.residual_state, gate.logical_io
            ) * math.sqrt(record.probability)
    return m
