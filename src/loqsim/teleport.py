"""Qubit-level teleportation and the teleported-CNOT resource count.

Teleporting through a pre-gated pair turns the gate's nondeterminism
into a repeat-until-success loop on ancilla pairs: the CNOT is attempted
on one half of two fresh entangled pairs, and only after the herald
fires are the input qubits teleported in.  Each attempt consumes both
pairs, the herald fires with probability 1/16, so the expected cost is
2 * 16 = 32 pairs.

Because the CNOT was applied before the teleportation byproducts, the
corrections must be commuted through it: an X on the control side
propagates to X on both outputs, and a Z on the target side propagates
to Z on both outputs; the other two corrections stay where they are.

The teleportation steps here use ideal Bell measurements; only the CNOT
attempt is nondeterministic.  That is exactly the accounting that gives
32.  A bare linear-optics Bell analyzer is also provided: it identifies
the Psi pair and degrades to a computational-basis measurement on the
Phi subspace, succeeding half the time on Bell-uniform inputs.

A teleported CNOT runs in two phases.  Phase 1, `cnot_draws`, takes the
random numbers of a stack of runs, each from its own stream, a row of a
`detection.PCG64Stack`: one uniform per attempt until the herald fires,
then the two Bell draws.  One attempt scan reads windows of every run's
next uniforms, each twice as wide as the one before, and a run is done
in the window where its herald fires; the last few runs go on one draw
at a time in Python ints.  None of the draws depends on amplitudes.
`teleported_cnot_block` then evolves the stack at once as (T, 64)
-> (T, 16) -> (T, 4) arrays: product state with two Bell pairs, the
gate action, two Bell projections (each run's outcome picked from its
own row of probabilities by `detection.born_pick_rows` with its own
draw) and the commuted corrections as index and sign tables.
`teleported_cnot` is the one-run call of the same two phases; a Monte
Carlo report scans a chunk of trials at once and evolves them in blocks.
Draws alone choose outcomes: a Bell outcome has probability 1/4 here,
so a draw of 0.125 + 0.25 k picks label k, and a table of such draws
runs any chosen branch through `teleported_cnot_block` (a `Draws` of
chosen values runs one through `teleported_cnot`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .detection import (
    PCG64Stack,
    _uniform,
    born_pick_rows,
    project,
    rng_from_seed,
    seed_stack,
)
from .encoding import LogicalState, axes_first, on_qubits, outer
from .heralded import conditional_logical_map, klm_cnot

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class BellLabel(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_BELL_VECTORS = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
}

# X and/or Z needed on the receiving qubit after each Bell outcome
_CORRECTION_FOR = {
    BellLabel.PHI_PLUS: (False, False),
    BellLabel.PHI_MINUS: (False, True),
    BellLabel.PSI_PLUS: (True, False),
    BellLabel.PSI_MINUS: (True, True),
}


@dataclass(frozen=True)
class PauliCorrection:
    """Deferred X/Z byproduct on one qubit; composition is exclusive-or."""

    x_flip: bool
    z_flip: bool

    def compose(self, other: "PauliCorrection") -> "PauliCorrection":
        return PauliCorrection(
            self.x_flip ^ other.x_flip, self.z_flip ^ other.z_flip
        )

    def apply(self, state: LogicalState, qubit: int = 0) -> LogicalState:
        # one renormalization per factor; a merged call rounds reports differently
        out = state.pauli(qubit, True, False) if self.x_flip else state
        return out.pauli(qubit, False, True) if self.z_flip else out


@dataclass(frozen=True)
class FailureRecord:
    """Failed Bell analysis: the pair was measured in the 0/1 basis."""

    bits: tuple[int, int]


@dataclass(frozen=True)
class ResourceTally:
    attempts: int
    entangled_pairs_consumed: int

    def __post_init__(self):
        if self.entangled_pairs_consumed != 2 * self.attempts:
            raise ValueError("the CNOT protocol consumes 2 pairs per attempt")


def bell_pair() -> LogicalState:
    """(|00> + |11>) / sqrt(2)."""
    return LogicalState._trusted(_BELL_VECTORS[BellLabel.PHI_PLUS], 2)


def _project_outcomes(
    state: LogicalState,
    qubits: tuple[int, int],
    projectors: list[tuple[object, np.ndarray]],
    seed,
) -> tuple[object, LogicalState]:
    """Draw one labelled outcome on a qubit pair."""
    i, j = qubits
    if i == j or not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"invalid qubit pair {qubits} for {state.n} qubits")
    vectors = [vec for _, vec in projectors]
    index, residual, _p = project(state.amps, state.n, qubits, vectors, seed)
    return projectors[index][0], LogicalState._trusted(residual, state.n - 2)


def bell_measure_ideal(
    state: LogicalState,
    qubits: tuple[int, int],
    seed,
) -> tuple[BellLabel, LogicalState]:
    """Projective Bell measurement; returns the remaining qubits' state.
    The outcomes are picked in `BellLabel` order, each with probability
    1/4 on half of a Bell pair, so a draw of 0.125 + 0.25 k picks label k."""
    return _project_outcomes(state, qubits, list(_BELL_VECTORS.items()), seed)


def bell_measure_linear_optics(
    state: LogicalState,
    qubits: tuple[int, int],
    seed,
) -> tuple[BellLabel | FailureRecord, LogicalState]:
    """Bell analysis with linear-optics failure semantics.

    Psi+ and Psi- are identified deterministically; the Phi subspace is
    indistinguishable and collapses to a computational-basis readout,
    reported as a FailureRecord with bits (0,0) or (1,1).
    """
    projectors = [
        (BellLabel.PSI_PLUS, _BELL_VECTORS[BellLabel.PSI_PLUS]),
        (BellLabel.PSI_MINUS, _BELL_VECTORS[BellLabel.PSI_MINUS]),
        (FailureRecord((0, 0)), np.array([1, 0, 0, 0], dtype=complex)),
        (FailureRecord((1, 1)), np.array([0, 0, 0, 1], dtype=complex)),
    ]
    return _project_outcomes(state, qubits, projectors, seed)


def teleport_qubit(state: LogicalState, seed) -> tuple[LogicalState, PauliCorrection]:
    """Teleport one qubit through a fresh Bell pair and correct it.

    The corrected output equals the input up to global phase for every
    Bell outcome; the returned correction is the one that was applied.
    """
    if state.n != 1:
        raise ValueError("teleport_qubit takes a single-qubit state")
    joint = state.tensor(bell_pair())
    label, residual = bell_measure_ideal(joint, (0, 1), seed)
    x, z = _CORRECTION_FOR[label]
    correction = PauliCorrection(x, z)
    return correction.apply(residual), correction


# ---------------------------------------------------------------------------
# teleported CNOT
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cnot_resource() -> tuple[float, np.ndarray]:
    """Herald probability and unit logical action of the photonic CNOT.

    The full 8-mode/4-photon network is simulated once; the conditional
    map is proportional to a unitary, so sampling the herald and applying
    the extracted action is exact for any input, entangled ones included.
    """
    m = conditional_logical_map(klm_cnot())
    norms = np.linalg.norm(m, axis=0)
    p = float(np.mean(norms**2))
    return p, m / math.sqrt(p)


# the attempt scan's first window, the mean attempt count: (15/16)**16 =
# 36 % of runs read a second window, twice as wide, and 1.6 % a third; a
# stack of no more than _ROW_BY_ROW runs goes on one draw at a time.  On a
# 2-core Xeon VM a 1024-run stack scans in about 1.6 ms from 14 to 18, and
# 1.8 ms at 24.
_FIRST_WINDOW = 16
_ROW_BY_ROW = 4


def _one_run(draws: Iterator[float], p_success: float, attempts: int = 0) -> tuple[int, list]:
    """One run's attempt count and two Bell draws from its next uniforms:
    one per attempt until one falls below the herald probability, then
    one per Bell measurement; `attempts` are counted already."""
    attempts += 1
    while next(draws) >= p_success:
        attempts += 1
    return attempts, [next(draws), next(draws)]


def cnot_draws(source) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 of a stack of teleported CNOTs, one per row of a
    `PCG64Stack`: each run's attempt count, then its two uniform Bell
    draws, as a (T,) int array and a (T, 2) table.

    The values are those of one `random()` per attempt until the herald
    fires, then one per Bell draw.  The scan reads a window of draws of
    every run still going, two past the window's width, and every run
    with a hit in the window is done; the others step the width on, and
    the next window is twice as wide.  The last few runs go on one draw
    at a time on `PCG64Stack.stream`.  A run's stream may be left further
    along than the last value used: pass streams that nothing draws from
    afterwards, as each Monte Carlo trial's own stream is.  Any other
    source of `random()` values (a Generator, `Draws`) is one run, drawn
    one value at a time.
    """
    p_success, _gate_action = _cnot_resource()
    if not isinstance(source, PCG64Stack):
        attempts, bells = _one_run(iter(source.random, None), p_success)
        return np.array([attempts]), np.array([bells])
    count = len(source)
    attempts, draws = np.zeros(count, dtype=int), np.empty((count, 2))
    rows, width = np.arange(count), _FIRST_WINDOW
    while len(rows) > _ROW_BY_ROW:
        u = source.window(width + 2, width)
        hit = u[:, :width] < p_success
        first = hit.argmax(axis=1)
        done = hit.any(axis=1)
        attempts[rows[done]] += first[done] + 1
        draws[rows[done]] = np.take_along_axis(u[done], first[done, None] + (1, 2), axis=1)
        left = ~done
        rows, source = rows[left], source.take(left)
        attempts[rows] += width
        width *= 2
    for t, row in enumerate(rows.tolist()):
        uniforms = map(_uniform, source.stream(t))
        attempts[row], draws[row] = _one_run(uniforms, p_success, int(attempts[row]))
    return attempts, draws


_BELL_ROWS = np.array(list(_BELL_VECTORS.values())).conj()


def _bell_block(state: np.ndarray, n: int, qubits, draws):
    """Ideal Bell measurement of a qubit pair on every row of a (T, 2**n)
    stack; row t picks with draws[t].  Returns the outcome indices and the
    (T, 2**(n-2)) renormalized states of the other qubits."""
    branches = _BELL_ROWS @ axes_first(state, n, qubits)
    probs = np.linalg.norm(branches, axis=-1) ** 2
    index = born_pick_rows(probs, draws)
    rows = np.arange(len(index))
    return index, branches[rows, index] / np.sqrt(probs[rows, index])[:, None]


def _correction_tables() -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables of the 16 commuted corrections on the two
    output qubits, row 4 * control label + target label: out[j] =
    sign[j] * state[index[j]] applies X^x then Z^z on each qubit."""
    index, sign = [], []
    for label_c in _BELL_VECTORS:
        for label_t in _BELL_VECTORS:
            xc, zc = _CORRECTION_FOR[label_c]
            xt, zt = _CORRECTION_FOR[label_t]
            x0, z0, x1, z1 = xc, zc ^ zt, xc ^ xt, zt
            index.append([(((j >> 1) ^ x0) << 1) | ((j & 1) ^ x1) for j in range(4)])
            sign.append([(-1.0) ** ((j >> 1) * z0 + (j & 1) * z1) for j in range(4)])
    return np.array(index), np.array(sign)


_FIX_INDEX, _FIX_SIGN = _correction_tables()


def teleported_cnot_block(
    control: np.ndarray, target: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2 of T teleported CNOTs on normalized (T, 2) input stacks.

    `draws` holds each run's two Bell draws, (T, 2).  Every Bell outcome
    has probability 1/4, so a draw of 0.125 + 0.25 k picks label k, and a
    table of chosen draws runs chosen branches.  Returns the (T, 4)
    corrected outputs and the (T, 2) Bell outcome indices (in `BellLabel`
    order).
    """
    _p_success, gate_action = _cnot_resource()
    pair = _BELL_VECTORS[BellLabel.PHI_PLUS]
    # qubits: 0 = control in, (1, 2) = pair A, 3 = target in, (4, 5) = pair B
    state = outer(outer(outer(control, pair), target), pair)
    state = on_qubits(state, 6, gate_action, (2, 5))
    label_c, state = _bell_block(state, 6, (0, 1), draws[:, 0])
    # remaining qubit order: (a2, target in, b1, b2)
    label_t, state = _bell_block(state, 4, (1, 2), draws[:, 1])
    # remaining qubit order: (a2, b2) = (control out, target out)
    fix = 4 * label_c + label_t
    out = _FIX_SIGN[fix] * np.take_along_axis(state, _FIX_INDEX[fix], axis=1)
    return out, np.stack([label_c, label_t], axis=1)


def teleported_cnot(
    control: LogicalState, target: LogicalState, seed
) -> tuple[LogicalState, ResourceTally]:
    """Repeat-until-success CNOT via gate teleportation.

    Per attempt two fresh Bell pairs are drawn and the photonic CNOT is
    attempted on one half of each (herald sampled at its simulated
    probability).  After success the inputs are teleported through the
    pre-gated pairs with ideal Bell measurements and the commuted
    correction set is applied.  This is `cnot_draws` and
    `teleported_cnot_block` on stacks of one.  An int seed draws from
    default_rng(seed)'s stream, a source of `random()` values (a
    Generator, `Draws`) one value at a time; a `Draws` of chosen values
    runs a chosen branch.
    """
    if control.n != 1 or target.n != 1:
        raise ValueError("teleported_cnot takes two single-qubit states")
    source = seed_stack(seed) if isinstance(seed, (int, np.integer)) else rng_from_seed(seed)
    attempts, draws = cnot_draws(source)
    out, _labels = teleported_cnot_block(control.amps[None], target.amps[None], draws)
    attempts = int(attempts[0])
    return LogicalState._trusted(out[0], 2), ResourceTally(attempts, 2 * attempts)


def cnot_matrix() -> np.ndarray:
    """Reference CNOT (control = qubit 0) for output checks."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=complex,
    )
