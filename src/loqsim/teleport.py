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
random numbers of a stack of runs, each from its own stream: every stream
gives one batch of `_ATTEMPT_DRAWS` uniforms, and one scan of the stacked
(T, 40) table finds each run's first herald hit (its attempt count) and
the two Bell draws after it.  Only the few runs with no hit, or whose
Bell draws run past the batch, go on drawing one value at a time from
their own stream, in the same order.  None of the draws depends on
amplitudes.
`teleported_cnot_block` then evolves the stack at once as (T, 64)
-> (T, 16) -> (T, 4) arrays: product state with two Bell pairs, the
gate action, two Bell projections (each run's outcome picked from its
own row of probabilities by `detection.born_pick_rows` with its own
draw) and the commuted corrections as index and sign tables.
`teleported_cnot` is the one-run call of the same two phases, on stacks
of one; a Monte Carlo report makes one call of each phase per block of
trials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .detection import born_pick_rows, project, rng_from_seed, sample
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


def _forced_index(labels: list, force) -> int | None:
    """Index of the forced outcome label `force`, None if none is forced."""
    if force is not None and force not in labels:
        raise ValueError(f"unknown forced outcome {force!r}")
    return None if force is None else labels.index(force)


def _project_outcomes(
    state: LogicalState,
    qubits: tuple[int, int],
    projectors: list[tuple[object, np.ndarray]],
    seed,
    force=None,
) -> tuple[object, LogicalState]:
    """Draw one labelled outcome on a qubit pair; `force` is a label."""
    i, j = qubits
    if i == j or not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError(f"invalid qubit pair {qubits} for {state.n} qubits")
    labels = [label for label, _ in projectors]
    forced = _forced_index(labels, force)
    vectors = [vec for _, vec in projectors]
    index, residual, _p = project(state.amps, state.n, qubits, vectors, seed, forced)
    return labels[index], LogicalState._trusted(residual, state.n - 2)


def bell_measure_ideal(
    state: LogicalState,
    qubits: tuple[int, int],
    seed,
    force: BellLabel | None = None,
) -> tuple[BellLabel, LogicalState]:
    """Projective Bell measurement; returns the remaining qubits' state."""
    return _project_outcomes(state, qubits, list(_BELL_VECTORS.items()), seed, force)


def bell_measure_linear_optics(
    state: LogicalState,
    qubits: tuple[int, int],
    seed,
    force=None,
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
    return _project_outcomes(state, qubits, projectors, seed, force)


def teleport_qubit(
    state: LogicalState,
    seed,
    force: BellLabel | None = None,
) -> tuple[LogicalState, PauliCorrection]:
    """Teleport one qubit through a fresh Bell pair and correct it.

    The corrected output equals the input up to global phase for every
    Bell outcome; the returned correction is the one that was applied.
    """
    if state.n != 1:
        raise ValueError("teleport_qubit takes a single-qubit state")
    joint = state.tensor(bell_pair())
    label, residual = bell_measure_ideal(joint, (0, 1), seed, force)
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


# 2.5 times the mean attempt count; (15/16)**40 = 7.6 % of runs need more
_ATTEMPT_DRAWS = 40


def cnot_draws(
    rngs: Sequence[np.random.Generator],
    force_attempts: int | None = None,
    bells: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 of a stack of teleported CNOTs, one per stream in `rngs`:
    each run's attempt count, then its `bells` uniform Bell draws, as a
    (T,) int array and a (T, bells) table.

    The values are those of one `rng.random()` per attempt until the
    herald fires (none if `force_attempts` gives the count), then one per
    Bell draw.  Each stream gives `rng.random(_ATTEMPT_DRAWS)`, and one
    scan of the stacked table finds every first hit and the Bell draws
    after it.  Only a run with no hit, or whose Bell draws run past the
    table, goes on with one call per value, in the same order.  A stream
    may be left further along than the last value used: pass streams
    that nothing draws from afterwards, as each Monte Carlo trial's own
    stream is.
    """
    count = len(rngs)
    if force_attempts is None:
        p_success, _gate_action = _cnot_resource()
        u = np.array([rng.random(_ATTEMPT_DRAWS) for rng in rngs]).reshape(count, _ATTEMPT_DRAWS)
        hit = u < p_success
        attempts = hit.argmax(axis=1) + 1  # 1 on a row with no hit
        missed = ~hit.any(axis=1)
    else:
        u = np.empty((count, 0))
        attempts = np.full(count, int(force_attempts))
        missed = np.zeros(count, dtype=bool)
    slow = missed | (attempts + bells > u.shape[1])
    draws = np.empty((count, bells))
    fast = ~slow
    draws[fast] = np.take_along_axis(u[fast], attempts[fast, None] + np.arange(bells), axis=1)
    for t in np.flatnonzero(slow).tolist():
        rng = rngs[t]
        if missed[t]:
            tries = u.shape[1] + 1
            while rng.random() >= p_success:
                tries += 1
            attempts[t] = tries
        rest = u[t, attempts[t]:].tolist()  # the values after the one that fired
        draws[t] = [rest.pop(0) if rest else rng.random() for _ in range(bells)]
    return attempts, draws


_BELL_ROWS = np.array(list(_BELL_VECTORS.values())).conj()


def _bell_block(state: np.ndarray, n: int, qubits, draws, force: int | None):
    """Ideal Bell measurement of a qubit pair on every row of a (T, 2**n)
    stack; row t picks with draws[t], unless `force` names the outcome
    index for all rows.  Returns the outcome indices and the (T, 2**(n-2))
    renormalized states of the other qubits."""
    branches = _BELL_ROWS @ axes_first(state, n, qubits)
    probs = np.linalg.norm(branches, axis=-1) ** 2
    if force is None:
        index = born_pick_rows(probs, draws)
    else:
        index = np.array([sample(p, None, force) for p in probs.tolist()])
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
    control: np.ndarray,
    target: np.ndarray,
    draws: np.ndarray,
    force_bells: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2 of T teleported CNOTs on normalized (T, 2) input stacks.

    `draws` holds each run's two Bell draws, (T, 2); `force_bells` may
    name an outcome index per measurement instead, and that column of
    `draws` is not read.  Returns the (T, 4) corrected outputs and the
    (T, 2) Bell outcome indices (in `BellLabel` order).
    """
    _p_success, gate_action = _cnot_resource()
    pair = _BELL_VECTORS[BellLabel.PHI_PLUS]
    # qubits: 0 = control in, (1, 2) = pair A, 3 = target in, (4, 5) = pair B
    state = outer(outer(outer(control, pair), target), pair)
    state = on_qubits(state, 6, gate_action, (2, 5))
    label_c, state = _bell_block(state, 6, (0, 1), draws[:, 0], force_bells[0])
    # remaining qubit order: (a2, target in, b1, b2)
    label_t, state = _bell_block(state, 4, (1, 2), draws[:, 1], force_bells[1])
    # remaining qubit order: (a2, b2) = (control out, target out)
    fix = 4 * label_c + label_t
    out = _FIX_SIGN[fix] * np.take_along_axis(state, _FIX_INDEX[fix], axis=1)
    return out, np.stack([label_c, label_t], axis=1)


def teleported_cnot(
    control: LogicalState,
    target: LogicalState,
    seed,
    force_attempts: int | None = None,
    force_bells: tuple[BellLabel, BellLabel] | None = None,
) -> tuple[LogicalState, ResourceTally]:
    """Repeat-until-success CNOT via gate teleportation.

    Per attempt two fresh Bell pairs are drawn and the photonic CNOT is
    attempted on one half of each (herald sampled at its simulated
    probability).  After success the inputs are teleported through the
    pre-gated pairs with ideal Bell measurements and the commuted
    correction set is applied.  This is `cnot_draws` and
    `teleported_cnot_block` on stacks of one; a Generator passed as
    `seed` may be left past the values used (see `cnot_draws`).
    """
    if control.n != 1 or target.n != 1:
        raise ValueError("teleported_cnot takes two single-qubit states")
    labels = list(_BELL_VECTORS)
    force = [_forced_index(labels, f) for f in force_bells or (None, None)]
    free = [k for k, f in enumerate(force) if f is None]
    attempts, free_draws = cnot_draws([rng_from_seed(seed)], force_attempts, len(free))
    draws = np.full((1, 2), np.nan)  # a forced measurement draws nothing
    draws[:, free] = free_draws
    out, _labels = teleported_cnot_block(control.amps[None], target.amps[None], draws, force)
    attempts = int(attempts[0])
    return LogicalState._trusted(out[0], 2), ResourceTally(attempts, 2 * attempts)


def cnot_matrix() -> np.ndarray:
    """Reference CNOT (control = qubit 0) for output checks."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=complex,
    )
