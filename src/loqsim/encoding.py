"""Dual-rail / polarization qubit layer over Fock states.

A logical qubit is one photon shared across an ordered pair of modes:
the first rail carries |0> (the H polarization component) and the second
carries |1> (V).  Polarization is modeled as two consecutive modes per
spatial port (2k = H, 2k+1 = V), so path and polarization share one Fock
machinery and a PBS becomes a mode relabeling plus a 45-degree half-wave
plate.

Bloch conventions: z = +1 for |0>, x points toward (|0>+|1>)/sqrt(2),
y toward (|0>+i|1>)/sqrt(2).  All logical comparisons are modulo global
phase via the |<a|b>| = 1 criterion.

Input is validated at the boundary: `LogicalState(amps)`, `qubit` and
`from_json_dict` refuse a count that is not a power of two and a norm off
1 by more than 1e-6.  States the engine derives from valid ones are built
by `LogicalState._trusted`, which skips those checks but still divides by
the norm.

Dense qubit arithmetic runs on raw (amps, n) vectors through three
kernels: `axes_first` (the one reorder: `on_qubits` there and back around
its matmul, `marginal_bloch`, `detection.project`,
`ClusterState.sorted_logical`), `outer` (the one product:
`LogicalState.tensor`, `ClusterState.with_node`) and `flip_sign` (X flips
an axis, Z and CZ negate a slice: `LogicalState.pauli`, hence the teleport
corrections, `ClusterState.with_pauli` and `with_bond`).  `axes_first`,
`outer` and `on_qubits` also take stacks of vectors, (..., 2**n), with
the qubits on the last axis; the batched teleported CNOT runs blocks of
trials through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock import PhotonicState
from .interferometer import _two_mode_block


def axes_first(amps: np.ndarray, n: int, axes: Sequence[int]) -> np.ndarray:
    """The n-qubit vector as a (2**k, 2**(n-k)) matrix: rows index the
    listed qubits (first one most significant), columns the others in
    their original order.  Leading axes of a stack are kept."""
    lead = amps.shape[:-1]
    b = len(lead)
    rest = [a for a in range(n) if a not in axes]
    if b:  # the qubit axes come after the stack's leading axes
        axes, rest = [b + a for a in axes], [b + a for a in rest]
    t = amps.reshape(lead + (2,) * n).transpose([*range(b), *axes, *rest])
    return t.reshape(lead + (1 << len(axes), -1))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product state of two vectors, `a` on the leading qubits; stacks
    broadcast over their leading axes."""
    # the Kronecker product of two vectors as one broadcast multiply
    t = np.multiply(a[..., None], b[..., None, :])
    return t.reshape(t.shape[:-2] + (-1,))


def on_qubits(amps: np.ndarray, n: int, matrix: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """A 2**k x 2**k matrix applied to the listed qubits of n-qubit
    vectors (the first listed qubit is the matrix index's most
    significant bit)."""
    t = matrix @ axes_first(amps, n, qubits)
    # rows are the listed qubits; the inverse reorder puts them back
    back = np.argsort([*qubits, *(q for q in range(n) if q not in qubits)]).tolist()
    return axes_first(t.reshape(amps.shape), n, back).reshape(amps.shape)


def flip_sign(amps: np.ndarray, n: int, flip=(), sign=()) -> np.ndarray:
    """X on every `flip` qubit, then -1 where every `sign` qubit is 1
    (Z for one qubit, CZ for two).  Returns a new vector."""
    t = np.flip(amps.reshape([2] * n), axis=tuple(flip)).copy()
    if sign:
        idx: list = [slice(None)] * n
        for q in sign:
            idx[q] = 1
        t[tuple(idx)] *= -1.0
    return t.reshape(-1)


class LogicalState:
    """Dense n-qubit state; qubit 0 is the most significant bit."""

    __slots__ = ("amps", "n")

    def __init__(self, amps: Sequence[complex]):
        a = np.asarray(amps, dtype=complex).reshape(-1)
        n = int(a.size).bit_length() - 1
        if a.size != 1 << n:
            raise ValueError(f"amplitude count {a.size} is not a power of two")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"logical state must be normalized, norm = {norm:.6g}")
        self.amps = a / norm
        self.n = n

    @classmethod
    def _trusted(cls, amps: np.ndarray, n: int) -> "LogicalState":
        """Constructor for engine outputs: a flat complex array of 2**n
        amplitudes with norm 1 up to rounding."""
        state = cls.__new__(cls)
        state.amps = amps / np.linalg.norm(amps)
        state.n = n
        return state

    @staticmethod
    def from_bits(bits: str) -> "LogicalState":
        n = len(bits)
        amps = np.zeros(1 << n, dtype=complex)
        amps[int(bits, 2) if bits else 0] = 1.0
        return LogicalState._trusted(amps, n)

    @staticmethod
    def qubit(alpha: complex, beta: complex) -> "LogicalState":
        return LogicalState([alpha, beta])

    def tensor(self, other: "LogicalState") -> "LogicalState":
        return LogicalState._trusted(outer(self.amps, other.amps), self.n + other.n)

    def apply(self, matrix: np.ndarray, qubits: Sequence[int]) -> "LogicalState":
        """Apply a k-qubit unitary to the listed qubits."""
        k = len(qubits)
        m = np.asarray(matrix, dtype=complex).reshape(1 << k, 1 << k)
        return LogicalState._trusted(on_qubits(self.amps, self.n, m, qubits), self.n)

    def pauli(self, qubit: int, x: bool, z: bool) -> "LogicalState":
        """X (if x) and then Z (if z) on one qubit."""
        q = (qubit,)
        amps = flip_sign(self.amps, self.n, q if x else (), q if z else ())
        return LogicalState._trusted(amps, self.n)

    def overlap(self, other: "LogicalState") -> float:
        """|<self|other>|, the global-phase-invariant agreement."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return float(abs(np.vdot(self.amps, other.amps)))

    def __repr__(self) -> str:
        return f"LogicalState(n={self.n}, amps={np.round(self.amps, 6)})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "amps": [[z.real, z.imag] for z in self.amps],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "LogicalState":
        return LogicalState([complex(re, im) for re, im in data["amps"]])


@dataclass(frozen=True)
class QubitEncoding:
    """Map from logical qubit index to its ordered (zero-rail, one-rail) pair."""

    pairs: tuple[tuple[int, int], ...]
    flavor: str
    total_modes: int

    def __post_init__(self):
        if self.flavor not in ("path", "polarization"):
            raise ValueError(f"unknown encoding flavor {self.flavor!r}")
        used: set[int] = set()
        for m0, m1 in self.pairs:
            if m0 == m1:
                raise ValueError("rail pair must use two distinct modes")
            if m0 in used or m1 in used:
                raise ValueError("rail pairs must be disjoint across qubits")
            used |= {m0, m1}
            if m0 < 0 or m1 < 0 or max(m0, m1) >= self.total_modes:
                raise ValueError("rail modes outside the declared mode range")

    @property
    def qubit_count(self) -> int:
        return len(self.pairs)

    @staticmethod
    def dual_rail(n_qubits: int, flavor: str = "path") -> "QubitEncoding":
        pairs = tuple((2 * k, 2 * k + 1) for k in range(n_qubits))
        return QubitEncoding(pairs, flavor, 2 * n_qubits)


class DecodeResult(NamedTuple):
    logical: LogicalState | None
    leakage: float


def encode(state: LogicalState, enc: QubitEncoding) -> PhotonicState:
    """One photon per rail pair, rail choice per basis bit."""
    if enc.qubit_count != state.n:
        raise ValueError(
            f"encoding covers {enc.qubit_count} qubits, state has {state.n}"
        )
    terms: dict[tuple[int, ...], complex] = {}
    for index, amp in enumerate(state.amps):
        if abs(amp) < 1e-15:
            continue
        occ = [0] * enc.total_modes
        for q, (m0, m1) in enumerate(enc.pairs):
            bit = (index >> (state.n - 1 - q)) & 1
            occ[m1 if bit else m0] += 1
        terms[tuple(occ)] = complex(amp)
    return PhotonicState._trusted(enc.total_modes, terms)


def logical_projection(state: PhotonicState, enc: QubitEncoding) -> np.ndarray:
    """Raw (unnormalized) dual-rail amplitudes of a photonic state."""
    if state.mode_count != enc.total_modes:
        raise ValueError(
            f"state has {state.mode_count} modes, encoding expects {enc.total_modes}"
        )
    rail_modes = {m for pair in enc.pairs for m in pair}
    n = enc.qubit_count
    amps = np.zeros(1 << n, dtype=complex)
    for occ, amp in state.terms.items():
        if any(c != 0 for m, c in enumerate(occ) if m not in rail_modes):
            continue
        index = 0
        for m0, m1 in enc.pairs:
            if occ[m0] == 1 and occ[m1] == 0:
                bit = 0
            elif occ[m0] == 0 and occ[m1] == 1:
                bit = 1
            else:
                index = -1
                break
            index = (index << 1) | bit
        if index >= 0:
            amps[index] += amp
    return amps


def decode(state: PhotonicState, enc: QubitEncoding) -> DecodeResult:
    """Project onto the dual-rail subspace.

    leakage is the squared-norm fraction outside it (two photons in one
    rail, missing photons, photons in non-rail modes all count as
    leakage).  leakage = 1 yields logical = None: no logical content.
    """
    total = state.norm_squared()
    if total == 0.0:
        return DecodeResult(None, 1.0)
    amps = logical_projection(state, enc)
    inside = float(np.sum(np.abs(amps) ** 2))
    leakage = 1.0 - inside / total
    if inside / total < 1e-12:
        return DecodeResult(None, 1.0)
    logical = LogicalState._trusted(amps / math.sqrt(inside), enc.qubit_count)
    return DecodeResult(logical, leakage)


# ---------------------------------------------------------------------------
# Bloch sphere
# ---------------------------------------------------------------------------

def bloch(state: LogicalState) -> tuple[float, float, float]:
    """Bloch vector of a single-qubit pure state."""
    if state.n != 1:
        raise ValueError("bloch needs a single-qubit state")
    alpha, beta = state.amps
    cross = alpha.conjugate() * beta
    return (
        2.0 * cross.real,
        2.0 * cross.imag,
        float(abs(alpha) ** 2 - abs(beta) ** 2),
    )


def marginal_bloch(state: LogicalState, qubit: int) -> tuple[tuple[float, float, float], bool]:
    """Bloch vector of one qubit's reduced state, plus a purity flag.

    Entangled marginals land strictly inside the sphere (norm < 1); the
    flag is False for them, and the caller must not treat the vector as a
    pure state.
    """
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit {qubit} out of range")
    t = axes_first(state.amps, state.n, (qubit,))
    rho = t @ t.conj().T
    vec = (
        float(2.0 * rho[0, 1].real),
        float(2.0 * rho[1, 0].imag),
        float((rho[0, 0] - rho[1, 1]).real),
    )
    pure = abs(math.sqrt(sum(v * v for v in vec)) - 1.0) < 1e-9
    return vec, pure


# ---------------------------------------------------------------------------
# waveplate decomposition
# ---------------------------------------------------------------------------

def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |tr(a^dag b)| / 2: zero iff equal up to global phase."""
    return 1.0 - abs(np.trace(a.conj().T @ b)) / 2.0


def reconstruct_waveplates(angles: tuple[float, float, float]) -> np.ndarray:
    """qwp(t3) . hwp(t2) . qwp(t1): t1 is applied first."""
    t1, t2, t3 = angles
    return (
        _two_mode_block("qwp", t3)
        @ _two_mode_block("hwp", t2)
        @ _two_mode_block("qwp", t1)
    )


def decompose_su2(target: np.ndarray) -> tuple[float, float, float]:
    """Quarter-half-quarter waveplate angles realizing a 2x2 unitary.

    Returns (qwp theta1, hwp theta2, qwp theta3) in radians, each in
    [0, pi); applying theta1 first reproduces the target up to global
    phase.  Among the discrete solution set the lexicographically
    smallest angle triple is returned, so output is deterministic.
    """
    t = np.asarray(target, dtype=complex)
    if t.shape != (2, 2):
        raise ValueError("target must be a 2x2 matrix")
    if np.abs(t @ t.conj().T - np.eye(2)).max() > 1e-10:
        raise ValueError("target must be unitary within 1e-10")

    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    su = t / np.sqrt(det)
    # Pauli split: su = w*I - i*(x*X + y*Y + z*Z)
    w = (su[0, 0] + su[1, 1]).real / 2.0
    z = (su[1, 1] - su[0, 0]).imag / 2.0
    x = -(su[0, 1] + su[1, 0]).imag / 2.0
    y = (su[1, 0] - su[0, 1]).real / 2.0

    r_wy = math.hypot(w, y)
    r_xz = math.hypot(x, z)
    delta0 = math.atan2(r_xz, r_wy)
    sigma0 = math.atan2(-y, -w) if r_wy > 1e-12 else 0.0
    mu0 = math.atan2(-z, x) if r_xz > 1e-12 else 0.0

    sigmas = {sigma0, sigma0 + math.pi}
    mus = {mu0, mu0 + math.pi}
    # degenerate axes leave sigma or mu free; pick values that allow
    # theta1 = (mu - sigma)/2 = 0 so the canonical solution is stable
    if r_wy <= 1e-12:
        sigmas |= set(mus)
    if r_xz <= 1e-12:
        mus |= set(sigmas)

    candidates: list[tuple[float, float, float]] = []
    for delta in (delta0, -delta0, math.pi - delta0, delta0 - math.pi):
        for sigma in sigmas:
            for mu in mus:
                u1 = mu - sigma
                u2 = delta + mu
                u3 = mu + sigma
                angles = tuple((u / 2.0) % math.pi for u in (u1, u2, u3))
                if _phase_distance(reconstruct_waveplates(angles), t) < 1e-10:
                    candidates.append(angles)
    if not candidates:
        raise RuntimeError("waveplate decomposition failed to converge")

    return min(candidates)


# ---------------------------------------------------------------------------
# polarization <-> path conversion
# ---------------------------------------------------------------------------

def pbs_convert(
    state: PhotonicState, enc: QubitEncoding
) -> tuple[PhotonicState, QubitEncoding]:
    """Convert polarization qubits to path qubits via PBS + hwp(45 deg).

    Each polarization qubit k on modes (2k, 2k+1) gains a second spatial
    port; the PBS transmits H and reflects V into that port, and the
    45-degree half-wave plate turns the reflected V back into H.  The
    returned encoding has qubit k on mode pair (4k, 4k+2), flavor "path".
    """
    if enc.flavor != "polarization":
        raise ValueError("pbs_convert needs a polarization-flavored encoding")
    if enc.pairs != tuple((2 * k, 2 * k + 1) for k in range(enc.qubit_count)):
        raise ValueError("polarization encoding must use consecutive mode pairs")
    if state.mode_count != enc.total_modes:
        raise ValueError("state and encoding disagree on mode count")

    from .interferometer import compose, hwp, pbs, apply as apply_unitary

    n = enc.qubit_count
    new_modes = 4 * n
    lifted: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        new_occ = [0] * new_modes
        for k in range(n):
            new_occ[4 * k] = occ[2 * k]
            new_occ[4 * k + 1] = occ[2 * k + 1]
        lifted[tuple(new_occ)] = amp
    lifted_state = PhotonicState._trusted(new_modes, lifted)

    elements = []
    for k in range(n):
        elements.append(pbs(2 * k, 2 * k + 1))
        elements.append(hwp(2 * k + 1, math.pi / 4))
    converted = apply_unitary(compose(elements, new_modes), lifted_state)

    new_enc = QubitEncoding(
        tuple((4 * k, 4 * k + 2) for k in range(n)), "path", new_modes
    )
    return converted, new_enc
