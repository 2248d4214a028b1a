"""Linear-optical elements, mode unitaries, and multi-photon evolution.

Mode-matrix conventions (fixed for the whole package):

  * beamsplitter(a, b, R): with t = sqrt(1-R), r = sqrt(R), the block on
    (a, b) is [[t, i*r], [i*r, t]].  The i on reflection makes r*r = -t*t
    at R = 1/2, which is exactly the two-photon cancellation of the
    Hong-Ou-Mandel effect.
  * phase(m, phi): multiplies mode m by exp(i*phi) per photon.
  * hwp(pair, theta): half-wave plate on polarization pair k, i.e. modes
    (2k, 2k+1) = (H, V); block [[cos2t, sin2t], [sin2t, -cos2t]].
    theta = 22.5 deg gives the Hadamard matrix, 45 deg gives H<->V.
  * qwp(pair, theta): quarter-wave retarder diag(1, i) rotated by theta.
  * pbs(pair_a, pair_b): transmits H (identity on modes 2a, 2b), reflects
    V (swaps modes 2a+1 and 2b+1).
  * swap(a, b): mode permutation.

`compose` multiplies an element list into one mode unitary.  It starts
from the identity, and each element updates only the rows it touches: a
phase scales one row, a pbs exchanges its two V rows, and a two-mode
block recombines two rows.  A network of E elements on m modes costs
O(E * m), and only the product is checked for unitarity.

A photon in mode i is sent to sum_j U[j, i] |j>, so single-photon
amplitudes transform as an ordinary matrix-vector product.  Multi-photon
transition amplitudes are matrix permanents:

    <T|U|S> = perm(U[S, T]) / sqrt(prod_i S_i! * prod_j T_j!)

where U[S, T] repeats column i S_i times and row j T_j times.
`evolve_sector` computes the same amplitudes for a whole photon-number
sector at once, without a permanent per output: it expands the creation
operators sum_j U[j, i] a_j^dagger of the input photons one at a time
from the vacuum, each step one scatter-add per block of output modes
over index tables cached per (photons, modes).  It returns the sector as
(occ, amps), the one sector format that heralds, reports and samplers
read: occ is the sector's cached read-only table, occ[j, t] the count of
mode j in row t (rows in lexicographic order), and amps[t] the amplitude
of row t.
`evolve_table` joins the pairs of a state's sectors by photon number and
`apply` keys them into a `PhotonicState`.  Evolution is deterministic
and exactly number-conserving.  `permanent` stays for single amplitudes.
`check_sector_size` refuses a sector up front when its amplitudes exceed
SECTOR_CAP or its occupation keys (amplitudes x modes entries) exceed
KEY_CAP.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .fock import Occupation, PhotonicState

UNITARITY_TOL = 1e-10
SECTOR_CAP = 200_000  # amplitudes in one photon-number sector
KEY_CAP = 20 * SECTOR_CAP  # entries over all occupation keys of one sector
# Relative norm drift of an evolved sector taken as lost precision: far
# above rounding (~1e-14 at desk scale), below what tens of photons
# bunched in one mode reach (rounding errors grow up to sqrt(n!/prod S_i!)).
PRECISION_TOL = 1e-8
# Entries in one block of output modes when `evolve_sector` creates a
# photon; a sector larger than this goes one mode per block, so no
# temporary outgrows one sector.
_CREATE_BLOCK = 4096


# ---------------------------------------------------------------------------
# optical elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalElement:
    """One passive linear element; `modes` are the raw mode indices touched."""

    kind: str
    modes: tuple[int, ...]
    value: float = 0.0

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"element modes must be distinct, got {self.modes}")
        if any(m < 0 for m in self.modes):
            raise ValueError(f"element modes must be >= 0, got {self.modes}")
        if not math.isfinite(self.value):
            raise ValueError("element parameter must be finite")
        if self.kind == "bs" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"reflectivity must lie in [0, 1], got {self.value}")


def beamsplitter(mode_a: int, mode_b: int, reflectivity: float) -> OpticalElement:
    return OpticalElement("bs", (mode_a, mode_b), float(reflectivity))


def phase(mode: int, phi: float) -> OpticalElement:
    return OpticalElement("phase", (mode,), float(phi))


def hwp(pair: int, theta: float) -> OpticalElement:
    """Half-wave plate at angle theta (radians) on polarization pair `pair`."""
    return OpticalElement("hwp", (2 * pair, 2 * pair + 1), float(theta))


def qwp(pair: int, theta: float) -> OpticalElement:
    return OpticalElement("qwp", (2 * pair, 2 * pair + 1), float(theta))


def pbs(pair_a: int, pair_b: int) -> OpticalElement:
    if pair_a == pair_b:
        raise ValueError("pbs needs two distinct polarization pairs")
    return OpticalElement(
        "pbs", (2 * pair_a, 2 * pair_a + 1, 2 * pair_b, 2 * pair_b + 1)
    )


def swap(mode_a: int, mode_b: int) -> OpticalElement:
    return OpticalElement("swap", (mode_a, mode_b))


# ---------------------------------------------------------------------------
# mode unitaries
# ---------------------------------------------------------------------------

class ModeUnitary:
    """Complex matrix over optical modes, validated unitary on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode unitary must be a square matrix")
        dev = np.abs(m @ m.conj().T - np.eye(m.shape[0]))
        if dev.size and dev.max() > UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary (max deviation {dev.max():.3g})"
            )
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "matrix": [
                [[z.real, z.imag] for z in row] for row in self.matrix
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ModeUnitary":
        m = np.array(
            [[complex(re, im) for re, im in row] for row in data["matrix"]]
        )
        return ModeUnitary(m)


def _two_mode_block(kind: str, value: float) -> np.ndarray:
    if kind == "bs":
        t = math.sqrt(1.0 - value)
        r = math.sqrt(value)
        return np.array([[t, 1j * r], [1j * r, t]])
    if kind == "hwp":
        c, s = math.cos(2 * value), math.sin(2 * value)
        return np.array([[c, s], [s, -c]], dtype=complex)
    if kind == "qwp":
        c, s = math.cos(value), math.sin(value)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        return rot @ np.diag([1.0, 1j]) @ rot.T
    if kind == "swap":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    raise ValueError(f"unknown two-mode element kind {kind!r}")


def compose(elements: Sequence[OpticalElement], total_modes: int) -> ModeUnitary:
    """Product unitary of an element list, leftmost element applied first.

    Each element updates only the rows it touches, so a network costs
    O(elements * total_modes); only the product is validated.
    """
    u = np.eye(total_modes, dtype=complex)
    for e in elements:
        if max(e.modes) >= total_modes:
            raise ValueError(
                f"element touches mode {max(e.modes)} but only "
                f"{total_modes} modes are declared"
            )
        if e.kind == "phase":
            u[e.modes[0]] *= cmath.exp(1j * e.value)
        elif e.kind == "pbs":
            # H transmits, V reflects across the two spatial ports
            _ha, va, _hb, vb = e.modes
            u[[va, vb]] = u[[vb, va]]
        else:
            (p, q), (r, s) = _two_mode_block(e.kind, e.value).tolist()
            a, b = e.modes
            row_a, row_b = u[a], u[b]
            u[a], u[b] = p * row_a + q * row_b, r * row_a + s * row_b
    return ModeUnitary(u)


def rotation_elements(
    mode_a: int, mode_b: int, theta: float
) -> list[OpticalElement]:
    """Elements composing to the real rotation [[c, -s], [s, c]] on (a, b).

    The symmetric beamsplitter convention has an i on reflection; a phase
    sandwich turns it into a real rotation, and pi phases absorb the sign
    for angles outside [0, pi/2].  Used by gate constructions whose known
    parameter sets are quoted in the rotation convention.
    """
    th = math.fmod(theta, 2 * math.pi)
    if th < 0:
        th += 2 * math.pi
    flip = th >= math.pi
    if flip:
        th -= math.pi
    quarter = math.pi / 2  # the sandwich phase, negated past pi/2
    if th > quarter:
        th, flip, quarter = math.pi - th, not flip, -quarter
    elems = [
        phase(mode_b, quarter),
        beamsplitter(mode_a, mode_b, math.sin(th) ** 2),
        phase(mode_b, -quarter),
    ]
    if flip:
        elems += [phase(mode_a, math.pi), phase(mode_b, math.pi)]
    return elems


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------

def permanent(matrix) -> complex:
    """Matrix permanent via Ryser's formula with Gray-code subset iteration.

    Cost O(2^n * n); exact to rounding for the desk-scale n used here.
    perm of the empty 0x0 matrix is 1 (vacuum amplitude).
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    cols = [[complex(a[i, j]) for i in range(n)] for j in range(n)]
    row_sums = [0j] * n
    total = 0j
    sign = 1
    old_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        diff = gray ^ old_gray
        j = diff.bit_length() - 1
        col = cols[j]
        if gray & diff:
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        sign = -sign
        prod = 1.0 + 0j
        for v in row_sums:
            prod *= v
        total += sign * prod
        old_gray = gray
    if n % 2:
        total = -total
    return total


# ---------------------------------------------------------------------------
# multi-photon evolution
# ---------------------------------------------------------------------------

def compositions(n: int, m: int) -> Iterator[Occupation]:
    """All occupation vectors of n photons over m modes, lexicographic."""
    if m == 0:
        if n == 0:
            yield ()
        return
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def sector_size(photons: int, modes: int) -> int:
    """Number of occupations of `photons` photons over `modes` modes."""
    return math.comb(photons + modes - 1, photons) if modes else int(photons == 0)


def check_sector_size(photons: int, modes: int) -> None:
    """ValueError for a sector over SECTOR_CAP amplitudes or KEY_CAP key
    entries (one occupation tuple of `modes` entries per amplitude)."""
    size = sector_size(photons, modes)
    for count, what, cap in ((size, "amplitudes", SECTOR_CAP),
                             (size * modes, "key entries", KEY_CAP)):
        if count > cap:
            raise ValueError(
                f"{photons} photons over {modes} modes make {count} {what}, cap is {cap}"
            )


@functools.lru_cache(maxsize=64)
def _occupations(photons: int, modes: int) -> np.ndarray:
    """occ[j, t] = T_j for the t-th occupation T of a sector, modes >= 1;
    one read-only table per sector, shared by every caller.

    Stars and bars: the modes - 1 bar positions among photons + modes - 1
    slots, in lexicographic order, give the occupations in `compositions`
    order, and T_j is the gap between bars j - 1 and j.
    """
    slots = photons + modes - 1
    size = sector_size(photons, modes)
    bars = np.empty((modes + 1, size), dtype=np.min_scalar_type(-slots - 1))
    bars[0], bars[modes] = -1, slots
    bars[1:modes] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), modes - 1)),
        dtype=bars.dtype,
        count=size * (modes - 1),
    ).reshape(size, modes - 1).T
    occ = (np.diff(bars, axis=0) - 1).astype(np.min_scalar_type(photons))
    occ.setflags(write=False)
    return occ


@functools.lru_cache(maxsize=64)
def _raising_tables(photons: int, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables for creating one photon on a sector of `photons` photons.

    Returns (occ, up): occ[j, s] = S_j for the s-th occupation S of the
    sector in `compositions` order, and up[j, s] is the index of S + e_j
    in the sector above.  With N(r, w) = sector_size(r, w) and R_i the
    photons in modes i.. of T, the lexicographic rank of T is the sum over
    i of N(R_i, m - i) - N(R_(i+1), m - i), so adding a photon in mode j
    raises the rank by the sum over i <= j of
    N(R_i, m - i - 1) - [i >= 1] N(R_i, m - i), with R taken for S + e_j.
    The tables are built one pass over the sector per mode, so every
    temporary stays one sector long.
    """
    occ = _occupations(photons, modes)
    n_table = np.array(
        [[sector_size(r, w) for r in range(photons + 2)] for w in range(modes + 1)]
    )
    up = np.empty(occ.shape, dtype=np.min_scalar_type(sector_size(photons + 1, modes)))
    rank = np.arange(occ.shape[1])
    here = np.full(occ.shape[1], photons + 1)
    for j in range(modes):
        rank += n_table[modes - j - 1][here]
        if j:
            rank -= n_table[modes - j][here]
        up[j] = rank
        here -= occ[j]
    up.setflags(write=False)
    return occ, up


def _table_keys(occ: np.ndarray) -> list[Occupation]:
    """Columns of an occupation table as tuples, in table order."""
    keys: list[Occupation] = []
    for start in range(0, occ.shape[1], 4096):
        keys.extend(map(tuple, occ[:, start:start + 4096].T.tolist()))
    return keys


def evolve_sector(
    u: ModeUnitary, photons: int, terms: Sequence[tuple[Occupation, complex]]
) -> tuple[np.ndarray, np.ndarray]:
    """One photon-number sector after `u` as (occ, amps): its cached read-only
    occupation table, columns in `compositions` order, and their amplitudes.

    `terms` are the input's (occupation, amplitude) pairs, each holding
    `photons` photons over the `u.dim` modes.  Each input photon in mode i
    is created as sum_j U[j, i] a_j^dagger, one photon at a time from the
    vacuum.  Creating the c-th photon of input mode i takes sector k to
    sector k + 1 as

        v'[S + e_j] += U[j, i] * sqrt(S_j + 1) / sqrt(c) * v[S],

    one `np.add.at` per block of output modes j (as many as fit in
    _CREATE_BLOCK entries, at least one).  It adds in ascending j for
    every target, and each product is taken on flat arrays (`v` repeated,
    not broadcast), so every amplitude is bit-identical to a loop over j
    (kept in `tests/conftest.py` as a reference).  The 1/sqrt(c) factors
    make up 1/sqrt(prod_i S_i!), so every intermediate vector keeps the
    input amplitude's norm.  A sector that `check_sector_size` refuses is
    refused before any work, and one whose norm drifts by more than
    PRECISION_TOL after it.
    """
    m = u.dim
    check_sector_size(photons, m)
    total = np.zeros(sector_size(photons, m), dtype=complex)
    roots = np.sqrt(np.arange(1, photons + 1))  # roots[s] = sqrt(s + 1)
    for occ, amp in terms:
        v = np.array([amp])
        k = 0
        for col, count in enumerate(occ):
            for c in range(1, count + 1):
                occupied, up = _raising_tables(k, m)
                weights = u.matrix[:, col] / math.sqrt(c)
                raised = np.zeros(sector_size(k + 1, m), dtype=complex)
                step = max(1, _CREATE_BLOCK // len(v))
                for j in range(0, m, step):
                    rows = slice(j, j + step)
                    part = (weights[rows, None] * roots.take(occupied[rows])).ravel()
                    tiled = v[None].repeat(len(part) // len(v), 0).ravel()
                    np.add.at(raised, up[rows].ravel(), part * tiled)
                v = raised
                k += 1
        total += v
    weight = sum(abs(amp) ** 2 for _occ, amp in terms)
    norm2 = np.vdot(total, total).real
    if abs(norm2 - weight) > PRECISION_TOL * weight:
        raise ValueError(
            f"{photons} photons over {m} modes lost floating-point precision "
            f"(sector norm^2 {norm2:.6g}, expected {weight:.6g})"
        )
    return _occupations(photons, m), total


def evolve_table(u: ModeUnitary, state: PhotonicState) -> tuple[np.ndarray, np.ndarray]:
    """A state evolved through `u`, as arrays: (occ, amps) with occ[j, t]
    the count of mode j in row t and amps[t] its amplitude.

    Each photon-number sector evolves independently through
    `evolve_sector`, so the total photon number of every term is preserved
    exactly; every sector is size-checked before any of them evolves.  The
    sectors' (occ, amps) pairs are joined in ascending photon number,
    unpruned.
    """
    if u.dim != state.mode_count:
        raise ValueError(
            f"unitary acts on {u.dim} modes, state has {state.mode_count}"
        )
    m = state.mode_count
    sectors: dict[int, list[tuple[Occupation, complex]]] = {}
    for occ, amp in state.terms.items():
        sectors.setdefault(sum(occ), []).append((occ, amp))
    for n in sectors:
        check_sector_size(n, m)
    pairs = [(np.zeros((m, 0), dtype=np.uint8), np.zeros(0, dtype=complex))]
    pairs += [evolve_sector(u, n, sectors[n]) for n in sorted(sectors)]
    occ, amps = zip(*pairs)
    return np.concatenate(occ, axis=1), np.concatenate(amps)


def apply(u: ModeUnitary, state: PhotonicState) -> PhotonicState:
    """Evolve a Fock-space state through a mode unitary: `evolve_table`
    keyed by occupation, with amplitudes at or below PRUNE_THRESHOLD
    dropped."""
    occ, amps = evolve_table(u, state)
    return PhotonicState._trusted(
        state.mode_count, dict(zip(_table_keys(occ), amps.tolist()))
    )


# ---------------------------------------------------------------------------
# two-photon interference
# ---------------------------------------------------------------------------

def hom_coincidence(reflectivity: float, overlap: float) -> float:
    """Coincidence probability for one photon per input of a beamsplitter.

    Wavepacket overlap x interpolates between fully indistinguishable
    photons (weight x^2, amplitudes interfere, coincidence |t*t + (ir)^2|^2)
    and fully distinguishable ones (weight 1 - x^2, probabilities add,
    coincidence t^4 + r^4).  At R = 1/2 this is (1 - x^2) / 2.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    r2 = reflectivity
    t2 = 1.0 - reflectivity
    quantum = (t2 - r2) ** 2
    classical = t2 * t2 + r2 * r2
    x2 = overlap * overlap
    return x2 * quantum + (1.0 - x2) * classical
