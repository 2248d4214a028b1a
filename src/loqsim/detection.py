"""Photon counting, heralding/post-selection, and detector imperfections.

Detector loss is modeled as binomial thinning at measurement time: each
photon arriving at a measured mode registers independently with
probability eta, and the herald probability sums over all loss patterns
consistent with the observed counts.  No loss modes are added to the
interferometer, so the pre-detection state stays pure.

The residual state of a record is the dominant loss-free detection branch
(for ideal number-resolving detectors this is exact: the observed counts
identify a unique branch).  Terms whose measured-mode counts differ are
distinguishable once the detectors fire, so they never re-interfere.

`born_pick` is the one Born-rule pick: u = r * sum(probs) for a uniform
draw r, and the first outcome with p > 0 whose running sum exceeds u
wins.  `sample` draws r and picks from one outcome list; the batched
teleported CNOT picks each trial's Bell outcome from its row of a
stacked probability table, with the r it drew earlier.  `project`
is the one dense projective measurement (Bell analysis, cluster nodes).
`force` names an outcome index instead of drawing (no random number is
used); an index out of range or below PROB_TOL in probability is refused.

Trial i of a Monte Carlo run draws from its own PCG64 stream
derive_rng(seed, i), so results do not depend on scheduling.  No draw
depends on amplitudes, only on the stream (a Born-rule draw is the
uniform r, not the outcome), so a run may take every trial's draws first
and evolve the states of a block of trials afterwards as stacked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .encoding import axes_first
from .fock import Occupation, PhotonicState

PROB_TOL = 1e-12


@dataclass(frozen=True)
class DetectorModel:
    """efficiency in [0, 1]; number_resolving=False gives threshold clicks."""

    efficiency: float = 1.0
    number_resolving: bool = True

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(
                f"detector efficiency must lie in [0, 1], got {self.efficiency}"
            )


IDEAL_DETECTOR = DetectorModel()


@dataclass(frozen=True)
class HeraldPattern:
    """Required counts per measured mode.

    With threshold detectors a required count of 0 means "no click" and
    any required count >= 1 means "click".
    """

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        modes = [m for m, _ in self.counts]
        if not modes:
            raise ValueError("herald pattern must measure at least one mode")
        if len(set(modes)) != len(modes):
            raise ValueError("herald pattern modes must be distinct")
        if any(c < 0 for _, c in self.counts):
            raise ValueError("herald pattern counts must be >= 0")
        object.__setattr__(self, "counts", tuple(sorted(self.counts)))

    @staticmethod
    def from_dict(assignments: Mapping[int, int]) -> "HeraldPattern":
        return HeraldPattern(tuple((int(m), int(c)) for m, c in assignments.items()))

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.counts)


@dataclass(frozen=True)
class DetectionRecord:
    outcome: tuple[tuple[int, int], ...]
    probability: float
    residual_state: PhotonicState

    def to_json_dict(self) -> dict:
        return {
            "outcome": {str(m): c for m, c in self.outcome},
            "prob": self.probability,
            "residual": self.residual_state.to_json_dict(),
        }


def _detect_prob(required: int, true_count: int, d: DetectorModel) -> float:
    eta = d.efficiency
    if d.number_resolving:
        if required > true_count:
            return 0.0
        return (
            math.comb(true_count, required)
            * eta**required
            * (1.0 - eta) ** (true_count - required)
        )
    if required == 0:
        return (1.0 - eta) ** true_count
    return 1.0 - (1.0 - eta) ** true_count


def _split_groups(
    state: PhotonicState, modes: tuple[int, ...]
) -> dict[tuple[int, ...], dict[Occupation, complex]]:
    """Group terms by their counts on the measured modes."""
    mode_set = set(modes)
    groups: dict[tuple[int, ...], dict[Occupation, complex]] = {}
    for occ, amp in state.terms.items():
        measured = tuple(occ[m] for m in modes)
        rest = tuple(n for i, n in enumerate(occ) if i not in mode_set)
        groups.setdefault(measured, {})[rest] = amp
    return groups


def _loss_free_match(
    measured: tuple[int, ...], required: tuple[int, ...], d: DetectorModel
) -> bool:
    if d.number_resolving:
        return measured == required
    return all(
        (t == 0) == (r == 0) for t, r in zip(measured, required)
    )


def herald(
    state: PhotonicState, pattern: HeraldPattern, detector: DetectorModel = IDEAL_DETECTOR
) -> DetectionRecord:
    """Project onto a detection pattern; keep the unmeasured modes.

    The probability is the squared norm of the selected component before
    renormalization (so sub-normalized post-selected inputs compose).  A
    zero-probability herald is a valid record with an empty residual, not
    an error: parameter sweeps legitimately cross zeros.
    """
    modes = pattern.modes
    if any(m >= state.mode_count for m in modes):
        raise ValueError(
            f"herald pattern measures mode {max(modes)} but the state has "
            f"{state.mode_count} modes"
        )
    required = tuple(c for _, c in pattern.counts)
    groups = _split_groups(state, modes)

    probability = 0.0
    best_group: dict[Occupation, complex] | None = None
    best_weight = -1.0
    best_counts: tuple[int, ...] | None = None
    for measured, terms in sorted(groups.items()):
        weight = sum(abs(a) ** 2 for a in terms.values())
        factor = 1.0
        for req, true in zip(required, measured):
            factor *= _detect_prob(req, true, detector)
            if factor == 0.0:
                break
        probability += weight * factor
        if _loss_free_match(measured, required, detector) and weight > best_weight:
            best_group, best_weight, best_counts = terms, weight, measured

    rest_modes = state.mode_count - len(modes)
    if probability <= PROB_TOL or best_group is None:
        residual = PhotonicState._trusted(rest_modes, {})
        probability = max(probability, 0.0)
    else:
        residual = _renormalized(rest_modes, best_group, best_weight)

    if detector.number_resolving:
        outcome = pattern.counts
    else:
        clicks = best_counts if best_counts is not None else required
        outcome = tuple(
            (m, 1 if c > 0 else 0) for m, c in zip(modes, clicks)
        )
    return DetectionRecord(outcome, probability, residual)


def _renormalized(rest_modes: int, terms: dict, weight: float) -> PhotonicState:
    norm = math.sqrt(weight)
    return PhotonicState._trusted(rest_modes, {occ: a / norm for occ, a in terms.items()})


def herald_branches(
    state: PhotonicState, modes: tuple[int, ...]
) -> dict[tuple[int, ...], tuple[float, PhotonicState]]:
    """(probability, residual) of every count pattern on `modes` that occurs.

    One grouping of the state serves every branch; each entry equals
    herald(state, pattern) with ideal detectors for that pattern.
    """
    rest_modes = state.mode_count - len(modes)
    empty = PhotonicState._trusted(rest_modes, {})
    out = {}
    for measured, terms in sorted(_split_groups(state, modes).items()):
        weight = sum(abs(a) ** 2 for a in terms.values())
        residual = _renormalized(rest_modes, terms, weight) if weight > PROB_TOL else empty
        out[measured] = (weight, residual)
    return out


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def rng_from_seed(seed) -> np.random.Generator:
    """Accept an int seed or pass an existing Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream; results are scheduling-independent."""
    # the stream default_rng([seed, trial_index]) builds, without its
    # argument coercion
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), int(trial_index)]))
    )


def born_pick(probs: Sequence[float], r: float) -> int:
    """The Born-rule pick for one uniform draw r over unnormalized
    probabilities: u = r * sum(probs), and the first outcome with p > 0
    whose running sum exceeds u wins.

    If rounding leaves u at or past the running total, the last outcome
    with p > 0 is returned; all-zero probabilities are an error.
    """
    u = r * sum(probs)
    acc = 0.0
    last = None
    for k, p in enumerate(probs):
        if p > 0.0:
            acc += p
            last = k
            if u < acc:
                return k
    if last is None:
        raise ValueError("state has no support on the measurement outcomes")
    return last


def sample(probs: Sequence[float], seed, force: int | None = None) -> int:
    """Born-rule draw of an outcome index: one uniform draw, then
    `born_pick`.  `force` returns that index without drawing, if it is
    possible.
    """
    if force is not None:
        if force not in range(len(probs)):
            raise ValueError(f"forced outcome {force} is not one of {len(probs)} outcomes")
        if probs[force] < PROB_TOL:
            raise ValueError(f"forced outcome {force} has probability 0")
        return force
    return born_pick(probs, rng_from_seed(seed).random())


def project(
    amps: np.ndarray, n: int, axes: Sequence[int], vectors, seed, force: int | None = None
) -> tuple[int, np.ndarray, float]:
    """Measure qubit axes of an n-qubit vector against outcome vectors.

    Each vector has 2**len(axes) entries, the first axis most
    significant.  Returns the drawn index, the renormalized amplitudes of
    the other qubits (in their original order) and the outcome's
    probability.
    """
    t = axes_first(amps, n, axes)
    branches = [v.conj() @ t for v in vectors]
    probs = [float(np.linalg.norm(b) ** 2) for b in branches]
    index = sample(probs, seed, force)
    return index, branches[index] / math.sqrt(probs[index]), probs[index]


def born_table(state: PhotonicState) -> tuple[list[Occupation], list[float]]:
    """Occupations of a normalized state in lexicographic order, with
    their probabilities |amplitude|^2."""
    norm2 = state.norm_squared()
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"sampling needs a normalized state (norm^2 = {norm2:.6g})")
    items = list(state.items())
    return [occ for occ, _ in items], [abs(amp) ** 2 for _, amp in items]


def measure_all(state: PhotonicState, seed) -> tuple[Occupation, float]:
    """Sample one occupation vector with probability |amplitude|^2."""
    outcomes, probs = born_table(state)
    k = sample(probs, seed)
    return outcomes[k], probs[k]
