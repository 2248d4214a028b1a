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

There is one herald, `HeraldGroups`, and it works on arrays: an
occupation table (one column per row of the state, as
`interferometer._occupations` gives a sector) and the amplitude vector,
as `evolve_sector` and `evolve_table` return them.  Pruned rows go
first, a stable lexsort on the measured rows forms the groups, the
loss-free match is a mask over them, and only the kept group's rows
become the residual `PhotonicState`.  One grouping serves any number of
detector models.  `herald(state, ...)` is the wrapper for a keyed state:
its terms, in their order, are the rows.

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
from .fock import PRUNE_THRESHOLD, Occupation, PhotonicState

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


def _loss_free_match(
    counts: np.ndarray, required: list[int], d: DetectorModel
) -> np.ndarray:
    """Per group (a row of counts): could the detectors report `required`
    with no photon lost?"""
    if d.number_resolving:
        return (counts == required).all(axis=1)
    return ((counts == 0) == (np.array(required) == 0)).all(axis=1)


class HeraldGroups:
    """The rows of a state grouped by their counts on a pattern's modes.

    `occ` is an occupation table, occ[j, t] the count of mode j in row t,
    and `amps[t]` the amplitude of row t.  Rows at or below
    PRUNE_THRESHOLD are dropped first.  A stable lexsort keyed on the
    measured rows then puts the groups in sorted count order, each with
    its rows in table order.  A group's weight (its squared norm, a Python
    sum over its rows in order) is worked out the first time a record
    needs it and kept, so records for several detectors share one
    grouping.
    """

    def __init__(self, occ: np.ndarray, amps: np.ndarray, pattern: HeraldPattern):
        modes = pattern.modes
        if any(m >= occ.shape[0] for m in modes):
            raise ValueError(
                f"herald pattern measures mode {max(modes)} but the state has "
                f"{occ.shape[0]} modes"
            )
        self._pattern = pattern
        self._occ, self._amps = occ, amps
        kept = np.flatnonzero(np.abs(amps) > PRUNE_THRESHOLD)
        measured = occ[list(modes)][:, kept]
        order = np.lexsort(measured[::-1])
        measured = measured[:, order]
        self._rows = kept[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (measured[:, 1:] != measured[:, :-1]).any(axis=0)
        starts = np.flatnonzero(first)
        self._counts = measured[:, starts].T  # one row per group, sorted
        self._bounds = [*starts.tolist(), len(order)]
        self._weights: dict[int, float] = {}

    def _group_rows(self, g: int) -> np.ndarray:
        return self._rows[self._bounds[g]:self._bounds[g + 1]]

    def _weight(self, g: int) -> float:
        if g not in self._weights:
            amps = self._amps[self._group_rows(g)].tolist()
            self._weights[g] = sum(abs(a) ** 2 for a in amps)
        return self._weights[g]

    def record(self, detector: DetectorModel = IDEAL_DETECTOR) -> DetectionRecord:
        """The detection record of the pattern; see `herald`.

        Only groups the detectors can report as the pattern (non-zero
        factor) or that match it loss-free are weighed: every other group
        would add weight * 0.0 to the probability.
        """
        modes = self._pattern.modes
        required = [c for _, c in self._pattern.counts]
        factor = np.ones(len(self._counts))
        for req, true in zip(required, self._counts.T):
            top = int(true.max(initial=0))
            table = np.array([_detect_prob(req, t, detector) for t in range(top + 1)])
            factor = factor * table[true]
        match = _loss_free_match(self._counts, required, detector)

        probability = 0.0
        best, best_weight = None, -1.0
        for g in np.flatnonzero((factor != 0.0) | match).tolist():
            weight = self._weight(g)
            probability += weight * float(factor[g])
            if match[g] and weight > best_weight:
                best, best_weight = g, weight

        mode_count = self._occ.shape[0]
        rest_modes = mode_count - len(modes)
        if probability <= PROB_TOL or best is None:
            residual = PhotonicState._trusted(rest_modes, {})
            probability = max(probability, 0.0)
        else:
            rows = self._group_rows(best)
            rest = [j for j in range(mode_count) if j not in modes]
            norm = math.sqrt(best_weight)
            keys = map(tuple, self._occ[rest][:, rows].T.tolist())
            residual = PhotonicState._trusted(
                rest_modes, {k: a / norm for k, a in zip(keys, self._amps[rows].tolist())}
            )

        if detector.number_resolving:
            outcome = self._pattern.counts
        else:
            clicks = self._counts[best].tolist() if best is not None else required
            outcome = tuple(
                (m, 1 if c > 0 else 0) for m, c in zip(modes, clicks)
            )
        return DetectionRecord(outcome, probability, residual)


def herald(
    state: PhotonicState, pattern: HeraldPattern, detector: DetectorModel = IDEAL_DETECTOR
) -> DetectionRecord:
    """Project onto a detection pattern; keep the unmeasured modes.

    The probability is the squared norm of the selected component before
    renormalization (so sub-normalized post-selected inputs compose).  A
    zero-probability herald is a valid record with an empty residual, not
    an error: parameter sweeps legitimately cross zeros.  The state's
    terms, in their own order, are the rows of one `HeraldGroups`.
    """
    terms = state.terms
    occ = np.array(list(terms), dtype=np.int64).reshape(len(terms), state.mode_count)
    amps = np.array(list(terms.values()), dtype=complex)
    return HeraldGroups(occ.T, amps, pattern).record(detector)


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
