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
occupation table (one column per row of the state) and the amplitude
vector, the (occ, amps) pair `evolve_sector` returns for a sector and
`evolve_table` for a whole state.  Pruned rows go
first, a stable lexsort on the measured rows forms the groups, the
loss-free match is a mask over them, and only the kept group's rows
become the residual `PhotonicState`.  One grouping serves any number of
detector models.  `herald(state, ...)` is the wrapper for a keyed state:
its terms, in their order, are the rows.

`born_pick` is the one Born-rule pick: u = r * total for a uniform draw
r, the total being the last running sum of sequential additions, and the
first outcome with p > 0 whose running sum exceeds u wins.  `sample`
draws r and picks from one outcome list.  `born_pick_rows` applies the
same rule to every row of a (T, k) probability table at once, each row
with its own r (the batched teleported CNOT's Bell outcomes), and
`born_picker` to an array of draws on one outcome list, building the
running sums once and finding each pick with `np.searchsorted` (the
sampling runs).  `project` is the one dense projective measurement (Bell
analysis, cluster nodes).  Draws are the one way to choose an outcome
(a `Draws` of chosen values): r = 0.0 picks the first outcome with
p > 0, r = 1 - 2**-53 the last (unless its p is too small to move the
running sum), and over k equal outcomes r = (j + 1/2) / k picks outcome j.

Trial i of a Monte Carlo run draws from its own PCG64 stream
derive_rng(seed, i), the stream of np.random.default_rng([seed, i]), so
results do not depend on scheduling.  The `SeedSequence([seed, i])` hash
(numpy's, after O'Neill's seed_seq: 32-bit words mixed by xor, multiply
and shift) of a chunk of indices runs as uint32 array arithmetic, giving
each stream's `generate_state(4, uint64)` seed row.  The draws come from
those rows in uint64 array arithmetic, with no `Generator` built, so no
command-line run imports numpy.random.  A run that draws only uniforms
takes them by `pcg64_uniforms`: numpy's PCG64 and `random()`, jumped
ahead to each of the first k draws of every stream at once
(`trial_uniforms` for a run, `seed_uniforms` for one plain seed, `Draws`
to hand such values out as a Generator's random() would).  A
`PCG64Stack` holds the streams' states instead and steps them
(`trial_stacks` for a run, `seed_stack` for one plain seed), for draws
whose count is not fixed: `standard_normals` is numpy's ziggurat for
normals (Marsaglia and Tsang), its tables those of numpy's
ziggurat_constants.h (BSD-3) in the package file ziggurat.bin, and the
teleported CNOT's attempt scan reads windows of uniforms.  Every value
stays bit-identical to numpy's.  No draw depends on amplitudes, only on
the stream (a Born-rule draw is the uniform r, not the outcome), so a run
may take every trial's draws first and evolve the states of a block of
trials afterwards as stacked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .encoding import axes_first
from .fock import PRUNE_THRESHOLD, Occupation, PhotonicState, running_total

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
            self._weights[g] = running_total(abs(a) ** 2 for a in amps)
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

def rng_from_seed(seed):
    """Pass a source of uniform draws (anything with a random() method: a
    Generator or `Draws`) through; make default_rng(seed) of anything else.
    Only the last imports numpy.random."""
    if hasattr(seed, "random"):
        return seed
    return np.random.default_rng(seed)


class Draws:
    """Uniform draws taken in advance, handed out in order by random() as
    the stream they came from would hand them out."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float]):
        self._values = iter(values)

    def random(self) -> float:
        r = next(self._values, None)
        if r is None:
            raise ValueError("no uniform draws left")
        return r


def derive_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream; results are scheduling-independent."""
    # the stream default_rng([seed, trial_index]) builds, without its
    # argument coercion
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), int(trial_index)]))
    )


# numpy's SeedSequence: a pool of 4 words; the entropy hash (A), the
# output hash (B) and the pool mix, each a 32-bit multiply constant
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# streams hashed at once; on a 2-core Xeon the hash costs 0.24 us a stream
# at 1024 and 2.5 us at 64, against 9-12 us for one SeedSequence
_HASH_CHUNK = 1024


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence lays it out: 32-bit words, least
    significant first, at least one."""
    if n < 0:
        raise ValueError(f"seed and trial index must be >= 0, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of `count` successive hashmix calls,
    as (count, 1) uint32 columns: the constant advances on every call."""
    xor, times = [], []
    for _ in range(count):
        xor.append(init)
        init = init * mult & _MASK32
        times.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(times, np.uint32)[:, None]


def _hashmix(v: np.ndarray, xor: np.ndarray, times: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * times
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for each column of
    a (words, n) uint32 entropy table, as (n, 4) uint64 rows.

    The loops run over the 4 pool words, never over the columns: each
    hashmix call of SeedSequence's sequence is one array operation.
    """
    count = len(entropy)
    xor, times = _hash_constants(
        _INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(count - _POOL, 0)
    )
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[:count] = entropy[:_POOL]
    pool = _hashmix(pool, xor[:_POOL], times[:_POOL])
    c = _POOL
    # every pool word mixes into each other one, then any entropy past the pool
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        h = _hashmix(pool[src], xor[c:c + _POOL - 1], times[c:c + _POOL - 1])
        pool[dst] = _mix(pool[dst], h)
        c += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, xor[c:c + _POOL], times[c:c + _POOL]))
        c += _POOL
    xor, times = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = _hashmix(np.concatenate([pool, pool]), xor, times)
    # word pairs read as little-endian uint64, as SeedSequence does
    return np.ascontiguousarray(out.T).astype("<u4").view("<u8").astype(np.uint64)


def _stream_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of derive_rng(seed, i) for i in range(start,
    stop), as (stop - start, 4) uint64 rows; the entropy of index i is the
    words of seed followed by the words of i."""
    seed_words = _words(seed)
    # an index gains a word at each power of 2**32
    edges = [
        start,
        *(1 << 32 * k for k in range(len(_words(start)), len(_words(stop - 1)))),
        stop,
    ]
    parts = []
    for a, b in zip(edges, edges[1:]):
        if b <= 1 << 64:
            index = np.arange(a, b, dtype=np.uint64)
        else:
            index = np.array(range(a, b), dtype=object)
        table = [np.full(b - a, w, np.uint32) for w in seed_words]
        table += [
            (index >> 32 * k & _MASK32).astype(np.uint32) for k in range(len(_words(a)))
        ]
        parts.append(_seed_states(np.array(table)))
    return np.concatenate(parts)


# numpy's PCG64: a 128-bit LCG state, stepped as state * _PCG_MULT + inc
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)

# table entries one `PCG64Stack.window` block holds: past about 8192 the
# uint64 temporaries leave the core's cache and a draw costs twice as much
# (on a 2-core Xeon VM)
_WINDOW_BLOCK = 8192


@lru_cache(maxsize=None)
def _jump_constants(k: int) -> tuple[np.ndarray, ...]:
    """The j-th draw after state s reads the state A_j * s + C_j * inc
    (mod 2**128) of increment inc, with A_j = M**(j+1) and C_j = 1 + M +
    ... + M**j.  Returns the high and low uint64 words of A and of C for
    j < k, as (1, k) rows."""
    a, c = _PCG_MULT, 1
    consts = []
    for _ in range(k):
        consts.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        c = (c + a) & _MASK128
        a = a * _PCG_MULT & _MASK128
    words = np.array(consts, np.uint64).reshape(k, 4).T
    return tuple(row[None, :] for row in words)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 64 x 64-bit product, from 32-bit limbs
    (Hacker's Delight's mulhu: no partial sum can overflow)."""
    a1, a0, b1, b0 = a >> 32, a & _MASK32, b >> 32, b & _MASK32
    t = a1 * b0 + (a0 * b0 >> 32)
    u = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (u >> 32)


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(ah:al) * (bh:bl) mod 2**128 as its (high, low) uint64 words."""
    return _mulhi64(al, bl) + ah * bl + al * bh, al * bl


def _add128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(ah:al) + (bh:bl) mod 2**128 as its (high, low) uint64 words."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _xsl_rr(hi, lo):
    """PCG64's output of a state, hi ^ lo rotated right by hi >> 58, of
    uint64 words (or of Python ints, masked to 64 bits after)."""
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _uniform(raw):
    """random()'s double of an output: its top 53 bits."""
    return (raw >> 11) * 2.0**-53


def _jump(consts, hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """The states A_j * s + C_j * inc of (n, 1) columns of states s and
    increments inc, for (1, k) rows of `_jump_constants`, as (n, k)."""
    ah, al, ch, cl = consts
    return _add128(*_mul128(ah, al, hi, lo), *_mul128(ch, cl, inc_hi, inc_lo))


def _seeded(states: np.ndarray) -> tuple[np.ndarray, ...]:
    """numpy's PCG64 seeding of (n, 4) uint64 seed rows (of
    `_stream_states` or `_seed_states`): the increment inc is words 2-3
    shifted left one bit with the low bit set, and state 0 steps once (to
    inc) and adds the seed state, words 0-1; it steps once more before the
    first draw.  Returns that state's high and low words and inc's, as
    (n,) arrays."""
    inc_hi = states[:, 2] << 1 | states[:, 3] >> 63
    inc_lo = states[:, 3] << 1 | 1
    return (*_add128(states[:, 0], states[:, 1], inc_hi, inc_lo), inc_hi, inc_lo)


def pcg64_uniforms(states: np.ndarray, k: int) -> np.ndarray:
    """The first k random() doubles of the PCG64 each (n, 4) uint64 seed
    row makes, as an (n, k) float64 table bit-identical to numpy's: draw
    j is jump j + 1 from the seeded state, two 128-bit products whatever
    j is."""
    consts = (c[:, 1:] for c in _jump_constants(k + 1))
    return _uniform(_xsl_rr(*_jump(consts, *(w[:, None] for w in _seeded(states)))))


class PCG64Stack:
    """numpy's PCG64 streams of many seed rows, drawn from together.

    Row t's 128-bit state is the uint64 words hi[t]:lo[t] and its
    increment inc_hi[t]:inc_lo[t].  `raw()` steps every row once (state *
    M + inc, then the XSL-RR output); `window` reads the next k random()
    draws of every row in blocks of columns; `take` gives a stack of some
    rows; `stream` steps one row in Python ints, for the few draws no
    array is worth.  Every value is bit-identical to the numpy Generator's
    of the same seed row.
    """

    __slots__ = ("_hi", "_lo", "_inc_hi", "_inc_lo")

    def __init__(self, states: np.ndarray):
        """The streams of (n, 4) uint64 seed rows, seeded (`_seeded`)."""
        self._hi, self._lo, self._inc_hi, self._inc_lo = _seeded(states)
        self.raw()

    def __len__(self) -> int:
        return len(self._hi)

    def raw(self) -> np.ndarray:
        """The next 64-bit output of every row, as an (n,) uint64 array."""
        hi, lo = _mul128(_MULT_HI, _MULT_LO, self._hi, self._lo)
        self._hi, self._lo = _add128(hi, lo, self._inc_hi, self._inc_lo)
        return _xsl_rr(self._hi, self._lo)

    def window(self, k: int, step: int) -> np.ndarray:
        """The next k random() doubles of every row, as an (n, k) table;
        every row then stands `step` <= k draws on.

        The columns come q at a time, q as wide as _WINDOW_BLOCK entries
        allow: the first q by `_jump_constants` in two 128-bit products,
        each later block from the one before in one, as q steps are
        state * M**q + C_{q-1} * inc.
        """
        blocks = max(1, -(-k * len(self) // _WINDOW_BLOCK))
        q = max(1, -(-k // blocks))
        consts = ah, al, ch, cl = _jump_constants(q)
        ih, il = self._inc_hi[:, None], self._inc_lo[:, None]
        hi, lo = _jump(consts, self._hi[:, None], self._lo[:, None], ih, il)
        dh, dl = _mul128(ch[:, -1:], cl[:, -1:], ih, il)
        columns = [np.empty((len(self), 0))]
        for start in range(0, k, q):
            if start:
                hi, lo = _add128(*_mul128(ah[:, -1:], al[:, -1:], hi, lo), dh, dl)
            columns.append(_uniform(_xsl_rr(hi, lo)))
            if start < step <= start + q:
                self._hi, self._lo = hi[:, step - start - 1].copy(), lo[:, step - start - 1].copy()
        return np.concatenate(columns, axis=1)[:, :k]

    def take(self, rows) -> "PCG64Stack":
        """The stack of some rows (an index array or a mask), a copy."""
        sub = object.__new__(PCG64Stack)
        for name in self.__slots__:
            setattr(sub, name, getattr(self, name)[rows])
        return sub

    def stream(self, t: int) -> Iterator[int]:
        """Row t's 64-bit outputs one at a time, stepped in Python ints;
        row t of the stack steps with each value taken."""
        state = int(self._hi[t]) << 64 | int(self._lo[t])
        inc = int(self._inc_hi[t]) << 64 | int(self._inc_lo[t])
        while True:
            state = state * _PCG_MULT + inc & _MASK128
            hi, lo = state >> 64, state & _MASK64
            self._hi[t], self._lo[t] = hi, lo
            yield _xsl_rr(hi, lo) & _MASK64

    def state(self, t: int) -> dict:
        """Row t's state as numpy's `bit_generator.state["state"]` holds it."""
        return {
            "state": int(self._hi[t]) << 64 | int(self._lo[t]),
            "inc": int(self._inc_hi[t]) << 64 | int(self._inc_lo[t]),
        }


def _chunk_states(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """The seed rows of derive_rng(seed, i) for i in range(start, stop),
    hashed _HASH_CHUNK indices at a time, one (n, 4) table per chunk."""
    seed, start, stop = int(seed), int(start), int(stop)
    for a in range(start, stop, _HASH_CHUNK):
        yield _stream_states(seed, a, min(a + _HASH_CHUNK, stop))


def trial_uniforms(seed: int, start: int, stop: int, k: int) -> Iterator[np.ndarray]:
    """The first k values of derive_rng(seed, i).random() for i in
    range(start, stop), as (n, k) tables of consecutive indices, in order,
    one per chunk of _HASH_CHUNK indices, so no more than one
    (_HASH_CHUNK, k) table is held."""
    for states in _chunk_states(seed, start, stop):
        yield pcg64_uniforms(states, k)


def trial_stacks(seed: int, start: int, stop: int) -> Iterator[PCG64Stack]:
    """The streams derive_rng(seed, i) for i in range(start, stop), as
    stacks of consecutive indices, in order, one per chunk of _HASH_CHUNK
    indices."""
    for states in _chunk_states(seed, start, stop):
        yield PCG64Stack(states)


def _seed_row(seed: int) -> np.ndarray:
    """The (1, 4) PCG64 seed words of default_rng(seed), for a seed >= 0."""
    return _seed_states(np.array(_words(int(seed)), np.uint32)[:, None])


def seed_stack(seed: int) -> PCG64Stack:
    """The one-row stack of default_rng(seed), for a seed >= 0."""
    return PCG64Stack(_seed_row(seed))


def seed_uniforms(seed: int, k: int) -> list[float]:
    """default_rng(seed).random(k) of a seed >= 0, as a list."""
    return pcg64_uniforms(_seed_row(seed), k)[0].tolist()


# numpy's ziggurat for normals (Marsaglia and Tsang, J. Stat. Softw. 5(8),
# 2000): 256 layers, the base layer's tail past _ZIG_R.  Its tables are
# those of numpy's ziggurat_constants.h (BSD-3), in ziggurat.bin as
# fi | wi | ki, 256 little-endian 8-byte words each: worked out afresh, in
# float64 or to higher precision, they differ from numpy's in last bits.
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596
_ZIG_MANTISSA = 0x000FFFFFFFFFFFFF


@lru_cache(maxsize=1)
def _ziggurat_tables() -> tuple[tuple[np.ndarray, ...], tuple[list, ...]]:
    """(ki, wi) as arrays, for whole columns, and (ki, wi, fi) as lists,
    for one row at a time; read on first use."""
    import importlib.resources

    data = importlib.resources.files(__package__).joinpath("ziggurat.bin").read_bytes()
    fi, wi, ki = (np.frombuffer(data, "<u8", 256, 2048 * j) for j in range(3))
    ki, wi, fi = ki.astype(np.uint64), wi.view("<f8").astype(float), fi.view("<f8")
    return (ki, wi), (ki.tolist(), wi.tolist(), fi.tolist())


def _ziggurat(r, wi):
    """An output's layer, rabs (its 52 bits past the layer and the sign
    bit) and fast-path value +-rabs * wi[layer], of uint64 words or of a
    Python int (with wi a list)."""
    layer = r & 0xFF
    rabs = r >> 9 & _ZIG_MANTISSA
    return layer, rabs, rabs * wi[layer] * (1.0 - 2.0 * (r >> 8 & 1))


def standard_normals(stack: PCG64Stack) -> np.ndarray:
    """One standard_normal() of every row of a stack, as numpy's Generator
    draws it (`random_standard_normal`), as an (n,) array; each row steps
    past the outputs its value used.

    The fast path takes one output of every row at once: its low byte
    picks the layer, the next bit is the sign, the next 52 bits are rabs,
    and rabs < ki[layer] gives +-rabs * wi[layer].  The rows it rejects
    (about 1.5 %) go on one at a time, in Python ints and floats on
    `PCG64Stack.stream`.
    """
    (ki, wi), _lists = _ziggurat_tables()
    layer, rabs, x = _ziggurat(stack.raw(), wi)
    rejected = np.flatnonzero(rabs >= ki[layer])
    if len(rejected):
        parts = (layer[rejected].tolist(), rabs[rejected].tolist(), x[rejected].tolist())
        x[rejected] = [
            _rejected_normal(stack.stream(t), *row) for t, *row in zip(rejected.tolist(), *parts)
        ]
    return x


def _rejected_normal(raws: Iterator[int], layer: int, rabs: int, x: float) -> float:
    """numpy's ziggurat past a rejected fast path, on one stream's next
    outputs: a layer's wedge test takes one double against libm's exp and
    the base layer's tail two a round with libm's log1p, as numpy's C
    does (numpy's own exp may differ in the last bit); a value the wedge
    rejects is drawn afresh."""
    _arrays, (ki, wi, fi) = _ziggurat_tables()
    while True:
        if layer == 0:
            while True:
                xx = -_ZIG_INV_R * math.log1p(-_uniform(next(raws)))
                yy = -math.log1p(-_uniform(next(raws)))
                if yy + yy > xx * xx:
                    return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
        if (fi[layer - 1] - fi[layer]) * _uniform(next(raws)) + fi[layer] < math.exp(-0.5 * x * x):
            return x
        layer, rabs, x = _ziggurat(next(raws), wi)
        if rabs < ki[layer]:
            return x


def born_pick(probs: Sequence[float], r: float) -> int:
    """The Born-rule pick for one uniform draw r over unnormalized
    probabilities: u = r * total, with the total the last running sum of
    sequential additions (`running_total`), and the first outcome with
    p > 0 whose running sum exceeds u wins.

    If rounding leaves u at or past the running total, the last outcome
    with p > 0 is returned; all-zero probabilities are an error.
    """
    u = r * running_total(probs)
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


def born_pick_rows(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`born_pick(probs[t], r[t])` for every row t of a (T, k) table of
    probabilities (each >= 0), as a (T,) index array.

    The running sums come from `np.cumsum`, whose additions along a row
    are sequential, u = r * the last running sum, and the first entry with
    p > 0 whose running sum exceeds u wins, else the last entry with
    p > 0.  A row with no p > 0 is refused.
    """
    cum = np.cumsum(probs, axis=1)
    positive = probs > 0.0
    if not positive.any(axis=1).all():
        raise ValueError("state has no support on the measurement outcomes")
    hit = positive & (cum > (r * cum[:, -1])[:, None])
    last = probs.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), last)


def born_picker(probs: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """`born_pick(probs, r)` as a function of an array of draws r, for
    many draws on one list of probabilities (each >= 0).

    The running sums are built once by `np.cumsum` (sequential additions;
    a zero adds nothing, so a zero-probability outcome never has the first
    sum past u), u = r * the last running sum as before, and
    `np.searchsorted(..., side="right")` finds each first running sum past
    u.  At or past the total the last outcome with p > 0 is picked;
    all-zero probabilities are refused up front.
    """
    probs = np.asarray(probs, dtype=float)
    positive = np.flatnonzero(probs > 0.0)
    if not len(positive):
        raise ValueError("state has no support on the measurement outcomes")
    cum, last = np.cumsum(probs), positive[-1]
    total = cum[-1]

    def pick(r: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(cum, r * total, side="right"), last)

    return pick


def sample(probs: Sequence[float], seed) -> int:
    """Born-rule draw of an outcome index: one uniform draw, then
    `born_pick`."""
    return born_pick(probs, rng_from_seed(seed).random())


def project(
    amps: np.ndarray, n: int, axes: Sequence[int], vectors, seed
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
    index = sample(probs, seed)
    return index, branches[index] / math.sqrt(probs[index]), probs[index]


def measure_all(state: PhotonicState, seed) -> tuple[Occupation, float]:
    """Sample one occupation vector of a normalized state with probability
    |amplitude|^2, the outcomes in lexicographic order."""
    norm2 = state.norm_squared()
    if abs(norm2 - 1.0) > 1e-9:
        raise ValueError(f"sampling needs a normalized state (norm^2 = {norm2:.6g})")
    outcomes = list(state.items())
    probs = [abs(amp) ** 2 for _occ, amp in outcomes]
    k = sample(probs, seed)
    return outcomes[k][0], probs[k]
