"""Seeded random streams, every value bit-identical to numpy's.

Trial i of a Monte Carlo run draws from its own PCG64 stream
derive_rng(seed, i), that of np.random.default_rng([seed, i]), so results
do not depend on scheduling; an int seed is the stream of
default_rng(seed) (`rng_from_seed`, the one rule for a seed).  No
`Generator` is built for either, so no command-line run or int-seeded
call imports numpy.random: the `SeedSequence` hash (numpy's, after
O'Neill's seed_seq) runs as uint32 array arithmetic on a chunk of
entropy, and a `PCG64Stack` steps the streams' states in uint64 array
arithmetic, its `window` the one uniform kernel.  `standard_normals` is
numpy's ziggurat (Marsaglia and Tsang) on a stack, with the tables of
numpy's ziggurat_constants.h (BSD-3) in the package file ziggurat.bin.
No draw depends on amplitudes, only on the stream (a Born-rule draw is
the uniform r, not the outcome), so a run may take every trial's draws
first and evolve the states of a block of trials afterwards as stacked
arrays.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np


def rng_from_seed(seed):
    """The one rule for a seed: a source of uniform draws (anything with a
    random() method: a Generator or `Draws`) passes through unchanged,
    and an int >= 0 (Python or numpy) becomes the stream of
    default_rng(seed), stepped in Python ints.  Anything else is refused
    as default_rng refuses it: TypeError for a float, ValueError for a
    negative int."""
    if hasattr(seed, "random"):
        return seed
    return Draws(map(_uniform, seed_stack(seed).stream(0)))


class Draws:
    """Uniform draws taken in advance, handed out in order by random() as
    the stream they came from would hand them out."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
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


def _words(n) -> list[int]:
    """An int >= 0 as SeedSequence lays it out: 32-bit words, least
    significant first, at least one.  A float is refused with TypeError,
    a negative int with ValueError."""
    n = operator.index(n)
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


def _chunk_states(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """The seed rows of derive_rng(seed, i) for i in range(start, stop),
    hashed _HASH_CHUNK indices at a time, one (n, 4) table per chunk."""
    seed, start, stop = map(operator.index, (seed, start, stop))
    for a in range(start, stop, _HASH_CHUNK):
        yield _stream_states(seed, a, min(a + _HASH_CHUNK, stop))


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

    __slots__ = ("_hi", "_lo", "_inc_hi", "_inc_lo", "_owed")

    def __init__(self, states: np.ndarray):
        """The streams of (n, 4) uint64 seed rows, seeded (`_seeded`) but
        for the last seeding step, which every row still owes (`_owed`):
        the first `window` folds it into its jump, and anything else
        steps it first (`_pay`)."""
        self._hi, self._lo, self._inc_hi, self._inc_lo = _seeded(states)
        self._owed = 1

    def __len__(self) -> int:
        return len(self._hi)

    def _pay(self) -> None:
        """Step every row over the seeding step it still owes, if any."""
        if self._owed:
            hi, lo = _mul128(_MULT_HI, _MULT_LO, self._hi, self._lo)
            self._hi, self._lo = _add128(hi, lo, self._inc_hi, self._inc_lo)
            self._owed = 0

    def raw(self) -> np.ndarray:
        """The next 64-bit output of every row, as an (n,) uint64 array."""
        self._pay()
        hi, lo = _mul128(_MULT_HI, _MULT_LO, self._hi, self._lo)
        self._hi, self._lo = _add128(hi, lo, self._inc_hi, self._inc_lo)
        return _xsl_rr(self._hi, self._lo)

    def window(self, k: int, step: int) -> np.ndarray:
        """The next k random() doubles of every row, as an (n, k) table;
        every row then stands `step` <= k draws on.

        The columns come q at a time, q as wide as _WINDOW_BLOCK entries
        allow: the first q by `_jump_constants` in two 128-bit products
        (with the step the seeding owes folded in), each later block from
        the one before in one, as q steps are state * M**q + C_{q-1} * inc.
        """
        if k == 0:
            return np.empty((len(self), 0))
        q = -(-k // max(1, -(-k * len(self) // _WINDOW_BLOCK)))
        owed = self._owed
        ah, al, ch, cl = consts = _jump_constants(q + owed)
        ih, il = self._inc_hi[:, None], self._inc_lo[:, None]
        first = [c[:, owed:] for c in consts]
        hi, lo = _jump(first, self._hi[:, None], self._lo[:, None], ih, il)
        if k > q:
            mh, ml = ah[:, q - 1:q], al[:, q - 1:q]
            dh, dl = _mul128(ch[:, q - 1:q], cl[:, q - 1:q], ih, il)
        columns = []
        for start in range(0, k, q):
            if start:
                hi, lo = _add128(*_mul128(mh, ml, hi, lo), dh, dl)
            columns.append(_uniform(_xsl_rr(hi, lo)))
            if start < step <= start + q:
                self._hi, self._lo = hi[:, step - start - 1].copy(), lo[:, step - start - 1].copy()
                self._owed = 0
        return columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)[:, :k]

    def take(self, rows) -> "PCG64Stack":
        """The stack of some rows (an index array or a mask), a copy."""
        sub = object.__new__(PCG64Stack)
        for name in ("_hi", "_lo", "_inc_hi", "_inc_lo"):
            setattr(sub, name, getattr(self, name)[rows])
        sub._owed = self._owed
        return sub

    def stream(self, t: int) -> Iterator[int]:
        """Row t's 64-bit outputs one at a time, stepped in Python ints;
        row t of the stack steps with each value taken."""
        self._pay()
        state = int(self._hi[t]) << 64 | int(self._lo[t])
        inc = int(self._inc_hi[t]) << 64 | int(self._inc_lo[t])
        while True:
            state = state * _PCG_MULT + inc & _MASK128
            hi, lo = state >> 64, state & _MASK64
            self._hi[t], self._lo[t] = hi, lo
            yield _xsl_rr(hi, lo) & _MASK64

    def state(self, t: int) -> dict:
        """Row t's state as numpy's `bit_generator.state["state"]` holds it."""
        self._pay()
        return {
            "state": int(self._hi[t]) << 64 | int(self._lo[t]),
            "inc": int(self._inc_hi[t]) << 64 | int(self._inc_lo[t]),
        }


def trial_stacks(seed: int, start: int, stop: int) -> Iterator[PCG64Stack]:
    """The streams derive_rng(seed, i) for i in range(start, stop), as
    stacks of consecutive indices, in order, one per chunk of _HASH_CHUNK
    indices, so no more than one chunk's draws are held."""
    for states in _chunk_states(seed, start, stop):
        yield PCG64Stack(states)


def seed_stack(seed: int) -> PCG64Stack:
    """The one-row stack of default_rng(seed), for an int seed >= 0."""
    return PCG64Stack(_seed_states(np.array(_words(seed), np.uint32)[:, None]))


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
