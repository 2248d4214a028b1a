"""Multimode bosonic states in the photon-number (Fock) basis.

A basis state is an occupation tuple (photons per optical mode).  A general
pure state is a sparse complex superposition over such tuples, stored as a
dict.  All objects are immutable values after construction: operations
return new states, never mutate, so everything here is safe to share
between threads.

Conventions:
  * amplitudes are double-precision complex numbers,
  * terms with |amplitude| <= PRUNE_THRESHOLD are dropped,
  * serialized term order is lexicographic in the occupation tuple, so
    output files are reproducible.

Post-selected states are allowed to carry norm < 1; the squared norm of
such a state is the probability of the herald that produced it.

Input is validated at the boundary: the constructor, `make_basis_state`
and `from_json` check every occupation (non-negative, one entry per mode).
States the engine derives from valid ones are built by `_trusted`, the
same core (complex amplitudes, pruning) without those checks.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Mapping

PRUNE_THRESHOLD = 1e-12

Occupation = tuple[int, ...]


def _check_occupation(occ: Iterable[int], mode_count: int) -> Occupation:
    occ = tuple(int(n) for n in occ)
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation numbers must be >= 0, got {occ}")
    if len(occ) != mode_count:
        raise ValueError(f"occupation {occ} has {len(occ)} modes, expected {mode_count}")
    return occ


def _pruned(terms: Mapping[Occupation, complex]) -> dict[Occupation, complex]:
    """Terms as complex amplitudes, those at or below PRUNE_THRESHOLD dropped."""
    return {occ: c for occ, a in terms.items() if abs(c := complex(a)) > PRUNE_THRESHOLD}


class PhotonicState:
    """Sparse superposition of Fock basis states on a fixed set of modes."""

    __slots__ = ("_terms", "_mode_count")

    def __init__(self, mode_count: int, terms: Mapping[Occupation, complex]):
        if mode_count < 0:
            raise ValueError("mode_count must be >= 0")
        self._mode_count = int(mode_count)
        self._terms = _pruned(
            {_check_occupation(o, self._mode_count): a for o, a in terms.items()}
        )

    @classmethod
    def _trusted(
        cls, mode_count: int, terms: Mapping[Occupation, complex]
    ) -> "PhotonicState":
        """Constructor for engine outputs: every key is already a tuple of
        `mode_count` non-negative ints."""
        state = cls.__new__(cls)
        state._mode_count = mode_count
        state._terms = _pruned(terms)
        return state

    @property
    def mode_count(self) -> int:
        return self._mode_count

    @property
    def terms(self) -> dict[Occupation, complex]:
        """Copy of the term map; the state itself stays immutable."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Occupation, complex]]:
        """Terms in lexicographic occupation order."""
        return iter(sorted(self._terms.items()))

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self._terms.get(tuple(int(n) for n in occ), 0j)

    def term_count(self) -> int:
        return len(self._terms)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def is_zero(self) -> bool:
        return not self._terms

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState._trusted(
            self._mode_count, {o: a * factor for o, a in self._terms.items()}
        )

    def normalized(self) -> "PhotonicState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhotonicState):
            return NotImplemented
        return self._mode_count == other._mode_count and self._terms == other._terms

    def __repr__(self) -> str:
        parts = [f"({a:.6g})|{','.join(map(str, o))}>" for o, a in self.items()]
        return " + ".join(parts) if parts else f"0 (on {self._mode_count} modes)"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "modes": self._mode_count,
            "terms": [
                {"occ": list(occ), "re": amp.real, "im": amp.imag}
                for occ, amp in self.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "PhotonicState":
        terms = {
            tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]
        }
        return PhotonicState(data["modes"], terms)

    @staticmethod
    def from_json(text: str) -> "PhotonicState":
        return PhotonicState.from_json_dict(json.loads(text))


def make_basis_state(occupations: Iterable[int]) -> PhotonicState:
    """Single Fock basis state |n0, n1, ...> with amplitude 1."""
    occ = tuple(occupations)
    return PhotonicState(len(occ), {occ: 1.0 + 0j})


def vacuum(mode_count: int) -> PhotonicState:
    return make_basis_state([0] * mode_count)


def superpose(
    a: PhotonicState, ca: complex, b: PhotonicState, cb: complex
) -> PhotonicState:
    """Termwise linear combination ca*a + cb*b."""
    if a.mode_count != b.mode_count:
        raise ValueError(
            f"mode_count mismatch: {a.mode_count} vs {b.mode_count}"
        )
    out: dict[Occupation, complex] = {}
    for occ, amp in a._terms.items():
        out[occ] = out.get(occ, 0j) + ca * amp
    for occ, amp in b._terms.items():
        out[occ] = out.get(occ, 0j) + cb * amp
    return PhotonicState._trusted(a.mode_count, out)


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b> = sum conj(a[t]) * b[t]."""
    if a.mode_count != b.mode_count:
        raise ValueError(
            f"mode_count mismatch: {a.mode_count} vs {b.mode_count}"
        )
    small, large = (a._terms, b._terms) if len(a._terms) <= len(b._terms) else (b._terms, a._terms)
    acc = 0j
    for occ, amp in small.items():
        other = large.get(occ)
        if other is None:
            continue
        if small is a._terms:
            acc += amp.conjugate() * other
        else:
            acc += other.conjugate() * amp
    return acc


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Tensor product; b's modes are appended after a's."""
    out: dict[Occupation, complex] = {}
    for occ_a, amp_a in a._terms.items():
        for occ_b, amp_b in b._terms.items():
            out[occ_a + occ_b] = amp_a * amp_b
    return PhotonicState._trusted(a.mode_count + b.mode_count, out)


def total_photon_number(s: PhotonicState) -> int | None:
    """Common photon number of all terms, or None for a mixed-sector state."""
    numbers = {sum(occ) for occ in s._terms}
    if len(numbers) == 1:
        return numbers.pop()
    return None
