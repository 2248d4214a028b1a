"""Output checks that hold for any seed.

The oracles here share no code with loqsim: mode matrices are rebuilt
from the element conventions the DSL documents, transition amplitudes
come from a naive permanent expansion over permutations, and cluster
outputs come from the circuit-model rotation.  Statistical checks allow
five standard deviations.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import random

import numpy as np

from workloads import Case

EXACT_TOL = 1e-10
CNOT_P = 1.0 / 16.0


class CheckFailed(Exception):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_report(text: str) -> tuple[list[str], list[list], dict]:
    """(columns, rows, aggregate) from a JSON or CSV report."""
    if text.startswith("{"):
        data = json.loads(text)
        return data["columns"], data["rows"], data["aggregate"]
    lines = list(csv.reader(io.StringIO(text)))
    blank = lines.index([])
    aggregate = {k: v for k, v in lines[blank + 2:]}
    return lines[0], lines[1:blank], aggregate


# ---------------------------------------------------------------------------
# independent photonic oracle
# ---------------------------------------------------------------------------

def mode_matrix(modes: int, elements: list[tuple]) -> np.ndarray:
    """Product of element matrices; bs block [[t, i r], [i r, t]]."""
    u = np.eye(modes, dtype=complex)
    for e in elements:
        g = np.eye(modes, dtype=complex)
        if e[0] == "bs":
            _, a, b, refl = e
            t, r = math.sqrt(1.0 - refl), math.sqrt(refl)
            g[a, a] = g[b, b] = t
            g[a, b] = g[b, a] = 1j * r
        else:
            _, m, deg = e
            g[m, m] = cmath.exp(1j * math.radians(deg))
        u = g @ u
    return u


def naive_permanent(rows: list[list[complex]]) -> complex:
    n = len(rows)
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def _repeat(occ) -> list[int]:
    return [m for m, c in enumerate(occ) for _ in range(c)]


def amplitude(u: np.ndarray, source, target) -> complex:
    """<target| U |source> = perm(U[target rows, source cols]) / norms."""
    rows, cols = _repeat(target), _repeat(source)
    sub = [[complex(u[r, c]) for c in cols] for r in rows]
    norm = math.prod(math.factorial(c) for c in source) * math.prod(
        math.factorial(c) for c in target
    )
    return naive_permanent(sub) / math.sqrt(norm)


def occupations(photons: int, modes: int):
    if modes == 1:
        yield (photons,)
        return
    for first in range(photons + 1):
        for rest in occupations(photons - first, modes - 1):
            yield (first,) + rest


def herald_probability(u, source, herald: list[tuple[int, int]]) -> float:
    """Probability that the herald modes show exactly the given counts."""
    modes = len(source)
    fixed = dict(herald)
    free = [m for m in range(modes) if m not in fixed]
    left = sum(source) - sum(fixed.values())
    if left < 0:
        return 0.0
    total = 0.0
    for part in occupations(left, len(free)):
        target = [0] * modes
        for m, c in fixed.items():
            target[m] = c
        for m, c in zip(free, part):
            target[m] = c
        total += abs(amplitude(u, source, target)) ** 2
    return total


def _within_sigma(observed: float, p: float, n: int, what: str) -> None:
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    need(abs(observed - p) <= 5.0 * sigma + 1e-12,
         f"{what}: {observed} vs exact {p} (5 sigma = {5 * sigma:.3g})")


def _state_amps(json_text: str) -> np.ndarray:
    data = json.loads(json_text)
    return np.array([complex(re, im) for re, im in data["amps"]])


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

def check_fock(case: Case, text: str) -> None:
    columns, rows, agg = parse_report(text)
    need(columns == ["occupation", "re", "im", "probability"], "fock columns")
    modes, source = case.info["modes"], case.info["input"]
    photons = sum(source)
    amps = {}
    for row in rows:
        occ = tuple(int(x) for x in str(row[0]).split())
        need(len(occ) == modes, f"row {row[0]!r} has the wrong mode count")
        need(sum(occ) == photons, f"row {row[0]!r} does not conserve photons")
        amps[occ] = complex(float(row[1]), float(row[2]))
    norm2 = sum(abs(a) ** 2 for a in amps.values())
    need(abs(norm2 - 1.0) <= EXACT_TOL, f"norm^2 = {norm2!r}")
    need(abs(float(agg["norm_squared"]) - 1.0) <= EXACT_TOL, "norm_squared aggregate")
    if case.info["elements"] is None:
        return
    u = mode_matrix(modes, case.info["elements"])
    rng = random.Random(case.id)
    targets = rng.sample(sorted(amps), min(3, len(amps)))
    targets.append(tuple(rng.choice(list(occupations(photons, modes)))))
    for target in targets:
        want = amplitude(u, source, target)
        got = amps.get(target, 0j)
        need(abs(got - want) <= EXACT_TOL, f"amplitude {target}: {got} vs {want}")


def _cnot_expected(bits, control: int) -> tuple[int, int]:
    q0, q1 = bits
    return (q0, q1 ^ q0) if control == 0 else (q0 ^ q1, q1)


def check_cnot(case: Case, text: str) -> None:
    columns, rows, agg = parse_report(text)
    need(columns == ["input", "success_probability", "leakage", "logical_output"],
         "cnot columns")
    bits, control = tuple(case.info["bits"]), case.info["control"]
    need(rows[0][0] == f"{bits[0]}{bits[1]}", f"input column {rows[0][0]!r}")
    p = float(agg["herald_probability"])
    need(abs(p - CNOT_P) <= 1e-9, f"herald probability {p!r}")
    amps = _state_amps(rows[0][3])
    out = _cnot_expected(bits, control)
    overlap = abs(amps[2 * out[0] + out[1]])
    need(abs(np.linalg.norm(amps) - 1.0) <= EXACT_TOL, "logical output not normalised")
    need(overlap >= 1.0 - EXACT_TOL, f"overlap with CNOT output {float(overlap)!r}")


def check_cnot_table(case: Case, text: str) -> None:
    columns, rows, _agg = parse_report(text)
    need([r[0] for r in rows] == ["00", "01", "10", "11"], "cnot-herald inputs")
    for bits, p, _leak, overlap in rows:
        need(abs(p - CNOT_P) <= 1e-9, f"input {bits}: probability {p!r}")
        need(overlap >= 1.0 - EXACT_TOL, f"input {bits}: overlap {overlap!r}")


def check_r_sweep(case: Case, text: str) -> None:
    columns, rows, _agg = parse_report(text)
    need(columns == ["reflectivity", "herald_probability"], "r sweep columns")
    info = case.info
    for refl, p in rows:
        elements, k = [], 0
        for e in info["elements"]:
            if e[0] == "bs":
                if k == info["bs_index"]:
                    e = ("bs", e[1], e[2], refl)
                k += 1
            elements.append(e)
        want = herald_probability(mode_matrix(info["modes"], elements),
                                  info["input"], info["herald"])
        need(abs(p - want) <= EXACT_TOL, f"R={refl}: {p!r} vs {want!r}")


def check_eta_sweep(case: Case, text: str) -> None:
    columns, rows, _agg = parse_report(text)
    need(columns == ["eta", "herald_probability"], "eta sweep columns")
    refl = case.info["reflectivity"]
    reach = (1.0 - refl) if case.info["mode"] == 0 else refl
    for eta, p in rows:
        eta, p = float(eta), float(p)
        need(abs(p - eta * reach) <= 1e-12, f"eta={eta}: {p!r} vs {eta * reach!r}")


def check_hom_null(case: Case, text: str) -> None:
    _columns, rows, _agg = parse_report(text)
    need(abs(rows[0][0]) <= 1e-12, f"HOM coincidence {rows[0][0]!r}")


def check_hom_reflectivity(case: Case, text: str) -> None:
    _columns, rows, _agg = parse_report(text)
    need(len(rows) == 21, "hom_reflectivity row count")
    for refl, p in rows:
        need(abs(p - (1.0 - 2.0 * refl) ** 2) <= 1e-12, f"R={refl}: {p!r}")


def check_hom_overlap(case: Case, text: str) -> None:
    _columns, rows, _agg = parse_report(text)
    need(len(rows) == 11, "hom_sweep row count")
    for x, p in rows:
        x, p = float(x), float(p)
        need(abs(p - (1.0 - x * x) / 2.0) <= 1e-12, f"overlap {x}: {p!r}")


def check_certain_herald(case: Case, text: str) -> None:
    _columns, rows, _agg = parse_report(text)
    need(abs(rows[0][0] - 1.0) <= 1e-12, f"herald probability {rows[0][0]!r}")


def check_teleport(case: Case, text: str) -> None:
    _columns, rows, agg = parse_report(text)
    trials = case.info["trials"]
    need(len(rows) == trials and agg["trials"] == trials, "teleport trial count")
    for i, attempts, pairs, _overlap in rows:
        need(pairs == 2 * attempts and attempts >= 1, f"trial {i}: {attempts}/{pairs}")
    need(agg["min_overlap"] >= 1.0 - EXACT_TOL, f"min_overlap {agg['min_overlap']!r}")
    # pairs = 2 * Geometric(1/16): mean 32, sd 2 * sqrt(15 * 16)
    sigma = 2.0 * math.sqrt((1.0 - CNOT_P) / CNOT_P**2) / math.sqrt(trials)
    need(abs(agg["mean_pairs"] - 32.0) <= 5.0 * sigma,
         f"mean_pairs {agg['mean_pairs']!r} (5 sigma = {5 * sigma:.3g})")


def check_sampling(case: Case, text: str) -> None:
    columns, rows, agg = parse_report(text)
    info = case.info
    trials = info["trials"]
    need(len(rows) == trials and int(agg["trials"]) == trials, "sampling trial count")
    modes, source, elements = info["modes"], info["input"], info["elements"]
    photons = sum(source)
    counts: dict[tuple, int] = {}
    for row in rows:
        occ = tuple(int(x) for x in row[1].split())
        need(len(occ) == modes and sum(occ) == photons, f"outcome {row[1]!r}")
        counts[occ] = counts.get(occ, 0) + 1
    u = mode_matrix(modes, elements)
    herald = info.get("herald")
    if herald is None:
        for occ in occupations(photons, modes):
            p = abs(amplitude(u, source, occ)) ** 2
            _within_sigma(counts.get(occ, 0) / trials, p, trials, f"P{occ}")
        return
    need(columns == ["trial", "outcome", "matched"], "sampling columns")
    for row in rows:
        occ = tuple(int(x) for x in row[1].split())
        want = int(all(occ[m] == c for m, c in herald))
        need(int(row[2]) == want, f"trial {row[0]}: matched flag")
    p = herald_probability(u, source, herald)
    _within_sigma(float(agg["match_rate"]), p, trials, "match_rate")


def check_cnot_trials(case: Case, text: str) -> None:
    _columns, rows, agg = parse_report(text)
    trials = case.info["trials"]
    need(len(rows) == trials and int(agg["trials"]) == trials, "cnot trial count")
    need(abs(float(agg["herald_probability"]) - CNOT_P) <= 1e-9, "herald probability")
    hits = sum(int(r[1]) for r in rows)
    need(abs(hits / trials - float(agg["success_rate"])) <= 1e-15, "success_rate")
    _within_sigma(hits / trials, CNOT_P, trials, "success_rate")


def _hz(angle: float) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return h @ np.diag([1.0, cmath.exp(1j * angle)])


def check_cluster(case: Case, text: str) -> None:
    columns, rows, agg = parse_report(text)
    need(columns == ["node", "basis", "outcome"], "cluster columns")
    need(len(rows) == case.info["measures"], "transcript length")
    need(all(r[2] in (0, 1) for r in rows), "outcomes are bits")
    amps = _state_amps(agg["output_state"])
    need(len(amps) == 1 << case.info["outputs"], "output qubit count")
    need(abs(np.linalg.norm(amps) - 1.0) <= EXACT_TOL, "output not normalised")
    if case.info["angles"] is None:
        return
    v = np.array([1, 1], dtype=complex) / math.sqrt(2)
    for a in case.info["angles"]:
        v = _hz(math.radians(a)) @ v
    overlap = abs(np.vdot(v, amps))
    need(overlap >= 1.0 - EXACT_TOL, f"overlap with circuit rotation {float(overlap)!r}")


def check_cluster_mc(case: Case, text: str) -> None:
    _columns, rows, _agg = parse_report(text)
    need(len(rows) == case.info["trials"], "cluster trial count")
    for i, bits in rows:
        need(len(bits) == case.info["measures"] and set(bits) <= {"0", "1"},
             f"trial {i}: outcomes {bits!r}")


_CHECKS = {
    "fock": check_fock,
    "cnot": check_cnot,
    "cnot_table": check_cnot_table,
    "r_sweep": check_r_sweep,
    "eta_sweep": check_eta_sweep,
    "hom_null": check_hom_null,
    "hom_reflectivity": check_hom_reflectivity,
    "hom_overlap": check_hom_overlap,
    "certain_herald": check_certain_herald,
    "teleport": check_teleport,
    "sampling": check_sampling,
    "cnot_trials": check_cnot_trials,
    "cluster": check_cluster,
    "cluster_mc": check_cluster_mc,
}


def check(case: Case, text: str) -> str | None:
    """None when the report passes, else the reason it fails."""
    try:
        _CHECKS[case.kind](case, text)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
