"""Shared test oracles, all independent of the library's evolution path."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from loqsim import __version__
from loqsim.cluster import (
    PatternResult,
    PauliFrame,
    initial_cluster_state,
    measure_node,
    run_pattern,
)
from loqsim.detection import (
    IDEAL_DETECTOR,
    PROB_TOL,
    DetectionRecord,
    DetectorModel,
    HeraldPattern,
    measure_all,
    rng_from_seed,
)
from loqsim.encoding import LogicalState
from loqsim.fock import PhotonicState, make_basis_state
from loqsim.heralded import run_photonic
from loqsim.interferometer import (
    ModeUnitary,
    _raising_tables,
    apply,
    compose,
    compositions,
    permanent,
    sector_size,
)
from loqsim.runner import Report, _cluster_parts, _gate_for, lower_elements
from loqsim.teleport import (
    _CORRECTION_FOR,
    PauliCorrection,
    _cnot_resource,
    bell_measure_ideal,
    bell_pair,
    cnot_matrix,
)


# seeds of one, two and three 32-bit words
STREAM_SEEDS = (0, 1, 7919, 2**32 - 1, 2**32, 2**64 + 5)


def naive_permanent(matrix) -> complex:
    """Definition-level permanent: sum over all permutations, O(n!)."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def brute_force_apply(u: np.ndarray, state: PhotonicState) -> PhotonicState:
    """First-quantized evolution: expand every photon over all modes.

    Each input photon in mode i becomes sum_j U[j,i] a_j^dagger; the
    m^n-term expansion is collected by output occupation with the
    sqrt(n!) ladder factors.  Exponential and permanent-free, so it is an
    independent check of both `apply` and `ryser_apply`.
    """
    m = state.mode_count
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        photons = [i for i, c in enumerate(occ) for _ in range(c)]
        n = len(photons)
        in_norm = math.sqrt(np.prod([math.factorial(c) for c in occ]))
        for assignment in itertools.product(range(m), repeat=n):
            coeff = amp / in_norm
            for photon_mode, out_mode in zip(photons, assignment):
                coeff *= u[out_mode, photon_mode]
            target = [0] * m
            for j in assignment:
                target[j] += 1
            key = tuple(target)
            out[key] = out.get(key, 0j) + coeff
    final = {}
    for occ, amp in out.items():
        norm = math.sqrt(np.prod([math.factorial(c) for c in occ]))
        final[occ] = amp * norm
    return PhotonicState(m, final)


def _repeat_indices(occ) -> list[int]:
    out: list[int] = []
    for idx, count in enumerate(occ):
        out.extend([idx] * count)
    return out


def _sqrt_factorial_product(occ) -> float:
    prod = 1
    for c in occ:
        prod *= math.factorial(c)
    return math.sqrt(prod)


def ryser_apply(u: ModeUnitary, state: PhotonicState) -> PhotonicState:
    """One Ryser permanent per output occupation.

    The evolution loop that `apply` replaced with the creation-operator
    expansion: <T|U|S> = perm(U[S, T]) / sqrt(prod S_i! prod T_j!) for
    every target T of each sector, in lexicographic order.
    """
    if u.dim != state.mode_count:
        raise ValueError(
            f"unitary acts on {u.dim} modes, state has {state.mode_count}"
        )
    m = state.mode_count
    sectors: dict[int, list[tuple[tuple[int, ...], complex]]] = {}
    for occ, amp in state.terms.items():
        sectors.setdefault(sum(occ), []).append((occ, amp))

    out: dict[tuple[int, ...], complex] = {}
    for n, terms in sorted(sectors.items()):
        targets = list(compositions(n, m))
        target_rows = [_repeat_indices(t) for t in targets]
        target_norms = [_sqrt_factorial_product(t) for t in targets]
        for occ, amp in terms:
            cols = _repeat_indices(occ)
            u_cols = u.matrix[:, cols]
            scale = amp / _sqrt_factorial_product(occ)
            for t_occ, rows, t_norm in zip(targets, target_rows, target_norms):
                sub = u_cols[rows, :]
                contrib = scale * permanent(sub) / t_norm
                if contrib != 0j:
                    out[t_occ] = out.get(t_occ, 0j) + contrib
    return PhotonicState(m, out)


def per_mode_evolve_sector(u: ModeUnitary, photons: int, terms) -> np.ndarray:
    """A sector's amplitudes, creating each photon one output mode at a time.

    The loop that `evolve_sector` replaced with one scatter-add per block
    of output modes: for the c-th photon of input mode i, every output
    mode j adds U[j, i] * sqrt(S_j + 1) / sqrt(c) * v[S] to v'[S + e_j],
    in ascending j, over the same raising tables.
    """
    m = u.dim
    total = np.zeros(sector_size(photons, m), dtype=complex)
    for occ, amp in terms:
        v = np.array([amp])
        k = 0
        for col, count in enumerate(occ):
            for c in range(1, count + 1):
                occupied, up = _raising_tables(k, m)
                weights = u.matrix[:, col] / math.sqrt(c)
                roots = np.sqrt(np.arange(1, k + 2))
                raised = np.zeros(sector_size(k + 1, m), dtype=complex)
                for j in range(m):
                    raised[up[j]] += weights[j] * roots[occupied[j]] * v
                v = raised
                k += 1
        total += v
    return total


def _dense_element(element, total_modes: int) -> np.ndarray:
    """One element as a dense matrix, written out from the conventions in
    the `interferometer` module docstring."""
    u = np.eye(total_modes, dtype=complex)
    kind, modes, value = element.kind, element.modes, element.value
    if kind == "phase":
        u[modes[0], modes[0]] = np.exp(1j * value)
        return u
    if kind == "pbs":
        _ha, va, _hb, vb = modes
        u[va, va] = u[vb, vb] = 0.0
        u[va, vb] = u[vb, va] = 1.0
        return u
    if kind == "bs":
        t, r = math.sqrt(1.0 - value), math.sqrt(value)
        block = [[t, 1j * r], [1j * r, t]]
    elif kind == "hwp":
        c, s = math.cos(2 * value), math.sin(2 * value)
        block = [[c, s], [s, -c]]
    elif kind == "qwp":
        # R(theta) diag(1, i) R(theta)^T, multiplied out
        c, s = math.cos(value), math.sin(value)
        block = [[c * c + 1j * s * s, (1 - 1j) * c * s], [(1 - 1j) * c * s, s * s + 1j * c * c]]
    elif kind == "swap":
        block = [[0, 1], [1, 0]]
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    a, b = modes
    u[np.ix_([a, b], [a, b])] = block
    return u


def dense_compose(elements, total_modes: int) -> np.ndarray:
    """The product of dense element matrices, leftmost element applied first.

    The composition that `compose` replaced with updates of the rows each
    element touches: one m x m matrix per element, O(m^3) each.
    """
    u = np.eye(total_modes, dtype=complex)
    for e in elements:
        u = _dense_element(e, total_modes) @ u
    return u


def reference_groups(state: PhotonicState, modes) -> dict:
    """Terms grouped by their counts on the measured modes, one term at a
    time in the state's term order: {counts: {rest occupation: amplitude}}."""
    mode_set = set(modes)
    groups: dict = {}
    for occ, amp in state.terms.items():
        measured = tuple(occ[m] for m in modes)
        rest = tuple(n for i, n in enumerate(occ) if i not in mode_set)
        groups.setdefault(measured, {})[rest] = amp
    return groups


def _detection_factor(required: int, true_count: int, d: DetectorModel) -> float:
    """Chance that `true_count` photons read as `required`: binomial
    thinning at efficiency eta, counted or only clicked."""
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


def reference_herald(
    state: PhotonicState, pattern: HeraldPattern, detector: DetectorModel = IDEAL_DETECTOR
) -> DetectionRecord:
    """Herald by keyed groups of whole terms.

    The per-term herald that `HeraldGroups` replaced with arrays: every
    group's weight is a Python sum over its terms, the probability sums
    weight x detection factor over the groups in sorted count order, and
    the residual is the heaviest loss-free group, renormalized.
    """
    modes = pattern.modes
    if any(m >= state.mode_count for m in modes):
        raise ValueError("herald pattern measures a mode the state does not have")
    required = tuple(c for _, c in pattern.counts)

    def matches(measured):
        if detector.number_resolving:
            return measured == required
        return all((t == 0) == (r == 0) for t, r in zip(measured, required))

    probability = 0.0
    best_group, best_weight, best_counts = None, -1.0, None
    for measured, terms in sorted(reference_groups(state, modes).items()):
        weight = sum(abs(a) ** 2 for a in terms.values())
        factor = 1.0
        for req, true in zip(required, measured):
            factor *= _detection_factor(req, true, detector)
            if factor == 0.0:
                break
        probability += weight * factor
        if matches(measured) and weight > best_weight:
            best_group, best_weight, best_counts = terms, weight, measured

    rest_modes = state.mode_count - len(modes)
    if probability <= PROB_TOL or best_group is None:
        residual = PhotonicState(rest_modes, {})
        probability = max(probability, 0.0)
    else:
        norm = math.sqrt(best_weight)
        residual = PhotonicState(rest_modes, {o: a / norm for o, a in best_group.items()})
    if detector.number_resolving:
        outcome = pattern.counts
    else:
        clicks = best_counts if best_counts is not None else required
        outcome = tuple((m, 1 if c > 0 else 0) for m, c in zip(modes, clicks))
    return DetectionRecord(outcome, probability, residual)


def mesh_spec(rng, modes: int, occ) -> str:
    """Spec text of a brick-wall mesh of `modes` layers: a beamsplitter and
    a phase on each neighbouring pair, values drawn by `rng.uniform`."""
    lines = [f"modes {modes}", "input " + " ".join(map(str, occ))]
    for layer in range(modes):
        for a in range(layer % 2, modes - 1, 2):
            lines.append(f"bs {a} {a + 1} {rng.uniform(0.05, 0.95):.9g}")
            lines.append(f"phase {a} {rng.uniform(0.0, 360.0):.9g}")
    return "\n".join(lines) + "\n"


def reference_csv_text(report) -> str:
    """A report's CSV through the `csv` module, one cell at a time.

    The writer `Report.to_csv_text` replaced with column-wise formatting:
    floats (numpy ones too) to 17 significant digits, numpy integers as
    Python ints, everything else as the csv module writes it.
    """
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        if isinstance(v, (np.integer,)):
            return str(int(v))
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([cell(v) for v in row])
    writer.writerow([])
    writer.writerow(["metric", "value"])
    for key, value in report.iter_aggregate():
        writer.writerow([key, cell(value)])
    return buf.getvalue()


def reference_json_text(report) -> str:
    """A report's JSON through `json.dumps(payload, indent=2)`.

    The writer `Report.to_json_text` replaced with column-wise formatting:
    numpy numbers in the rows and aggregate become Python numbers, and
    json's own encoder writes the whole payload at once.
    """
    def cell(v):
        if isinstance(v, np.integer):
            return int(v)
        if isinstance(v, np.floating):
            return float(v)
        return v

    payload = {
        "version": __version__,
        "seed": report.seed,
        "mode": report.mode,
        "columns": report.columns,
        "rows": [[cell(v) for v in row] for row in report.rows],
        "aggregate": {k: cell(v) for k, v in report.iter_aggregate()},
    }
    return json.dumps(payload, indent=2) + "\n"


def monolithic_run(graph, schedule, seed):
    """Build every node and bond first, then run the schedule on it.

    The full-build run loop that `run_pattern` replaced with just-in-time
    growth: the dense state spans all declared nodes from the start, so a
    grown run matching it shows that growth order changes nothing.
    """
    rng = rng_from_seed(seed)
    state = initial_cluster_state(graph)
    frame = PauliFrame()
    outcomes: dict[int, int] = {}
    transcript = []
    for instr in schedule:
        result = measure_node(state, instr, outcomes, frame, rng)
        state, frame = result.state, result.frame
        outcomes[instr.node] = result.outcome
        label = "z" if instr.basis == "z" else f"xy:{result.effective_angle:.12g}"
        transcript.append((instr.node, label, result.outcome))
    for node, (x, z) in frame.items():
        state = state.with_pauli(node, x, z)
    return PatternResult(state.sorted_logical(), tuple(transcript), frame)


def assert_matches_monolithic(result, graph, schedule, seed, tol=1e-10):
    """Same transcript, same final frame, same output as the full build."""
    mono = monolithic_run(graph, schedule, seed)
    assert result.transcript == mono.transcript
    assert result.frame == mono.frame
    assert result.output.overlap(mono.output) >= 1 - tol


def _random_qubit(rng) -> LogicalState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return LogicalState._trusted(v / np.linalg.norm(v), 1)


def reference_cnot_draws(rng, force_attempts=None, force_bells=(None, None)):
    """The one-draw loop that `cnot_draws` batches: one `rng.random()` per
    attempt until one falls below the herald probability, then one per
    Bell measurement that is not forced."""
    if force_attempts is not None:
        attempts = int(force_attempts)
    else:
        p_success, _gate_action = _cnot_resource()
        attempts = 1
        while rng.random() >= p_success:
            attempts += 1
    return attempts, tuple(rng.random() if f is None else None for f in force_bells)


def serial_teleported_cnot(seed: int, trials: int):
    """One teleported CNOT at a time, on LogicalState objects.

    The per-trial loop that the batched `teleport_cnot_report` replaced:
    trial i draws its random inputs, its attempts and its two Bell
    measurements from default_rng([seed, i]) as it goes, and evolves its
    own 6-qubit state through `tensor`, `apply`, `bell_measure_ideal` and
    `PauliCorrection.apply`.  Returns the report rows [i, attempts, pairs,
    overlap] and, per trial, the (control, target, Bell labels) it used.
    """
    p_success, gate_action = _cnot_resource()
    cnot = cnot_matrix()
    rows, used = [], []
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        c = _random_qubit(rng)
        t = _random_qubit(rng)
        attempts = 1
        while rng.random() >= p_success:
            attempts += 1
        # qubits: 0 = control in, (1, 2) = pair A, 3 = target in, (4, 5) = pair B
        state = c.tensor(bell_pair()).tensor(t).tensor(bell_pair())
        state = state.apply(gate_action, (2, 5))
        label_c, state = bell_measure_ideal(state, (0, 1), rng)
        label_t, state = bell_measure_ideal(state, (1, 2), rng)
        xc, zc = _CORRECTION_FOR[label_c]
        xt, zt = _CORRECTION_FOR[label_t]
        state = PauliCorrection(xc, zc ^ zt).apply(state, 0)
        state = PauliCorrection(xc ^ xt, zt).apply(state, 1)
        overlap = state.overlap(LogicalState(cnot @ c.tensor(t).amps))
        rows.append([i, attempts, 2 * attempts, overlap])
        used.append((c.amps, t.amps, (label_c, label_t)))
    return rows, used


def serial_trials_report(spec, seed: int, trials: int) -> Report:
    """The `trials` report of a cluster, gate or sampling spec, one trial
    at a time.

    The per-trial loop that block-drawn uniforms replaced: trial i draws
    from default_rng([seed, i]) as it goes.  A cluster trial runs
    `run_pattern` on that Generator; a gate trial succeeds when its one
    draw falls below the herald probability; a sampling trial picks its
    outcome with `measure_all` on the evolved `PhotonicState`, and
    matches when the outcome holds the herald's counts.
    """
    rngs = [np.random.default_rng([seed, i]) for i in range(trials)]
    if spec.cluster is not None:
        graph, schedule = _cluster_parts(spec)
        rows = [
            [i, "".join(str(o) for _n, _b, o in run_pattern(graph, schedule, rng).transcript)]
            for i, rng in enumerate(rngs)
        ]
        return Report("monte-carlo", ["trial", "outcomes"], rows, [("trials", trials)], seed)

    u = compose(lower_elements(spec.elements), spec.modes)
    state = apply(u, make_basis_state(spec.input_occupations))
    if spec.gate is not None:
        p = run_photonic(_gate_for(spec), state, DetectorModel()).probability
        rows = [[i, int(rng.random() < p)] for i, rng in enumerate(rngs)]
        agg = [
            ("herald_probability", p),
            ("success_rate", sum(row[1] for row in rows) / trials),
            ("trials", trials),
        ]
        return Report("monte-carlo", ["trial", "success"], rows, agg, seed)

    herald = spec.herald or ()
    rows = []
    for i, rng in enumerate(rngs):
        occ, _p = measure_all(state, rng)
        row = [i, " ".join(map(str, occ))]
        if herald:
            row.append(int(all(occ[m] == c for m, c in herald)))
        rows.append(row)
    agg = [("trials", trials)]
    if herald:
        agg.append(("match_rate", sum(row[2] for row in rows) / trials))
    columns = ["trial", "outcome"] + (["matched"] if herald else [])
    return Report("monte-carlo", columns, rows, agg, seed)


def _bit(index: int, q: int, n: int) -> int:
    """Bit of qubit q in an n-qubit basis index; qubit 0 is the most significant."""
    return (index >> (n - 1 - q)) & 1


def full_operator(matrix, qubits, n: int) -> np.ndarray:
    """The 2**n x 2**n operator of a k-qubit matrix on the listed qubits.

    Built entry by entry from basis-index bits (the first listed qubit is
    the matrix index's most significant bit), with no array reordering,
    so it shares nothing with the library's axes-first reorder or its
    flip/sign kernel.
    """
    m = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        sub_col = sum(_bit(col, q, n) << (k - 1 - j) for j, q in enumerate(qubits))
        for sub_row in range(1 << k):
            row = col
            for j, q in enumerate(qubits):
                if _bit(row, q, n) != _bit(sub_row, j, k):
                    row ^= 1 << (n - 1 - q)
            out[row, col] += m[sub_row, sub_col]
    return out


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_logical_amps(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
