"""Execute experiment specs and emit deterministic reports.

A report is a column/row table plus an ordered aggregate section; both
the JSON and CSV encodings carry the same values, the seed, and the
artifact version.  CSV uses RFC-4180 quoting, '.' decimals, and 17
significant digits so doubles round-trip losslessly; identical spec and
seed give byte-identical output.  Both writers are the package's own:
each formats a block of rows one column at a time, a column of one type
in one `map` (`int.__repr__`, `float.__repr__`, or for JSON
`encode_basestring_ascii`).  The CSV writer writes the bytes the `csv`
module writes with lineterminator "\n", and the JSON writer those of
`json.dumps(payload, indent=2)`, its head and aggregate through the same
cell formatter as the rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .cluster import ClusterGraph, MeasurementInstruction, run_pattern, transcript_json
from .detection import (
    DetectorModel,
    Draws,
    HeraldGroups,
    HeraldPattern,
    born_picker,
    standard_normals,
    trial_stacks,
    trial_uniforms,
)
from .dsl import ElementSpec, ExperimentSpec, SpecError
from .encoding import LogicalState, QubitEncoding, decode, outer
from .fock import PRUNE_THRESHOLD, PhotonicState, make_basis_state, running_total
from .heralded import HeraldedGate, klm_cnot, run_photonic
from .interferometer import (
    SECTOR_CAP,
    ModeUnitary,
    apply,
    beamsplitter,
    compose,
    evolve_sector,
    hom_coincidence,
    hwp,
    pbs,
    phase,
    qwp,
    swap,
)
from .teleport import cnot_draws, cnot_matrix, teleported_cnot_block


@dataclass
class Report:
    """A report; every row holds one cell per column."""

    mode: str
    columns: list[str]
    rows: list[list]
    aggregate: list[tuple[str, object]]
    seed: int

    def to_json_text(self) -> str:
        aggregate = dict(self.iter_aggregate())  # a repeated key keeps its first place
        return "".join([
            '{\n  "version": ', _json_cell(__version__, "  "),
            ',\n  "seed": ', _json_cell(self.seed, "  "),
            ',\n  "mode": ', _json_cell(self.mode, "  "),
            ',\n  "columns": ', _json_list([_json_cell(c, "    ") for c in self.columns]),
            ',\n  "rows": ', _json_rows(self.rows),
            ',\n  "aggregate": {\n    ',
            ",\n    ".join(
                f"{_json_key(k)}: {_json_cell(v, '    ')}" for k, v in aggregate.items()
            ),
            "\n  }\n}\n",
        ])

    def to_csv_text(self) -> str:
        aggregate = [("metric", "value"), *self.iter_aggregate()]
        return "".join([
            *_csv_blocks([self.columns]), *_csv_blocks(self.rows), "\n",
            *_csv_blocks(aggregate),
        ])

    def iter_aggregate(self):
        yield "version", __version__
        yield "seed", self.seed
        yield "mode", self.mode
        yield from self.aggregate


def _json_cell(v, pad: str) -> str:
    """One value as json.dumps(indent=2) writes it on a line indented by
    `pad`: numpy numbers as Python numbers, a nested list or dict on
    lines of its own."""
    kind = type(v)
    if kind is int:
        return int.__repr__(v)
    if kind is float and math.isfinite(v):
        return float.__repr__(v)
    if kind is str:
        return encode_basestring_ascii(v)
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v, indent=2).replace("\n", "\n" + pad)
    if isinstance(v, np.integer):
        v = int(v)
    elif isinstance(v, np.floating):
        v = float(v)
    return json.dumps(v)  # bool, None, NaN and +-Infinity; others are refused


def _json_key(k) -> str:
    """A dict key as json writes it: an int, float, bool or None key as
    its JSON text, quoted; any other type but str is refused."""
    return encode_basestring_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4]


def _json_list(texts: list[str]) -> str:
    """A list at depth 1 of items already formatted for depth 2."""
    return "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"


def _json_column(cells: tuple):
    """A column's cells formatted at depth 3 (inside a row of "rows")."""
    kinds = set(map(type, cells))
    if kinds == {int}:
        return map(int.__repr__, cells)
    if kinds == {str}:
        return map(encode_basestring_ascii, cells)
    if kinds == {float} and all(map(math.isfinite, cells)):
        return map(float.__repr__, cells)
    return [_json_cell(v, "      ") for v in cells]


# rows (or occupation labels) formatted at once; 2048 raised the peak
# memory of a 4000-trial report by 0.5 MiB and was no faster
_FORMAT_BLOCK = 512


def _csv_blocks(rows):
    """CSV lines of rows of one width, one text per block of _FORMAT_BLOCK
    rows; each column of a block is formatted in one pass."""
    for start in range(0, len(rows), _FORMAT_BLOCK):
        block = rows[start:start + _FORMAT_BLOCK]
        columns = [_csv_column(cells) for cells in zip(*block, strict=True)]
        if len(columns) == 1:  # csv writes a row of one empty field as ""
            columns[0] = [cell or '""' for cell in columns[0]]
        lines = map(",".join, zip(*columns)) if columns else [""] * len(block)
        yield "\n".join(lines) + "\n"


def _json_rows(rows) -> str:
    """The "rows" list at depth 1: each row a list of one width, one text
    per block of _FORMAT_BLOCK rows; each column of a block is formatted
    in one pass."""
    if not rows:
        return "[]"
    blocks = []
    for start in range(0, len(rows), _FORMAT_BLOCK):
        block = rows[start:start + _FORMAT_BLOCK]
        columns = [_json_column(cells) for cells in zip(*block, strict=True)]
        if columns:
            lines = map(",\n      ".join, zip(*columns))
            blocks.append("    [\n      " + "\n    ],\n    [\n      ".join(lines) + "\n    ]")
        else:
            blocks.append(",\n".join(["    []"] * len(block)))
    return "[\n" + ",\n".join(blocks) + "\n  ]"


def _csv_column(cells: tuple) -> list[str]:
    kinds = set(map(type, cells))
    if kinds == {float}:
        return [format(v, ".17g") for v in cells]
    if kinds == {int} or (kinds == {str} and not _csv_special("".join(cells))):
        return list(map(str, cells))
    return list(map(_csv_cell, cells))


def _csv_cell(v) -> str:
    """One cell as the csv module writes it after floats are given 17
    significant digits and numpy numbers are made Python numbers."""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, np.integer):
        return str(int(v))
    text = "" if v is None else v if isinstance(v, str) else str(v)
    if _csv_special(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_special(text: str) -> bool:
    """True when the text needs quotes: it holds the delimiter, the quote
    character or the line terminator (the csv module's minimal-quoting
    rule as Python 3.11 applies it; a lone "\\r" is not quoted)."""
    return "," in text or '"' in text or "\n" in text


def format_report(report: Report, fmt: str) -> str:
    if fmt == "csv":
        return report.to_csv_text()
    return report.to_json_text()


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

_ANGLED = {"phase": phase, "hwp": hwp, "qwp": qwp}  # (index, degrees)


def lower_elements(specs: tuple[ElementSpec, ...]):
    elements = []
    for e in specs:
        if e.kind == "bs":
            elements.append(beamsplitter(*e.params))
        elif e.kind == "pbs":
            elements.append(pbs(*e.params))
        elif e.kind in _ANGLED:
            index, deg = e.params
            elements.append(_ANGLED[e.kind](index, math.radians(deg)))
        else:
            raise SpecError(f"unknown element kind {e.kind!r}", e.line, e.col)
    return elements


def _cluster_parts(spec: ExperimentSpec):
    c = spec.cluster
    graph = ClusterGraph(tuple(range(c.node_count)), c.edges)
    schedule = [
        MeasurementInstruction(
            m.node,
            math.radians(m.angle_deg),
            basis=m.basis,
            adapt=m.adapt,
            successor=m.successor,
        )
        for m in c.measures
    ]
    return graph, schedule


def _gate_for(spec: ExperimentSpec) -> HeraldedGate:
    gate = klm_cnot()
    if spec.gate.control == 0:
        return gate
    # reversed roles: conjugate the network by a dual-rail qubit swap
    swaps = (swap(0, 2), swap(1, 3))
    return replace(gate, name="klm_cnot_reversed", network=swaps + gate.network + swaps)


def _logical_json(state: LogicalState | None) -> str:
    if state is None:
        return ""
    return json.dumps(state.to_json_dict())


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------

def _checked_trials(trials: int) -> int:
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > SECTOR_CAP:
        raise ValueError(f"trials must be <= {SECTOR_CAP}, got {trials}")
    return trials


def run(
    spec: ExperimentSpec,
    seed: int | None = None,
    trials: int | None = None,
) -> Report:
    """Dispatch a parsed spec; overrides replace the spec's own values."""
    eff_seed = spec.seed if seed is None else int(seed)
    eff_trials = spec.trials if trials is None else _checked_trials(trials)

    if spec.sweep is not None:
        if eff_trials is not None:
            raise SpecError(
                "duplicate run mode: 'sweep' and 'trials' are exclusive", spec.sweep.line
            )
        return _run_sweep(spec, eff_seed)
    if eff_trials is not None:
        return _run_monte_carlo(spec, eff_seed, eff_trials)
    return _run_single(spec, eff_seed)


def _unitary(spec: ExperimentSpec) -> ModeUnitary:
    return compose(lower_elements(spec.elements), spec.modes)


def _evolved(spec: ExperimentSpec) -> PhotonicState:
    return apply(_unitary(spec), make_basis_state(spec.input_occupations))


def _sector(u: ModeUnitary, occ: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The output sector (occ, amps) of basis input `occ` through `u`."""
    return evolve_sector(u, sum(occ), [(occ, 1.0 + 0j)])


def _kept_rows(sector: tuple[np.ndarray, np.ndarray], counts: tuple = ()):
    """(label, amplitude, matched) for each row of a sector (occ, amps)
    above PRUNE_THRESHOLD, in table order: label "T_0 T_1 ...", matched 1
    if the row holds `counts` (a herald's (mode, count) pairs), 0 if not,
    None without counts.  Labels and matches are built _FORMAT_BLOCK table
    rows at a time; rows are pruned as read, by `apply`'s Python `abs`."""
    occ, amps = sector
    names = np.array([str(k) for k in range(int(occ.max(initial=0)) + 1)], dtype=object)
    modes, required = [m for m, _c in counts], [[c] for _m, c in counts]
    labels, matched = [], []
    for start in range(0, len(amps), _FORMAT_BLOCK):
        rows = slice(start, start + _FORMAT_BLOCK)
        labels += map(" ".join, names[occ[:, rows].T].tolist())
        if counts:
            matched += (occ[modes, rows] == required).all(axis=0).astype(int).tolist()
    values = amps.tolist()
    kept = map(PRUNE_THRESHOLD.__lt__, map(abs, values))  # abs(a) > PRUNE_THRESHOLD
    return compress(zip(labels, values, matched if counts else repeat(None)), kept)


def _run_single(spec: ExperimentSpec, seed: int) -> Report:
    if spec.cluster is not None:
        graph, schedule = _cluster_parts(spec)
        result = run_pattern(graph, schedule, seed)
        rows = transcript_json(result.transcript)
        agg = [
            ("output_state", _logical_json(result.output)),
            ("frame", json.dumps(
                {str(n): [int(x), int(z)] for n, (x, z) in result.frame.items()}
            )),
        ]
        return Report("single", ["node", "basis", "outcome"], rows, agg, seed)

    if spec.gate is not None:
        io_state = _evolved(spec)
        gate = _gate_for(spec)
        record = run_photonic(gate, io_state, DetectorModel())
        logical_in, leak_in = decode(io_state, QubitEncoding.dual_rail(2))
        if logical_in is None or leak_in > 1e-9:
            raise ValueError(
                "gate input is not a dual-rail state (one photon per rail pair)"
            )
        logical_out, leakage = decode(record.residual_state, gate.logical_io)
        rows = [[
            "".join(str(b) for b in _basis_bits(logical_in)),
            record.probability,
            leakage,
            _logical_json(logical_out),
        ]]
        agg = [("herald_probability", record.probability)]
        return Report(
            "single",
            ["input", "success_probability", "leakage", "logical_output"],
            rows,
            agg,
            seed,
        )

    occ = tuple(spec.input_occupations)
    u = _unitary(spec)
    if spec.herald is not None:
        record = HeraldGroups(*_sector(u, occ), HeraldPattern(spec.herald)).record()
        rows = [[record.probability]]
        agg = [
            ("outcome", json.dumps({str(m): c for m, c in record.outcome})),
            ("residual", record.residual_state.to_json()),
        ]
        return Report("single", ["probability"], rows, agg, seed)

    rows = [
        [label, a.real, a.imag, abs(a) ** 2]
        for label, a, _matched in _kept_rows(_sector(u, occ))
    ]
    return Report(
        "single",
        ["occupation", "re", "im", "probability"],
        rows,
        [("norm_squared", running_total(row[3] for row in rows))],
        seed,
    )


def _basis_bits(state: LogicalState) -> list[int]:
    idx = int(np.argmax(np.abs(state.amps)))
    return [(idx >> (state.n - 1 - q)) & 1 for q in range(state.n)]


def _run_sweep(spec: ExperimentSpec, seed: int) -> Report:
    sw = spec.sweep
    values = np.linspace(sw.start, sw.stop, sw.steps)
    occ = tuple(spec.input_occupations)
    rows = []
    if sw.param == "overlap":
        bs_spec = next(e for e in spec.elements if e.kind == "bs")
        reflectivity = bs_spec.params[2]
        for x in values:
            rows.append([float(x), hom_coincidence(reflectivity, float(x))])
        columns = ["overlap", "coincidence_probability"]
    elif sw.param == "eta":
        groups = HeraldGroups(*_sector(_unitary(spec), occ), HeraldPattern(spec.herald))
        for eta in values:
            record = groups.record(DetectorModel(efficiency=float(eta)))
            rows.append([float(eta), record.probability])
        columns = ["eta", "herald_probability"]
    else:
        # the k-th splitter, rebuilt at each reflectivity
        elements = lower_elements(spec.elements)
        splitter_indices = [i for i, e in enumerate(elements) if e.kind == "bs"]
        index = splitter_indices[int(sw.param[1:])]
        a, b = elements[index].modes
        pattern = HeraldPattern(spec.herald)
        for r in values:
            elements[index] = beamsplitter(a, b, float(r))
            u = compose(elements, spec.modes)
            record = HeraldGroups(*_sector(u, occ), pattern).record()
            rows.append([float(r), record.probability])
        columns = ["reflectivity", "herald_probability"]
    return Report("sweep", columns, rows, [("steps", sw.steps)], seed)


# teleport-cnot trials evolved at once (their draws are made a chunk of up
# to 1024 trials at a time, `trial_stacks`); on a 2-core Xeon VM a
# 3000-trial report builds in 25.2 ms at 128 against 28.5 ms at 64 and
# 28.4 ms at 256 (medians of 40 in one process), and 256 holds 0.2 MiB
# more at its peak
_BLOCK = 128


def _trial_rows(chunks, block) -> list[list]:
    """The one Monte Carlo loop: row [i, *values] per trial, each trial on
    its own stream derive_rng(seed, i).

    `chunks` hands out the draws of consecutive trials from trial 0, one
    chunk at a time: the (T, k) tables of their first k uniforms
    (`trial_uniforms`), or the `PCG64Stack` of their streams
    (`trial_stacks`), for draws other than uniforms.  block(chunk)
    returns the rows' values as columns, one list of T values per column
    after `i`.
    """
    rows, start = [], 0
    for chunk in chunks:
        stop = start + len(chunk)
        rows += map(list, zip(range(start, stop), *block(chunk), strict=True))
        start = stop
    return rows


def _run_monte_carlo(spec: ExperimentSpec, seed: int, trials: int) -> Report:
    if spec.cluster is not None:
        graph, schedule = _cluster_parts(spec)

        def pattern_block(u):
            results = (run_pattern(graph, schedule, Draws(row)) for row in u.tolist())
            return [["".join(str(o) for _n, _b, o in r.transcript) for r in results]]

        rows = _trial_rows(trial_uniforms(seed, 0, trials, len(schedule)), pattern_block)
        return Report(
            "monte-carlo", ["trial", "outcomes"], rows, [("trials", trials)], seed
        )

    if spec.gate is not None:
        p = run_photonic(_gate_for(spec), _evolved(spec), DetectorModel()).probability
        rows = _trial_rows(
            trial_uniforms(seed, 0, trials, 1), lambda u: [(u[:, 0] < p).astype(int).tolist()]
        )
        agg = [
            ("herald_probability", p),
            ("success_rate", sum(row[1] for row in rows) / trials),
            ("trials", trials),
        ]
        return Report("monte-carlo", ["trial", "success"], rows, agg, seed)

    # each outcome's row values, worked out once
    counts = HeraldPattern(spec.herald).counts if spec.herald is not None else ()
    sector = _sector(_unitary(spec), tuple(spec.input_occupations))
    outcomes = list(_kept_rows(sector, counts))
    pick = born_picker([abs(a) ** 2 for _label, a, _matched in outcomes])
    labels, _amps, matched = zip(*outcomes)
    cells = [np.array(labels, dtype=object)] + ([np.array(matched)] if counts else [])

    rows = _trial_rows(
        trial_uniforms(seed, 0, trials, 1), lambda u: [c[pick(u[:, 0])].tolist() for c in cells]
    )
    columns = ["trial", "outcome"] + (["matched"] if counts else [])
    agg = [("trials", trials)]
    if counts:
        agg.append(("match_rate", sum(row[2] for row in rows) / trials))
    return Report("monte-carlo", columns, rows, agg, seed)


# ---------------------------------------------------------------------------
# canned experiments (CLI convenience subcommands)
# ---------------------------------------------------------------------------

def hom_report(steps: int = 11, seed: int = 0) -> Report:
    """Coincidence vs wavepacket overlap at R = 1/2, plus the exact null."""
    rows = [
        [float(x), hom_coincidence(0.5, float(x))]
        for x in np.linspace(0.0, 1.0, steps)
    ]
    u = compose([beamsplitter(0, 1, 0.5)], 2)
    pattern = HeraldPattern.from_dict({0: 1, 1: 1})
    record = HeraldGroups(*_sector(u, (1, 1)), pattern).record()
    agg = [("photonic_null_probability", record.probability)]
    return Report("sweep", ["overlap", "coincidence_probability"], rows, agg, seed)


def cnot_herald_report(seed: int = 0) -> Report:
    """Herald probability and logical action for the four basis inputs."""
    from .heralded import run_heralded

    gate = klm_cnot()
    cnot = cnot_matrix()
    rows = []
    for index in range(4):
        bits = format(index, "02b")
        result = run_heralded(gate, LogicalState.from_bits(bits))
        expected = LogicalState(cnot @ LogicalState.from_bits(bits).amps)
        overlap = (
            result.logical_action.overlap(expected)
            if result.logical_action is not None
            else 0.0
        )
        rows.append([bits, result.probability, result.leakage, overlap])
    probs = [r[1] for r in rows]
    agg = [
        ("min_probability", min(probs)),
        ("max_probability", max(probs)),
        ("failure_probability", 1.0 - probs[0]),
    ]
    return Report(
        "single",
        ["input", "success_probability", "leakage", "overlap_with_cnot"],
        rows,
        agg,
        seed,
    )


def teleport_cnot_report(trials: int, seed: int) -> Report:
    """Monte Carlo of the teleported CNOT on random product inputs."""
    trials = _checked_trials(trials)
    cnot_t = cnot_matrix().T

    def evolve(parts, bells):
        control = parts[:, 0] + 1j * parts[:, 1]
        target = parts[:, 2] + 1j * parts[:, 3]
        control /= np.linalg.norm(control, axis=1, keepdims=True)
        target /= np.linalg.norm(target, axis=1, keepdims=True)
        output, _labels = teleported_cnot_block(control, target, bells)
        expected = outer(control, target) @ cnot_t
        return np.abs(np.sum(output.conj() * expected, axis=1))

    def block(stack):
        # each stream: normal(size=(4, 2)), the real and imaginary parts of
        # the control, then of the target (0.0 + x, as normal() adds its
        # loc: -0.0 becomes 0.0), then the attempt and Bell draws
        parts = np.stack([0.0 + standard_normals(stack) for _ in range(8)], axis=1)
        parts = parts.reshape(len(stack), 4, 2)
        attempts, bells = cnot_draws(stack)
        overlap = [
            evolve(parts[a:a + _BLOCK], bells[a:a + _BLOCK]) for a in range(0, len(stack), _BLOCK)
        ]
        return attempts.tolist(), (2 * attempts).tolist(), np.concatenate(overlap).tolist()

    rows = _trial_rows(trial_stacks(seed, 0, trials), block)
    total_pairs = sum(row[2] for row in rows)
    agg = [
        ("trials", trials),
        ("mean_pairs", total_pairs / trials),
        ("mean_attempts", total_pairs / trials / 2.0),
        ("min_overlap", min([1.0] + [row[3] for row in rows])),
    ]
    return Report(
        "monte-carlo", ["trial", "attempts", "pairs", "overlap"], rows, agg, seed
    )


def cluster_demo_report(
    alpha_deg: float = 50.0,
    beta_deg: float = -35.0,
    gamma_deg: float = 20.0,
    seed: int = 0,
) -> Report:
    """Run the 5-node linear-cluster rotation and check it against the
    circuit-model product of the same angles."""
    from .cluster import linear_rotation_pattern

    a, b, g = (math.radians(x) for x in (alpha_deg, beta_deg, gamma_deg))
    graph, schedule = linear_rotation_pattern(a, b, g)
    result = run_pattern(graph, schedule, seed)

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

    def hz(angle):
        return hadamard @ np.diag([1.0, np.exp(1j * angle)])

    oracle = hz(0.0) @ hz(-g) @ hz(-b) @ hz(-a) @ np.array([1, 1]) / math.sqrt(2)
    oracle_state = LogicalState(oracle / np.linalg.norm(oracle))
    rows = transcript_json(result.transcript)
    agg = [
        ("alpha_deg", float(alpha_deg)),
        ("beta_deg", float(beta_deg)),
        ("gamma_deg", float(gamma_deg)),
        ("output_state", _logical_json(result.output)),
        ("oracle_overlap", result.output.overlap(oracle_state)),
    ]
    return Report("single", ["node", "basis", "outcome"], rows, agg, seed)
