"""Seeded case generators for the four benchmark workloads.

A case is one CLI invocation: an argv for ``loqsim.cli.main``, the spec
text it reads (if any), the work units it requests and what the output
checks need to know.  Every random choice comes from ``random.Random``
seeded with the workload name and the seed, so the same seed gives the
same cases.  The structure of each workload (sizes, case counts, trial
counts) is fixed; the seed draws only parameter values and input
patterns, which keeps the cost of a pass nearly the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fock_full", "gate_herald", "monte_carlo", "cluster_mbqc")

DATA_DIR = Path("tests") / "data"


@dataclass
class Case:
    id: str
    argv: list[str]
    units: int
    kind: str
    spec: str | None = None  # text written to <work>/<id>.lqs when set
    info: dict = field(default_factory=dict)


def _num(x: float) -> float:
    """Round-trip a parameter through the text the spec carries."""
    return float(f"{x:.9g}")


def random_mesh(rng: random.Random, modes: int, depth: int) -> list[tuple]:
    """Brick-wall mesh of beamsplitters with a random phase on each."""
    elements = []
    for layer in range(depth):
        for a in range(layer % 2, modes - 1, 2):
            elements.append(("bs", a, a + 1, _num(rng.uniform(0.05, 0.95))))
            elements.append(("phase", a, _num(rng.uniform(0.0, 360.0))))
    return elements


def collision_free(rng: random.Random, modes: int, photons: int) -> list[int]:
    occ = [0] * modes
    for m in rng.sample(range(modes), photons):
        occ[m] = 1
    return occ


def bunched(rng: random.Random, modes: int, photons: int) -> list[int]:
    """Random input with at least one mode holding two photons."""
    occ = [0] * modes
    occ[rng.randrange(modes)] = 2
    for _ in range(photons - 2):
        occ[rng.randrange(modes)] += 1
    return occ


def spec_text(
    modes: int,
    occ: list[int],
    elements: list[tuple],
    herald: list[tuple[int, int]] | None = None,
    extra: tuple[str, ...] = (),
) -> str:
    lines = [f"modes {modes}", "input " + " ".join(map(str, occ))]
    for e in elements:
        if e[0] == "bs":
            lines.append(f"bs {e[1]} {e[2]} {e[3]!r}")
        else:
            lines.append(f"phase {e[1]} {e[2]!r}")
    if herald:
        lines.append("herald " + " ".join(f"{m}={c}" for m, c in herald))
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def spec_elements(text: str) -> tuple[int, list[int], list[tuple]]:
    """modes, input and bs/phase elements of a shipped spec."""
    modes, occ, elements = 0, [], []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "modes":
            modes = int(toks[1])
        elif toks[0] == "input":
            occ = [int(t) for t in toks[1:]]
        elif toks[0] == "bs":
            elements.append(("bs", int(toks[1]), int(toks[2]), float(toks[3])))
        elif toks[0] == "phase":
            elements.append(("phase", int(toks[1]), float(toks[2])))
    return modes, occ, elements


def _run(case_id: str, *extra: str) -> list[str]:
    return ["run", f"@{case_id}", *extra]


def sector_size(modes: int, photons: int) -> int:
    return math.comb(photons + modes - 1, photons)


# ---------------------------------------------------------------------------
# fock_full: whole output sectors evolved and printed
# ---------------------------------------------------------------------------

# (modes, photons, bunched, emit): both input kinds and both report formats
# at desk scale, up to the advertised 16 modes and 6 photons (not together:
# one 16/6 call takes 6-9 s on a 2-vCPU Xeon VM, too few samples in a run to
# read through a shared host's minute-long speed phases).
_FOCK_SIZES = (
    (8, 4, False, "json"),
    (8, 4, False, "csv"),
    (8, 4, True, "json"),
    (8, 4, True, "csv"),
    (10, 5, False, "csv"),
    (10, 5, True, "csv"),
    (12, 6, True, "csv"),
    (16, 5, False, "csv"),
)


def fock_full(seed: int) -> list[Case]:
    rng = random.Random(f"fock_full:{seed}")
    cases = []
    for k, (m, n, bunch, emit) in enumerate(_FOCK_SIZES):
        occ = bunched(rng, m, n) if bunch else collision_free(rng, m, n)
        elements = random_mesh(rng, m, m)
        cid = f"f{k}_m{m}n{n}{'b' if bunch else ''}"
        cases.append(Case(
            cid,
            _run(cid),
            sector_size(m, n),
            "fock",
            spec_text(m, occ, elements, extra=(f"emit {emit}",)),
            {"modes": m, "input": occ, "elements": elements},
        ))
    return cases


# ---------------------------------------------------------------------------
# gate_herald: many small heralded sectors
# ---------------------------------------------------------------------------

_CNOT_FILES = ("cnot_10.lqs", "cnot_reversed.lqs")


def _cnot_input(bits: tuple[int, int]) -> list[int]:
    occ = [0, 0, 0, 0]
    for q, b in enumerate(bits):
        occ[2 * q + b] = 1
    return occ


def gate_herald(seed: int, root: Path) -> list[Case]:
    rng = random.Random(f"gate_herald:{seed}")
    cases = []
    for name in _CNOT_FILES:
        text = (root / DATA_DIR / name).read_text()
        cid = "g_" + name[:-4]
        cases.append(Case(
            cid, ["run", str(DATA_DIR / name)], 1, "cnot", None,
            _cnot_spec_info(text),
        ))
    # all four logical inputs in both control orders, from the shipped specs
    for name in _CNOT_FILES:
        base = (root / DATA_DIR / name).read_text().splitlines()
        for index in range(4):
            bits = (index >> 1, index & 1)
            lines = [
                "input " + " ".join(map(str, _cnot_input(bits)))
                if line.startswith("input") else line
                for line in base
            ]
            text = "\n".join(lines) + "\n"
            cid = f"g_{name[:-4]}_{bits[0]}{bits[1]}"
            cases.append(Case(cid, _run(cid), 1, "cnot", text, _cnot_spec_info(text)))
    cases.append(Case("g_cnot_herald", ["cnot-herald", "--seed", str(seed)], 4, "cnot_table"))
    # generated 8-mode, 4-photon heralded networks with a reflectivity sweep
    for k in range(8):
        occ = bunched(rng, 8, 4) if k % 4 == 1 else collision_free(rng, 8, 4)
        elements = random_mesh(rng, 8, 4)
        herald_modes = sorted(rng.sample(range(8), 4))
        herald_photons = rng.choice((1, 2))
        counts = [0] * 4
        for _ in range(herald_photons):
            counts[rng.randrange(4)] += 1
        herald = list(zip(herald_modes, counts))
        n_bs = sum(1 for e in elements if e[0] == "bs")
        which = rng.randrange(n_bs)
        lo = _num(rng.uniform(0.0, 0.4))
        hi = _num(rng.uniform(0.6, 1.0))
        steps = 6
        cid = f"g_net{k}_r{which}"
        text = spec_text(
            8, occ, elements, herald,
            (f"sweep r{which} from {lo!r} to {hi!r} steps {steps}",),
        )
        cases.append(Case(cid, _run(cid), steps, "r_sweep", text, {
            "modes": 8, "input": occ, "elements": elements,
            "herald": herald, "bs_index": which,
        }))
    # single-photon detector-efficiency sweeps with a closed form
    for k in range(2):
        r = _num(rng.uniform(0.05, 0.95))
        mode = rng.randrange(2)
        steps = 6
        cid = f"g_eta{k}"
        text = (
            f"modes 2\ninput 1 0\nbs 0 1 {r!r}\nherald {mode}=1\n"
            f"sweep eta from 0 to 1 steps {steps}\nemit csv\n"
        )
        cases.append(Case(cid, _run(cid), steps, "eta_sweep", text,
                          {"reflectivity": r, "mode": mode}))
    shipped = (
        ("eta_scan.lqs", 6, "eta_sweep", {"reflectivity": 0.3, "mode": 0}),
        ("hom_null.lqs", 1, "hom_null", {}),
        ("hom_reflectivity.lqs", 21, "hom_reflectivity", {}),
        ("hom_sweep.lqs", 11, "hom_overlap", {}),
        ("pbs_route.lqs", 1, "certain_herald", {}),
        ("waveplates.lqs", 1, "fock", {"modes": 2, "input": [1, 0], "elements": None}),
    )
    for name, units, kind, info in shipped:
        cases.append(Case(f"g_{name[:-4]}", ["run", str(DATA_DIR / name)],
                          units, kind, None, info))
    return cases


def _cnot_spec_info(text: str) -> dict:
    occ = None
    control = 0
    for line in text.splitlines():
        toks = line.split()
        if toks[:1] == ["input"]:
            occ = [int(t) for t in toks[1:]]
        if toks[:1] == ["gate"]:
            control = 0 if "control=q0" in toks else 1
    bits = tuple(occ[2 * q + 1] for q in range(2))
    return {"bits": bits, "control": control}


# ---------------------------------------------------------------------------
# monte_carlo: per-trial overhead, evolution paid once
# ---------------------------------------------------------------------------

TELEPORT_TRIALS = 3000
SAMPLING_TRIALS = 4000
CNOT_TRIALS = 4000
WIDE_SAMPLING_TRIALS = 1500


def monte_carlo(seed: int, root: Path) -> list[Case]:
    rng = random.Random(f"monte_carlo:{seed}")
    modes, occ, elements = spec_elements((root / DATA_DIR / "sampling.lqs").read_text())
    cases = [
        Case("m_teleport", ["teleport-cnot", "--trials", str(TELEPORT_TRIALS),
                            "--seed", str(seed)],
             TELEPORT_TRIALS, "teleport", None, {"trials": TELEPORT_TRIALS}),
        Case("m_sampling", ["run", str(DATA_DIR / "sampling.lqs"), "--trials",
                            str(SAMPLING_TRIALS), "--seed", str(seed)],
             SAMPLING_TRIALS, "sampling", None,
             {"trials": SAMPLING_TRIALS, "modes": modes, "input": occ, "elements": elements}),
        Case("m_cnot_trials", ["run", str(DATA_DIR / "cnot_trials.lqs"), "--trials",
                               str(CNOT_TRIALS), "--seed", str(seed)],
             CNOT_TRIALS, "cnot_trials", None, {"trials": CNOT_TRIALS}),
    ]
    occ = collision_free(rng, 8, 4)
    elements = random_mesh(rng, 8, 6)
    herald_modes = sorted(rng.sample(range(8), 2))
    herald = [(herald_modes[0], 1), (herald_modes[1], 0)]
    text = spec_text(8, occ, elements, herald,
                     (f"trials {WIDE_SAMPLING_TRIALS} seed {seed}", "emit csv"))
    cases.append(Case("m_wide", _run("m_wide"), WIDE_SAMPLING_TRIALS, "sampling", text, {
        "trials": WIDE_SAMPLING_TRIALS, "modes": 8, "input": occ,
        "elements": elements, "herald": herald,
    }))
    return cases


# ---------------------------------------------------------------------------
# cluster_mbqc: dense 2^N cluster arithmetic
# ---------------------------------------------------------------------------

CLUSTER_TRIALS = 3


def chain_spec(rng: random.Random, n: int) -> tuple[str, list[float], int]:
    """Adaptive linear chain; node i's sign adapts to outcomes i-1, i-3, ..."""
    angles = [_num(rng.uniform(-180.0, 180.0)) for _ in range(n - 1)]
    lines = ["cluster {", f"  nodes {n}",
             "  edges " + " ".join(f"{i}-{i + 1}" for i in range(n - 1))]
    for i, a in enumerate(angles):
        adapt = list(range(i - 1, -1, -2))
        part = f"  measure {i} angle {a!r}"
        if adapt:
            part += " adapt " + " ".join(map(str, adapt))
        lines.append(part + f" succ {i + 1}")
    lines.append("}")
    return "\n".join(lines) + "\n", angles, n - 1


def grid_spec(rng: random.Random, rows: int, cols: int) -> tuple[str, int, int]:
    """rows x cols grid measured column by column; the last column is output.

    Node (r, c) has id c * rows + r.
    """
    edges = []
    for c in range(cols):
        for r in range(rows):
            node = c * rows + r
            if r + 1 < rows:
                edges.append((node, node + 1))
            if c + 1 < cols:
                edges.append((node, node + rows))
    lines = ["cluster {", f"  nodes {rows * cols}",
             "  edges " + " ".join(f"{a}-{b}" for a, b in edges)]
    measured = rows * (cols - 1)
    for node in range(measured):
        if rng.random() < 0.25:
            lines.append(f"  measure {node} basis z")
        else:
            lines.append(f"  measure {node} angle {_num(rng.uniform(-180, 180))!r}")
    lines.append("}")
    return "\n".join(lines) + "\n", measured, rows


_CLUSTER_SHAPES = (
    ("chain", 12), ("chain", 16), ("chain", 20),
    ("ladder", (2, 8)), ("ladder", (2, 10)), ("grid", (4, 5)),
)


def cluster_mbqc(seed: int) -> list[Case]:
    rng = random.Random(f"cluster_mbqc:{seed}")
    cases = []
    for shape, size in _CLUSTER_SHAPES:
        if shape == "chain":
            text, angles, measures = chain_spec(rng, size)
            cid = f"c_chain{size}"
            info = {"angles": angles, "measures": measures, "outputs": 1}
        else:
            text, measures, outputs = grid_spec(rng, *size)
            cid = f"c_{shape}{size[0]}x{size[1]}"
            info = {"angles": None, "measures": measures, "outputs": outputs}
        cases.append(Case(cid, _run(cid), measures, "cluster", text, info))
        cases.append(Case(
            cid + "_mc",
            _run(cid, "--trials", str(CLUSTER_TRIALS), "--seed", str(seed)),
            measures * CLUSTER_TRIALS, "cluster_mc", None,
            dict(info, trials=CLUSTER_TRIALS),
        ))
    return cases


def generate(workload: str, seed: int, root: Path) -> list[Case]:
    if workload == "fock_full":
        return fock_full(seed)
    if workload == "gate_herald":
        return gate_herald(seed, root)
    if workload == "monte_carlo":
        return monte_carlo(seed, root)
    return cluster_mbqc(seed)
