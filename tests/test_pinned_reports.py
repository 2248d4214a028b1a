"""Reports pinned to values captured from earlier trees.

The oracle is a data file, independent of the code that produces the
reports.  The Monte Carlo reports were captured before the trials shared
one loop: trial i of every run must keep drawing from its own stream
derive_rng(seed, i), so sampled outcomes, success bits, attempts and pair
counts stay exactly the same.  The single-run and sweep reports of the
shipped specs, `hom` and `cnot-herald` were captured before engine
outputs stopped being re-validated, and the two `cluster-demo` reports
before the qubit operations shared one set of kernels.  The 1000-trial
`teleport-cnot` report, which spans several trial blocks, was captured
before the teleported CNOT ran on blocks of trials.  Floats agree to
1e-12.  Two reports were captured before the trials' streams were
hashed in blocks, at seeds of two and three 32-bit words: a 200-trial
`teleport-cnot` report, and a sampling report in CSV, pinned byte for
byte as its lines.  A heralded sampling report, in JSON and byte for byte
in CSV, was captured before the sampler read its outcomes straight from
the evolved sector: its `matched` column takes both values, and one
output occupation (the HOM-suppressed `|1 1>`) is pruned.  Nine
reports, pinned by the sha256 and length of their bytes, were captured
before the Monte Carlo layer drew, picked and wrote JSON in blocks of
trials: `teleport-cnot --trials 3000` at seeds 1 and 7919 in JSON and
CSV, the 4000-trial sampling and gate runs in their own CSV and in JSON,
and the heralded sampling report in JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from loqsim.cli import main

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "pinned_reports.json").read_text())


def assert_same(got, want, where="report"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= 1e-12, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


REPORTS = [c for c in PINNED if "report" in c]
MONTE_CARLO = [c for c in REPORTS if c["report"]["mode"] == "monte-carlo"]
SINGLE_AND_SWEEP = [c for c in REPORTS if c["report"]["mode"] != "monte-carlo"]
CSV = [c for c in PINNED if "csv" in c]
HASHED = [c for c in PINNED if "sha256" in c]


def _stdout(case, capsys) -> str:
    argv = [str(DATA / a) if a.endswith(".lqs") else a for a in case["argv"]]
    assert main(argv) == 0
    return capsys.readouterr().out


def _check_pinned(case, capsys):
    assert_same(json.loads(_stdout(case, capsys)), case["report"])


@pytest.mark.parametrize("case", MONTE_CARLO, ids=lambda c: " ".join(c["argv"]))
def test_monte_carlo_report_is_pinned(case, capsys):
    _check_pinned(case, capsys)


@pytest.mark.parametrize("case", SINGLE_AND_SWEEP, ids=lambda c: " ".join(c["argv"]))
def test_single_and_sweep_report_is_pinned(case, capsys):
    _check_pinned(case, capsys)


@pytest.mark.parametrize("case", CSV, ids=lambda c: " ".join(c["argv"]))
def test_csv_report_is_pinned_byte_for_byte(case, capsys):
    assert _stdout(case, capsys) == "".join(line + "\n" for line in case["csv"])


@pytest.mark.parametrize("case", HASHED, ids=lambda c: " ".join(c["argv"]))
def test_report_bytes_are_pinned(case, capsys):
    out = _stdout(case, capsys).encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (case["bytes"], case["sha256"])


def test_pinned_set_covers_every_monte_carlo_mode():
    modes = {tuple(c["report"]["columns"]) for c in MONTE_CARLO}
    assert modes == {
        ("trial", "outcome"),
        ("trial", "outcome", "matched"),
        ("trial", "success"),
        ("trial", "outcomes"),
        ("trial", "attempts", "pairs", "overlap"),
    }
