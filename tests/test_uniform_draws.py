"""Monte Carlo and cluster reports drawn from block-made uniform tables.

Sampling, gate and cluster `trials` runs, and seeded single cluster runs,
take their uniforms from `pcg64_uniforms` tables instead of a numpy
Generator per trial.  Their reports are held to reports built from
Generators, and the runs are checked to leave numpy.random unimported.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loqsim
from loqsim import runner
from loqsim.cluster import run_pattern
from loqsim.detection import _HASH_CHUNK
from loqsim.dsl import parse
from loqsim.runner import cluster_demo_report, run

from conftest import STREAM_SEEDS, serial_trials_report

DATA = Path(__file__).parent / "data"

# a cluster with no measurement: no uniform drawn (k = 0)
NO_MEASURE = "cluster {\n  nodes 2\n  edges 0-1\n}\n"

# spec text and trial count (None: the spec's own)
TRIAL_SPECS = {
    "cluster_mc": ((DATA / "cluster_mc.lqs").read_text(), None),
    "cluster_no_measure": (NO_MEASURE, 7),
    "cnot_trials": ((DATA / "cnot_trials.lqs").read_text(), None),
    # past one chunk of streams
    "sampling": ((DATA / "sampling.lqs").read_text(), _HASH_CHUNK + 76),
    "hom_sampling": ((DATA / "hom_sampling.lqs").read_text(), None),
}


def _assert_same_bytes(got, want):
    assert got.to_json_text() == want.to_json_text()
    assert got.to_csv_text() == want.to_csv_text()


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("name", TRIAL_SPECS)
def test_trials_report_equals_one_generator_per_trial(name, seed):
    text, trials = TRIAL_SPECS[name]
    spec = parse(text)
    want = serial_trials_report(spec, seed, trials or spec.trials)
    _assert_same_bytes(run(spec, seed=seed, trials=trials), want)


def _generator_run_pattern(graph, schedule, seed):
    return run_pattern(graph, schedule, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_single_cluster_reports_equal_generator_runs(seed, monkeypatch):
    specs = [
        parse((DATA / "cluster_rotation.lqs").read_text()),
        dataclasses.replace(parse((DATA / "cluster_mc.lqs").read_text()), trials=None),
        parse(NO_MEASURE),
    ]

    def reports():
        return [run(spec, seed=seed) for spec in specs] + [
            cluster_demo_report(seed=seed),
            cluster_demo_report(12.0, 33.0, -70.0, seed=seed),
        ]

    got = reports()
    monkeypatch.setattr(runner, "run_pattern", _generator_run_pattern)
    for g, w in zip(got, reports(), strict=True):
        _assert_same_bytes(g, w)


_PROBE = """
import contextlib, io, json, sys
import loqsim.cli
seen = [["import loqsim.cli", 0, "numpy.random" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = loqsim.cli.main(argv)
    seen.append([" ".join(argv), code, "numpy.random" in sys.modules])
print(json.dumps(seen))
"""


def _probe(argvs) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(loqsim.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_runs_leave_numpy_random_unimported(tmp_path):
    no_measure = tmp_path / "no_measure.lqs"
    no_measure.write_text(NO_MEASURE)
    cluster = str(DATA / "cluster_rotation.lqs")
    argvs = [
        ["run", cluster],
        ["run", cluster, "--trials", "5"],
        ["run", str(DATA / "cluster_mc.lqs")],
        ["run", str(no_measure), "--trials", "3"],
        ["run", str(DATA / "cnot_trials.lqs"), "--trials", "5"],
        ["run", str(DATA / "sampling.lqs"), "--trials", "5"],
        ["run", str(DATA / "waveplates.lqs")],
        ["hom"],
        ["cnot-herald"],
        ["cluster-demo"],
    ]
    seen = _probe(argvs)
    assert len(seen) == len(argvs) + 1
    assert [(code, imported) for _argv, code, imported in seen] == [(0, False)] * len(seen), seen


def test_teleport_cnot_is_the_run_that_imports_numpy_random():
    # its inputs are normals from a Generator; this shows the probe sees an import
    assert _probe([["teleport-cnot", "--trials", "3"]])[-1][1:] == [0, True]
