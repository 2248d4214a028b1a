"""The benchmark's tracer hooks loqsim's functions by module and name
(`perfbench/tracer.py`, `TARGETS`).  A hooked name that a refactor moves
or renames would make every traced run fail, so installing the tracer is
checked here, in a fresh interpreter as a benchmark run installs it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_tracer_installs_on_every_hooked_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
