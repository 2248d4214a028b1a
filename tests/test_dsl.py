import csv
import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loqsim.dsl import (
    ClusterSpec,
    ElementSpec,
    ExperimentSpec,
    GateSpec,
    MeasureSpec,
    SpecError,
    SweepSpec,
    parse,
    serialize,
)
from loqsim.interferometer import SECTOR_CAP
from loqsim.runner import format_report, run

DATA = Path(__file__).parent / "data"

HOM = """modes 2
input 1 1
bs 0 1 0.5
herald 0=1 1=1
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_hom():
    spec = parse(HOM)
    assert spec.modes == 2
    assert spec.input_occupations == (1, 1)
    assert len(spec.elements) == 1 and spec.elements[0].kind == "bs"
    assert spec.herald == ((0, 1), (1, 1))
    assert spec.run_mode == "single"
    assert spec.emit == "json"


def test_comments_and_blank_lines():
    spec = parse("# header\n\nmodes 2  # trailing\ninput 0 1\n")
    assert spec.modes == 2 and spec.input_occupations == (0, 1)


def test_undeclared_index_located():
    with pytest.raises(SpecError) as err:
        parse("bs 0 5 0.5\nmodes 2\ninput 1 1\n")
    assert err.value.line == 1
    assert "mode 5" in err.value.message


def test_unknown_directive():
    with pytest.raises(SpecError) as err:
        parse("modes 2\nfrobnicate 1\n")
    assert err.value.line == 2 and err.value.col == 1


def test_arity_error():
    with pytest.raises(SpecError) as err:
        parse("modes 2\ninput 1 1\nbs 0 1\n")
    assert err.value.line == 3


def test_duplicate_herald_mode():
    with pytest.raises(SpecError):
        parse("modes 2\ninput 1 1\nherald 0=1 0=0\n")


def test_duplicate_run_mode():
    text = HOM + "sweep overlap from 0 to 1 steps 3\ntrials 10 seed 1\n"
    with pytest.raises(SpecError) as err:
        parse(text)
    assert "exclusive" in err.value.message


def test_gate_syntax_errors():
    with pytest.raises(SpecError):
        parse("modes 4\ninput 0 1 1 0\ngate klm_cnot control=q0 control=q1\n")
    with pytest.raises(SpecError):
        parse("modes 4\ninput 0 1 1 0\ngate swap control=q0 target=q1\n")
    with pytest.raises(SpecError):
        parse("modes 2\ninput 1 0\ngate klm_cnot control=q0 target=q1\n")


def test_unterminated_cluster():
    with pytest.raises(SpecError) as err:
        parse("cluster {\n  nodes 2\n")
    assert "unterminated" in err.value.message


def test_cluster_adapt_order():
    bad = """cluster {
  nodes 2
  edges 0-1
  measure 0 angle 10 adapt 1
  measure 1 angle 0
}
"""
    with pytest.raises(SpecError):
        parse(bad)


def test_parser_totality():
    junk = [
        "",
        "\x00\x01",
        "modes",
        "modes -3",
        "modes two",
        "input 1 1",
        "herald 0=x",
        "sweep overlap from a to b steps 2",
        "cluster {",
        "cluster { nodes 1 }",
        "}",
        "bs 0 1 2.0\nmodes 2\ninput 1 1",
        "emit yaml",
        "trials 0 seed 1",
        "measure 0 angle 1",
    ]
    for text in junk:
        try:
            parse(text)
        except SpecError:
            pass  # a located diagnostic is the only acceptable failure


NEGATIVE_OR_NONFINITE = [
    # (text, line, offending token)
    ("modes 2\ninput 1 1\nbs -1 0 0.5\n", 3, "-1"),
    ("modes 2\ninput 1 1\nbs 0 -1 0.5\n", 3, "-1"),
    ("modes 2\ninput 1 1\nphase -1 90\n", 3, "-1"),
    ("modes 2\ninput 1 1\nphase 0 nan\n", 3, "nan"),
    ("modes 2\ninput 1 1\nphase 0 inf\n", 3, "inf"),
    ("modes 2\ninput 1 1\nphase 0 -inf\n", 3, "-inf"),
    ("modes 2\ninput 1 1\nhwp -1 45\n", 3, "-1"),
    ("modes 2\ninput 1 1\nhwp 0 nan\n", 3, "nan"),
    ("modes 2\ninput 1 1\nqwp 0 1e999\n", 3, "1e999"),
    ("modes 4\ninput 1 0 1 0\npbs -1 1\n", 3, "-1"),
    ("modes 2\ninput 1 -1\n", 2, "-1"),
    (HOM.replace("herald 0=1 1=1", "herald -1=1"), 4, "-1=1"),
    ("cluster {\n  nodes 2\n  edges 0-1\n  measure -1 angle 0\n}\n", 4, "-1"),
    ("cluster {\n  nodes 2\n  measure 0 angle nan\n}\n", 3, "nan"),
    ("cluster {\n  nodes 2\n  measure 0 angle inf succ 1\n}\n", 3, "inf"),
    ("cluster {\n  nodes 2\n  measure 0 angle 10 succ -1\n}\n", 3, "-1"),
    ("cluster {\n  nodes 2\n  measure 1 angle 10\n  measure 0 adapt -1\n}\n", 4, "-1"),
    ("cluster {\n  nodes 2\n  measure 1 angle 10\n  measure 0 adapt \u00b2\n}\n", 4, "adapt"),
]


def test_negative_and_nonfinite_rejected_at_parse():
    for text, line, token in NEGATIVE_OR_NONFINITE:
        col = text.splitlines()[line - 1].index(token) + 1
        with pytest.raises(SpecError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col), (text, str(err.value))


DUPLICATE_EDGES = [
    # (text, line, offending token)
    ("cluster {\n  nodes 2\n  edges 0-1 1-0\n}\n", 3, "1-0"),
    ("cluster {\n  nodes 2\n  edges 0-1 0-1\n}\n", 3, "0-1 "),
    ("cluster {\n  nodes 3\n  edges 0-1 1-2\n  edges 2-1\n}\n", 4, "2-1"),
]


def test_duplicate_edges_rejected_at_parse():
    for text, line, token in DUPLICATE_EDGES:
        row = text.splitlines()[line - 1]
        col = row.rindex(token.strip()) + 1
        with pytest.raises(SpecError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col), (text, str(err.value))
        assert "duplicate edge" in err.value.message


def test_sector_over_cap_rejected_at_parse():
    # 10 photons over 40 modes: C(49, 10) ~ 8e9 amplitudes; 16/8 is over too
    for occ in ([1] * 10 + [0] * 30, [1] * 8 + [0] * 8):
        text = f"# wide\nmodes {len(occ)}\n  input {' '.join(map(str, occ))}\n"
        t0 = time.perf_counter()
        with pytest.raises(SpecError) as err:
            parse(text)
        assert time.perf_counter() - t0 < 1.0
        assert (err.value.line, err.value.col) == (3, 3)
        assert "cap is 200000" in err.value.message
    # the advertised 16/6 and 20/6 parse
    for modes in (16, 20):
        parse(f"modes {modes}\ninput {' '.join(['1'] * 6 + ['0'] * (modes - 6))}\n")


def test_sector_keys_over_cap_rejected_at_parse():
    # 2 photons over 600 modes: few amplitudes, but 600 entries per key
    occ = [1, 1] + [0] * 598
    text = f"modes 600\ninput {' '.join(map(str, occ))}\n"
    t0 = time.perf_counter()
    with pytest.raises(SpecError) as err:
        parse(text)
    assert time.perf_counter() - t0 < 1.0
    assert (err.value.line, err.value.col) == (2, 1)
    assert "key entries" in err.value.message
    parse(f"modes 150\ninput 1 1 {' '.join(['0'] * 148)}\n")
    # a vacuum input has one amplitude, but its spec's mode unitary holds
    # modes^2 entries, capped at KEY_CAP like a sector's keys
    parse(f"modes 2000\ninput {' '.join(['0'] * 2000)}\n")
    with pytest.raises(SpecError) as err:
        parse(f"modes 2001\ninput {' '.join(['0'] * 2001)}\n")
    assert (err.value.line, err.value.col) == (2, 1)
    assert "4004001 entries, cap is 4000000" in err.value.message


def test_golden_corpus_round_trips():
    files = sorted(DATA.glob("*.lqs"))
    assert len(files) >= 10
    for path in files:
        first = parse(path.read_text())
        again = parse(serialize(first))
        assert again == first, path.name


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_run_hom_null():
    report = run(parse(HOM))
    assert report.columns == ["probability"]
    assert abs(report.rows[0][0]) < 1e-12


def test_run_overlap_sweep_matches_closed_form():
    spec = parse(HOM + "sweep overlap from 0 to 1 steps 11\n")
    report = run(spec)
    for x, p in report.rows:
        assert abs(p - (1.0 - x * x) / 2.0) < 1e-12


def test_run_gate_single():
    report = run(parse((DATA / "cnot_10.lqs").read_text()))
    row = report.rows[0]
    assert row[0] == "10"
    assert abs(row[1] - 1.0 / 16.0) < 1e-9
    out = json.loads(row[3])
    amps = [complex(re, im) for re, im in out["amps"]]
    assert abs(abs(amps[3]) - 1.0) < 1e-9  # |11>


def test_run_gate_reversed_roles():
    report = run(parse((DATA / "cnot_reversed.lqs").read_text()))
    row = report.rows[0]
    assert row[0] == "01"  # logical |01>: control q1 is 1
    assert abs(row[1] - 1.0 / 16.0) < 1e-9
    out = json.loads(row[3])
    amps = [complex(re, im) for re, im in out["amps"]]
    assert abs(abs(amps[3]) - 1.0) < 1e-9  # target q0 flips: |11>


def test_run_deterministic_csv():
    spec = parse((DATA / "sampling.lqs").read_text())
    a = format_report(run(spec), "csv")
    b = format_report(run(spec), "csv")
    assert a == b


def test_seed_override_changes_samples():
    spec = parse((DATA / "sampling.lqs").read_text())
    a = format_report(run(spec, seed=1), "csv")
    b = format_report(run(spec, seed=2), "csv")
    assert a != b


def test_csv_json_agreement():
    spec = parse((DATA / "hom_sweep.lqs").read_text())
    report = run(spec)
    payload = json.loads(format_report(report, "json"))

    text = format_report(report, "csv")
    main, agg = text.split("\n\n", 1)
    rows = list(csv.reader(io.StringIO(main)))
    assert rows[0] == payload["columns"]
    for csv_row, json_row in zip(rows[1:], payload["rows"]):
        for c, j in zip(csv_row, json_row):
            if isinstance(j, float):
                assert float(c) == j  # 17 significant digits: exact round trip
            else:
                assert c == str(j)
    agg_rows = {r[0]: r[1] for r in csv.reader(io.StringIO(agg)) if r}
    assert agg_rows["seed"] == str(payload["seed"])
    assert agg_rows["version"] == payload["aggregate"]["version"]


def test_all_corpus_files_run():
    for path in sorted(DATA.glob("*.lqs")):
        spec = parse(path.read_text())
        report = run(spec)
        assert report.rows, path.name
        # both encodings must always materialize
        format_report(report, "csv")
        format_report(report, "json")


def test_eta_sweep_scales_linearly():
    spec = parse((DATA / "eta_scan.lqs").read_text())
    report = run(spec)
    base = report.rows[-1][1]  # eta = 1
    for eta, p in report.rows:
        assert abs(p - eta * base) < 1e-12


def test_reflectivity_sweep_endpoints():
    spec = parse((DATA / "hom_reflectivity.lqs").read_text())
    report = run(spec)
    values = {round(r, 3): p for r, p in report.rows}
    assert abs(values[0.0] - 1.0) < 1e-12  # both photons transmit
    assert abs(values[0.5]) < 1e-12  # the interference null
    assert abs(values[1.0] - 1.0) < 1e-12  # both reflect


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_exit_codes(tmp_path, capsys):
    from loqsim.cli import main

    good = tmp_path / "good.lqs"
    good.write_text(HOM)
    assert main(["run", str(good)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0][0] == 0.0

    bad = tmp_path / "bad.lqs"
    bad.write_text("modes 2\ninput 1 1\nbs 0 9 0.5\n")
    assert main(["run", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.lqs")]) == 1

    cluster = str(DATA / "cluster_mc.lqs")
    for argv in (
        [str(good), "--trials", "0"],  # herald spec: used to divide by zero
        [str(good), "--trials", "-3"],
        [cluster, "--trials", "0"],
        [str(good), "--seed", "-1"],
        [cluster, "--seed", "-1"],
        [str(good), "--trials", "x"],
        [str(good), "--trials", "10000000"],
    ):
        _assert_usage_error(main, ["run", *argv], capsys)


def test_cli_refusals_exit_2(tmp_path, capsys):
    from loqsim.cli import main

    wide = tmp_path / "wide.lqs"
    wide.write_text("modes 40\ninput " + " ".join(["1"] * 10 + ["0"] * 30) + "\n")
    edges = tmp_path / "edges.lqs"
    edges.write_text("cluster {\n  nodes 2\n  edges 0-1 1-0\n  measure 0 angle 0\n}\n")
    steps = tmp_path / "steps.lqs"
    steps.write_text(HOM + "sweep eta from 0 to 1 steps 1000000000000\n")
    trials = tmp_path / "trials.lqs"
    trials.write_text(HOM + "trials 10000000 seed 1\n")
    vacuum = tmp_path / "vacuum.lqs"  # one sector amplitude, a 60000 x 60000 unitary
    vacuum.write_text("modes 60000\ninput " + " ".join(["0"] * 60000) + "\n")
    nodes = tmp_path / "nodes.lqs"
    nodes.write_text(_cluster_text(40))
    for path, where in (
        (wide, "line 2, col 1"),
        (nodes, "line 2, col 3: cluster has 40 nodes, cap is 20"),
        (edges, "line 3, col 13"),
        (steps, "line 5, col 29"),
        (trials, "line 5, col 8: trial count must be <= 200000, got 10000000"),
        (vacuum, "line 2, col 1"),
    ):
        t0 = time.perf_counter()
        assert main(["run", str(path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err, err


def _cluster_text(nodes: int) -> str:
    return f"cluster {{\n  nodes {nodes}\n  edges 0-1 1-2\n  measure 0 angle 10\n}}\n"


def test_cluster_over_node_cap_refused_at_parse():
    from loqsim.cluster import NODE_CAP

    assert parse(_cluster_text(NODE_CAP)).cluster.node_count == NODE_CAP
    for n in (NODE_CAP + 1, 40):
        with pytest.raises(SpecError) as err:
            parse(_cluster_text(n))
        assert (err.value.line, err.value.col) == (2, 3)
        assert err.value.message == f"cluster has {n} nodes, cap is {NODE_CAP}"


def test_herald_in_gate_experiment_refused(tmp_path, capsys):
    from loqsim.cli import main

    text = "modes 4\ninput 0 1 1 0\ngate klm_cnot control=q0 target=q1\nherald 0=1 1=0\n"
    with pytest.raises(SpecError) as err:
        parse(text)
    assert err.value.message == "a gate experiment cannot also declare 'herald'"
    assert err.value.line == 4
    spec = tmp_path / "gate_herald.lqs"
    spec.write_text(text)
    assert main(["run", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 4, col 1: a gate experiment cannot also declare 'herald'" in captured.err


@pytest.mark.parametrize("text, where", [
    ("modes 2\n", "line 1, col 1"),
    ("", "line 1, col 1"),
    ("# no input\n\nmodes 3\ntrials 5 seed 1\n", "line 3, col 1"),
])
def test_spec_without_input_refused(tmp_path, capsys, text, where):
    from loqsim.cli import main

    with pytest.raises(SpecError) as err:
        parse(text)
    assert err.value.message == "'input' must be declared"
    path = tmp_path / "no_input.lqs"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {where}: 'input' must be declared\n"


def test_cli_parser_built_once_leaks_nothing(capsys):
    from loqsim.cli import build_parser, main

    spec = str(DATA / "cluster_mc.lqs")
    first, second = ["run", spec, "--seed", "5", "--format", "csv"], ["run", spec]
    fresh = []
    for argv in (first, second):
        build_parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    assert build_parser() is build_parser()
    reused = []
    for argv in (first, second):
        assert main(argv) == 0
        reused.append(capsys.readouterr().out)
    assert reused == fresh
    assert fresh[0].startswith("trial,outcomes\n") and '"seed": 2' in fresh[1]


def test_library_trials_below_one_refused():
    from loqsim.runner import teleport_cnot_report

    spec = parse((DATA / "hom_null.lqs").read_text())
    for trials in (0, -2):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            run(spec, trials=trials)
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            teleport_cnot_report(trials, 3)


def test_library_trials_over_cap_refused():
    from loqsim.runner import teleport_cnot_report

    spec = parse((DATA / "hom_null.lqs").read_text())
    for trials in (SECTOR_CAP + 1, 10_000_000):
        with pytest.raises(ValueError, match=f"trials must be <= {SECTOR_CAP}, got {trials}"):
            run(spec, trials=trials)
        with pytest.raises(ValueError, match=f"trials must be <= {SECTOR_CAP}, got {trials}"):
            teleport_cnot_report(trials, 3)


def test_trials_override_on_sweep_spec_refused(tmp_path, capsys):
    from loqsim.cli import main

    text = HOM + "sweep overlap from 0 to 1 steps 3\n"
    spec = parse(text)
    with pytest.raises(SpecError) as err:
        run(spec, trials=5)
    assert err.value.message == "duplicate run mode: 'sweep' and 'trials' are exclusive"
    assert err.value.line == 5
    path = tmp_path / "sweep.lqs"
    path.write_text(text)
    assert main(["run", str(path), "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 5, col 1: duplicate run mode" in captured.err
    assert main(["run", str(path)]) == 0


def test_run_time_spec_error_names_the_file(tmp_path, capsys):
    from loqsim.cli import main

    path = tmp_path / "sweep.lqs"
    path.write_text(HOM + "sweep overlap from 0 to 1 steps 3\n")
    assert main(["run", str(path), "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: line 5, col 1: duplicate run mode"), err


def test_cluster_demo_nonfinite_angle_exits_2(capsys):
    from loqsim.cli import main

    for argv in (
        ["--alpha", "nan"],
        ["--beta", "inf"],
        ["--gamma=-inf"],  # "-inf" alone would read as an option
        ["--alpha", "1e400"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["cluster-demo", *argv])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err, (argv, err)
    with pytest.raises(SystemExit) as exc:
        main(["cluster-demo", "--beta", "x"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err


def _assert_usage_error(main, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "must be >=" in err or "invalid int value" in err, (argv, err)


def test_cli_out_file(tmp_path):
    from loqsim.cli import main

    spec = tmp_path / "hom.lqs"
    spec.write_text(HOM + "emit csv\n")
    out = tmp_path / "report.csv"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert out.read_text().startswith("probability")


def test_cli_unwritable_out_exits_1(tmp_path, capsys):
    from loqsim.cli import main

    for out in (tmp_path, tmp_path / "missing" / "r.json"):
        assert main(["hom", "--steps", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: "), err
        assert "Traceback" not in err


def test_cli_subcommands(tmp_path, capsys):
    from loqsim.cli import main

    out = tmp_path / "r.json"
    assert main(["hom", "--steps", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["aggregate"]["photonic_null_probability"] == 0.0

    assert main(["cnot-herald", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for row in data["rows"]:
        assert abs(row[1] - 1.0 / 16.0) < 1e-9

    assert main(["teleport-cnot", "--trials", "50", "--seed", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["aggregate"]["min_overlap"] > 1 - 1e-10

    assert main(["cluster-demo", "--seed", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["aggregate"]["oracle_overlap"] > 1 - 1e-10

    for argv in (
        ["teleport-cnot", "--trials", "0"],
        ["teleport-cnot", "--trials", "-3"],
        ["teleport-cnot", "--trials", "10000000"],
        ["teleport-cnot", "--seed", "-1"],
        ["hom", "--steps", "-2"],
        ["hom", "--steps", "1"],
        ["hom", "--steps", "1000000000000"],
        ["cnot-herald", "--seed", "-1"],
        ["cluster-demo", "--seed", "-1"],
    ):
        _assert_usage_error(main, [*argv, "--out", str(out)], capsys)
    assert main(["hom", "--steps", "2", "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# properties over generated specs
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
EMIT = st.sampled_from(["json", "csv"])


def _distinct_pair(n: int):
    return st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)


def _element(kind: str, *params):
    return st.tuples(*params).map(lambda p: ElementSpec(kind, p))


def _elements(modes: int):
    """Elements that touch only declared modes (hwp/qwp/pbs address pairs)."""
    options = [_element("phase", st.integers(0, modes - 1), FINITE)]
    if modes >= 2:
        bs = st.tuples(_distinct_pair(modes), UNIT)
        options.append(bs.map(lambda t: ElementSpec("bs", (*t[0], t[1]))))
    pairs = modes // 2
    if pairs >= 1:
        options += [_element(k, st.integers(0, pairs - 1), FINITE) for k in ("hwp", "qwp")]
    if pairs >= 2:
        options.append(_distinct_pair(pairs).map(lambda pq: ElementSpec("pbs", pq)))
    return st.lists(st.one_of(options), max_size=6).map(tuple)


def _trials(draw):
    if draw(st.booleans()):
        return {"trials": draw(st.integers(1, SECTOR_CAP)), "seed": draw(st.integers(0, 2**63))}
    return {}


@st.composite
def photonic_specs(draw):
    modes = draw(st.integers(1, 6))
    occ = tuple(draw(st.lists(st.integers(0, 3), min_size=modes, max_size=modes)))
    elements = draw(_elements(modes))
    counts = st.dictionaries(st.integers(0, modes - 1), st.integers(0, 3), min_size=1)
    herald = draw(st.none() | counts.map(lambda d: tuple(sorted(d.items()))))
    spec = dict(modes=modes, input_occupations=occ, elements=elements, herald=herald)
    params = []
    if herald is not None:
        params = ["eta"] + [f"r{k}" for k in range(sum(e.kind == "bs" for e in elements))]
    if params and draw(st.booleans()):
        param = draw(st.sampled_from(params))
        sweep = SweepSpec(param, draw(UNIT), draw(UNIT), draw(st.integers(2, 50)))
        return ExperimentSpec(**spec, sweep=sweep, emit=draw(EMIT))
    return ExperimentSpec(**spec, **_trials(draw), emit=draw(EMIT))


@st.composite
def overlap_sweep_specs(draw):
    modes = draw(st.integers(2, 5))
    a, b = draw(_distinct_pair(modes))
    return ExperimentSpec(
        modes=modes,
        input_occupations=tuple(int(m in (a, b)) for m in range(modes)),
        elements=(ElementSpec("bs", (a, b, draw(UNIT))),),
        herald=tuple(sorted({a: 1, b: 1}.items())),
        sweep=SweepSpec("overlap", draw(UNIT), draw(UNIT), draw(st.integers(2, 50))),
        emit=draw(EMIT),
    )


@st.composite
def gate_specs(draw):
    control = draw(st.integers(0, 1))
    return ExperimentSpec(
        modes=4,
        input_occupations=tuple(draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))),
        elements=draw(_elements(4)),
        gate=GateSpec("klm_cnot", control, 1 - control),
        **_trials(draw),
        emit=draw(EMIT),
    )


@st.composite
def cluster_specs(draw):
    n = draw(st.integers(1, 8))
    pairs = st.lists(_distinct_pair(n), max_size=10, unique_by=frozenset)
    edges = tuple(draw(pairs)) if n >= 2 else ()
    order = draw(st.permutations(range(n)))
    measures = []
    for i, node in enumerate(order[: draw(st.integers(0, n))]):
        seen = order[:i]
        z = draw(st.booleans())
        angle = draw(st.just(0.0) | FINITE) if z else draw(FINITE)
        adapt = tuple(draw(st.lists(st.sampled_from(seen), max_size=3))) if seen else ()
        free = [k for k in range(n) if k != node and k not in seen]
        succ = draw(st.none() | st.sampled_from(free)) if free else None
        measures.append(MeasureSpec(node, "z" if z else "xy", angle, adapt, succ))
    cluster = ClusterSpec(n, edges, tuple(measures))
    return ExperimentSpec(cluster=cluster, **_trials(draw), emit=draw(EMIT))


SPECS = photonic_specs() | overlap_sweep_specs() | gate_specs() | cluster_specs()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SPECS)
def test_generated_specs_round_trip(spec):
    text = serialize(spec)
    assert parse(text) == spec
    assert serialize(parse(text)) == text


def _numeric_tokens(text: str):
    """(line, col, token) of every count, index or real number in a spec."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in re.finditer(r"\S+", line):
            if re.fullmatch(r"\d+|\d+=\d+|-?\d+(\.\d*)?(e[+-]?\d+)?", m.group(0)):
                yield lineno, m.start() + 1, m.group(0)


def _spoiled(token: str):
    """Ways to make a token negative or non-finite."""
    if "=" in token:
        mode, count = token.split("=")
        return [f"-1={count}", f"{mode}=-1"]
    if token.isdecimal():
        return ["-1"]
    return ["nan", "inf", "-inf"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SPECS, st.data())
def test_negative_or_nonfinite_token_is_located(spec, data):
    lines = serialize(spec).splitlines()
    line, col, token = data.draw(st.sampled_from(list(_numeric_tokens("\n".join(lines)))))
    row = lines[line - 1]
    bad = data.draw(st.sampled_from(_spoiled(token)))
    lines[line - 1] = row[: col - 1] + bad + row[col - 1 + len(token):]
    with pytest.raises(SpecError) as err:
        parse("\n".join(lines))
    assert (err.value.line, err.value.col) == (line, col)
