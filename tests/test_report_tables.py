"""Single-run amplitude tables and the CSV writer.

The table of a plain single run is read straight from the evolved
sector's amplitude vector; these tests hold it to the rows built the old
way from `apply(u, state).items()` and to report bytes captured before
the table stopped going through a `PhotonicState`.  The CSV writer is
held to `reference_csv_text` (the `csv` module) and the JSON writer to
`reference_json_text` (`json.dumps(indent=2)`) on arbitrary reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loqsim.cli import main
from loqsim.dsl import parse
from loqsim.fock import make_basis_state
from loqsim.interferometer import SECTOR_CAP, apply, compose, sector_size
from loqsim.runner import Report, lower_elements, run

from conftest import mesh_spec, reference_csv_text, reference_json_text


# sha256 of `loqsim run SPEC --format FMT` stdout, captured before the
# table was read from the sector vector
PINNED_SHA256 = {
    "mesh_10x5": (
        mesh_spec(random.Random(10), 10, [1] * 5 + [0] * 5),
        "90aa07cfd605f654ffdbc7b3a0f675806d82fcacf530639e8c78586ad802576f",
        "54ba737856f13e6c9a72cee176a334a77483dd9fe066a8c3e78dd1066c1303e2",
    ),
    # two-digit occupation counts
    "two_digit": (
        "modes 2\ninput 12 0\nbs 0 1 0.3\n",
        "32415ec602f601971cb41fdec4dc85a52fd7238af9d840af7eb51ed46c8a00c9",
        "e67e8a647706c30520444fcffdac2f64ef8944ae13e7095979ca01ebbbce7464",
    ),
    # HOM without a herald: the 1 1 amplitude is pruned from the table
    "hom_pruned": (
        "modes 2\ninput 1 1\nbs 0 1 0.5\n",
        "1119ba8719ca71e81c40c0a402fe0132c45237874abfe0b9dfd74b810e1db8f4",
        "950ff7fd3c3a1da0d8962d5c29734cec944aaa1bd58f50c269b445885868039c",
    ),
    "vacuum": (
        "modes 2\ninput 0 0\n",
        "fc7fc7578ea1ad110df239a7d27341d89b990f8ce22dcde267143020e7a41842",
        "575c4bd47b7bf97c44210a4fe3156ce4c3a3b071f6b80d684a8d59e06d8e62fa",
    ),
    "one_mode": (
        "modes 1\ninput 3\n",
        "2fd9d332a647f7a38a5a2c37f45663d4ed2e34ef52d6261cf956265ec67e8b09",
        "35e9c3d4cff6853aeb361a3a1c88bd63991bb2506dec98c5f2ba7b68995a0588",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_single_run_report_bytes_are_pinned(name, fmt, tmp_path, capsys):
    text, json_sha, csv_sha = PINNED_SHA256[name]
    path = tmp_path / f"{name}.lqs"
    path.write_text(text)
    assert main(["run", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (json_sha if fmt == "json" else csv_sha)


# ---------------------------------------------------------------------------
# the table against rows built from the evolved PhotonicState
# ---------------------------------------------------------------------------

def _rows_from_state(u, occ) -> tuple[list[list], float]:
    out = apply(u, make_basis_state(occ))
    rows = [
        [" ".join(str(n) for n in t), a.real, a.imag, abs(a) ** 2]
        for t, a in out.items()
    ]
    return rows, out.norm_squared()


def _random_element_specs(rng, modes: int) -> str:
    lines = []
    for _ in range(int(rng.integers(0, 9))):
        if modes >= 2 and rng.random() < 0.6:
            a, b = (int(x) for x in rng.choice(modes, size=2, replace=False))
            lines.append(f"bs {a} {b} {rng.uniform(0.0, 1.0):.9g}")
        else:
            lines.append(f"phase {int(rng.integers(modes))} {rng.uniform(-400, 400):.9g}")
    return "".join(line + "\n" for line in lines)


def test_table_rows_equal_rows_from_apply(rng):
    for _ in range(60):
        modes = int(rng.integers(1, 7))
        photons = int(rng.integers(0, 5))
        kind = rng.integers(3)
        if photons == 0 or kind == 0:  # vacuum input
            occ = [0] * modes
        elif kind == 1:  # all photons bunched in one mode
            occ = [0] * modes
            occ[int(rng.integers(modes))] = photons
        else:
            occ = [int(c) for c in np.bincount(rng.integers(modes, size=photons), minlength=modes)]
        text = f"modes {modes}\ninput {' '.join(map(str, occ))}\n" + _random_element_specs(rng, modes)
        spec = parse(text)
        report = run(spec)
        rows, norm_squared = _rows_from_state(compose(lower_elements(spec.elements), modes), occ)
        assert report.rows == rows, text
        assert report.aggregate == [("norm_squared", norm_squared)], text
        for got, want in zip(report.rows, rows):
            assert [type(v) for v in got] == [type(v) for v in want]


def test_table_refuses_lost_precision(tmp_path, capsys):
    path = tmp_path / "bunched.lqs"
    path.write_text("modes 2\ninput 64 64\nbs 0 1 0.5\n")
    assert main(["run", str(path), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lost floating-point precision" in captured.err


def test_table_refuses_oversized_sector_before_work(monkeypatch):
    assert sector_size(10, 40) > SECTOR_CAP
    # the parser refuses this input at its token; build the spec past it
    big = dataclasses.replace(
        parse("modes 2\ninput 1 1\n"), modes=40, input_occupations=(1,) * 10 + (0,) * 30
    )

    def no_work(*args):
        raise AssertionError("the table started evolving an oversized sector")

    monkeypatch.setattr("loqsim.interferometer._raising_tables", no_work)
    with pytest.raises(ValueError, match=f"cap is {SECTOR_CAP}"):
        run(big)


# ---------------------------------------------------------------------------
# the CSV writer against the csv module
# ---------------------------------------------------------------------------

TRICKY_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\t;é')), max_size=6)
CELLS = st.one_of(
    TRICKY_TEXT,
    st.just(""),
    st.booleans(),
    st.none(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3]),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def reports(draw, cells=CELLS, min_width=1, keys=TRICKY_TEXT):
    width = draw(st.integers(min_width, 4))
    columns = draw(st.lists(TRICKY_TEXT, min_size=width, max_size=width))
    # cells of one column share a kind most of the time, as in real reports
    kinds = [cells, TRICKY_TEXT, st.floats(), st.integers(-10**20, 10**20)]
    column_kinds = [draw(st.sampled_from(kinds)) for _ in range(width)]
    rows = draw(st.lists(st.tuples(*column_kinds).map(list), max_size=12))
    aggregate = draw(st.lists(st.tuples(keys, cells), max_size=3))
    return Report(draw(TRICKY_TEXT), columns, rows, aggregate, draw(st.integers(0, 2**31)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reports())
def test_csv_text_matches_csv_module(report):
    assert report.to_csv_text() == reference_csv_text(report)


@pytest.mark.parametrize("rows", [
    [],
    [[""]],
    [[""], ["a"], [""]],
    [[None]],
    [['say "hi"'], ["a,b"], ["x\ny"], ["r\rr"], [True], [np.int64(-3)]],
    [[-0.0], [5e-324], [1e300], [np.float64(0.1)], [float("nan")], [float("-inf")]],
])
def test_csv_text_edge_cells(rows):
    report = Report("single", ["only"], rows, [("empty", ""), ("flag", False)], 0)
    assert report.to_csv_text() == reference_csv_text(report)


def test_csv_text_blocks_of_rows():
    rows = [[str(i), i / 7, i, "" if i % 3 else "q,"] for i in range(10_000)]
    report = Report("single", ["a", "b", "c", "d"], rows, [], 5)
    assert report.to_csv_text() == reference_csv_text(report)


def test_csv_text_refuses_ragged_rows():
    report = Report("single", ["a", "b"], [[1, 2], [3]], [], 0)
    with pytest.raises(ValueError):
        report.to_csv_text()


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(indent=2)
# ---------------------------------------------------------------------------

# control characters, non-ASCII letters, a lone surrogate and the escapes
ANY_TEXT = st.text(max_size=6) | st.text(
    alphabet=st.sampled_from(list('a "\\/\x00\x1f\x7f\n\r\té☃\ud800\U0001f600')), max_size=6
)
NESTED = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ANY_TEXT, inner, max_size=2),
    max_leaves=6,
)
JSON_CELLS = CELLS | ANY_TEXT | st.lists(NESTED, max_size=3) | st.dictionaries(
    ANY_TEXT, NESTED, max_size=2
)
# dict keys json turns into text: bools, None, ints and floats
JSON_KEYS = TRICKY_TEXT | ANY_TEXT | st.none() | st.booleans() | st.integers() | st.floats()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reports(JSON_CELLS, min_width=0, keys=JSON_KEYS))
def test_json_text_matches_json_dumps(report):
    assert report.to_json_text() == reference_json_text(report)


@pytest.mark.parametrize("columns, rows", [
    (["only"], []),
    ([], []),
    ([], [[], []]),
    (["only"], [[0], [-7], [10**30], [True], [False], [None], [np.int64(-3)], [np.uint8(200)]]),
    (["only"], [[-0.0], [0.0], [5e-324], [1e300], [float("nan")], [float("inf")],
                [float("-inf")], [np.float64(0.1)], [np.float32(0.1)], [np.float64("nan")]]),
    (["only"], [["é"], ["\x00\x1f\x7f"], ['say "hi"\n'], ["\ud800"], [""]]),
    (["a", "b"], [[[1, [2.5, None]], {"k": [], "é": {}}], [[], ()]]),
])
def test_json_text_edge_cells(columns, rows):
    aggregate = [("empty", ""), ("flag", False), ("nested", [1, {"x": [2]}]), ("seed", -1)]
    report = Report("single", columns, rows, aggregate, 0)
    assert report.to_json_text() == reference_json_text(report)


def test_json_text_blocks_of_rows():
    rows = [[str(i), i / 7, i, None if i % 3 else [i]] for i in range(10_000)]
    rows[700][1] = float("nan")  # a non-finite float in one block only
    report = Report("single", ["a", "b", "c", "d"], rows, [], 5)
    assert report.to_json_text() == reference_json_text(report)


def test_json_text_refuses_what_json_refuses():
    for cell in (np.bool_(True), {1, 2}, np.zeros(2), [np.int64(1)]):
        report = Report("single", ["a"], [[cell]], [], 0)
        with pytest.raises(TypeError):
            reference_json_text(report)
        with pytest.raises(TypeError):
            report.to_json_text()
    with pytest.raises(TypeError):
        Report("single", ["a"], [], [((1, 2), 0)], 0).to_json_text()


def test_json_text_refuses_ragged_rows():
    report = Report("single", ["a", "b"], [[1, 2], [3]], [], 0)
    with pytest.raises(ValueError):
        report.to_json_text()
