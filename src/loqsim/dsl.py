"""Line-oriented experiment description language.

One directive per line, `#` comments, angles in degrees (converted to
radians only when the runner lowers the spec to optical elements, so a
parse -> serialize -> parse round trip reproduces the spec exactly).

    modes 2
    input 1 1
    bs 0 1 0.5
    phase 0 90
    hwp 0 22.5
    qwp 0 45
    pbs 0 1
    herald 0=1 1=1
    gate klm_cnot control=q0 target=q1
    sweep overlap from 0 to 1 steps 11
    trials 1000 seed 7
    emit csv
    cluster {
      nodes 5
      edges 0-1 1-2 2-3 3-4
      measure 0 angle -30 succ 1
      measure 1 angle 15 adapt 0 succ 2
      measure 4 basis z
    }

Every parse failure is a located SpecError diagnostic (line and column),
never a crash.  Counts and indices are integers >= 0; numbers are
finite.  An `input` whose sector `interferometer.check_sector_size`
refuses, or whose mode unitary would hold over KEY_CAP entries, is
refused at its token, as is a cluster of over `cluster.NODE_CAP` nodes,
a cluster edge listed twice, a sweep of over SECTOR_CAP steps or a
run of over SECTOR_CAP trials.
A spec runs in exactly one mode: `sweep` and `trials` are mutually
exclusive; with neither, it is a single deterministic run.  A `gate`
brings its own herald, so a gate experiment that also declares `herald`
is refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .interferometer import KEY_CAP, SECTOR_CAP, check_sector_size

_TOKEN = re.compile(r"\S+")

SWEEP_PARAM = re.compile(r"^(overlap|eta|r(\d+))$")


class SpecError(Exception):
    """Located diagnostic for a malformed experiment description."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


@dataclass(frozen=True)
class ElementSpec:
    kind: str  # bs | phase | hwp | qwp | pbs
    params: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=1, compare=False)


@dataclass(frozen=True)
class GateSpec:
    name: str
    control: int
    target: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MeasureSpec:
    node: int
    basis: str  # xy | z
    angle_deg: float = 0.0
    adapt: tuple[int, ...] = ()
    successor: int | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ClusterSpec:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    measures: tuple[MeasureSpec, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ExperimentSpec:
    modes: int | None = None
    input_occupations: tuple[int, ...] | None = None
    elements: tuple[ElementSpec, ...] = ()
    herald: tuple[tuple[int, int], ...] | None = None
    gate: GateSpec | None = None
    cluster: ClusterSpec | None = None
    sweep: SweepSpec | None = None
    trials: int | None = None
    seed: int = 0
    emit: str = "json"

    @property
    def run_mode(self) -> str:
        if self.sweep is not None:
            return "sweep"
        if self.trials is not None:
            return "monte-carlo"
        return "single"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _tokens(line: str) -> list[tuple[str, int]]:
    body = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]


def _as_int(tok: str, line: int, col: int, what: str, minimum: int = 0) -> int:
    """Integer token; every count and index in the language is >= 0."""
    try:
        value = int(tok)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {tok!r}", line, col) from None
    if value < minimum:
        raise SpecError(f"{what} must be >= {minimum}, got {value}", line, col)
    return value


def _as_float(tok: str, line: int, col: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise SpecError(f"{what} must be a number, got {tok!r}", line, col) from None
    if not math.isfinite(value):
        raise SpecError(f"{what} must be finite, got {tok!r}", line, col)
    return value


def _need(toks, count, line, directive):
    if len(toks) - 1 != count:
        raise SpecError(
            f"'{directive}' takes {count} argument(s), got {len(toks) - 1}",
            line,
            toks[0][1],
        )


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.modes: tuple[int, int] | None = None  # (value, line)
        self.input: tuple[tuple[int, ...], int] | None = None
        self.elements: list[ElementSpec] = []
        self.herald: tuple[tuple[tuple[int, int], ...], int] | None = None
        self.gate: GateSpec | None = None
        self.sweep: SweepSpec | None = None
        self.trials: tuple[int, int, int] | None = None  # (trials, seed, line)
        self.emit: tuple[str, int] | None = None
        self.cluster: ClusterSpec | None = None
        self.first_line: int | None = None  # of the first directive

    def parse(self) -> ExperimentSpec:
        i = 0
        while i < len(self.lines):
            toks = _tokens(self.lines[i])
            lineno = i + 1
            if not toks:
                i += 1
                continue
            head, col = toks[0]
            if self.first_line is None:
                self.first_line = lineno
            if head == "cluster":
                i = self._parse_cluster(i, toks)
                continue
            handler = getattr(self, f"_dir_{head.replace('-', '_')}", None)
            if handler is None:
                raise SpecError(f"unknown directive {head!r}", lineno, col)
            handler(toks, lineno)
            i += 1
        return self._validate()

    # -- single-line directives -------------------------------------------

    def _no_dup(self, existing, name: str, line: int, col: int):
        if existing is not None:
            raise SpecError(f"duplicate '{name}' directive", line, col)

    def _dir_modes(self, toks, line):
        self._no_dup(self.modes, "modes", line, toks[0][1])
        _need(toks, 1, line, "modes")
        n = _as_int(toks[1][0], line, toks[1][1], "mode count", minimum=1)
        self.modes = (n, line)

    def _dir_input(self, toks, line):
        self._no_dup(self.input, "input", line, toks[0][1])
        if len(toks) < 2:
            raise SpecError("'input' needs at least one occupation", line, toks[0][1])
        occ = []
        for tok, col in toks[1:]:
            occ.append(_as_int(tok, line, col, "occupation"))
        try:
            check_sector_size(sum(occ), len(occ))
            # one photon makes modes^2 keys: only a vacuum input gets here
            if (entries := len(occ) ** 2) > KEY_CAP:
                raise ValueError(f"the mode unitary has {entries} entries, cap is {KEY_CAP}")
        except ValueError as exc:
            raise SpecError(str(exc), line, toks[0][1]) from None
        self.input = (tuple(occ), line)

    def _element(self, kind, params, line, col):
        self.elements.append(ElementSpec(kind, tuple(params), line, col))

    def _dir_bs(self, toks, line):
        _need(toks, 3, line, "bs")
        a = _as_int(toks[1][0], line, toks[1][1], "mode index")
        b = _as_int(toks[2][0], line, toks[2][1], "mode index")
        r = _as_float(toks[3][0], line, toks[3][1], "reflectivity")
        if not 0.0 <= r <= 1.0:
            raise SpecError("reflectivity must lie in [0, 1]", line, toks[3][1])
        if a == b:
            raise SpecError("bs needs two distinct modes", line, toks[2][1])
        self._element("bs", (a, b, r), line, toks[0][1])

    def _dir_phase(self, toks, line):
        _need(toks, 2, line, "phase")
        m = _as_int(toks[1][0], line, toks[1][1], "mode index")
        deg = _as_float(toks[2][0], line, toks[2][1], "phase angle")
        self._element("phase", (m, deg), line, toks[0][1])

    def _waveplate(self, kind, toks, line):
        _need(toks, 2, line, kind)
        p = _as_int(toks[1][0], line, toks[1][1], "pair index")
        deg = _as_float(toks[2][0], line, toks[2][1], "waveplate angle")
        self._element(kind, (p, deg), line, toks[0][1])

    def _dir_hwp(self, toks, line):
        self._waveplate("hwp", toks, line)

    def _dir_qwp(self, toks, line):
        self._waveplate("qwp", toks, line)

    def _dir_pbs(self, toks, line):
        _need(toks, 2, line, "pbs")
        p = _as_int(toks[1][0], line, toks[1][1], "pair index")
        q = _as_int(toks[2][0], line, toks[2][1], "pair index")
        if p == q:
            raise SpecError("pbs needs two distinct pairs", line, toks[2][1])
        self._element("pbs", (p, q), line, toks[0][1])

    def _dir_herald(self, toks, line):
        self._no_dup(self.herald, "herald", line, toks[0][1])
        if len(toks) < 2:
            raise SpecError("'herald' needs at least one mode=count", line, toks[0][1])
        pairs = []
        seen = set()
        for tok, col in toks[1:]:
            if "=" not in tok:
                raise SpecError(f"herald assignment must be mode=count, got {tok!r}", line, col)
            m_s, c_s = tok.split("=", 1)
            m = _as_int(m_s, line, col, "herald mode")
            c = _as_int(c_s, line, col, "herald count")
            if m in seen:
                raise SpecError(f"herald mode {m} assigned twice", line, col)
            seen.add(m)
            pairs.append((m, c))
        self.herald = (tuple(sorted(pairs)), line)

    def _dir_gate(self, toks, line):
        self._no_dup(self.gate, "gate", line, toks[0][1])
        _need(toks, 3, line, "gate")
        name = toks[1][0]
        if name != "klm_cnot":
            raise SpecError(f"unknown gate {name!r} (only klm_cnot)", line, toks[1][1])
        roles = {}
        for tok, col in toks[2:]:
            m = re.fullmatch(r"(control|target)=q(\d+)", tok)
            if not m:
                raise SpecError(
                    f"gate argument must be control=qN or target=qN, got {tok!r}",
                    line,
                    col,
                )
            roles[m.group(1)] = int(m.group(2))
        if set(roles) != {"control", "target"}:
            raise SpecError("gate needs both control=qN and target=qN", line, toks[0][1])
        if roles["control"] == roles["target"]:
            raise SpecError("control and target must differ", line, toks[0][1])
        self.gate = GateSpec("klm_cnot", roles["control"], roles["target"], line)

    def _dir_sweep(self, toks, line):
        self._no_dup(self.sweep, "sweep", line, toks[0][1])
        _need(toks, 7, line, "sweep")
        param = toks[1][0]
        if not SWEEP_PARAM.match(param):
            raise SpecError(
                f"unknown sweep parameter {param!r} (overlap, eta, or r<k>)",
                line,
                toks[1][1],
            )
        if toks[2][0] != "from" or toks[4][0] != "to" or toks[6][0] != "steps":
            raise SpecError(
                "sweep syntax is: sweep <param> from X to Y steps K", line, toks[0][1]
            )
        start = _as_float(toks[3][0], line, toks[3][1], "sweep start")
        stop = _as_float(toks[5][0], line, toks[5][1], "sweep stop")
        steps = _as_int(toks[7][0], line, toks[7][1], "sweep steps", minimum=2)
        if steps > SECTOR_CAP:
            raise SpecError(f"sweep steps must be <= {SECTOR_CAP}, got {steps}", line, toks[7][1])
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
            what = "reflectivity" if param.startswith("r") else param
            raise SpecError(f"{what} sweep range must lie in [0, 1]", line, toks[3][1])
        self.sweep = SweepSpec(param, start, stop, steps, line)

    def _dir_trials(self, toks, line):
        self._no_dup(self.trials, "trials", line, toks[0][1])
        _need(toks, 3, line, "trials")
        n = _as_int(toks[1][0], line, toks[1][1], "trial count", minimum=1)
        if n > SECTOR_CAP:
            raise SpecError(f"trial count must be <= {SECTOR_CAP}, got {n}", line, toks[1][1])
        if toks[2][0] != "seed":
            raise SpecError("trials syntax is: trials N seed S", line, toks[2][1])
        s = _as_int(toks[3][0], line, toks[3][1], "seed")
        self.trials = (n, s, line)

    def _dir_emit(self, toks, line):
        self._no_dup(self.emit, "emit", line, toks[0][1])
        _need(toks, 1, line, "emit")
        fmt = toks[1][0]
        if fmt not in ("json", "csv"):
            raise SpecError(f"emit format must be json or csv, got {fmt!r}", line, toks[1][1])
        self.emit = (fmt, line)

    # -- cluster block ------------------------------------------------------

    def _parse_cluster(self, i: int, toks) -> int:
        line = i + 1
        if self.cluster is not None:
            raise SpecError("duplicate 'cluster' block", line, toks[0][1])
        if len(toks) != 2 or toks[1][0] != "{":
            raise SpecError("cluster block opens with: cluster {", line, toks[0][1])
        node_count: tuple[int, int] | None = None
        edges: list[tuple[int, int]] = []
        measures: list[MeasureSpec] = []
        i += 1
        while True:
            if i >= len(self.lines):
                raise SpecError("unterminated cluster block", line, toks[0][1])
            btoks = _tokens(self.lines[i])
            blineno = i + 1
            if not btoks:
                i += 1
                continue
            head, col = btoks[0]
            if head == "}":
                break
            if head == "nodes":
                if node_count is not None:
                    raise SpecError("duplicate 'nodes' in cluster block", blineno, col)
                _need(btoks, 1, blineno, "nodes")
                n = _as_int(btoks[1][0], blineno, btoks[1][1], "node count", minimum=1)
                # imported here: loading `cluster` from this module's header
                # runs it before the engine modules, and that import order
                # measured 1.5 MiB more peak memory on the largest CSV reports
                from .cluster import NODE_CAP

                if n > NODE_CAP:
                    raise SpecError(f"cluster has {n} nodes, cap is {NODE_CAP}", blineno, col)
                node_count = (n, blineno)
            elif head == "edges":
                for tok, tcol in btoks[1:]:
                    m = re.fullmatch(r"(\d+)-(\d+)", tok)
                    if not m:
                        raise SpecError(f"edge must be a-b, got {tok!r}", blineno, tcol)
                    a, b = int(m.group(1)), int(m.group(2))
                    if (a, b) in edges or (b, a) in edges:
                        raise SpecError(
                            f"duplicate edge ({min(a, b)}, {max(a, b)})", blineno, tcol
                        )
                    edges.append((a, b))
            elif head == "measure":
                measures.append(self._parse_measure(btoks, blineno))
            else:
                raise SpecError(f"unknown cluster directive {head!r}", blineno, col)
            i += 1
        if node_count is None:
            raise SpecError("cluster block needs a 'nodes' line", line, toks[0][1])
        self.cluster = ClusterSpec(node_count[0], tuple(edges), tuple(measures), line)
        return i + 1

    def _parse_measure(self, toks, line) -> MeasureSpec:
        node = _as_int(toks[1][0], line, toks[1][1], "node") if len(toks) > 1 else None
        if node is None:
            raise SpecError("'measure' needs a node", line, toks[0][1])
        rest = toks[2:]
        basis = "xy"
        angle = 0.0
        adapt: list[int] = []
        succ: int | None = None
        k = 0
        while k < len(rest):
            key, kcol = rest[k]
            if key == "angle":
                if k + 1 >= len(rest):
                    raise SpecError("'angle' needs a value", line, kcol)
                angle = _as_float(rest[k + 1][0], line, rest[k + 1][1], "angle")
                k += 2
            elif key == "basis":
                if k + 1 >= len(rest) or rest[k + 1][0] != "z":
                    raise SpecError("only 'basis z' is supported", line, kcol)
                basis = "z"
                k += 2
            elif key == "adapt":
                k += 1
                start = len(adapt)
                while k < len(rest) and rest[k][0].lstrip("-").isdecimal():
                    adapt.append(_as_int(rest[k][0], line, rest[k][1], "adapt node"))
                    k += 1
                if len(adapt) == start:
                    raise SpecError("'adapt' needs node ids", line, kcol)
            elif key == "succ":
                if k + 1 >= len(rest):
                    raise SpecError("'succ' needs a node id", line, kcol)
                succ = _as_int(rest[k + 1][0], line, rest[k + 1][1], "successor")
                k += 2
            else:
                raise SpecError(f"unknown measure option {key!r}", line, kcol)
        return MeasureSpec(node, basis, angle, tuple(adapt), succ, line)

    # -- whole-spec validation ----------------------------------------------

    def _validate(self) -> ExperimentSpec:
        modes = self.modes[0] if self.modes else None
        if self.cluster is not None:
            for other, name in (
                (self.input, "input"),
                (self.herald, "herald"),
                (self.gate, "gate"),
            ):
                if other is not None:
                    raise SpecError(
                        f"a cluster experiment cannot also declare '{name}'",
                        self.cluster.line,
                    )
            if self.elements:
                raise SpecError(
                    "a cluster experiment cannot also declare optical elements",
                    self.elements[0].line,
                    self.elements[0].col,
                )
            if self.sweep is not None:
                raise SpecError("cluster experiments do not sweep", self.sweep.line)
            self._validate_cluster()
        else:
            if self.gate is not None and self.herald is not None:
                raise SpecError(
                    "a gate experiment cannot also declare 'herald'", self.herald[1]
                )
            if modes is None and (self.input or self.elements or self.herald or self.gate):
                ref = self.input[1] if self.input else (
                    self.elements[0].line if self.elements else (
                        self.herald[1] if self.herald else self.gate.line
                    )
                )
                raise SpecError("'modes N' must be declared", ref)
            if self.input is not None and modes is not None:
                occ, line = self.input
                if len(occ) != modes:
                    raise SpecError(
                        f"input lists {len(occ)} occupations for {modes} modes", line
                    )
            for e in self.elements:
                self._check_element_modes(e, modes)
            if self.herald is not None:
                for m, _c in self.herald[0]:
                    if m >= modes:
                        raise SpecError(
                            f"herald measures undeclared mode {m}", self.herald[1]
                        )
            if self.gate is not None:
                if modes != 4:
                    raise SpecError(
                        "gate klm_cnot needs 'modes 4' (two dual-rail qubits)",
                        self.gate.line,
                    )
                if self.input is None:
                    raise SpecError("gate experiments need an 'input' line", self.gate.line)
                if not {self.gate.control, self.gate.target} <= {0, 1}:
                    raise SpecError("gate qubits must be q0 and q1", self.gate.line)
            if self.input is None:
                ref = self.elements[0].line if self.elements else (
                    self.herald[1] if self.herald else self.first_line or 1
                )
                raise SpecError("'input' must be declared", ref)

        if self.sweep is not None and self.trials is not None:
            raise SpecError(
                "duplicate run mode: 'sweep' and 'trials' are exclusive",
                max(self.sweep.line, self.trials[2]),
            )
        if self.sweep is not None:
            self._validate_sweep()

        return ExperimentSpec(
            modes=modes,
            input_occupations=self.input[0] if self.input else None,
            elements=tuple(self.elements),
            herald=self.herald[0] if self.herald else None,
            gate=self.gate,
            cluster=self.cluster,
            sweep=self.sweep,
            trials=self.trials[0] if self.trials else None,
            seed=self.trials[1] if self.trials else 0,
            emit=self.emit[0] if self.emit else "json",
        )

    def _check_element_modes(self, e: ElementSpec, modes: int):
        if e.kind == "bs":
            touched = (e.params[0], e.params[1])
        elif e.kind == "phase":
            touched = (e.params[0],)
        elif e.kind in ("hwp", "qwp"):
            touched = (2 * e.params[0], 2 * e.params[0] + 1)
        else:  # pbs
            touched = (2 * e.params[0] + 1, 2 * e.params[1] + 1)
        for m in touched:
            if m >= modes:
                raise SpecError(
                    f"'{e.kind}' touches undeclared mode {m} (modes {modes})",
                    e.line,
                    e.col,
                )

    def _validate_sweep(self):
        sw = self.sweep
        if self.gate is not None:
            raise SpecError("sweeps apply to element pipelines, not gates", sw.line)
        if sw.param == "overlap":
            bss = [e for e in self.elements if e.kind == "bs"]
            if len(self.elements) != 1 or len(bss) != 1:
                raise SpecError(
                    "an overlap sweep needs exactly one bs element", sw.line
                )
            a, b, _r = bss[0].params
            occ = self.input[0]
            ok = all(
                (occ[m] == 1 if m in (a, b) else occ[m] == 0)
                for m in range(len(occ))
            )
            if not ok:
                raise SpecError(
                    "an overlap sweep needs one photon in each bs input", sw.line
                )
            if self.herald is None or dict(self.herald[0]) != {a: 1, b: 1}:
                raise SpecError(
                    "an overlap sweep needs 'herald a=1 b=1' on the bs modes", sw.line
                )
        elif sw.param == "eta":
            if self.herald is None:
                raise SpecError("an eta sweep needs a herald", sw.line)
        else:
            k = int(sw.param[1:])
            bss = [e for e in self.elements if e.kind == "bs"]
            if k >= len(bss):
                raise SpecError(
                    f"sweep {sw.param!r}: only {len(bss)} bs element(s) declared", sw.line
                )
            if self.herald is None:
                raise SpecError("a reflectivity sweep needs a herald", sw.line)

    def _validate_cluster(self):
        c = self.cluster
        n = c.node_count
        for a, b in c.edges:
            if a >= n or b >= n:
                raise SpecError(f"edge ({a},{b}) uses an undeclared node", c.line)
            if a == b:
                raise SpecError(f"self-edge on node {a}", c.line)
        seen: set[int] = set()
        for m in c.measures:
            if m.node >= n:
                raise SpecError(f"measure on undeclared node {m.node}", m.line)
            if m.node in seen:
                raise SpecError(f"node {m.node} measured twice", m.line)
            for ref in m.adapt:
                if ref not in seen:
                    raise SpecError(
                        f"adapt references node {ref} before it is measured", m.line
                    )
            if m.successor is not None and (
                m.successor >= n or m.successor == m.node or m.successor in seen
            ):
                raise SpecError(f"invalid successor {m.successor}", m.line)
            seen.add(m.node)


def parse(text: str) -> ExperimentSpec:
    """Parse an experiment description; raises SpecError with location."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# serialization (canonical form; parse(serialize(s)) == s)
# ---------------------------------------------------------------------------

def _num(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def serialize(spec: ExperimentSpec) -> str:
    out: list[str] = []
    if spec.modes is not None:
        out.append(f"modes {spec.modes}")
    if spec.input_occupations is not None:
        out.append("input " + " ".join(str(n) for n in spec.input_occupations))
    for e in spec.elements:
        out.append(f"{e.kind} " + " ".join(_num(p) for p in e.params))
    if spec.gate is not None:
        out.append(
            f"gate {spec.gate.name} control=q{spec.gate.control} target=q{spec.gate.target}"
        )
    if spec.herald is not None:
        out.append("herald " + " ".join(f"{m}={c}" for m, c in spec.herald))
    if spec.cluster is not None:
        c = spec.cluster
        out.append("cluster {")
        out.append(f"  nodes {c.node_count}")
        if c.edges:
            out.append("  edges " + " ".join(f"{a}-{b}" for a, b in c.edges))
        for m in c.measures:
            parts = [f"  measure {m.node}"]
            if m.basis == "z":
                parts.append("basis z")
            if m.basis == "xy" or m.angle_deg:
                parts.append(f"angle {_num(m.angle_deg)}")
            if m.adapt:
                parts.append("adapt " + " ".join(str(a) for a in m.adapt))
            if m.successor is not None:
                parts.append(f"succ {m.successor}")
            out.append(" ".join(parts))
        out.append("}")
    if spec.sweep is not None:
        s = spec.sweep
        out.append(
            f"sweep {s.param} from {_num(s.start)} to {_num(s.stop)} steps {s.steps}"
        )
    if spec.trials is not None:
        out.append(f"trials {spec.trials} seed {spec.seed}")
    out.append(f"emit {spec.emit}")
    return "\n".join(out) + "\n"
