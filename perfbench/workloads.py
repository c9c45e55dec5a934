"""The three workloads: inputs made from the seed, operations, known answers.

Each workload yields operations from ``stream()``.  The stream repeats
its mix every ``cycle`` operations: a timed run ends on a cycle boundary,
so every run has the same mix, and a traced pass runs the first cycle.
``run(op)``
executes one operation, times only the call into the program, and
checks the output against the answer the benchmark derived itself.
It returns ``(seconds, status, detail)`` with status ``ok``, ``wrong``
(an output disagrees with its known answer) or ``failed`` (the program
raised, or exited without producing an output).
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import operator
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SNAPSHOTS = HERE / "snapshots"

# Numbers of the corrigendum, re-derived here from their stated parts.
P_REGULAR = 25 + 103 + 219
P_VERY_DEGENERATE = 103
T_MODELS = 118 + 11
P_CONES = 1 * 1 + 2 * 2 + 10 * 3 + 437 * 6
T_CONES = 118 * 6 + 11 * 3
SHIPPED_CENSUS = {
    "census.p_regular_classes": P_REGULAR,
    "census.p_models": P_REGULAR + P_VERY_DEGENERATE,
    "census.t_models": T_MODELS,
    "census.p_cones": P_CONES,
    "census.t_cones": T_CONES,
    "census.total_cones": P_CONES + T_CONES,
    "census.closure_oracle": P_REGULAR,
}
# 23 synthesized census verdicts plus the 22 claims of the shipped file.
SHIPPED_VERDICTS = 45

ELEMENTS = ("e", "s", "s2", "i", "is", "is2")


def run_child(cmd, env, cwd, limit=120):
    """Run ``cmd`` to completion, killing it after ``limit`` seconds.

    ``subprocess.run(timeout=...)`` polls for the child's exit with sleeps
    of up to 50 ms, which would show up in the measured time; a blocking
    wait with a watchdog thread does not.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


@dataclass
class Op:
    kind: str
    tag: str
    args: tuple = ()
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------- reference


def _shift(t):
    return (t[1], t[2], t[0])


def _involution(t):
    return (-t[1], -t[0], -t[2])


def group_images(t):
    """Images of ``t`` under e, s, s2, i, is, is2, in that order."""
    s1 = _shift(t)
    s2 = _shift(s1)
    return [t, s1, s2, _involution(t), _involution(s1), _involution(s2)]


def orbit_answer(t):
    images = group_images(t)
    orbit = sorted(set(images))
    return {
        "triple": list(t),
        "orbit": [list(m) for m in orbit],
        "orbit_length": len(orbit),
        "stabilizer_order": 6 // len(orbit),
        "stabilizer": [g for g, image in zip(ELEMENTS, images) if image == t],
        "canonical": list(orbit[0]),
    }


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_TEXT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def int_eval(text):
    """Exact value of an integer expression over + - * and parentheses."""

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](value(node.left), value(node.right))
        raise ValueError(f"not an integer expression: {text!r}")

    return value(ast.parse(text.strip(), mode="eval").body)


_CLAIM_LINE = re.compile(
    r'claim\s+(\w+)\s*:\s*(.*?)==(.*?)\s+expect=(holds|fails)(?:\s+cite="([^"]*)")?\s*$'
)


def claim_answers(text):
    """(name, holds, lhs, rhs, expected, cite) of each claim line."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, lhs, rhs, expect, cite = _CLAIM_LINE.match(line).groups()
        lv, rv = int_eval(lhs), int_eval(rhs)
        out.append((name, lv == rv, lv, rv, expect, cite or ""))
    return out


def verdict_rows(payload):
    return [
        (v["name"], v["holds"], v["lhs"], v["rhs"], v["expected"], v["cite"])
        for v in payload["verdicts"]
    ]


def check_audit(payload, claims, census_names, returncode):
    """Verdicts of an ``audit``/``verify`` JSON payload against known answers.

    ``census_names`` lists the synthesized verdicts that must precede the
    claims and hold (``[]`` for ``audit``).
    """
    rows = verdict_rows(payload)
    census = [r for r in rows if r[0].startswith("census.")]
    if [r[0] for r in census] != census_names or not all(r[1] for r in census):
        return "census verdicts differ"
    if rows[len(census):] != claims:
        return "claim verdicts differ from their known values"
    for v in payload["verdicts"]:
        if v["as_expected"] != (v["holds"] == (v["expected"] == "holds")):
            return f"as_expected of {v['name']} is inconsistent"
    status = 0 if all(r[1] == (r[4] == "holds") for r in claims) else 1
    if payload["exit_status"] != status or returncode != status:
        return f"exit {returncode}/{payload['exit_status']}, expected {status}"
    return None


# ------------------------------------------------------------------- verify


class VerifyWorkload:
    """In-process ``audit.run_full_verification()`` on the shipped inputs."""

    name = "verify"
    cycle = 1

    def __init__(self, seed, root):
        self.root = root
        data = root / "src" / "moricensus" / "data" / "claims.txt"
        self.claims = claim_answers(data.read_text("utf-8"))
        self.op = Op("verify", "rigid")

    def stream(self):
        return itertools.repeat(self.op)

    def run(self, op):
        audit = sys.modules["moricensus.audit"]
        start = time.perf_counter()
        try:
            report = audit.run_full_verification()
        except Exception as exc:  # the program's failure is the measurement
            return time.perf_counter() - start, "failed", repr(exc)
        elapsed = time.perf_counter() - start
        return elapsed, *self.check(report)

    def check(self, report):
        verdicts = report.verdicts
        if len(verdicts) != SHIPPED_VERDICTS:
            return "wrong", f"{len(verdicts)} verdicts, expected {SHIPPED_VERDICTS}"
        by_name = {v.name: v for v in verdicts}
        for name, want in SHIPPED_CENSUS.items():
            v = by_name.get(name)
            if v is None or not v.holds or v.lhs_value != want:
                return "wrong", f"{name} is not {want}"
        census = [v for v in verdicts if v.name.startswith("census.")]
        if not all(v.holds and v.as_expected for v in census):
            return "wrong", "a census verdict fails"
        claims = [
            (v.name, v.holds, v.lhs_value, v.rhs_value,
             "holds" if v.expect_holds else "fails", v.cite)
            for v in verdicts if not v.name.startswith("census.")
        ]
        if claims != self.claims:
            return "wrong", "claim verdicts differ from their known values"
        if not all(v.as_expected for v in verdicts) or report.exit_status != 0:
            return "wrong", "exit_status is not 0"
        return "ok", ""


# ------------------------------------------------------------ canon-search


def _load_generators(root):
    """``random_multigraph`` and ``circulant`` from the kernel benchmark."""
    import importlib.util

    path = root / "benchmarks" / "bench_canonical.py"
    spec = importlib.util.spec_from_file_location("bench_canonical", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_multigraph, module.circulant


class CanonSearchWorkload:
    """``graphs.iso`` on seeded random multigraphs and relabelled circulants.

    One round is 60 random multigraphs (n = 6, 8, 10 in turn), three
    relabelled C_8(1,2) and two C_9(1,2); every 16th round adds one
    relabelled C_10(1,2).  Within each 16-round period, each graph kind
    alternates between an isomorphic relabelling (known answer True),
    which comes first, and a mutant with one edge multiplicity raised, so
    its multiset of (edge label, mult) differs (known answer False).
    """

    name = "canon-search"
    ROUND = [("random", n) for n in (6, 8, 10)] * 20 + [("circulant", 8)] * 3 \
        + [("circulant", 9)] * 2
    PERIOD = 16
    cycle = PERIOD * len(ROUND) + 1

    def __init__(self, seed, root):
        self.seed = seed
        self.random_multigraph, self.circulant = _load_generators(root)

    def _graph(self, labels, edges):
        return sys.modules["moricensus.graphs"].LabeledGraph.build(labels, edges)

    def _relabel(self, rng, labels, edges):
        n = len(labels)
        perm = rng.sample(range(n), n)
        moved = [0] * n
        for v in range(n):
            moved[perm[v]] = labels[v]
        return moved, [(perm[u], perm[v], e, m) for u, v, e, m in edges]

    def stream(self):
        rng = random.Random(self.seed)
        for index in itertools.count():
            if index % self.PERIOD == 0:
                toggle = {}  # every period has the same mix
            kinds = list(self.ROUND)
            if index % self.PERIOD == self.PERIOD - 1:
                kinds.append(("circulant", 10))
            for tag, n in kinds:
                if tag == "random":
                    _, labels, edges = self.random_multigraph(rng, n)
                else:
                    _, labels, edges = self.circulant(n, (1, 2))
                    labels, edges = self._relabel(rng, labels, edges)
                same = toggle.get((tag, n), True)
                toggle[(tag, n)] = not same
                if same:
                    other = self._relabel(rng, labels, edges)
                else:
                    k = rng.randrange(len(edges))
                    u, v, e, m = edges[k]
                    other = (labels, edges[:k] + [(u, v, e, m + 1)] + edges[k + 1:])
                yield Op(
                    f"{tag}{n}", tag,
                    (self._graph(labels, edges), self._graph(*other)),
                    {"iso": same},
                )

    def run(self, op):
        graphs = sys.modules["moricensus.graphs"]
        g, h = op.args
        start = time.perf_counter()
        try:
            result = graphs.iso(g, h)
        except Exception as exc:  # the program's failure is the measurement
            return time.perf_counter() - start, "failed", repr(exc)
        elapsed = time.perf_counter() - start
        if result is not op.expect["iso"]:
            return elapsed, "wrong", f"iso returned {result!r} on {op.kind}"
        return elapsed, "ok", ""


# ---------------------------------------------------------------- cli-audit


def _split(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _expr(rng, depth):
    """Random expression text with its exact value.

    Leaves are at most 30, so a depth-3 value is at most 30**8, inside the
    claims evaluator's documented guard of 10**12.
    """
    if depth == 0 or rng.random() < 0.3:
        value = rng.randint(0, 30)
        return str(value), value
    if rng.random() < 0.1:
        text, value = _expr(rng, depth - 1)
        return f"-({text})", -value
    op = rng.choice("+-*")
    lt, lv = _expr(rng, depth - 1)
    rt, rv = _expr(rng, depth - 1)
    return f"({lt} {op} {rt})", _TEXT_OPS[op](lv, rv)


def claims_file(rng, count, mismatch):
    """A claims file and its known verdict rows.

    About a fifth of the identities are false; the ``expect`` marker
    agrees with the truth except, when ``mismatch``, on one claim.
    """
    lines, rows = [], []
    flip = rng.randrange(count) if mismatch else -1
    for i in range(count):
        text, value = _expr(rng, 3)
        holds = rng.random() < 0.8
        rhs = value if holds else value + rng.choice([-1, 1]) * rng.randint(1, 9)
        expect = "holds" if holds != (i == flip) else "fails"
        cite = f"generated {i}"
        lines.append(f'claim c{i:04d}: {text} == {rhs} expect={expect} cite="{cite}"')
        rows.append((f"c{i:04d}", holds, value, rhs, expect, cite))
    return "\n".join(lines) + "\n", rows


def declared_file(rng, t_models, t_symmetric, p_vd, fillers):
    """A declared-census reading with ``fillers`` extra breakdown entries."""
    lines = [
        "entry t_models: count={} breakdown={} cite=\"reading\"".format(
            t_models, "+".join(map(str, _split(rng, t_models, 3)))),
        f"entry t_symmetric: count={t_symmetric}",
        "entry p_very_degenerate: count={} breakdown={}".format(
            p_vd, "+".join(map(str, _split(rng, p_vd, 3)))),
        "entry p_very_degenerate_symmetric: count=1",
    ]
    for i in range(fillers):
        count = rng.randint(0, 500)
        parts = "+".join(map(str, _split(rng, count, rng.randint(1, 4))))
        lines.append(f'entry filler_{i:04d}: count={count} breakdown={parts} cite="x {i}"')
    return "\n".join(lines) + "\n"


def graph_file(t):
    a, b, c = t
    return (
        "node n0 label=0\nnode n1 label=1\nnode n2 label=2\n"
        f"edge n0 n1 label={a}\nedge n1 n2 label={b}\nedge n2 n0 label={c}\n"
    )


class CliAuditWorkload:
    """One ``python -m moricensus.cli ... --format json`` subprocess per op.

    A pool of 27 commands, interleaved by kind and cycled: four census
    readings (two with p_very_degenerate != 103), ten ``audit`` and two
    ``verify`` runs on generated claims files, four ``orbits``, three
    ``closure`` runs on encoded triples, and four commands on the shipped
    inputs whose JSON must equal the snapshots.  The counts put the median
    in the middle of the ``audit`` latencies, between the start-up-bound
    ``orbits``/``closure`` runs and the census-bound ``census``/``verify``
    runs, so a small shift of either group does not move it to another.
    """

    name = "cli-audit"
    CLAIMS_PER_FILE = 600
    FILLER_ENTRIES = 300

    def __init__(self, seed, root, env, workdir):
        self.root = root
        self.env = env
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name, text):
            path = workdir / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        kinds = {k: [] for k in ("census", "audit", "verify", "orbits", "closure",
                                 "shipped")}
        for i in range(4):
            t_models = rng.randint(110, 150)
            t_sym = rng.randint(0, 20)
            p_vd = P_VERY_DEGENERATE
            if i % 2:
                p_vd += rng.choice([-1, 1]) * rng.randint(1, 5)
            path = write(f"reading{i}.cfg", declared_file(
                rng, t_models, t_sym, p_vd, self.FILLER_ENTRIES))
            p_cones = P_CONES + 6 * (p_vd - P_VERY_DEGENERATE)
            t_cones = 6 * (t_models - t_sym) + 3 * t_sym
            kinds["census"].append(Op("census", "none", ("census", "--config", path), {
                "census": {"p_models": P_REGULAR + p_vd, "t_models": t_models,
                           "p_cones": p_cones, "t_cones": t_cones,
                           "total_cones": p_cones + t_cones, "p_symmetric": 13},
            }))
        for i in range(10):
            text, rows = claims_file(rng, self.CLAIMS_PER_FILE, mismatch=(i % 3 == 0))
            path = write(f"audit{i}.txt", text)
            kinds["audit"].append(Op("audit", "none", ("audit", "--claims", path),
                                     {"claims": rows, "census_verdicts": []}))
        census_names = [
            v["name"] for v in json.loads((SNAPSHOTS / "verify.json").read_text())
            ["verdicts"] if v["name"].startswith("census.")
        ]
        for i in range(2):
            text, rows = claims_file(rng, self.CLAIMS_PER_FILE, mismatch=(i == 1))
            path = write(f"verify{i}.txt", text)
            kinds["verify"].append(Op("verify", "rigid", ("verify", "--claims", path),
                                      {"claims": rows, "census_verdicts": census_names}))
        for _ in range(4):
            t = tuple(rng.randint(-9, 9) for _ in range(3))
            kinds["orbits"].append(Op(
                "orbits", "none", ("orbits", "--format", "json", "--", *map(str, t)),
                {"orbits": orbit_answer(t)}))
        for i in range(3):
            t = tuple(rng.randint(-9, 9) for _ in range(3))
            path = write(f"triple{i}.graph", graph_file(t))
            kinds["closure"].append(self._closure_op(path, t))
        shipped = (-6, 0, 3)
        shipped_claims = claim_answers(
            (root / "src" / "moricensus" / "data" / "claims.txt").read_text("utf-8"))
        kinds["shipped"] = [
            Op("census-shipped", "none", ("census",), {
                "snapshot": "census.json",
                "census": {"p_models": P_REGULAR + P_VERY_DEGENERATE,
                           "t_models": T_MODELS, "p_cones": P_CONES,
                           "t_cones": T_CONES, "total_cones": P_CONES + T_CONES,
                           "p_symmetric": 13},
            }),
            Op("verify-shipped", "rigid", ("verify",), {
                "snapshot": "verify.json", "claims": shipped_claims,
                "census_verdicts": census_names,
            }),
            Op("orbits-shipped", "none",
               ("orbits", "--format", "json", "--", *map(str, shipped)),
               {"snapshot": "orbits.json", "orbits": orbit_answer(shipped)}),
            self._closure_op(write("shipped.graph", graph_file(shipped)), shipped),
        ]
        # closure JSON is compared by field, because its "backend" may change.
        saved = json.loads((SNAPSHOTS / "closure.json").read_text())
        want = kinds["shipped"][-1].expect["closure"]
        if {k: saved[k] for k in want} != want:
            raise RuntimeError(f"closure snapshot {saved} disagrees with {want}")
        self.pool = [
            op for group in itertools.zip_longest(*kinds.values())
            for op in group if op is not None
        ]
        self.cycle = len(self.pool)
        self.snapshots = {
            name: (SNAPSHOTS / name).read_bytes()
            for name in ("census.json", "verify.json", "orbits.json")
        }

    @staticmethod
    def _closure_op(path, t):
        length = len(set(group_images(t)))
        return Op("closure", "rigid",
                  ("closure", "--graph", path, "--moves", "triple_group"),
                  {"closure": {"class_count": length, "expansion_steps": 2 * length,
                               "moves": "triple_group"}})

    @staticmethod
    def argv(op):
        args = list(op.args)
        if "--format" not in args:
            args += ["--format", "json"]
        return args

    def stream(self):
        return itertools.cycle(self.pool)

    def run(self, op):
        cmd = [sys.executable, "-m", "moricensus.cli", *self.argv(op)]
        start = time.perf_counter()
        returncode, out, err = run_child(cmd, self.env, self.root)
        elapsed = time.perf_counter() - start
        return elapsed, *self.check(op, out, returncode, err)

    def run_in_process(self, op):
        """The same command through ``cli.main`` in this process."""
        cli = sys.modules["moricensus.cli"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv(op))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            return time.perf_counter() - start, "failed", repr(exc)
        elapsed = time.perf_counter() - start
        return elapsed, *self.check(op, out.getvalue().encode(), code,
                                    err.getvalue().encode())

    def check(self, op, stdout, returncode, stderr):
        try:
            payload = json.loads(stdout)
        except ValueError:
            message = stderr.decode(errors="replace").strip().splitlines()
            shown = " ".join(Path(a).name for a in op.args)
            return "failed", (f"{shown} exited {returncode} without JSON: "
                              f"{message[-1] if message else ''}")
        if "snapshot" in op.expect and stdout != self.snapshots[op.expect["snapshot"]]:
            return "wrong", f"{op.kind} JSON differs from {op.expect['snapshot']}"
        try:
            problem = self._compare(op.expect, payload, returncode)
        except (AttributeError, KeyError, TypeError) as exc:
            problem = f"malformed JSON ({exc!r})"
        return ("wrong", f"{op.kind}: {problem}") if problem else ("ok", "")

    @staticmethod
    def _compare(expect, payload, returncode):
        if "census" in expect:
            want = expect["census"]
            got = {k: payload[k] for k in want if k != "p_symmetric"}
            got["p_symmetric"] = len(payload["p_symmetric"])
            if got != want or returncode != 0:
                return f"{got} (exit {returncode}), expected {want}"
        if "claims" in expect:
            problem = check_audit(payload, expect["claims"], expect["census_verdicts"],
                                  returncode)
            if problem:
                return problem
        if "orbits" in expect and (payload != expect["orbits"] or returncode != 0):
            return f"orbits of {payload.get('triple')} differ"
        if "closure" in expect:
            got = {k: payload.get(k) for k in expect["closure"]}
            if got != expect["closure"] or returncode != 0:
                return f"{got}, expected {expect['closure']}"
        return None


WORKLOADS = {
    "verify": VerifyWorkload,
    "canon-search": CanonSearchWorkload,
    "cli-audit": CliAuditWorkload,
}
