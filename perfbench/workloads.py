"""The four workloads: inputs from a seed, one pass of operations, exact checks.

Each workload has three steps.  `draw(seed)` makes the benchmark's side of
the inputs: sizes, raw rows and reference answers.  `setup(plan, workdir)`
builds the instances from them with the package's own generators; it is the
timed set-up.  `run_pass(state, tally)` makes one pass over the operations.  Operations go through the package's exported API
(`symilp.__init__`, `symdetect.detect` and `cli.main`) and are looked up at
call time, so the traced run sees them through its wrappers.  Every pass
works on fresh `ILPInstance` objects, so no cache survives from one pass to
the next.

A `SymilpError` raised by an operation is counted as a failure; a wrong
exact answer raises `ExactnessError`, which ends the benchmark.
"""

import contextlib
import io
import math
import os
import random
from fractions import Fraction

import symilp as S
from symilp import cli, symdetect
from symilp.errors import SymilpError

import corpus

# Euler's number to 30 decimals, for the reference floor(n/e)
_E = Fraction("2.718281828459045235360287471352")
_HALF = Fraction(1, 2)

# m of the symmetrized wild instance, pinned at the commit that introduced
# this benchmark (d = 10 gives the paper's 885,768)
WILD_ROWS = {6: 18288, 8: 130900, 10: 885768}


class ExactnessError(Exception):
    """A solver returned a wrong exact answer."""


class Tally:
    """Operations attempted and failed, with failures by error type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def op(self, fn, *args):
        """Run one operation; None when it raised a SymilpError."""
        self.attempted += 1
        try:
            return fn(*args)
        except SymilpError as exc:
            self.failed += 1
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return None


def require(ok, what, *args):
    """Raise ExactnessError with `what % args` unless `ok`."""
    if not ok:
        raise ExactnessError(what % args)


def fresh(inst):
    """A new instance over the same rows, with no cached state."""
    return S.ILPInstance(inst.rows, inst.c, name=inst.name)


def floor_n_over_e(n):
    return math.floor(n / _E)


def htc(n):
    return S.gen_hypertruncated_cube(S.HtcParams(n, floor_n_over_e(n), _HALF))


def sym_group(n):
    """Sym(n) from a transposition and an n-cycle, as exported types."""
    swap = S.SignedPermutation((2, 1) + tuple(range(3, n + 1)))
    cycle = S.SignedPermutation(tuple(range(2, n + 1)) + (1,))
    return S.GroupSpec(n, (swap, cycle))


def check_point(inst, out, value, what):
    """An optimal outcome with the given value and a feasible point."""
    require(out.status == "optimal", "%s: status %s, expected optimal", what, out.status)
    require(out.value == value, "%s: value %s, expected %s", what, out.value, value)
    require(sum(out.point) == value, "%s: point %s is off the optimal layer", what, out.point)
    require(inst.is_feasible(out.point), "%s: point %s is infeasible", what, out.point)


def check_ilp(inst, out, optimum, what):
    """`out` matches the reference optimum (None: no integral point)."""
    if out is None:
        return
    if optimum is None:
        require(out.status == "infeasible", "%s: status %s, expected infeasible", what, out.status)
    else:
        check_point(inst, out, optimum, what)


# --- paper_scan: core point scan on the two benchmark families, in memory


def paper_scan_draw(seed):
    return 1000 + random.Random(seed).randint(-4, 4)


def paper_scan_setup(n, workdir):
    d = 8
    cube = htc(n)
    wild = S.gen_wild(d)
    require(wild.m == WILD_ROWS[d], "wild d=%d: m=%d, expected %d", d, wild.m, WILD_ROWS[d])
    r = floor_n_over_e(n)
    return [
        (cube, r, (1,) * r + (0,) * (n - r), f"htc n={n}"),
        (wild, 1, None, f"wild d={d}"),
    ]


def paper_scan_pass(state, tally):
    for inst, value, point, what in state:
        inst = fresh(inst)
        out = tally.op(S.solve_core_point, inst)
        if out is None:
            continue
        check_point(inst, out, value, what)
        require(point is None or out.point == point, "%s: point is not 1^r 0^(n-r)", what)


# --- file_solve: the CLI on ILP v1 files written during setup


def file_solve_draw(seed):
    return 250 + random.Random(seed).randint(-2, 2)


def file_solve_setup(n, workdir):
    d = 6
    wild = S.gen_wild(d)
    require(wild.m == WILD_ROWS[d], "wild d=%d: m=%d, expected %d", d, wild.m, WILD_ROWS[d])
    files = []
    for inst, value in ((htc(n), floor_n_over_e(n)), (wild, 1)):
        path = os.path.join(workdir, f"{inst.name}.ilp")
        S.write_instance(inst, path)
        files.append((path, value, inst))
    return files


def _cli_solve(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["solve", path])
    return code, buf.getvalue()


def _printed_value(text):
    """The `value` column of the solve report, and the point line if any."""
    lines = text.splitlines()
    for i, line in enumerate(lines[:-1]):
        head = line.split()
        if "value" in head:
            value = Fraction(lines[i + 1].split()[head.index("value")])
            point = [ln for ln in lines if ln.startswith("point ")]
            return value, tuple(int(v) for v in point[0].split()[1:]) if point else None
    raise ExactnessError(f"no value in solve output: {text!r}")


def file_solve_pass(state, tally):
    for path, value, inst in state:
        what = os.path.basename(path)
        result = tally.op(_cli_solve, path)
        if result is None:
            continue
        code, text = result
        require(code == 0, "%s: exit code %s, expected 0", what, code)
        got, point = _printed_value(text)
        require(got == value, "%s: printed value %s, expected %s", what, got, value)
        if point is not None:
            require(sum(point) == value and inst.is_feasible(point), "%s: bad point %s", what, point)


# --- cross_check: five solvers against the reference on a seeded corpus


def cross_check_draw(seed):
    return corpus.cross_check_corpus(random.Random(seed))


def cross_check_setup(cases, workdir):
    wide = [(htc(n), sym_group(n)) for n in (40, 60)]
    return [(c.instance(), c) for c in cases], wide


def check_rows(inst, case):
    """The package built exactly the benchmark's closure of the base rows."""
    require(frozenset(inst.rows) == case.canonical, "%s: rows differ from the closure", case.name)


def _check_lp(inst, lp, red, value, what):
    """Full LP and reduced LP agree with the value on the fixed line."""
    for out, kind in ((lp, "solve_lp"), (red, "solve_symmetric_lp")):
        if out is None:
            continue
        if value is None:
            require(out.status == "infeasible", "%s: %s status %s", what, kind, out.status)
        else:
            require(out.status == "optimal" and out.value == value,
                    "%s: %s gives %s %s, expected %s", what, kind, out.status, out.value, value)
            require(inst.is_feasible(out.point), "%s: %s point infeasible", what, kind)


def cross_check_pass(state, tally):
    insts, wide = state
    for inst, case in insts:
        check_rows(inst, case)
        inst = fresh(inst)
        n = inst.n
        for solver, kind in (
            (S.solve_core_point, "solve_core_point"),
            (S.solve_by_layers, "solve_by_layers"),
            (S.brute_force_ilp, "brute_force_ilp"),
        ):
            check_ilp(inst, tally.op(solver, inst), case.optimum, f"{case.name} {kind}")
        lp = tally.op(S.solve_lp, inst)
        red = tally.op(S.solve_symmetric_lp, inst, sym_group(n))
        line = None if case.zeta is None else n * case.zeta
        _check_lp(inst, lp, red, line, case.name)
    for inst, group in wide:
        inst = fresh(inst)
        lp = tally.op(S.solve_lp, inst)
        red = tally.op(S.solve_symmetric_lp, inst, group)
        # the apex lambda*1 is the LP optimum of a hypertruncated cube
        _check_lp(inst, lp, red, inst.n * _HALF, inst.name)


# --- detect_reduce: symmetry detection, then the orbit-reduced LP


def detect_reduce_draw(seed):
    return corpus.cyclic_corpus(random.Random(seed), per_n=7, dense_per_n=2)


def detect_reduce_setup(cases, workdir):
    return [(htc(8), "full"), (htc(9), "reduced")], [(c.instance(), c) for c in cases]


def detect_reduce_pass(state, tally):
    cubes, cyclic = state
    for inst, mode in cubes:
        inst = fresh(inst)
        what = f"{inst.name} {mode}"
        det = tally.op(symdetect.detect, inst, mode)
        if det is not None:
            require(det.order == math.factorial(inst.n),
                    "%s: group order %s, expected %d!", what, det.order, inst.n)
            red = tally.op(S.solve_symmetric_lp, inst, det.group)
            lp = tally.op(S.solve_lp, inst)
            _check_lp(inst, lp, red, inst.n * _HALF, what)
    for inst, case in cyclic:
        check_rows(inst, case)
        inst = fresh(inst)
        check_ilp(inst, tally.op(S.solve_by_layers, inst), case.optimum, f"{case.name} layers")
        check_ilp(inst, tally.op(S.brute_force_ilp, inst), case.optimum, f"{case.name} brute")


WORKLOADS = {
    "paper_scan": (paper_scan_draw, paper_scan_setup, paper_scan_pass),
    "file_solve": (file_solve_draw, file_solve_setup, file_solve_pass),
    "cross_check": (cross_check_draw, cross_check_setup, cross_check_pass),
    "detect_reduce": (detect_reduce_draw, detect_reduce_setup, detect_reduce_pass),
}
