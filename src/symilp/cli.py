"""Command line front end: generate, detect, reduce, solve, bench.

Exit codes: 0 optimal, 2 infeasible, 3 unbounded relaxation, 4 precondition
refusal (any ``errors.Refused``), 1 I/O or parse error.
"""

import argparse
import csv
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from . import corepoint, instances, layers, lpcore, model, ratlin, reduction, symdetect, symmetry
from .errors import InfeasibleZeroRow, Refused, ResultCheckFailed, SymilpError, UnboundedRelaxation

EXIT_OPTIMAL = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_REFUSED = 4

POINT_ELIDE_N = 20


class RunReport(NamedTuple):
    """One row of the solve and bench tables: every field but the last, ``point``."""

    instance: str
    method: str
    status: str
    value: Fraction | None
    m: int
    n: int
    lp_s: float
    ip_s: float
    layers_scanned: int
    point: tuple | None


COLUMNS = RunReport._fields[:-1]


def _cell(v):
    if v is None:
        return ""
    return f"{v:.3f}" if isinstance(v, float) else v


def _emit_reports(reports, output):
    rows = [list(COLUMNS)] + [[_cell(v) for v in r[:-1]] for r in reports]
    if output == "csv":
        csv.writer(sys.stdout).writerows(rows)
        return
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def _parse_box(text, n):
    pairs = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--box range {part!r} is not lo:hi with integer ends") from None
        if lo > hi:
            raise ValueError(f"--box range {part} is empty")
        pairs.append((lo, hi))
    if len(pairs) == 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise ValueError(f"--box needs 1 or {n} lo:hi pairs")
    return pairs


def _status_exit(status):
    if status == model.OPTIMAL:
        return EXIT_OPTIMAL
    if status == model.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_UNBOUNDED


def cmd_generate(args) -> int:
    if args.family == "htc":
        lam = ratlin.parse_rational(args.lam)
        r = args.r if args.r is not None else instances.htc_r(args.n)
        inst = instances.gen_hypertruncated_cube(instances.HtcParams(args.n, r, lam))
    else:
        inst = instances.gen_wild(args.d)
    model.write_instance(inst, args.outfile)
    print(f"wrote {inst.name}: m={inst.m} n={inst.n} -> {args.outfile}")
    return EXIT_OPTIMAL


def cmd_lp(args) -> int:
    inst = model.read_instance(args.file)
    out = lpcore.solve_lp(inst)
    print(f"status {out.status}")
    if out.status == model.OPTIMAL:
        print(f"value {out.value}")
        print("point", *out.point)
    return _status_exit(out.status)


def cmd_detect(args) -> int:
    inst = model.read_instance(args.file)
    trace = {}
    det = symdetect.detect(inst, args.graph, trace=trace)
    print(f"graph {args.graph}: {trace['graph_nodes']} nodes, {trace['graph_edges']} edges")
    print(f"search: {trace['refinements']} refinements, {trace['splits']} splits")
    print(f"group order {trace['group_order']}")
    for g in det.group.generators:
        print("gen " + " ".join(str(v) for v in g.image))
    if args.emit_generators:
        symmetry.write_generators(det.group, args.emit_generators)
    return EXIT_OPTIMAL


def cmd_reduce(args) -> int:
    inst = model.read_instance(args.file)
    G = symmetry.read_generators(args.group)
    rp = reduction.build_reduced(inst, G)
    model.write_instance(rp.instance, args.outfile)
    print(
        f"reduced {inst.name}: {inst.m} rows -> {len(rp.summed_rows)} orbit sums "
        f"+ {len(rp.fixing)} equations -> {args.outfile}"
    )
    return EXIT_OPTIMAL


def _run(inst, method, box=None) -> RunReport:
    """Solve one instance, check the point, and build its report row.

    ``lp_s`` is the scans' LP on the line; ``ip_s`` is the rest of the solve.
    """
    trace = {}
    t0 = time.perf_counter()
    if method == "corepoint":
        out = corepoint.solve_core_point(inst, trace=trace)
    elif method == "layers":
        out = layers.solve_by_layers(inst, trace=trace)
    else:
        out = model.brute_force_ilp(inst, box=box, trace=trace)
    elapsed = time.perf_counter() - t0
    if out.status == model.OPTIMAL and not inst.is_feasible(out.point):
        raise ResultCheckFailed(f"{inst.name}: solver returned an infeasible point")
    lp_s = trace.get("lp_s", 0.0)
    return RunReport(
        inst.name, method, out.status, out.value, inst.m, inst.n, lp_s, elapsed - lp_s,
        trace.get("layers_scanned", 0), out.point,
    )


def cmd_solve(args) -> int:
    if args.box is not None and args.method != "brute":
        # the scans bound their own layers and would drop the box unread
        raise ValueError(f"--box applies to --method brute only, not {args.method}")
    inst = model.read_instance(args.file)
    box = None if args.box is None else _parse_box(args.box, inst.n)
    report = _run(inst, args.method, box)
    _emit_reports([report], args.output)
    if report.status == model.OPTIMAL and inst.n <= POINT_ELIDE_N:
        print("point", *report.point)
    return _status_exit(report.status)


def _parse_range(text):
    """lo:hi[:step] as a list of sizes; a bad or empty range raises ValueError."""
    parts = text.split(":")
    if len(parts) == 2:
        parts.append("1")
    try:
        lo, hi, step = map(int, parts)
    except ValueError:
        raise ValueError(f"--range {text!r} is not lo:hi or lo:hi:step with integer parts") from None
    if step == 0:
        raise ValueError(f"--range {text} has a zero step")
    sizes = list(range(lo, hi + (1 if step > 0 else -1), step))
    if not sizes:
        raise ValueError(f"--range {text} is empty")
    return sizes


def bench_rows(family, sizes):
    """Generate-and-solve loop; LP-on-line and IP times reported apart."""
    reports = []
    for size in sizes:
        if family == "htc":
            p = instances.HtcParams(size, instances.htc_r(size), Fraction(1, 2))
            inst = instances.gen_hypertruncated_cube(p)
        else:
            inst = instances.gen_wild(size)
        reports.append(_run(inst, "corepoint"))
    return reports


def cmd_bench(args) -> int:
    sizes = _parse_range(args.range)
    reports = bench_rows(args.family, sizes)
    _emit_reports(reports, args.output)
    return EXIT_OPTIMAL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError.

    main() then reports them as one ``error:`` line with exit 1; argparse
    would exit 2, which is the "infeasible" code here.
    """

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # the global flag is accepted both before and after the subcommand;
    # SUPPRESS keeps a late subparser from clobbering an early value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "csv"),
                        default=argparse.SUPPRESS)

    ap = _Parser(prog="symilp", parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark instance file")
    gsub = g.add_subparsers(dest="family", required=True)
    ghtc = gsub.add_parser("htc", parents=[common])
    ghtc.add_argument("--n", type=int, required=True)
    ghtc.add_argument("--r", type=int, default=None, help="default floor(n/e)")
    ghtc.add_argument("--lambda", dest="lam", default="1/2")
    ghtc.add_argument("-o", "--output-file", dest="outfile", required=True)
    ghtc.set_defaults(run=cmd_generate)
    gwild = gsub.add_parser("wild", parents=[common])
    gwild.add_argument("--d", type=int, required=True)
    gwild.add_argument("-o", "--output-file", dest="outfile", required=True)
    gwild.set_defaults(run=cmd_generate)

    s = sub.add_parser("solve", help="solve an integer program", parents=[common])
    s.add_argument("file")
    s.add_argument("--method", choices=("corepoint", "layers", "brute"),
                   default="corepoint")
    s.add_argument("--box", default=None, help="lo:hi[,lo:hi...] for --method brute")
    s.set_defaults(run=cmd_solve)

    lp = sub.add_parser("lp", help="solve the LP relaxation exactly",
                        parents=[common])
    lp.add_argument("file")
    lp.set_defaults(run=cmd_lp)

    d = sub.add_parser("detect", help="find symmetries via the ILP graph",
                       parents=[common])
    d.add_argument("file")
    d.add_argument("--graph", choices=("reduced", "full"), default="full")
    d.add_argument("--emit-generators", default=None)
    d.set_defaults(run=cmd_detect)

    r = sub.add_parser("reduce", help="write the orbit-summed reduced program",
                       parents=[common])
    r.add_argument("file")
    r.add_argument("--group", required=True)
    r.add_argument("-o", "--output-file", dest="outfile", required=True)
    r.set_defaults(run=cmd_reduce)

    b = sub.add_parser("bench", help="generate-and-solve timing table",
                       parents=[common])
    b.add_argument("family", choices=("htc", "wild"))
    b.add_argument("--range", required=True, help="lo:hi[:step]")
    b.set_defaults(run=cmd_bench)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # --output defaults here, not in the parser: argparse would push a
        # parser-level default through the shared parent action and let the
        # subparser pass clobber a value given before the subcommand
        args.output = getattr(args, "output", "text")
        return args.run(args)
    except InfeasibleZeroRow as exc:  # a row, read or orbit-summed, reads 0 <= b with b < 0
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnboundedRelaxation as exc:
        print(f"unbounded relaxation: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OSError, ValueError, SymilpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
