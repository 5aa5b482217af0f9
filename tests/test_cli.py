import csv
import io
import re
import time

import pytest

from symilp import corepoint, errors, instances, layers, lpcore, model, symdetect
from symilp.cli import _parse_range, bench_rows, main
from symilp.errors import SearchBudgetExceeded
from symilp.model import Outcome, read_instance, write_instance
from symilp.symmetry import GroupSpec, read_generators, sym_generators, write_generators

from corpus import build_corpus


@pytest.fixture
def ex61_file(tmp_path, ex61):
    path = tmp_path / "ex61.ilp"
    write_instance(ex61, path)
    return str(path)


def test_generate_and_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "htc.ilp"
    assert main(["generate", "htc", "--n", "8", "--r", "2", "-o", str(out)]) == 0
    inst = read_instance(out)
    assert inst.m == 32 and inst.n == 8
    code = main(["solve", str(out), "--method", "corepoint"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "optimal" in captured
    assert "point 1 1 0 0 0 0 0 0" in captured


def test_solve_one_variable(tmp_path, capsys):
    path = tmp_path / "one.ilp"
    path.write_text("ILP v1\nvars 1\nobj 1\n2 <= 7\n-1 <= 1\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out and "point 3\n" in out


def test_generate_default_r(tmp_path):
    out = tmp_path / "htc100.ilp"
    assert main(["generate", "htc", "--n", "100", "-o", str(out)]) == 0
    assert read_instance(out).m == 400


def test_solve_methods_agree(tmp_path, ex61_file, capsys):
    for method, flags in (("brute", ["--box", "0:3"]), ("layers", [])):
        code = main(["solve", ex61_file, "--method", method] + flags)
        out = capsys.readouterr().out
        assert code == 0 and "optimal" in out and "point 1 1 1" in out
    # the 3-cycle is transitive, not 2-transitive: the core point scan refuses
    assert main(["solve", ex61_file, "--method", "corepoint"]) == 4
    assert capsys.readouterr().err.startswith("refused: ")


def test_an_empty_box_range_is_a_one_line_error(tmp_path, capsys):
    # brute force would enumerate nothing and call the feasible ILP infeasible
    path = tmp_path / "half.ilp"
    path.write_text("ILP v1\nvars 2\nobj 1 1\n1 1 <= 1\n")
    assert main(["solve", str(path), "--method", "brute", "--box", "1:0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1:0" in err and err.count("\n") == 1
    assert main(["solve", str(path), "--method", "brute", "--box", "0:1,1:0"]) == 1
    capsys.readouterr()
    # an empty --box is refused, not read as no box
    assert main(["solve", str(path), "--method", "brute", "--box", ""]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["solve", str(path), "--method", "brute", "--box", "0:1"]) == 0
    assert "optimal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "box, bad",
    [("", "''"), ("a:b", "'a:b'"), ("5", "'5'"), ("0:1,x", "'x'")],
    ids=["empty", "letters", "no-hi", "second"],
)
def test_a_malformed_box_names_the_flag_and_the_range(tmp_path, capsys, box, bad):
    path = tmp_path / "half.ilp"
    path.write_text("ILP v1\nvars 2\nobj 1 1\n1 1 <= 1\n")
    assert main(["solve", str(path), "--method", "brute", "--box", box]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --box range ") and bad in err and err.count("\n") == 1


def test_a_box_needs_one_pair_or_one_per_variable(tmp_path, capsys):
    path = tmp_path / "half.ilp"
    path.write_text("ILP v1\nvars 2\nobj 1 1\n1 1 <= 1\n")
    assert main(["solve", str(path), "--method", "brute", "--box", "0:1,0:1,0:1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --box needs 1 or 2 ") and err.count("\n") == 1


def test_box_with_a_scan_is_a_one_line_error(tmp_path, htc6, capsys):
    # the scans would ignore the box and print a point outside it
    htc6_file = str(tmp_path / "htc6.ilp")
    write_instance(htc6, htc6_file)
    for method in ("corepoint", "layers"):
        assert main(["solve", htc6_file, "--method", method, "--box", "5:5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--box" in err and err.count("\n") == 1
    assert main(["solve", htc6_file, "--box", "5:5"]) == 1  # corepoint by default
    capsys.readouterr()
    assert main(["solve", htc6_file, "--method", "brute", "--box", "0:1"]) == 0


def test_lp_command(ex61_file, capsys):
    assert main(["lp", ex61_file]) == 0
    out = capsys.readouterr().out
    assert "status optimal" in out
    assert "value 3" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ilp"
    bad.write_text("garbage\n")
    assert main(["lp", str(bad)]) == 1

    inf = tmp_path / "inf.ilp"
    inf.write_text("ILP v1\nvars 2\nobj 1 1\n1 1 <= -3\n-1 -1 <= 0\n1 0 <= 1\n0 1 <= 1\n")
    assert main(["solve", str(inf), "--method", "layers"]) == 2

    unb = tmp_path / "unb.ilp"
    unb.write_text("ILP v1\nvars 2\nobj 1 1\n-1 -1 <= 0\n")
    assert main(["solve", str(unb), "--method", "corepoint"]) == 3
    assert main(["lp", str(unb)]) == 3
    assert "status unbounded" in capsys.readouterr().out

    lone = tmp_path / "lone.ilp"
    lone.write_text("ILP v1\nvars 2\nobj 1 1\n1 2 <= 3\n")
    assert main(["solve", str(lone), "--method", "corepoint"]) == 4
    capsys.readouterr()


def test_core_scan_refuses_rows_only_a_cycle_fixes(tmp_path, capsys):
    # the 4-cycle fixes these rows and Alt(4) does not: the core point scan
    # refuses them, and the layer scan, which needs only transitivity,
    # finds the optimum 2
    path = tmp_path / "c4.ilp"
    path.write_text(
        "ILP v1\nvars 4\nobj 1 1 1 1\n1 0 1 0 <= 1\n0 1 0 1 <= 1\n"
        "-1 0 0 0 <= 0\n0 -1 0 0 <= 0\n0 0 -1 0 <= 0\n0 0 0 -1 <= 0\n"
    )
    assert main(["solve", str(path)]) == 4
    assert "transitive_only" in capsys.readouterr().err
    assert main(["--output", "csv", "solve", str(path), "--method", "layers"]) == 0
    header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[:2]
    assert row[header.index("status")] == "optimal" and row[header.index("value")] == "2"


@pytest.mark.parametrize(
    "argv", [["solve", "FILE"], ["bench", "htc", "--range", "8:8"]], ids=["solve", "bench"]
)
def test_there_is_no_trust_switch(ex61_file, capsys, argv):
    # no flag skips the symmetry certificate
    argv = [ex61_file if a == "FILE" else a for a in argv]
    assert main(argv + ["--assume-transitivity"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "ILP v1\n",
        "ILP v1\nvars 2\n",
        "ILP v1\nvars 2\nobj 1 1\n1 1/0 <= 3\n",
    ],
    ids=["header_only", "stops_after_vars", "zero_denominator"],
)
def test_malformed_file_is_a_one_line_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.ilp"
    bad.write_text(text)
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exponent_is_refused_at_once(tmp_path, capsys):
    # Fraction would expand 1e99999999 into a hundred-million-digit integer
    bad = tmp_path / "exp.ilp"
    bad.write_text("ILP v1\nvars 2\nobj 1 1\n1 1e99999999 <= 3\n")
    t0 = time.perf_counter()
    assert main(["solve", str(bad)]) == 1
    assert time.perf_counter() - t0 < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "1e99999999" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("lam", ["1/0", "1e99999999"])
def test_bad_lambda_is_a_one_line_error(tmp_path, capsys, lam):
    t0 = time.perf_counter()
    code = main(["generate", "htc", "--n", "8", "--lambda", lam, "-o", str(tmp_path / "h.ilp")])
    assert code == 1 and time.perf_counter() - t0 < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and lam in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["solve", "f", "--method", "bogus"], ["generate", "htc", "--n", "abc", "-o", "x"]],
    ids=["bad_choice", "bad_int"],
)
def test_usage_error_exits_1_in_one_line(capsys, argv):
    # argparse's own exit code 2 is the "infeasible" code here
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--method" in capsys.readouterr().out


def test_lp_on_line_is_timed_apart_from_the_scan(tmp_path, monkeypatch, capsys):
    line_lp = layers.solve_lp_on_line

    def slow_line_lp(inst, trace=None):
        time.sleep(0.05)
        return line_lp(inst, trace)

    monkeypatch.setattr(layers, "solve_lp_on_line", slow_line_lp)
    path = tmp_path / "htc.ilp"
    assert main(["generate", "htc", "--n", "40", "-o", str(path)]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["--output", "csv", "solve", str(path)]) == 0
    wall = time.perf_counter() - t0
    header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[:2]
    lp_s, ip_s = (float(row[header.index(col)]) for col in ("lp_s", "ip_s"))
    # an ip_s that still held the LP would push lp_s + ip_s past the wall
    # time; the 1 ms covers the two printed cells' rounding
    assert lp_s >= 0.05 and lp_s + ip_s <= wall + 0.001

    t0 = time.perf_counter()
    (report,) = bench_rows("htc", [40])
    wall = time.perf_counter() - t0
    assert report.lp_s >= 0.05 and report.lp_s + report.ip_s <= wall


def test_solve_rejects_a_wrong_point(ex61_file, monkeypatch, capsys):
    monkeypatch.setattr(
        model, "brute_force_ilp",
        lambda inst, box=None, trace=None: Outcome("optimal", point=(2, 2, 2), value=6),
    )
    assert main(["solve", ex61_file, "--method", "brute", "--box", "0:3"]) == 1
    assert "infeasible point" in capsys.readouterr().err


def test_solve_rejects_a_wrong_point_after_the_classes(ex61_file, monkeypatch, capsys):
    def wrong(inst, trace=None):
        inst.row_classes  # a scan builds the classes before it answers
        return Outcome("optimal", point=(2, 2, 2), value=6)

    monkeypatch.setattr(corepoint, "solve_core_point", wrong)
    assert main(["solve", ex61_file]) == 1
    assert "infeasible point" in capsys.readouterr().err


def test_detect_command(ex61_file, tmp_path, capsys):
    gfile = tmp_path / "gens.grp"
    assert main(["detect", ex61_file, "--graph", "full",
                 "--emit-generators", str(gfile)]) == 0
    out = capsys.readouterr().out
    assert "group order 3" in out
    # the searched row/column graph: m + 2n nodes, 2 nnz + n edges
    assert re.search(r"^graph full: 9 nodes, 15 edges$", out, re.M)
    assert re.search(r"^search: [1-9]\d* refinements, \d+ splits$", out, re.M)
    G = read_generators(gfile)
    assert G.degree == 3


@pytest.mark.parametrize(
    "argv", [["detect"], ["solve", "--method", "layers"]], ids=["detect", "layer_scan"]
)
def test_spent_search_budget_is_a_refusal(tmp_path, ex61, v4, monkeypatch, capsys, argv):
    # the layer scan reaches detection only without a generator certificate
    inst = ex61 if argv == ["detect"] else v4
    path = tmp_path / "inst.ilp"
    write_instance(inst, path)

    def spent(g, trace=None):
        raise SearchBudgetExceeded("automorphism search over its budget")

    monkeypatch.setattr(symdetect, "automorphism_group", spent)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 4
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1


ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.SymilpError)
]
REFUSALS = ("BoxTooLarge", "ObjectiveNotOnes", "NotASymmetry",
            "TransitivityNotEstablished", "SearchBudgetExceeded", "BadParams")


def test_the_precondition_errors_are_refusals():
    assert all(issubclass(getattr(errors, name), errors.Refused) for name in REFUSALS)


def _exit_row(cls):
    """(exit code, stderr prefix) main gives an error of type cls."""
    if issubclass(cls, errors.Refused):
        return 4, "refused:"
    if issubclass(cls, errors.InfeasibleZeroRow):
        return 2, "infeasible:"
    if issubclass(cls, errors.UnboundedRelaxation):
        return 3, "unbounded relaxation:"
    return 1, "error:"


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_has_its_exit_code(ex61_file, monkeypatch, capsys, cls):
    def raising(inst):
        raise cls("stop")

    monkeypatch.setattr(lpcore, "solve_lp", raising)
    code, prefix = _exit_row(cls)
    assert main(["lp", ex61_file]) == code
    assert capsys.readouterr().err == f"{prefix} stop\n"


def test_reduce_command(ex61_file, tmp_path, capsys):
    gfile = tmp_path / "gens.grp"
    main(["detect", ex61_file, "--emit-generators", str(gfile)])
    capsys.readouterr()
    out = tmp_path / "red.ilp"
    assert main(["reduce", ex61_file, "--group", str(gfile), "-o", str(out)]) == 0
    red = read_instance(out)
    assert (1, 1, 1, 3) in red.row_set  # orbit sum (3,3,3|9) scaled down
    from symilp.lpcore import solve_lp

    assert solve_lp(red).value == 3


@pytest.mark.parametrize("case", ["two_rows", "corpus_seed2_16"])
def test_reduce_of_an_infeasible_lp_exits_2(tmp_path, capsys, case):
    # an orbit sum reads 0 <= b with b < 0; `lp` also exits 2 on these
    path = tmp_path / "inf.ilp"
    gfile = tmp_path / "gens.grp"
    if case == "two_rows":  # x1 - x2 <= -1 and x2 - x1 <= -1 sum to 0 <= -2
        path.write_text("ILP v1\nvars 2\nobj 1 1\n1 -1 <= -1\n-1 1 <= -1\n")
        gfile.write_text("2 1\n")
    else:
        inst = build_corpus(seed=2)[16]
        write_instance(inst, path)
        write_generators(GroupSpec(inst.n, sym_generators(inst.n)), gfile)
    assert main(["lp", str(path)]) == 2
    capsys.readouterr()
    out = tmp_path / "red.ilp"
    assert main(["reduce", str(path), "--group", str(gfile), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["lp", "solve"])
def test_a_zero_row_with_a_negative_rhs_is_infeasible(tmp_path, capsys, command):
    # normalize refuses the row 0 <= -1 while the file is read
    path = tmp_path / "zero.ilp"
    path.write_text("ILP v1\nvars 2\nobj 1 1\n1 0 <= 1\n0 1 <= 1\n0 0 <= -1\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, bad",
    [("2 3 1\n1 x 3\n", "1 x 3"), ("2 3 1\n1 1 3\n", "1 1 3"), ("2 3 1\n2 1\n", "2 1")],
    ids=["bad_token", "not_a_signed_permutation", "mixed_degree"],
)
def test_bad_group_file_names_path_and_line(ex61_file, tmp_path, capsys, text, bad):
    gfile = tmp_path / "bad.grp"
    gfile.write_text(text)
    assert main(["reduce", ex61_file, "--group", str(gfile), "-o", str(tmp_path / "r.ilp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(gfile) in err and repr(bad) in err


def test_a_group_file_of_comments_only_has_no_generators(ex61_file, tmp_path, capsys):
    gfile = tmp_path / "empty.grp"
    gfile.write_text("# no generators\n\n# here\n")
    assert main(["reduce", ex61_file, "--group", str(gfile), "-o", str(tmp_path / "r.ilp")]) == 1
    assert capsys.readouterr().err == f"error: {gfile}: no generators\n"


def test_group_of_the_wrong_degree_names_both_degrees(htc6, tmp_path, capsys):
    path = tmp_path / "htc6.ilp"
    write_instance(htc6, path)
    gfile = tmp_path / "c5.grp"
    gfile.write_text("2 3 4 5 1\n")
    assert main(["reduce", str(path), "--group", str(gfile), "-o", str(tmp_path / "r.ilp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degree mismatch") and err.count("\n") == 1
    assert "degree 5" in err and "n = 6" in err


def test_bench_htc_rows():
    from symilp.instances import htc_r

    reports = bench_rows("htc", [40, 60, 100])
    assert [r.n for r in reports] == [40, 60, 100]
    for r in reports:
        assert r.status == "optimal"
        assert r.value == htc_r(r.n)
        assert r.m == 4 * r.n
        assert 0 < r.layers_scanned <= r.n


def test_solve_wild_corepoint_no_override(tmp_path, capsys):
    from symilp.instances import gen_wild

    path = tmp_path / "wild3.ilp"
    write_instance(gen_wild(3), path)
    # post-symmetrization the instance certifies full_symmetric, which the
    # core point method needs
    assert main(["solve", str(path), "--method", "corepoint"]) == 0
    out = capsys.readouterr().out
    assert "optimal" in out


def test_layer_scan_matches_the_core_point_scan_on_wild_d4(tmp_path, capsys):
    path = tmp_path / "wild4.ilp"
    assert main(["generate", "wild", "--d", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    answers = {}
    for method in ("corepoint", "layers"):
        assert main(["solve", str(path), "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        head, row = lines[0].split(), lines[1].split()
        point = [ln for ln in lines if ln.startswith("point ")]
        answers[method] = (row[head.index("status")], row[head.index("value")], point)
    assert answers["layers"][:2] == answers["corepoint"][:2] == ("optimal", "1")
    # the same orbit: the layer scan prints its first point in lexicographic order
    assert answers["corepoint"][2] == ["point 1 0 0 0 0 0 0"]
    assert answers["layers"][2] == ["point 0 0 0 0 0 0 1"]


def test_bench_cli_csv(capsys):
    assert main(["--output", "csv", "bench", "htc", "--range", "30:50:10"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["instance", "method", "status", "value"]
    assert len(rows) == 4
    assert all(r[2] == "optimal" for r in rows[1:])


def test_bench_cli_text(capsys):
    assert main(["bench", "wild", "--range", "3:4"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3
    assert "wild-d3" in out and "wild-d4" in out


@pytest.mark.parametrize(
    "text, sizes",
    [("8:10", [8, 9, 10]), ("10:8:-1", [10, 9, 8]), ("30:50:10", [30, 40, 50]), ("9:3:-3", [9, 6, 3])],
)
def test_parse_range_includes_the_end_in_either_direction(text, sizes):
    assert _parse_range(text) == sizes


def test_bench_empty_range(capsys):
    # an empty range is refused like an empty --box, not printed as a header
    assert main(["bench", "htc", "--range", "100:90:10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --range 100:90:10 is empty\n"


@pytest.mark.parametrize(
    "text, bad",
    [("8:10:0", "8:10:0 has a zero step"), ("a:b", "'a:b' is not"), ("8", "'8' is not"),
     ("1:2:3:4", "'1:2:3:4' is not")],
    ids=["zero-step", "letters", "no-hi", "four-parts"],
)
def test_a_bad_bench_range_names_the_flag_and_the_range(capsys, text, bad):
    assert main(["bench", "htc", "--range", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --range {bad}") and err.count("\n") == 1


def test_wild_past_the_row_budget_is_refused(tmp_path, monkeypatch, capsys):
    def expand(inst):
        raise AssertionError("rows expanded past the budget")

    monkeypatch.setattr(instances, "symmetrize", expand)
    path = tmp_path / "wild16.ilp"
    assert main(["generate", "wild", "--d", "16", "-o", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "190,537,092 rows" in err and not path.exists()
