import gc
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symilp import model
from symilp.errors import (
    BoxTooLarge,
    EmptySystem,
    InfeasibleZeroRow,
    ResultCheckFailed,
    SymilpError,
)
from symilp.model import (
    ILPInstance,
    brute_force_ilp,
    classes_admit,
    explicit_box,
    normalize,
    read_instance,
    satisfies_rows,
    write_instance,
)
from symilp.ratlin import parse_rational, scale_coprime
from symilp.instances import HtcParams, gen_hypertruncated_cube, gen_wild
from testkit import reference_brute_force, reference_normalize, reference_row_classes


def test_normalize_scales_to_coprime():
    inst = normalize([(2, 4, 0, 6)], [1, 1, 1])
    assert inst.rows == ((1, 2, 0, 3),)


def test_normalize_dedups_after_scaling():
    inst = normalize([(0, -3, 6, 9), (0, -1, 2, 3)], [1, 1, 1])
    assert inst.rows == ((0, -1, 2, 3),)


def test_normalize_zero_row_negative_rhs():
    with pytest.raises(InfeasibleZeroRow):
        normalize([(0, 0, -1)], [1, 1])


def test_normalize_drops_trivial_rows():
    inst = normalize([(0, 0, 5), (1, 1, 2)], [1, 1])
    assert inst.rows == ((1, 1, 2),)
    with pytest.raises(EmptySystem):
        normalize([(0, 0, 5)], [1, 1])


def test_normalize_rational_rows():
    inst = normalize([(Fraction(1, 2), Fraction(3, 2), Fraction(9, 4))], [1, 1])
    assert inst.rows == ((2, 6, 9),)


@pytest.mark.parametrize(
    "rows, c, error, message",
    [
        ((), (), EmptySystem, "no rows"),
        (((3,),), (), ValueError, "at least one variable"),
        (((1, 2, 3), (1, 2)), (1, 1), ValueError, "ragged row"),
        (((1, 2, 3),), (1,), ValueError, "objective length"),
    ],
    ids=["no-rows", "no-variables", "ragged", "short-objective"],
)
def test_instance_refuses_a_malformed_system(rows, c, error, message):
    with pytest.raises(error, match=message):
        ILPInstance(rows, c)


def test_constructor_keeps_a_fraction_objective_and_converts_the_rest():
    c = (Fraction(1, 2), Fraction(-3))
    assert ILPInstance([(1, 2, 3)], c).c is c  # kept, not copied
    inst = ILPInstance([(1, 2, 3)], iter([1, 0.25]))
    assert inst.c == (1, Fraction(1, 4)) and {type(x) for x in inst.c} == {Fraction}
    mixed = ILPInstance([(1, 2, 3)], [Fraction(1, 3), 2]).c
    assert mixed == (Fraction(1, 3), 2) and {type(x) for x in mixed} == {Fraction}


def test_row_classes_count_distinct_rows():
    inst = ILPInstance([(1, 2, 3), (2, 1, 3), (1, 2, 3), (2, 1, 4)], [1, 1])
    assert inst.row_classes == {(1, 2, 3): 2, (1, 2, 4): 1}
    assert inst.row_classes is inst.row_classes


@st.composite
def loose_rows(draw, n):
    """One (a | b) row, entries in -3..3, closed under no group; b is
    sometimes one of a's coefficients, or all of them."""
    a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("free", "some", "all")))
    if kind == "all":
        a = [a[0]] * n
    b = draw(st.integers(-4, 3)) if kind == "free" else draw(st.sampled_from(a))
    return (*a, b)


@st.composite
def loose_systems(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(loose_rows(n), min_size=1, max_size=8))
    # permuted copies of some rows make classes of more than one row
    rng = draw(st.randoms(use_true_random=False))
    for row in rng.sample(rows, rng.randint(0, len(rows))):
        a = list(row[:-1])
        rng.shuffle(a)
        rows.append((*a, row[-1]))
    return rows, n


@settings(max_examples=200, deadline=None)
@given(loose_systems())
@example(([(1, 2, 3), (2, 1, 3), (3, 3, 3), (-2, 1, -2), (1, -2, -2), (0, 2, 0)], 2))
def test_row_classes_match_the_per_row_count(case):
    rows, n = case
    inst = ILPInstance(rows, [1] * n)
    got, want = inst.row_classes, reference_row_classes(inst)
    assert type(got) is Counter
    assert list(got.items()) == list(want.items())  # keys, counts and order


def scaled(point):
    """The integer numerators of a rational point over their common denominator."""
    den = lcm(*(Fraction(v).denominator for v in point))
    return [int(Fraction(v) * den) for v in point], den


points = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def systems_and_points(draw):
    rows, n = draw(loose_systems())
    point = draw(st.lists(points, min_size=n, max_size=n))
    return rows, n, point


@settings(max_examples=300, deadline=None)
@given(systems_and_points())
# x1 <= 0 holds at (0, 1), but its class bound sorted(a).sorted(x) = 1 does not
@example(([(1, 0, 0)], 2, [0, 1]))
@example(([(1, 0, 0), (0, -1, 0)], 2, [Fraction(-1, 2), Fraction(3, 4)]))
def test_is_feasible_matches_the_row_scan(case):
    rows, n, point = case
    xs, den = scaled(point)
    expected = satisfies_rows(rows, xs, den)
    cold = ILPInstance(rows, [1] * n)
    assert cold.is_feasible(point) == expected
    assert cold._classes is None  # the check never builds the classes
    warm = ILPInstance(rows, [1] * n)
    admitted = classes_admit(warm.row_classes, xs, den)
    assert warm.is_feasible(point) == expected
    assert expected or not admitted  # the class test is sufficient


canonical_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(scale_coprime),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(canonical_rows, st.randoms(use_true_random=False))
def test_constructor_sorts_and_drops_repeats(rows, rng):
    shuffled = rows + rng.sample(rows, rng.randint(0, len(rows)))
    rng.shuffle(shuffled)
    inst = ILPInstance(shuffled, [1, 1])
    canonical = tuple(sorted(set(rows)))
    assert inst.rows == canonical and inst.m == len(set(rows))
    assert ILPInstance(canonical, [1, 1]).rows is canonical  # kept, not copied


def test_is_feasible_ex61(ex61):
    assert ex61.is_feasible((1, 1, 1))
    assert not ex61.is_feasible((2, 2, 2))


def test_is_feasible_rational_point():
    # 2x + y <= 2, x + 2y <= 2, x, y >= 0; (2/3, 2/3) is the tight vertex
    inst = normalize([(2, 1, 2), (1, 2, 2), (-1, 0, 0), (0, -1, 0)], [1, 1])
    assert inst.is_feasible((Fraction(2, 3), Fraction(2, 3)))
    assert inst.is_feasible((Fraction(1, 2), Fraction(3, 4)))
    assert inst.is_feasible((0, 1)) and inst.is_feasible((Fraction(1, 2), 0))
    assert not inst.is_feasible((Fraction(2, 3), Fraction(3, 4)))
    assert not inst.is_feasible((Fraction(-1, 7), 0))
    assert inst.is_feasible((0.5, 0.75)) and not inst.is_feasible((0.5, 0.8))
    with pytest.raises(ValueError):
        inst.is_feasible((0,))


@pytest.mark.parametrize("closed", [True, False], ids=["sym_closed", "not_closed"])
@pytest.mark.parametrize("warm", [True, False], ids=["classes_built", "no_classes"])
def test_is_feasible_over_a_denominator_is_the_point_over_it(closed, warm):
    # the htc is closed under Sym(n), ex61 only under the 3-cycle; entries
    # are ints, Fractions and floats, each float exact in binary
    if closed:
        base = gen_hypertruncated_cube(HtcParams(4, 2, Fraction(3, 4)))
    else:
        base = normalize([(1, 2, 0, 3), (0, 1, 2, 3), (2, 0, 1, 3)], [1, 1, 1])
    inst = ILPInstance(base.rows, base.c)
    if warm:
        assert inst.row_classes
    rng = random.Random(34)
    entries = [*range(-1, 4), Fraction(1, 3), Fraction(5, 2), Fraction(-1, 6), 0.5, 1.25, -0.75]
    verdicts = set()
    for _ in range(150):
        x = [rng.choice(entries) for _ in range(inst.n)]
        for den in (1, 2, 6):
            want = inst.is_feasible([Fraction(v) / den for v in x])
            assert inst.is_feasible(x, den) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert (inst._classes is not None) == warm  # the check never builds the classes


def test_satisfies_rows_over_a_denominator():
    rows = ((2, 1, 2), (1, 2, 2))
    assert satisfies_rows(rows, (2, 2), 3)  # (2/3, 2/3)
    assert not satisfies_rows(rows, (3, 2), 3)  # (1, 2/3)
    assert satisfies_rows(rows, (1, 0))


def test_brute_force_ex61(ex61):
    out = brute_force_ilp(ex61, box=[(0, 3)] * 3)
    assert out.status == "optimal"
    assert out.value == 3
    assert out.point == (1, 1, 1)
    assert ex61.is_feasible(out.point)


def test_brute_force_refuses_a_box_of_the_wrong_length(ex61):
    with pytest.raises(ValueError, match="box length"):
        brute_force_ilp(ex61, box=[(0, 3)] * 2)


def test_brute_force_htc6(htc6):
    out = brute_force_ilp(htc6, box=[(0, 1)] * 6)
    assert out.status == "optimal" and out.value == 2


def test_brute_force_uses_explicit_box(htc6):
    # cube rows supply the box
    assert explicit_box(htc6) == [(0, 1)] * 6
    assert brute_force_ilp(htc6).value == 2


def test_brute_force_infeasible():
    inst = normalize([(1, -1), (-1, 0)], [1])
    assert brute_force_ilp(inst, box=[(-5, 5)]).status == "infeasible"


def test_brute_force_empty_relaxation_is_infeasible():
    # no single-variable rows, so the box comes from LP bounds, and the
    # relaxation x + y <= -1, x + y >= 0 is empty
    inst = normalize([(1, 1, -1), (-1, -1, 0)], [1, 1])
    assert explicit_box(inst) is None
    assert brute_force_ilp(inst).status == "infeasible"


def test_brute_force_cap(monkeypatch):
    inst = normalize([(1, 0, 1), (0, 1, 1)], [1, 1])
    monkeypatch.setattr(model, "BOX_POINT_BUDGET", 100)
    with pytest.raises(BoxTooLarge):
        brute_force_ilp(inst, box=[(0, 1000)] * 2)
    assert brute_force_ilp(inst, box=[(0, 9)] * 2).value == 2


def test_brute_force_tie_lexicographic():
    # both (0,1) and (1,0) attain the optimum 1
    inst = normalize(
        [(1, 1, 1), (-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1)], [1, 1]
    )
    out = brute_force_ilp(inst, box=[(0, 1)] * 2)
    assert out.value == 1 and out.point == (0, 1)


@st.composite
def boxed_systems(draw):
    """Rows, objective and box for brute force: n = 1..4, entries -3..3 with
    some last coefficients zeroed, boxes that may be empty or reach below
    zero, and c with negative, zero and fractional entries."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=6))
    rows = [(*r[:-2], 0, r[-1]) if draw(st.booleans()) else tuple(r) for r in rows]
    c = draw(st.lists(st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)),
                      min_size=n, max_size=n))
    box = [(lo, lo + draw(st.integers(-1, 3))) for lo in draw(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    return rows, c, box


@settings(max_examples=400, deadline=None)
@given(boxed_systems())
# a zero c_n ties the whole line: the bottom of its interval is the point
@example(([(1, 1, 2)], [1, 0], [(0, 2), (0, 2)]))
# a negative c_n takes the bottom, which a row with a_n < 0 raises
@example(([(1, -2, -1)], [0, -1], [(-1, 1), (-2, 2)]))
@example(([(0, 5)], [Fraction(-1, 2)], [(-2, 1)]))
def test_brute_force_matches_the_per_point_loop(case):
    rows, c, box = case
    inst = ILPInstance(rows, c)
    assert brute_force_ilp(inst, box) == reference_brute_force(inst, box)


def test_brute_force_matches_the_per_point_loop_on_the_corpus(corpus):
    for inst in corpus:
        assert brute_force_ilp(inst) == reference_brute_force(inst, explicit_box(inst)), inst.name


def test_brute_force_trace(htc6):
    # the 12 cube rows hold on the whole box, and each of the 2^5 prefixes
    # is one line along x_6
    trace = {}
    brute_force_ilp(htc6, trace=trace)
    assert trace == {"box_points": 64, "rows_kept": 12, "lines": 32}


def test_brute_force_trace_holds_the_box_pivots():
    # no single-variable rows, so integer_box solves the box LPs
    inst = normalize([(1, 1, 2), (-1, 0, 0), (0, -1, 0), (1, -1, 1)], [1, 1])
    assert explicit_box(inst) is None
    trace = {}
    assert brute_force_ilp(inst, trace=trace).value == 2
    assert {"pivots_phase1", "pivots_phase2", "box_points", "rows_kept", "lines"} <= trace.keys()


def test_brute_force_checks_its_point(monkeypatch):
    # a kernel that admits every prefix lets (1, 1) through x1 <= 0; the
    # final check over every row refuses it
    inst = normalize([(1, 0, 0), (0, 1, 1)], [1, 1])
    kernel = model.satisfies_rows
    monkeypatch.setattr(model, "satisfies_rows",
                        lambda rows, xs, den=1: len(xs) < inst.n or kernel(rows, xs, den))
    with pytest.raises(ResultCheckFailed):
        brute_force_ilp(inst, box=[(0, 1)] * 2)


def test_instance_file_roundtrip(tmp_path, ex61):
    path = tmp_path / "ex61.ilp"
    write_instance(ex61, path)
    back = read_instance(path)
    assert back.rows == ex61.rows and back.c == ex61.c


def per_entry_text(inst):
    """The ILP v1 text with one ``str`` call per entry."""
    lines = ["ILP v1", *[f"# {inst.name}"] * bool(inst.name), f"vars {inst.n}"]
    lines.append("obj " + " ".join(str(x) for x in inst.c))
    lines += [" ".join(str(v) for v in row[:-1]) + f" <= {row[-1]}" for row in inst.rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "inst",
    [
        gen_hypertruncated_cube(HtcParams(8, 2, Fraction(1, 2))),
        gen_wild(4),
        # Fraction entries, some equal to an int entry, and a fractional c
        ILPInstance(
            [(Fraction(1, 2), 2, Fraction(2)), (Fraction(-3, 4), 0, 1), (2, Fraction(-1, 3), 0)],
            [Fraction(1, 3), Fraction(-5, 2)],
        ),
    ],
    ids=["htc8", "wild4", "fractions"],
)
def test_writer_matches_the_per_entry_writer(tmp_path, inst):
    path = tmp_path / "inst.ilp"
    write_instance(inst, path)
    assert path.read_text() == per_entry_text(inst)


def test_instance_file_rationals(tmp_path):
    path = tmp_path / "mix.ilp"
    path.write_text(
        "ILP v1\n# comment line\nvars 2\nobj 1/2 0.25\n1 2 <= 9.333\n-1/3 0 <= 1\n"
    )
    inst = read_instance(path)
    assert inst.c == (Fraction(1, 2), Fraction(1, 4))
    assert (1000, 2000, 9333) in inst.rows
    assert (-1, 0, 3) in inst.rows


def test_instance_file_errors(tmp_path):
    bad = tmp_path / "bad.ilp"
    bad.write_text("not a header\n")
    with pytest.raises(ValueError):
        read_instance(bad)
    bad.write_text("ILP v1\nvars 2\nobj 1 1\n1 2 3\n")
    with pytest.raises(ValueError):
        read_instance(bad)
    # comment and blank lines count toward the reported line number
    bad.write_text("ILP v1\nvars 2\nobj 1 1\n# a comment\n\n1 2 <= 3\n1 2 3 <= 4\n")
    with pytest.raises(ValueError, match=r"bad\.ilp:7: row length != 2 in '1 2 3 <= 4'$"):
        read_instance(bad)
    bad.write_text("ILP v1\n# a comment\nvars 2\nobj 1 1\n1 2 3\n")
    with pytest.raises(ValueError, match=r"bad\.ilp:5: row without '<=' in '1 2 3'$"):
        read_instance(bad)
    bad.write_text("ILP v1\nvars 2\n\nobj 1 x\n1 2 <= 3\n")
    with pytest.raises(ValueError, match=r"bad\.ilp:4: .* in 'obj 1 x'$"):
        read_instance(bad)
    bad.write_text("ILP v1\nvars 2 3\nobj 1 1\n1 2 <= 3\n")
    with pytest.raises(ValueError, match=r"bad\.ilp:2: expected 'vars n' .* in 'vars 2 3'$"):
        read_instance(bad)


PLAIN_FILE = "ILP v1\n# two rows\nvars 2\nobj 1 1\n1 2 <= 3\n-1 0 <= 0\n"


def _read_bytes(tmp_path, data, name="t.ilp"):
    path = tmp_path / name
    path.write_bytes(data)
    return read_instance(path)


def test_reader_takes_vars_and_obj_by_their_first_word(tmp_path):
    tabbed = PLAIN_FILE.replace("vars ", "vars\t").replace("obj ", "obj\t")
    assert _read_bytes(tmp_path, tabbed.encode()) == _read_bytes(tmp_path, PLAIN_FILE.encode())
    for header in ("vars\nobj 1 1\n", "vars 2\nobj\n", "vars2\nobj 1 1\n", "vars 2\nobjx 1 1\n"):
        with pytest.raises(ValueError, match=r"t\.ilp: expected 'vars n' and 'obj c1 ... cn'"):
            _read_bytes(tmp_path, f"ILP v1\n{header}1 2 <= 3\n".encode())


@pytest.mark.parametrize(
    "variant",
    [
        PLAIN_FILE.replace("\n", "\r\n"),
        PLAIN_FILE.rstrip("\n"),
        PLAIN_FILE.replace("\n", "\r\n").rstrip("\r\n"),
        PLAIN_FILE.replace("1 2 <= 3\n", "1 2 <= 3\n\n# between rows\n   \n\t\n"),
    ],
    ids=["crlf", "no-final-newline", "crlf-no-final-newline", "comments-between-rows"],
)
def test_reader_reads_each_line_layout_as_the_plain_file(tmp_path, variant):
    plain = _read_bytes(tmp_path, PLAIN_FILE.encode(), "plain.ilp")
    assert _read_bytes(tmp_path, variant.encode()) == plain
    # a bad row after those lines names its own 1-based line
    bad = variant + ("\r\n" if "\r" in variant else "\n") + "1 2 3"
    lineno = bad.count("\n") + 1
    with pytest.raises(ValueError, match=rf"t\.ilp:{lineno}: row without '<=' in '1 2 3'$"):
        _read_bytes(tmp_path, bad.encode())


def test_reader_reports_an_undecodable_file_without_blaming_a_line(tmp_path):
    # the bad byte, on line 2007, lies past the first read buffer, so it is
    # met among the rows; a message may name only its line
    rows = "".join(f"1 {k} <= {k}\n" for k in range(2000))
    with pytest.raises(ValueError) as info:
        _read_bytes(tmp_path, PLAIN_FILE.encode() + rows.encode() + b"\xff <= 2\n")
    named = re.search(r"t\.ilp:(\d+): ", str(info.value))
    assert named is None or named[1] == "2007"


def test_reader_holds_one_copy_of_the_rows(tmp_path):
    # streaming: the peak while reading is the instance plus a little, not
    # the instance plus every line of the file
    path = tmp_path / "wild5.ilp"
    write_instance(gen_wild(5), path)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        inst = read_instance(path)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.m == 6832
    assert peak - base <= 1.6 * (left - base)


raw_rows = st.lists(
    st.tuples(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-4, 4),
    ),
    min_size=1,
    max_size=6,
).filter(lambda rows: any(any(r[:-1]) for r in rows))


@settings(max_examples=150, deadline=None)
@given(raw_rows)
def test_normalize_idempotent(rows):
    try:
        inst = normalize(rows, [1, 1])
    except InfeasibleZeroRow:
        return
    again = normalize(inst.rows, [1, 1])
    assert again.rows == inst.rows


@settings(max_examples=150, deadline=None)
@given(raw_rows, st.integers(1, 5), st.integers(1, 5))
def test_normalize_scaling_invariant(rows, p, q):
    rho = Fraction(p, q)
    try:
        a = normalize(rows, [1, 1])
    except InfeasibleZeroRow:
        return
    b = normalize([tuple(rho * v for v in r) for r in rows], [1, 1])
    assert a.rows == b.rows


entry = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def normalize_inputs(draw):
    """Raw rows of every kind normalize takes, in a list, a tuple or a set."""
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["int", "fraction", "mixed", "zero"]))
        if kind == "zero":
            row = [0] * n + [draw(st.sampled_from([-3, -1, 0, 1, 3]))]
        elif kind == "int":
            row = draw(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1))
        elif kind == "fraction":
            row = [Fraction(v) for v in draw(st.lists(entry, min_size=n + 1, max_size=n + 1))]
        else:
            row = draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
        k = draw(st.sampled_from([1, 1, 2, 3]))  # a common factor: not coprime
        rows.append([k * v for v in row])
        if draw(st.booleans()):
            rows.append(list(rows[-1]))  # a repeated row
    shape = draw(st.sampled_from(["lists", "tuples", "set"]))
    if shape == "lists":
        return n, rows
    rows = [tuple(row) for row in rows]
    return n, (set(rows) if shape == "set" else tuple(rows))


def _outcome(fn, rows, c):
    try:
        return fn(rows, c)
    except SymilpError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(normalize_inputs())
@example((2, [(0, 0, -1), (1, 1, 1)]))  # b = -1: the zero row's gcd is already 1
@example((2, [(0, 0, 1), (1, 2, 3)]))
@example((2, [(0, 0, 0), (2, 4, 6)]))
@example((1, [(0, Fraction(-1, 2))]))
def test_normalize_matches_the_per_row_loop(case):
    n, rows = case
    c = [1] * n
    got = _outcome(normalize, rows, c)
    want = _outcome(reference_normalize, rows, c)
    assert got == want
    if isinstance(got, ILPInstance):
        assert all(type(v) is int for row in got.rows for v in row)


def test_scale_coprime_keeps_sign():
    assert scale_coprime((-2, -4, -6)) == (-1, -2, -3)
    assert scale_coprime((Fraction(9, 3), 0, 6)) == (1, 0, 2)
    # integral Fractions come out as plain ints
    out = scale_coprime((Fraction(2), Fraction(4), Fraction(6)))
    assert out == (1, 2, 3) and all(type(v) is int for v in out)


# Reader fuzz: line-level mutations of a valid file.
VALID_FILE = ["ILP v1", "# fuzz", "vars 3", "obj 1 1 1", "1 2 0 <= 3", "0 1/2 2 <= 3",
              "-2 0 1.5 <= 3"]
noise = st.text(alphabet="0123456789 /-.<=#ILPvarsobje", max_size=12)
noise_token = st.sampled_from(
    ["1/0", "x", "-", ".", "3/4", "<=", "0", "9.25", "1e99999999"]
) | noise


@st.composite
def mutated_files(draw):
    lines = list(VALID_FILE)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "replace", "insert", "truncate", "token"]
        ))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert":
            lines.insert(i, draw(noise))
        elif not lines:
            continue
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = draw(noise)
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(noise_token)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files())
def test_read_instance_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.ilp"
    path.write_text(text)
    try:
        inst = read_instance(path)
    except (ValueError, SymilpError):
        return
    assert isinstance(inst, ILPInstance)


# The reader's integer fast path against parse_rational.
TOKEN_ALPHABET = "0123456789 /-.<=#ILPvarsobje" + "_+./" + "\u0663"
tokens = st.text(alphabet=TOKEN_ALPHABET, max_size=8)


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(tokens)
@example("+5")
@example("-0")
@example("007")
@example("\u0663")
@example("1_000")
@example("1__0")
@example("5.")
@example("1e5")
@example(" 7 ")
def test_int_reads_a_subset_of_parse_rational(token):
    # a token int accepts has the same value under parse_rational; the
    # reader sends every row holding "_" to parse_rational, because on
    # Python 3.10 int accepts 1_000 and Fraction does not
    fast = _parsed(int, token)
    if fast is not None and "_" not in token:
        assert _parsed(parse_rational, token) == fast


def _read_text(tmp_path, text):
    path = tmp_path / "t.ilp"
    path.write_text(text)
    try:
        return read_instance(path)
    except (ValueError, SymilpError) as exc:
        return type(exc)


def _normalized(token_rows, c):
    try:
        return normalize([tuple(map(parse_rational, row)) for row in token_rows], c, name="t")
    except (ValueError, SymilpError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens.filter(lambda t: t.split() == [t]), tokens)
@example("1_000", "2")
@example("\u0663", "+5")
@example("1", "1_000")
@example("1.5", "2")
@example("-3/6", "0.25")
def test_reader_accepts_a_token_iff_parse_rational_does(tmp_path, coef, rhs):
    # a coefficient is one whitespace-free token; the rhs is the rest of the line
    text = f"ILP v1\nvars 2\nobj 1 1\n1 {coef} <= {rhs}\n"
    got = _read_text(tmp_path, text)
    want = _normalized([("1", coef, rhs.strip())], [1, 1])
    if isinstance(want, ILPInstance):
        assert got == want
    else:
        assert got is ValueError


integer_token = st.integers(-12, 12).map(str)
rational_token = integer_token | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(1, 6)
) | st.builds(lambda p, k: f"{p / 10**k:.{k}f}", st.integers(-99, 99), st.integers(1, 2))


@st.composite
def mixed_files(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(integer_token | rational_token, min_size=n + 1, max_size=n + 1)
        | st.lists(integer_token, min_size=n + 1, max_size=n + 1),
        min_size=1, max_size=8,
    ))
    lines = ["ILP v1", f"vars {n}", "obj " + " ".join(["1"] * n)]
    for row in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment"])))
        lines.append(" ".join(row[:-1]) + " <= " + row[-1])
    return n, rows, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mixed_files())
def test_mixed_file_reads_as_parse_rational_rows(tmp_path, case):
    n, rows, text = case
    assert _read_text(tmp_path, text) == _normalized(rows, [1] * n)


@pytest.mark.parametrize("rhs", ["<=3", "<= 3", "<=  3"])
def test_reader_reads_every_spacing_of_one_rhs(tmp_path, rhs):
    # the rhs token keeps its leading spaces, so each spacing is its own key
    rows = ["1 0 <=3", "0 1 <= 3", f"1 1 {rhs}", "2 -1 <=  3"]
    text = "ILP v1\nvars 2\nobj 1 1\n" + "\n".join(rows) + "\n"
    want = _normalized([("1", "0", "3"), ("0", "1", "3"), ("1", "1", "3"), ("2", "-1", "3")],
                       [1, 1])
    assert _read_text(tmp_path, text) == want


def _counted(monkeypatch, name, fn):
    """Shadow ``model.<name>`` by fn, recording the arguments of each call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(model, name, counting, raising=False)
    return calls


def test_reader_sends_an_underscore_row_to_parse_rational(tmp_path, monkeypatch):
    seen = _counted(monkeypatch, "parse_rational", parse_rational)
    text = "ILP v1\nvars 2\nobj 1 1\n1000 1 <= 1000\n1 1000 <= 1000\n1_000 2 <= 5\n"
    got = _read_text(tmp_path, text)
    assert ("1_000",) in seen and ("1000",) not in seen
    monkeypatch.undo()
    assert got == _normalized([("1000", "1", "1000"), ("1", "1000", "1000"),
                               ("1_000", "2", "5")], [1, 1])


@pytest.mark.parametrize("bad", ["x", "1/0"])
def test_reader_names_the_line_of_a_bad_token_after_known_ones(tmp_path, bad):
    # rows 4..199 use every other token of the bad row, so only `bad` misses
    rows = ["1 2 <= 3", "2 1 <= 3"] * 98
    text = "ILP v1\nvars 2\nobj 1 1\n" + "\n".join(rows) + f"\n1 {bad} <= 3\n"
    assert text.count("\n") == 200
    path = tmp_path / "t.ilp"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"t\.ilp:200: .* in '1 {bad} <= 3'$"):
        read_instance(path)
    assert _normalized([*(r.replace("<=", "").split() for r in rows), ("1", bad, "3")],
                       [1, 1]) is ValueError


@pytest.mark.parametrize("first, second", [("x", "1/0"), ("1/0", "x")])
def test_reader_names_the_first_bad_token_of_a_row(tmp_path, first, second):
    # the message before " in '<line>'" is the error of the first bad token
    errors = []
    for token in (first, second):
        with pytest.raises(ValueError) as bad:
            parse_rational(token)
        errors.append(str(bad.value))
    assert errors[0] != errors[1]
    path = tmp_path / "t.ilp"
    path.write_text(f"ILP v1\nvars 2\nobj 1 1\n1 1 <= 3\n{first} {second} <= 3\n")
    with pytest.raises(ValueError) as info:
        read_instance(path)
    assert str(info.value) == f"{path}:5: {errors[0]} in '{first} {second} <= 3'"


def test_reader_reads_each_distinct_token_once(tmp_path, monkeypatch):
    # work, not time: a symmetric file holds few distinct numbers, and its
    # rows are already coprime, so normalize scales none of them
    wild = gen_wild(6)
    path = tmp_path / "wild6.ilp"
    write_instance(wild, path)
    rows = [ln.partition("<=") for ln in path.read_text().splitlines() if "<=" in ln]
    distinct = {t for left, _, right in rows for t in (*left.split(), right)}
    ints = _counted(monkeypatch, "int", int)
    scaled = _counted(monkeypatch, "scale_coprime", scale_coprime)
    back = read_instance(path)
    monkeypatch.undo()
    assert back == wild
    assert len(ints) <= len(distinct) + 1  # + the n of the `vars` line
    assert scaled == []


def test_reader_tries_each_rational_token_once(tmp_path, monkeypatch):
    rows = [("1/2", "1", "3"), ("1", "0.5", "2"), ("1_0", "1", "3"), ("2", "1", "3")] * 25
    text = "ILP v1\nvars 2\nobj 1 1\n" + "".join(f"{a} {b} <= {r}\n" for a, b, r in rows)
    ints = _counted(monkeypatch, "int", int)
    got = _read_text(tmp_path, text)
    monkeypatch.undo()
    assert got == _normalized(rows, [1, 1])
    # "2", "1", "0.5", "1/2" and the rhs " 3", " 2", plus the n of `vars`;
    # "1_0" is refused untried
    assert len(ints) == 7


def test_reader_parses_each_rational_token_once(tmp_path, monkeypatch):
    # one rational token on every row: parse_rational reads it once, next to
    # the objective's tokens, however many rows repeat it
    rows = [f"1/3 {k} <= {k + 1}" for k in range(40)] * 3
    text = "ILP v1\nvars 2\nobj 1 1\n" + "\n".join(rows) + "\n"
    seen = _counted(monkeypatch, "parse_rational", parse_rational)
    got = _read_text(tmp_path, text)
    monkeypatch.undo()
    assert sorted(seen) == [("1",), ("1",), ("1/3",)]
    assert got == _normalized([r.replace("<=", "").split() for r in rows], [1, 1])
