"""Instance data model: max c^t x subject to Ax <= b.

A row is a flat ``(a_1, ..., a_n, b)`` tuple of ints; the objective c is a
tuple of exact rationals.  The ILPInstance constructor sorts the rows and
drops repeats, so they are strictly ascending; normalize scales each row
onto coprime integers and drops or refuses zero rows.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, product, starmap
from math import ceil, gcd
from operator import itemgetter, lt, mul, ne, not_

from .errors import BoxTooLarge, EmptySystem, InfeasibleRegion
from .errors import InfeasibleZeroRow, ResultCheckFailed
from .ratlin import clear_denominators, parse_rational, scale_coprime

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

BOX_POINT_BUDGET = 10**8  # points brute_force_ilp may enumerate


@dataclass(frozen=True)
class Outcome:
    """A solver's answer, LP or ILP: a status, and for OPTIMAL the point and value."""

    status: str
    point: tuple | None = None
    value: Fraction | None = None


class ILPInstance:
    """Inequality system Ax <= b with a maximization objective.

    The one owner of the row order: rows already strictly ascending are kept
    as they are, checked in one C-level pass; any others are sorted and their
    adjacent repeats dropped.  No row is scaled here (that is normalize).
    """

    __slots__ = ("name", "n", "rows", "c", "_classes")

    def __init__(self, rows, c, name=""):
        rows = tuple(rows)
        if not rows:
            raise EmptySystem("instance has no rows")
        if not all(map(lt, rows, islice(rows, 1, None))):
            # Timsort merges the runs a generator emits, reversing descending ones
            rows = sorted(rows)
            if not all(map(lt, rows, rows[1:])):  # drop adjacent repeats
                rest = rows[1:]
                rows = [rows[0], *compress(rest, map(ne, rest, rows))]
            rows = tuple(rows)
        self.n = len(rows[0]) - 1
        if self.n < 1:
            raise ValueError("need at least one variable")
        if set(map(len, rows)) != {self.n + 1}:
            raise ValueError("ragged row")
        self.rows = rows
        c = tuple(c)
        if not all(type(x) is Fraction for x in c):  # Fraction(x) of a Fraction costs an ABC check
            c = tuple(map(Fraction, c))
        self.c = c
        if len(self.c) != self.n:
            raise ValueError("objective length mismatch")
        self.name = name
        self._classes = None

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def row_classes(self) -> Counter:
        """Rows counted by class, keyed by ``tuple(sorted(a)) + (b,)``.

        A class holds the rows that permute each other's coefficients and
        share b: a union of Sym(n)-orbits of rows.  Each distinct row counts once.
        Built in C-level passes: each whole row, b included, is sorted and
        counted with its b, then one b is taken out of each distinct key.
        """
        if self._classes is None:
            rows = self.rows
            counts = Counter(zip(map(itemgetter(-1), rows), map(tuple, map(sorted, rows))))
            classes = Counter()
            for (b, full), members in counts.items():
                i = bisect_left(full, b)
                classes[(*full[:i], *full[i + 1:], b)] = members
            self._classes = classes
        return self._classes

    def is_feasible(self, x, den=1) -> bool:
        """Exact check of Ax <= b at the rational point x / den (den > 0), in ints.

        The point's denominators are cleared into den, and floats are taken
        at their exact rational value.  Once row_classes is built (a scan
        builds it), classes_admit is tried first, at O(classes*n) after one
        sort; when it does not hold, or no classes are built yet,
        satisfies_rows tests every row, at O(mn).  The classes are never
        built here: that costs more than one pass over the rows.
        """
        if len(x) != self.n:
            raise ValueError("point length mismatch")
        try:
            xs, scale = clear_denominators(x)
        except AttributeError:
            xs, scale = clear_denominators(map(Fraction, x))
        den *= scale
        if self._classes is not None and classes_admit(self._classes, xs, den):
            return True
        return satisfies_rows(self.rows, xs, den)

    def __eq__(self, other):
        return (
            isinstance(other, ILPInstance)
            and self.rows == other.rows
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.rows, self.c))

    def __repr__(self):
        return f"ILPInstance({self.name or '?'}: m={self.m}, n={self.n})"


def satisfies_rows(rows, xs, den=1) -> bool:
    """Whether the integer point xs / den satisfies every (a | b) row.

    The one feasibility kernel: a row holds when a.xs <= b * den.
    """
    for row in rows:
        if sum(map(mul, row, xs)) > row[-1] * den:
            return False
    return True


def classes_admit(classes, xs, den=1) -> bool:
    """Whether xs / den satisfies every row of every class, by one test per class.

    ``classes`` are keys ``tuple(sorted(a)) + (b,)``.  Over all the
    permutations of a, the largest a.xs is sorted(a).sorted(xs) (the
    rearrangement inequality), so passing it proves each row of the class,
    symmetric or not.  On rows closed under Sym(n) a failure is a violated
    row; on other rows it proves nothing.  O(classes*n) after one sort.
    """
    s = sorted(xs)
    return all(sum(map(mul, key, s)) <= key[-1] * den for key in classes)


def normalize(raw_rows, c, name="") -> ILPInstance:
    """Build an ILPInstance from raw rational (a | b) rows.

    Scales every row to coprime integers, drops zero rows with nonnegative
    right hand side and rejects zero rows with negative right hand side; the
    constructor then sorts the rows and drops repeats.  All-int rows cost
    one C-level gcd each, and scale_coprime runs only on rows whose gcd is
    not 1; a Fraction entry anywhere sends every row through scale_coprime.
    Zero rows are found in C-level passes too.
    """
    rows = list(map(tuple, raw_rows))
    try:
        gcds = list(starmap(gcd, rows))
    except TypeError:  # a Fraction entry: clear denominators row by row
        rows = list(map(scale_coprime, rows))
    else:
        if gcds.count(1) != len(gcds):
            rows = [row if g == 1 else scale_coprime(row) for row, g in zip(rows, gcds)]
    nonzero = list(map(any, map(itemgetter(slice(-1)), rows)))
    if not all(nonzero):
        for row in compress(rows, map(not_, nonzero)):
            if row[-1] < 0:
                raise InfeasibleZeroRow(f"0 <= {row[-1]} in {name or 'system'}")
        rows = list(compress(rows, nonzero))
    if not rows:
        raise EmptySystem(f"no nontrivial rows in {name or 'system'}")
    return ILPInstance(rows, c, name=name)


def explicit_box(inst: ILPInstance):
    """Integer bounds implied by single-variable rows, if complete.

    A row with exactly one nonzero coefficient bounds one coordinate; when
    every coordinate ends up with both a lower and an upper bound the full
    box is returned, otherwise None.
    """
    lo = [None] * inst.n
    hi = [None] * inst.n
    for row in inst.rows:
        nz = [j for j in range(inst.n) if row[j]]
        if len(nz) != 1:
            continue
        j = nz[0]
        a, b = row[j], row[-1]
        if a > 0:
            u = b // a  # floor(b/a)
            hi[j] = u if hi[j] is None else min(hi[j], u)
        else:
            l = ceil(Fraction(b, a))
            lo[j] = l if lo[j] is None else max(lo[j], l)
    if any(v is None for v in lo) or any(v is None for v in hi):
        return None
    return list(zip(lo, hi))


def brute_force_ilp(inst: ILPInstance, box=None, trace: dict | None = None) -> Outcome:
    """Exhaustive integral optimum over a finite box; the global test oracle.

    The box defaults to the bounds implied by single-variable rows, else to
    exact per-coordinate LP bounds (integer_box, which gets ``trace``); one
    of more than BOX_POINT_BUDGET points raises BoxTooLarge.  Two exact
    steps decide every point of the box:

    1. A row with sum_j max(a_j lo_j, a_j hi_j) <= b holds on the whole box
       and is dropped.
    2. Each prefix p = (x_1..x_{n-1}) is one line along t = x_n.  The kept
       rows with a_n = 0 test p alone (satisfies_rows stops at the end of
       p); each other row, with s = b - a'.p, gives t <= s // a_n if a_n > 0
       and t >= -(s // -a_n) if a_n < 0.  The line's best point is the top
       of that interval when c_n > 0, else its bottom.

    Prefixes run in lexicographic order and only a strictly greater value
    replaces the best, so ties go to the lexicographically smallest point.
    Values are compared as ints, c cleared of its denominators.
    The point returned is checked against every row with satisfies_rows; a
    failure raises ResultCheckFailed.  ``trace`` receives ``box_points``
    (the volume of the box), ``rows_kept`` (the rows left after step 1) and
    ``lines`` (the prefixes visited).
    """
    if box is None:
        from .lpcore import integer_box  # deferred: lpcore imports model

        try:
            box = explicit_box(inst) or integer_box(inst, trace=trace)
        except InfeasibleRegion:
            return Outcome(INFEASIBLE)  # the relaxation is empty
    if len(box) != inst.n:
        raise ValueError("box length mismatch")
    budget = BOX_POINT_BUDGET
    volume = 1
    for lo, hi in box:
        volume *= max(0, hi - lo + 1)
        if volume > budget:
            raise BoxTooLarge(f"box volume exceeds cap {budget}")
    rows = [
        row for row in inst.rows
        if sum(max(a * lo, a * hi) for a, (lo, hi) in zip(row, box)) > row[-1]
    ]
    zero = [row for row in rows if not row[-2]]
    up = [(row, row[-2]) for row in rows if row[-2] > 0]
    down = [(row, -row[-2]) for row in rows if row[-2] < 0]
    *head, (lo_n, hi_n) = box
    c, scale = clear_denominators(inst.c)
    top = c[-1] > 0
    best = None
    best_val = None
    lines = 0
    for lines, p in enumerate(product(*(range(lo, hi + 1) for lo, hi in head)), 1):
        if not satisfies_rows(zero, p):
            continue
        hi = hi_n
        for row, a in up:
            t = (row[-1] - sum(map(mul, row, p))) // a
            if t < hi:
                hi = t
        lo = lo_n
        for row, a in down:
            t = -((row[-1] - sum(map(mul, row, p))) // a)
            if t > lo:
                lo = t
        if lo > hi:
            continue
        x = (*p, hi if top else lo)
        val = sum(map(mul, c, x))
        if best_val is None or val > best_val:
            best_val = val
            best = x
    if trace is not None:
        trace.update(box_points=volume, rows_kept=len(rows), lines=lines)
    if best is None:
        return Outcome(INFEASIBLE)
    if not satisfies_rows(inst.rows, best):
        raise ResultCheckFailed(f"{inst.name or 'brute force'}: point {best} violates a row")
    return Outcome(OPTIMAL, point=best, value=Fraction(best_val, scale))


def write_instance(inst: ILPInstance, path) -> None:
    """Write the `ILP v1` text format, with one ``str`` call per distinct
    row entry: the rows' entries are looked up in a dict of their text."""
    text = {v: str(v) for v in set().union(*inst.rows)}
    with open(path, "w") as fh:
        fh.write("ILP v1\n")
        if inst.name:
            fh.write(f"# {inst.name}\n")
        fh.write(f"vars {inst.n}\n")
        fh.write("obj " + " ".join(map(str, inst.c)) + "\n")
        for row in inst.rows:
            fh.write(" ".join(map(text.__getitem__, row[:-1])) + f" <= {text[row[-1]]}\n")


def _token_value(t):
    """A token's exact value: ``int`` when it holds no ``_`` (Python 3.10's
    int reads 1_000, its Fraction not) and int reads it, else parse_rational."""
    if "_" not in t:
        try:
            return int(t)
        except ValueError:
            pass
    return parse_rational(t)


def read_instance(path) -> ILPInstance:
    """Parse the `ILP v1` text format; numbers are exact rationals.

    One streaming pass over the non-blank, non-comment lines, holding no
    list of them; ``vars`` and ``obj`` are taken by their first word.  One
    dict maps each row token to its value; a row is one lookup per token,
    and a row with new tokens first fills them in, in line order, with
    ``_token_value``.  A malformed file raises ValueError naming the path,
    the 1-based line and the line's first bad token.
    """
    with open(path) as fh:
        lines = ((i, ln) for i, ln in enumerate(map(str.strip, fh), 1)
                 if ln and not ln.startswith("#"))
        head = list(islice(lines, 3))
        if not head or head[0][1] != "ILP v1":
            raise ValueError(f"{path}: missing 'ILP v1' header")
        words = [ln.split() for _, ln in head[1:]]
        # each line is its keyword and at least one more word
        if [w[0] for w in words if w[1:]] != ["vars", "obj"]:
            raise ValueError(f"{path}: expected 'vars n' and 'obj c1 ... cn' after the header")
        lineno, ln = head[1]
        try:
            if len(words[0]) != 2:
                raise ValueError("expected 'vars n' with one integer n")
            n = int(words[0][1])
            lineno, ln = head[2]
            c = [parse_rational(t) for t in words[1][1:]]
            if len(c) != n:
                raise ValueError(f"objective length != {n}")
            values = {}  # token -> exact value, one entry per distinct token
            lookup = values.__getitem__
            rows = []
            for lineno, ln in lines:
                left, sep, right = ln.partition("<=")
                if not sep:
                    raise ValueError("row without '<='")
                tokens = left.split()
                if len(tokens) != n:
                    raise ValueError(f"row length != {n}")
                tokens.append(right)
                try:
                    row = tuple(map(lookup, tokens))
                except KeyError:
                    for t in tokens:
                        if t not in values:
                            values[t] = _token_value(t)
                    row = tuple(map(lookup, tokens))
                rows.append(row)
        except UnicodeDecodeError:
            raise  # the file, not a line, is at fault
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc} in {ln!r}") from None
    return normalize(rows, c, name=str(path))
