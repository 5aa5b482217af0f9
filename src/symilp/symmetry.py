"""Signed permutations of R^n and group machinery on instances.

A signed permutation is stored by its action on the standard basis:
``image[j] = +i`` means e_{j+1} -> e_i and ``image[j] = -i`` means
e_{j+1} -> -e_i (indices 1-based inside the tuple).  In signed cycle
notation, (1+2-4+3-) corresponds to image (2, -4, -1, 3).
"""

from dataclasses import dataclass
from functools import cache
from itertools import groupby
from math import factorial, prod
from operator import itemgetter

from .model import ILPInstance
from .ratlin import kernel_basis


class SignedPermutation:
    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        n = len(image)
        if sorted(abs(v) for v in image) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation: {image}")
        self.image = image

    @property
    def degree(self) -> int:
        return len(self.image)

    @property
    def is_plain(self) -> bool:
        return all(v > 0 for v in self.image)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition self∘other (apply other first)."""
        img = self.image
        out = []
        for v in other.image:
            w = img[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return SignedPermutation(out)

    def apply(self, x) -> tuple:
        """Matrix action on a column vector; O(n)."""
        y = [0] * len(self.image)
        for j, v in enumerate(self.image):
            if v > 0:
                y[v - 1] = x[j]
            else:
                y[-v - 1] = -x[j]
        return tuple(y)

    def apply_to_row(self, row) -> tuple:
        """Right action a -> a*gamma on a coefficient row; O(n)."""
        img = self.image
        return tuple(
            row[v - 1] if v > 0 else -row[-v - 1] for v in img
        )

    def apply_signed_index(self, v: int) -> int:
        """Action on a signed basis vector coded as +-(1..n)."""
        w = self.image[abs(v) - 1]
        return w if v > 0 else -w

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"SignedPermutation{self.image}"


def transposition(n: int, i: int, j: int) -> SignedPermutation:
    img = list(range(1, n + 1))
    img[i - 1], img[j - 1] = j, i
    return SignedPermutation(img)


def full_cycle(n: int) -> SignedPermutation:
    """(1 2 ... n): e_1 -> e_2 -> ... -> e_n -> e_1."""
    return SignedPermutation(tuple(range(2, n + 1)) + (1,))


def sym_generators(n: int) -> tuple:
    if n <= 2:  # Sym(1) and Sym(2) are generated by the n-cycle alone
        return (full_cycle(n),)
    return (transposition(n, 1, 2), full_cycle(n))


def alt_generators(n: int) -> tuple:
    """Standard generators of Alt(n) for n >= 3; Alt(3) is one 3-cycle."""
    if n < 3:
        raise ValueError("alternating generators need n >= 3")
    three = SignedPermutation((2, 3, 1) + tuple(range(4, n + 1)))
    if n == 3:
        return (three,)
    if n % 2 == 1:
        return (three, full_cycle(n))
    long = SignedPermutation((1,) + tuple(range(3, n + 1)) + (2,))  # (2 3 ... n)
    return (three, long)


@dataclass(frozen=True)
class GroupSpec:
    degree: int
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")


def orbit(seeds, gens, act) -> set:
    """Closure of ``seeds`` under x -> act(g, x) for every g in ``gens``.

    Breadth-first, with no size limit: every caller closes a set its input
    bounds (signed basis vectors, graph nodes, the rows of an instance).
    """
    found = set(seeds)
    frontier = list(found)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return found


def is_symmetry(inst: ILPInstance, g: SignedPermutation) -> bool:
    """Row-set invariance of (A|b) under a -> a*gamma, plus c*gamma = c."""
    n = inst.n
    if g.degree != n:
        raise ValueError(f"degree mismatch: generator of degree {g.degree}, instance of n = {n}")
    if g.apply_to_row(inst.c) != inst.c:
        return False
    rows = inst.rows
    rowset = frozenset(rows)
    if g.is_plain:
        # n >= 1 indices plus the rhs's n: at least two, so it returns a tuple
        permuted = itemgetter(*(v - 1 for v in g.image), n)
        for row in rows:
            if permuted(row) not in rowset:
                return False
    else:
        for row in rows:
            if g.apply_to_row(row) + (row[-1],) not in rowset:
                return False
    return True


def basis_orbits(G: GroupSpec) -> list:
    """Orbit partition of {+-e_1, ..., +-e_n}, each orbit a tuple of signed
    indices +-(1..n) sorted by coordinate, + first.

    The first orbit is that of e_1.  The orbit of -v is the negated orbit
    of v, so an orbit o is bipolar (o = -o) exactly when it holds -o[0].
    """
    seen = set()
    orbits = []
    for start in (s * i for i in range(1, G.degree + 1) for s in (1, -1)):
        if start in seen:
            continue
        members = orbit([start], G.generators, SignedPermutation.apply_signed_index)
        seen |= members
        orbits.append(tuple(sorted(members, key=lambda v: (abs(v), v < 0))))
    return orbits


def fixed_space(G: GroupSpec):
    """Basis of Fix(G), read off the orbits of +-e_1, ..., +-e_n.

    One +-1 vector per orbit o with o[0] > 0 that is not bipolar, sorted
    by largest coordinate: the kernel basis of the stacked (gamma - id)
    blocks, in the same order and signs.  Bipolar orbits' coordinates are 0.
    """
    n = G.degree
    basis = []
    for o in sorted(basis_orbits(G), key=lambda o: abs(o[-1])):
        if o[0] > 0 and -o[0] not in o:
            v = [0] * n
            for m in o:
                v[abs(m) - 1] = 1 if m > 0 else -1
            basis.append(tuple(v))
    return basis


def fixing_equations(G: GroupSpec) -> tuple:
    """Matrix E with ker E = Fix(G); it has n - dim Fix rows."""
    return tuple(kernel_basis(fixed_space(G), G.degree))


FULL_SYMMETRIC = "full_symmetric"
ALTERNATING = "alternating"
TRANSITIVE_ONLY = "transitive_only"
NONE = "none"


def distinct_permutations(values) -> int:
    """n!/prod m_v! for a sorted tuple in which v occurs m_v times."""
    return factorial(len(values)) // prod(factorial(len(list(run))) for _, run in groupby(values))


def verify_symmetric_group_invariance(inst: ILPInstance) -> str:
    """The first tier that holds: Sym(n), Alt(n), the n-cycle.

    Sym(n) holds when c is constant and every row class is a whole orbit:
    its distinct rows are all distinct_permutations of its key.  The other
    tiers check generators with is_symmetry, each permutation once.  The
    n-cycle certifies transitivity.  NONE means no certificate, not an
    intransitive G.
    """
    n = inst.n
    if len(set(inst.c)) == 1 and all(
        members == distinct_permutations(key[:-1]) for key, members in inst.row_classes.items()
    ):
        return FULL_SYMMETRIC
    tiers = [(ALTERNATING, alt_generators(n))] if n >= 3 else []
    tiers.append((TRANSITIVE_ONLY, (full_cycle(n),)))
    holds = cache(lambda g: is_symmetry(inst, g))
    for level, gens in tiers:
        if all(map(holds, gens)):
            return level
    return NONE


def write_generators(G: GroupSpec, path) -> None:
    with open(path, "w") as fh:
        for g in G.generators:
            fh.write(" ".join(str(v) for v in g.image) + "\n")


def read_generators(path) -> GroupSpec:
    """One image per line, '#' comments; a bad line raises ValueError naming it."""
    gens = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            try:
                gens.append(SignedPermutation(int(t) for t in ln.split()))
                if gens[-1].degree != gens[0].degree:
                    raise ValueError(f"degree {gens[-1].degree} after degree {gens[0].degree}")
            except ValueError as exc:
                raise ValueError(f"{path}: {exc} in {ln!r}") from None
    if not gens:
        raise ValueError(f"{path}: no generators")
    return GroupSpec(gens[0].degree, tuple(gens))
