"""Signed permutations of R^n and group machinery on instances.

A signed permutation is stored by its action on the standard basis:
``image[j] = +i`` means e_{j+1} -> e_i and ``image[j] = -i`` means
e_{j+1} -> -e_i (indices 1-based inside the tuple).  In signed cycle
notation, (1+2-4+3-) corresponds to image (2, -4, -1, 3).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResultCheckFailed, SearchBudgetExceeded
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

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self.image)
        for j, v in enumerate(self.image):
            if v > 0:
                inv[v - 1] = j + 1
            else:
                inv[-v - 1] = -(j + 1)
        return SignedPermutation(inv)

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

    def matrix(self) -> tuple:
        n = len(self.image)
        rows = [[0] * n for _ in range(n)]
        for j, v in enumerate(self.image):
            rows[abs(v) - 1][j] = 1 if v > 0 else -1
        return tuple(tuple(r) for r in rows)

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
    if n == 1:
        return (SignedPermutation.identity(1),)
    return (transposition(n, 1, 2), full_cycle(n))


def alt_generators(n: int) -> tuple:
    """Standard generators of Alt(n) for n >= 3."""
    if n < 3:
        raise ValueError("alternating generators need n >= 3")
    three = SignedPermutation((2, 3, 1) + tuple(range(4, n + 1)))
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


@dataclass(frozen=True)
class BasisOrbit:
    """Orbit of signed basis vectors, coded as signed indices +-(1..n)."""

    members: tuple
    polarity: str  # "unipolar" | "bipolar"


def orbit(seeds, gens, act, limit: int | None = None) -> set:
    """Closure of ``seeds`` under x -> act(g, x) for every g in ``gens``.

    Breadth-first; raises SearchBudgetExceeded once the closure holds more
    than ``limit`` elements.
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
                    if limit is not None and len(found) > limit:
                        raise SearchBudgetExceeded(f"orbit exceeds {limit} elements")
        frontier = new
    return found


def is_symmetry(inst: ILPInstance, g: SignedPermutation) -> bool:
    """Row-set invariance of (A|b) under a -> a*gamma, plus c*gamma = c."""
    n = inst.n
    if g.degree != n:
        raise ValueError("degree mismatch")
    if g.apply_to_row(inst.c) != inst.c:
        return False
    rows = inst.rows
    rowset = inst.row_set
    img = g.image
    if g.is_plain:
        idx = tuple(v - 1 for v in img) + (n,)
        for row in rows:
            if tuple(map(row.__getitem__, idx)) not in rowset:
                return False
    else:
        for row in rows:
            mapped = tuple(
                row[v - 1] if v > 0 else -row[-v - 1] for v in img
            ) + (row[-1],)
            if mapped not in rowset:
                return False
    return True


def fixed_space(G: GroupSpec):
    """Basis of the common eigenvalue-1 eigenspace of the generators.

    Stacks the (gamma - id) blocks and takes one kernel; the basis vectors
    come back as coprime integer tuples.
    """
    n = G.degree
    stacked = []
    for g in G.generators:
        mat = [[0] * n for _ in range(n)]
        for j, v in enumerate(g.image):
            s = 1 if v > 0 else -1
            mat[abs(v) - 1][j] += s
        for i in range(n):
            mat[i][i] -= 1
        stacked.extend(row for row in mat if any(row))
    if not stacked:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return kernel_basis(stacked, ncols=n)


def fixing_equations(G: GroupSpec) -> tuple:
    """Matrix E with ker E = Fix(G); it has n - dim Fix rows."""
    basis = fixed_space(G)
    n = G.degree
    if not basis:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return tuple(kernel_basis(basis, ncols=n))


def project_barycenter(G: GroupSpec, x) -> tuple:
    """Average of the orbit of x; the projection onto the fixed space."""
    points = orbit([tuple(Fraction(v) for v in x)], G.generators, SignedPermutation.apply)
    return tuple(Fraction(sum(col), len(points)) for col in zip(*points))


def _signed_key(v: int):
    return (abs(v), v < 0)


def basis_orbits(G: GroupSpec) -> list:
    """Orbit partition of {+-e_1, ..., +-e_n} with polarity classification."""
    seen = set()
    orbits = []
    universe = [s * i for i in range(1, G.degree + 1) for s in (1, -1)]
    for start in universe:
        if start in seen:
            continue
        members = orbit([start], G.generators, SignedPermutation.apply_signed_index)
        seen |= members
        polarity = "bipolar" if any(-v in members for v in members) else "unipolar"
        orbits.append(BasisOrbit(tuple(sorted(members, key=_signed_key)), polarity))
    return orbits


def conjugate_to_permutations(G: GroupSpec):
    """Diagonal sign change conjugating a semi-transitive G into Sym(n).

    Returns (eps, H) with eps*G*eps^-1 = H sign-free, or None when the
    action is not semi-transitive (two opposite unipolar orbits of length n).
    """
    n = G.degree
    orbits = basis_orbits(G)
    if len(orbits) != 2:
        return None
    a, b = orbits
    if a.polarity != "unipolar" or b.polarity != "unipolar":
        return None
    if len(a.members) != n or len(b.members) != n:
        return None
    if set(b.members) != {-v for v in a.members}:
        return None
    chosen = a if 1 in a.members else b
    signs = {}
    for v in chosen.members:
        signs[abs(v)] = 1 if v > 0 else -1
    eps = SignedPermutation(tuple(signs[i] * i for i in range(1, n + 1)))
    conj = []
    for g in G.generators:
        h = eps * g * eps.inverse()
        if not h.is_plain:
            raise ResultCheckFailed("conjugation failed to clear signs")
        conj.append(h)
    return eps, GroupSpec(n, tuple(conj))


FULL_SYMMETRIC = "full_symmetric"
ALTERNATING = "alternating"
TRANSITIVE_ONLY = "transitive_only"
NONE = "none"


def verify_symmetric_group_invariance(inst: ILPInstance) -> str:
    """Cheap certificate tiers for the solvers' transitivity hypotheses.

    Sym(n)/Alt(n) invariance is certified by two generator checks each;
    otherwise the detected coordinate symmetries are tested for orbit
    transitivity on the standard basis.
    """
    n = inst.n
    if n == 1:
        return FULL_SYMMETRIC
    if all(is_symmetry(inst, g) for g in sym_generators(n)):
        return FULL_SYMMETRIC
    if n >= 3 and all(is_symmetry(inst, g) for g in alt_generators(n)):
        return ALTERNATING
    from .symdetect import detect_symmetries  # deferred: symdetect imports us

    G = detect_symmetries(inst, "reduced")
    reached = orbit([1], G.generators, lambda g, i: abs(g.image[i - 1]))
    return TRANSITIVE_ONLY if len(reached) == n else NONE


def write_generators(G: GroupSpec, path) -> None:
    with open(path, "w") as fh:
        for g in G.generators:
            fh.write(" ".join(str(v) for v in g.image) + "\n")


def read_generators(path) -> GroupSpec:
    gens = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            gens.append(SignedPermutation(int(t) for t in ln.split()))
    if not gens:
        raise ValueError(f"{path}: no generators")
    return GroupSpec(gens[0].degree, tuple(gens))
