"""Reference helpers that only the tests use.

Layer centers, core-point distances, the representative oracle, basis
orbit barycenters, group enumeration, and the fixed space and orbit
average by matrices and enumeration: each restates a definition of the
paper directly, so the tests can check the solvers against it.
"""

from dataclasses import dataclass
from fractions import Fraction

from symilp.corepoint import CoreRepresentative
from symilp.layers import CoprimeDirection
from symilp.ratlin import kernel_basis
from symilp.symmetry import BasisOrbit, GroupSpec, SignedPermutation, orbit


@dataclass(frozen=True)
class Layer:
    dir: CoprimeDirection
    k: int


def layer_center(layer: Layer) -> tuple:
    """The point of layer k nearest the origin: k d / |d|^2."""
    d = layer.dir.direction
    q = Fraction(layer.k, sum(v * v for v in d))
    return tuple(q * v for v in d)


def core_distance_sq(n: int, k: int) -> Fraction:
    """Squared distance from any core point of layer k to the layer center."""
    r = k - n * (k // n)
    return Fraction(r * (n - r), n)


def core_distance_check(n: int, k: int, x) -> bool:
    """True iff x realizes the minimum distance to the center of its layer."""
    if sum(x) != k:
        raise ValueError("x is not on layer k")
    center = Fraction(k, n)
    d2 = sum((Fraction(v) - center) ** 2 for v in x)
    return d2 == core_distance_sq(n, k)


def representative_oracle(inst, k: int):
    """Per-layer oracle testing only the canonical core point.

    Sound under the (floor(n/2)+1)-transitivity hypothesis; plugs into
    solve_by_layers as the bridge between the two solvers.
    """
    n = inst.n
    q, d = divmod(k, n)
    x = CoreRepresentative(q, d, n).point()
    return x if inst.is_feasible(x) else None


def orbit_barycenter(o: BasisOrbit, n: int) -> tuple:
    totals = [Fraction(0)] * n
    for v in o.members:
        totals[abs(v) - 1] += Fraction(1 if v > 0 else -1, len(o.members))
    return tuple(totals)


def group_elements(G: GroupSpec, limit: int | None = None) -> set:
    """Closure of the generators under composition (mulclose)."""
    seeds = set(G.generators) | {SignedPermutation.identity(G.degree)}
    return orbit(seeds, G.generators, SignedPermutation.__mul__, limit)


def group_order(G: GroupSpec, limit: int | None = None) -> int:
    return len(group_elements(G, limit))


def signed_matrix(g: SignedPermutation) -> tuple:
    """The n x n matrix of g: column j is the image of e_{j+1}."""
    n = g.degree
    rows = [[0] * n for _ in range(n)]
    for j, v in enumerate(g.image):
        rows[abs(v) - 1][j] = 1 if v > 0 else -1
    return tuple(tuple(r) for r in rows)


def kernel_fixed_space(G: GroupSpec) -> list:
    """Fix(G) as the kernel of the stacked (gamma - id) blocks of the generators."""
    stacked = []
    for g in G.generators:
        for i, row in enumerate(signed_matrix(g)):
            diff = [v - (i == j) for j, v in enumerate(row)]
            if any(diff):
                stacked.append(diff)
    return kernel_basis(stacked, ncols=G.degree)


def orbit_average(G: GroupSpec, x) -> tuple:
    """The average of the points of the orbit of x, by enumerating that orbit."""
    points = orbit([tuple(Fraction(v) for v in x)], G.generators, SignedPermutation.apply)
    return tuple(Fraction(sum(col), len(points)) for col in zip(*points))
