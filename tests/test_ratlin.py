from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symilp.ratlin import clear_denominators, dot, kernel_basis, parse_rational, scale_coprime
from testkit import rank, solve_linear


def test_parse_rational_forms():
    assert parse_rational("9.333") == Fraction(9333, 1000)
    assert parse_rational("-11/12") == Fraction(-11, 12)
    assert parse_rational("7") == 7


@pytest.mark.parametrize("text", ["1e3", "2.5E-1", "1e99999999"])
def test_parse_rational_refuses_exponents(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_rational(text)


def test_parse_rational_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


@pytest.mark.parametrize("vec, want", [
    ((3, -6, 0), ((3, -6, 0), 1)),  # all ints: the same entries, over 1
    ((Fraction(1, 2), Fraction(-2, 3)), ((3, -4), 6)),
    ((Fraction(-3, 4), 2, -1, Fraction(5, 6)), ((-9, 24, -12, 10), 12)),
    ((Fraction(4), Fraction(-6, 4)), ((8, -3), 2)),
    ((0, 0, 0), ((0, 0, 0), 1)),
    ((Fraction(0), Fraction(0)), ((0, 0), 1)),
])
def test_clear_denominators(vec, want):
    ints, den = clear_denominators(vec)
    assert (ints, den) == want
    assert all(type(v) is int for v in (*ints, den))
    assert tuple(Fraction(v, den) for v in ints) == tuple(vec)


@given(st.lists(st.fractions(max_denominator=30), max_size=6))
def test_clear_denominators_is_the_least_integer_scaling(vec):
    ints, den = clear_denominators(iter(vec))
    assert [Fraction(v, den) for v in ints] == vec
    # den is the least: a common factor of den and every int would clear them too
    assert gcd(den, *ints) == 1


def test_kernel_difference_rows():
    assert kernel_basis([(1, -1, 0), (0, 1, -1)], 3) == [(1, 1, 1)]


def test_kernel_vector_leads_positive():
    # the free column's 1 comes after the pivot column's -1: the vector is negated
    assert kernel_basis([(1, 1)], 2) == [(1, -1)]
    assert kernel_basis([(2, 0, 3)], ncols=3) == [(0, 1, 0), (3, 0, -2)]


def test_kernel_identity_empty():
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


def test_kernel_zero_row_standard_basis():
    assert kernel_basis([(0, 0)], 2) == [(1, 0), (0, 1)]


def test_kernel_no_rows_needs_ncols():
    assert kernel_basis([], ncols=2) == [(1, 0), (0, 1)]


def test_solve_identity():
    assert solve_linear([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2, 3)) == (1, 2, 3)


def test_solve_underdetermined_free_zero():
    x = solve_linear([(1, 1)], (2,))
    assert x == (2, 0)


def test_solve_inconsistent():
    assert solve_linear([(1,), (1,)], (0, 1)) is None


def test_rank_examples():
    assert rank([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == 4
    assert rank([(0, 0, 0)] * 3) == 0
    assert rank([(1, 2), (2, 4)]) == 1


def test_rational_entries():
    M = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 1))]
    assert rank(M) == 2
    x = solve_linear(M, (Fraction(1), Fraction(2)))
    assert dot(M[0], x) == 1 and dot(M[1], x) == 2


def test_scale_coprime():
    assert scale_coprime((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    assert scale_coprime((-2, -4)) == (-1, -2)
    assert scale_coprime((0, 0)) == (0, 0)


def test_scale_coprime_fast_paths():
    # an all-int coprime row is returned as the same tuple
    row = (3, -1, 0, 7)
    assert scale_coprime(row) is row
    # a list argument still comes back as a tuple
    assert scale_coprime([3, -1, 0, 7]) == row
    # integral Fractions become ints without scaling
    out = scale_coprime((Fraction(3), Fraction(-1), Fraction(0), Fraction(7)))
    assert out == row and all(type(v) is int for v in out)
    zero = scale_coprime((Fraction(0), Fraction(0)))
    assert zero == (0, 0) and all(type(v) is int for v in zero)
    # a row mixing ints and integral Fractions comes back as ints only
    mixed = scale_coprime((1, Fraction(1), 2))
    assert mixed == (1, 1, 2) and all(type(v) is int for v in mixed)


small_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.tuples(*[st.integers(-6, 6) for _ in range(cols)]), min_size=1, max_size=4
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_exact_kernel(M):
    ncols = len(M[0])
    basis = kernel_basis(M, ncols=ncols)
    assert rank(M) + len(basis) == ncols
    for v in basis:
        for row in M:
            assert dot(row, v) == 0
        lead = next(e for e in v if e)
        assert lead > 0
    if len(basis) > 1:
        assert rank(basis) == len(basis)


@settings(max_examples=120, deadline=None)
@given(small_matrices, st.data())
def test_solve_exact_when_present(M, data):
    rhs = data.draw(st.tuples(*[st.integers(-6, 6) for _ in range(len(M))]))
    x = solve_linear(M, rhs)
    if x is not None:
        for row, b in zip(M, rhs):
            assert dot(row, x) == b
    else:
        assert rank(M) < rank([row + (b,) for row, b in zip(M, rhs)])
