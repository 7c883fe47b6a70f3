"""Graded ideal membership for power sums, with verified cofactors."""

import hashlib
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pscert import membership
from pscert.errors import DegreeMismatch, RingMismatch, VerificationFailed
from pscert.membership import (MultiPoly, graded_membership,
                               monomials_of_degree, power_sum,
                               zerodivisor_identity_check,
                               zerodivisor_identity_target)


class TestMultiPoly:
    def test_mul_degree(self):
        p = power_sum(3, 2)
        assert (p * p).degree() == 4

    def test_homogeneous(self):
        assert power_sum(4, 5).is_homogeneous()
        mixed = power_sum(2, 1) + power_sum(2, 2)
        assert not mixed.is_homogeneous()

    def test_mul_rejects_other_ring(self):
        with pytest.raises(RingMismatch):
            power_sum(3, 1) * power_sum(4, 1)

    def test_add_rejects_other_ring(self):
        with pytest.raises(RingMismatch):
            power_sum(3, 1) + power_sum(4, 1)

    def test_monomials_count(self):
        # C(n + d - 1, d) monomials of degree d in n variables
        assert len(monomials_of_degree(3, 2)) == 6
        assert len(monomials_of_degree(4, 3)) == 20


class TestMembership:
    def test_p5_in_p1_p2_four_vars(self):
        ans = graded_membership(power_sum(4, 5),
                                [power_sum(4, 1), power_sum(4, 2)])
        assert ans.member
        assert ans.cofactors is not None

    def test_p5_in_p1_p3_four_vars(self):
        ans = graded_membership(power_sum(4, 5),
                                [power_sum(4, 1), power_sum(4, 3)])
        assert ans.member

    def test_p2_squared_in_p1_p4_three_vars(self):
        p2 = power_sum(3, 2)
        ans = graded_membership(p2 * p2, [power_sum(3, 1), power_sum(3, 4)])
        assert ans.member

    def test_p5_not_in_p2_p3_three_vars(self):
        ans = graded_membership(power_sum(3, 5),
                                [power_sum(3, 2), power_sum(3, 3)])
        assert not ans.member
        assert ans.cofactors is None

    def test_cofactors_reexpand(self):
        target = power_sum(4, 5)
        gens = [power_sum(4, 1), power_sum(4, 2)]
        ans = graded_membership(target, gens)
        acc = MultiPoly.zero(4)
        for cof, g in zip(ans.cofactors, gens):
            acc = acc + cof * g
        assert acc == target

    def test_zero_target(self):
        ans = graded_membership(MultiPoly.zero(3), [power_sum(3, 2)])
        assert ans.member

    def test_inhomogeneous_rejected(self):
        mixed = power_sum(2, 1) + power_sum(2, 2)
        with pytest.raises(DegreeMismatch):
            graded_membership(mixed, [power_sum(2, 1)])

    def test_membership_rejects_other_ring(self):
        with pytest.raises(RingMismatch):
            graded_membership(power_sum(3, 2), [power_sum(4, 1)])

    def test_self_membership(self):
        p8 = power_sum(4, 8)
        ans = graded_membership(p8, [power_sum(4, 2), p8])
        assert ans.member


class TestZerodivisorIdentity:
    def test_identity_holds(self):
        assert zerodivisor_identity_check().member

    def test_perturbed_coefficient_fails(self):
        assert not zerodivisor_identity_check(coefficient=3).member
        assert not zerodivisor_identity_check(coefficient=1).member


def _check_witness(ans, target, generators):
    """y(target) = 1 and y(m * g) = 0 for every generator multiple of the
    target's degree, recomputed here from the polynomials."""
    y = ans.witness

    def apply(poly):
        return sum((y.get(e, 0) * c for e, c in poly.terms.items()),
                   Fraction(0))

    assert apply(target) == 1
    deg = target.degree()
    for g in generators:
        for m in monomials_of_degree(target.nvars, deg - g.degree()):
            assert apply(g * MultiPoly.monomial(m)) == 0


class TestNonMemberWitness:
    def test_witness_p5_not_in_p2_p3(self):
        target, gens = power_sum(3, 5), [power_sum(3, 2), power_sum(3, 3)]
        ans = graded_membership(target, gens)
        assert not ans.member
        _check_witness(ans, target, gens)

    @pytest.mark.parametrize("coefficient", [1, 3])
    def test_witness_perturbed_identity(self, coefficient):
        target = zerodivisor_identity_target(coefficient)
        gens = [power_sum(4, 2), power_sum(4, 8)]
        ans = zerodivisor_identity_check(coefficient)
        assert not ans.member
        _check_witness(ans, target, gens)

    def test_members_carry_no_witness(self):
        assert zerodivisor_identity_check().witness is None

    def test_solver_saying_none_on_a_member_raises(self, monkeypatch):
        monkeypatch.setattr(membership, "_solve_exact", lambda rows, n: None)
        with pytest.raises(VerificationFailed):
            graded_membership(power_sum(4, 5),
                              [power_sum(4, 1), power_sum(4, 2)])

    def test_member_has_no_left_kernel_witness(self, monkeypatch):
        # only the first solve (the membership system) is faked; the
        # witness search then runs the real solver and must find nothing
        real = membership._solve_exact
        calls = []

        def first_none(rows, ncols):
            calls.append(ncols)
            return None if len(calls) == 1 else real(rows, ncols)

        monkeypatch.setattr(membership, "_solve_exact", first_none)
        with pytest.raises(VerificationFailed):
            graded_membership(power_sum(4, 5),
                              [power_sum(4, 1), power_sum(4, 2)])
        assert len(calls) == 2


def _dense_solve(matrix, ncols):
    """Gaussian elimination on [A | t] over Fraction: the reference solver
    the sparse one replaced, kept here as an oracle."""
    matrix = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(matrix)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, nrows):
            if matrix[i][c]:
                size = abs(matrix[i][c].numerator) + matrix[i][c].denominator
                if best is None or size < best[1]:
                    best = (i, size)
        if best is None:
            continue
        i = best[0]
        matrix[r], matrix[i] = matrix[i], matrix[r]
        piv = matrix[r][c]
        matrix[r] = [v / piv for v in matrix[r]]
        for i2 in range(nrows):
            if i2 != r and matrix[i2][c]:
                f = matrix[i2][c]
                matrix[i2] = [a - f * b for a, b in zip(matrix[i2], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if matrix[i][ncols]:
            return None
    for i in range(r):
        if not any(matrix[i][:ncols]) and matrix[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        solution[c] = matrix[i][ncols]
    return solution


sparse_entry = st.one_of(st.just(0), st.just(0), st.just(0),
                         st.integers(min_value=-6, max_value=6),
                         st.fractions(min_value=-4, max_value=4,
                                      max_denominator=5))


@st.composite
def sparse_systems(draw):
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    matrix = draw(st.lists(st.lists(sparse_entry, min_size=ncols + 1,
                                    max_size=ncols + 1),
                           min_size=nrows, max_size=nrows))
    return matrix, ncols


class TestSolverOracle:
    @given(system=sparse_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_rank_and_dense_reference(self, system):
        matrix, ncols = system
        rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        solution = membership._solve_exact(rows, ncols)
        a = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                           if isinstance(v, Fraction) else v
                           for v in row] for row in matrix])
        consistent = a[:, :ncols].rank() == a.rank()
        assert (solution is not None) == consistent
        assert solution == _dense_solve(matrix, ncols)
        if solution is not None:
            for row in matrix:
                assert sum(Fraction(v) * x for v, x in
                           zip(row, solution)) == row[ncols]


class TestGoldenCofactors:
    # the membership queries of the benchmark's deciders workload
    QUERIES = [(power_sum(4, 5), [power_sum(4, 1), power_sum(4, 2)]),
               (power_sum(4, 5), [power_sum(4, 1), power_sum(4, 3)]),
               (power_sum(3, 5), [power_sum(3, 2), power_sum(3, 3)]),
               (power_sum(4, 7), [power_sum(4, k) for k in (1, 2, 3)]),
               (power_sum(3, 2) * power_sum(3, 2),
                [power_sum(3, 1), power_sum(3, 4)])]
    # SHA-256 of the sorted (exponent, coefficient) terms of every cofactor,
    # recorded with the dense Gauss-Jordan solver
    DIGEST = "9e5ff8fb501e4d3ba3efb467e8e65640b33de76eba33b7249945841d217d2456"

    @staticmethod
    def record(ans):
        if ans.cofactors is None:
            return (ans.member, None)
        return (ans.member,
                [[(e, str(c)) for e, c in sorted(cof.terms.items())]
                 for cof in ans.cofactors])

    def test_cofactors_unchanged(self):
        recs = [self.record(graded_membership(t, gens))
                for t, gens in self.QUERIES]
        recs.append(self.record(zerodivisor_identity_check()))
        digest = hashlib.sha256(repr(recs).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_largest_query_is_fast(self):
        # 120 monomials of degree 7 in 4 variables, 175 unknowns
        start = time.perf_counter()
        ans = graded_membership(power_sum(4, 7),
                                [power_sum(4, k) for k in (1, 2, 3)])
        assert ans.member
        assert time.perf_counter() - start < 1.0
