"""Bounded-degree ideal membership for multivariate power sums.

Homogeneous targets and generators only: membership in the graded piece is
an exact rational linear system (columns indexed by generator x complementary
monomial), solved by Gaussian elimination over Fraction.  Positive answers
come with cofactors that are re-expanded and checked against the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .errors import DegreeMismatch, VerificationFailed


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(exp)] = c

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def scale(self, s) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.nvars == other.nvars and \
            self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, {len(self.terms)} terms)"


def power_sum(n: int, a: int) -> MultiPoly:
    """p_a = x_1^a + ... + x_n^a."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1, a >= 1")
    terms = {}
    for i in range(n):
        exp = [0] * n
        exp[i] = a
        terms[tuple(exp)] = Fraction(1)
    return MultiPoly(n, terms)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if degree < 0:
        return []
    out = []
    for bars in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in bars:
            exp[i] += 1
        out.append(tuple(exp))
    return out


@dataclass
class MembershipAnswer:
    member: bool
    cofactors: Optional[list[MultiPoly]]
    degree_bound: int


def graded_membership(target: MultiPoly, generators: Sequence[MultiPoly]) -> MembershipAnswer:
    """Decide target in (generators) within the graded piece of the target's
    degree; exact, with verified cofactors on success."""
    if not target.is_homogeneous():
        raise DegreeMismatch("target is not homogeneous")
    for g in generators:
        if not g.is_homogeneous():
            raise DegreeMismatch("generator is not homogeneous")
    if target.is_zero():
        return MembershipAnswer(True, [MultiPoly.zero(target.nvars)
                                       for _ in generators], 0)
    deg = target.degree()
    nvars = target.nvars

    # column j <-> (generator i, monomial m of degree deg - deg(g_i))
    columns = []
    col_polys = []
    for gi, g in enumerate(generators):
        cdeg = deg - g.degree()
        if cdeg < 0 or g.is_zero():
            continue
        for m in monomials_of_degree(nvars, cdeg):
            columns.append((gi, m))
            col_polys.append(g * MultiPoly.monomial(m))

    rows = monomials_of_degree(nvars, deg)
    row_index = {m: i for i, m in enumerate(rows)}
    nrows, ncols = len(rows), len(columns)
    matrix = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for j, poly in enumerate(col_polys):
        for e, c in poly.terms.items():
            matrix[row_index[e]][j] = c
    for e, c in target.terms.items():
        matrix[row_index[e]][ncols] = c

    solution = _solve_exact(matrix, ncols)
    if solution is None:
        return MembershipAnswer(False, None, deg)

    cofactors = [MultiPoly.zero(nvars) for _ in generators]
    for j, (gi, m) in enumerate(columns):
        if solution[j]:
            cofactors[gi] = cofactors[gi] + MultiPoly.monomial(m, solution[j])
    # independent re-expansion check
    acc = MultiPoly.zero(nvars)
    for cof, g in zip(cofactors, generators):
        acc = acc + cof * g
    if acc != target:
        raise VerificationFailed("cofactors do not re-expand to the target")
    return MembershipAnswer(True, cofactors, deg)


def _solve_exact(matrix: list[list[Fraction]], ncols: int):
    """Gaussian elimination on [A | t]; any solution of A x = t or None."""
    nrows = len(matrix)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        # partial pivoting by coefficient size keeps entries small
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
    # consistency: no row of the form [0 ... 0 | nonzero]
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


def zerodivisor_identity_target(coefficient: int = 2) -> MultiPoly:
    """(x2^2 x3^2 + x2^2 x4^2 + x3^2 x4^2 - x1^4)^2
    - coefficient * (x1 x2 x3 x4)^2, in four variables."""
    q = (MultiPoly.monomial((0, 2, 2, 0)) + MultiPoly.monomial((0, 2, 0, 2))
         + MultiPoly.monomial((0, 0, 2, 2)) - MultiPoly.monomial((4, 0, 0, 0)))
    prod = MultiPoly.monomial((1, 1, 1, 1))
    return q * q - (prod * prod).scale(coefficient)


def zerodivisor_identity_check(coefficient: int = 2) -> MembershipAnswer:
    """Membership of the zero-divisor identity's target in (p_2, p_8), four
    variables.

    The genuine identity uses coefficient 2; other coefficients serve as
    perturbation controls.
    """
    return graded_membership(zerodivisor_identity_target(coefficient),
                             [power_sum(4, 2), power_sum(4, 8)])
