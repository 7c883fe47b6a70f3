"""Bounded-degree ideal membership for multivariate power sums.

Homogeneous targets and generators only: membership in the graded piece is
an exact rational linear system A x = t (rows indexed by the monomials of
the target's degree, columns by generator x complementary monomial).  The
system is held as sparse rows and solved by fraction-free elimination over
the integers.  Positive answers come with cofactors that are re-expanded
and checked against the target; negative answers come with a left-kernel
witness y (y A = 0, y t = 1) that is checked exactly against the generator
multiples and the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .errors import DegreeMismatch, RingMismatch, VerificationFailed


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
        _check_ring(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def scale(self, s) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        _check_ring(self, other)
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


def _check_ring(f: MultiPoly, g: MultiPoly):
    if f.nvars != g.nvars:
        raise RingMismatch(f"{f.nvars} vs {g.nvars} variables")


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
    # on a negative answer: a linear functional on the monomials of degree
    # `degree_bound` that is 0 on every generator multiple and 1 on the target
    witness: Optional[dict] = None


def graded_membership(target: MultiPoly, generators: Sequence[MultiPoly]) -> MembershipAnswer:
    """Decide target in (generators) within the graded piece of the target's
    degree; exact, with verified cofactors on success and a verified
    left-kernel witness on failure."""
    for g in generators:
        _check_ring(target, g)
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

    monomials = monomials_of_degree(nvars, deg)
    row_index = {m: i for i, m in enumerate(monomials)}
    ncols = len(columns)
    rows: list[dict] = [{} for _ in monomials]
    for j, poly in enumerate(col_polys):
        for e, c in poly.terms.items():
            rows[row_index[e]][j] = c
    for e, c in target.terms.items():
        rows[row_index[e]][ncols] = c

    solution = _solve_exact(rows, ncols)
    if solution is None:
        witness = _non_member_witness(rows, ncols, monomials)
        # independent check against the polynomials themselves
        if any(_apply(witness, poly) for poly in col_polys) or \
                _apply(witness, target) != 1:
            raise VerificationFailed("left-kernel witness does not separate "
                                     "the target from the ideal")
        return MembershipAnswer(False, None, deg, witness)

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


def _non_member_witness(rows: list[dict], ncols: int,
                        monomials: list[tuple[int, ...]]) -> dict:
    """A functional y on the rows of [A | t] with y A = 0 and y t = 1, as
    {monomial: value}; found by solving [[A^T | 0]; [t^T | 1]] y = [0; 1]."""
    nrows = len(rows)
    transposed: list[dict] = [{} for _ in range(ncols + 1)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            transposed[j][i] = c
    transposed[ncols][nrows] = 1
    y = _solve_exact(transposed, nrows)
    if y is None:
        raise VerificationFailed("no left-kernel witness for a non-member")
    return {m: v for m, v in zip(monomials, y) if v}


def _apply(functional: dict, poly: MultiPoly) -> Fraction:
    return sum((functional.get(e, 0) * c for e, c in poly.terms.items()),
               Fraction(0))


def _solve_exact(rows: list[dict], ncols: int) -> Optional[list[Fraction]]:
    """One solution of A x = t, or None when there is none.

    Each row of [A | t] is a sparse {column: value} dict, with column `ncols`
    holding t.  Rows are scaled to integers (by the lcm of their
    denominators) and reduced by fraction-free elimination: the columns are
    taken in order, the pivot is the shortest remaining row holding the
    column (ties to the smallest |entry|), and every other row holding it
    becomes a * row - b * pivot_row divided by its content.  The pivot
    columns are those of the reduced row echelon form, and every free
    variable is set to 0, so the solution is the unique one supported on
    the pivot columns; back-substitution runs over Fraction on the pivot
    rows only.  The system is inconsistent exactly when a leftover row
    still holds the t column.
    """
    remaining = [r for r in map(_integer_row, rows) if r]
    pivots = []
    for c in range(ncols):
        holders = [r for r in remaining if c in r]
        if not holders:
            continue
        piv = min(holders, key=lambda row: (len(row), abs(row[c])))
        remaining = [r for r in remaining if c not in r]
        for r in holders:
            if r is not piv:
                g = math.gcd(piv[c], r[c])
                reduced = _combine(piv[c] // g, r, r[c] // g, piv)
                if reduced:
                    remaining.append(reduced)
        pivots.append((c, piv))
    if any(ncols in r for r in remaining):
        return None
    solution = [Fraction(0)] * ncols
    for c, row in reversed(pivots):
        acc = Fraction(row.get(ncols, 0))
        for k, v in row.items():
            if k != c and k != ncols:
                acc -= v * solution[k]
        solution[c] = acc / row[c]
    return solution


def _integer_row(row: dict) -> dict:
    """The row scaled to coprime integers, zero entries dropped."""
    row = {k: Fraction(v) for k, v in row.items() if v}
    den = math.lcm(*(v.denominator for v in row.values()))
    return _primitive({k: v.numerator * (den // v.denominator)
                       for k, v in row.items()})


def _combine(a: int, row: dict, b: int, piv: dict) -> dict:
    """a * row - b * piv, zero entries dropped, divided by its content."""
    out = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return _primitive(out)


def _primitive(row: dict) -> dict:
    g = math.gcd(*row.values())
    if g > 1:
        row = {k: v // g for k, v in row.items()}
    return row


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
