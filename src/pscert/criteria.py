"""Decidable arithmetic predicates: p-adic valuations, divisibility
necessary conditions, the four-variable conjectural criterion, the
four-variable normality characterization, and the roots-of-unity existence
predicates with constructive, exactly-verified witnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .errors import GcdNotOne, VerificationFailed
from .exactnum import UnityRoot, unity_sum_is_zero


@dataclass(frozen=True)
class ExponentSet:
    entries: tuple[int, ...]

    def __init__(self, entries):
        entries = tuple(sorted(set(int(e) for e in entries)))
        if any(e <= 0 for e in entries):
            raise ValueError("exponents must be positive")
        if len(entries) == 0:
            raise ValueError("empty exponent set")
        object.__setattr__(self, "entries", entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass
class CriterionResult:
    name: str
    holds: bool
    details: dict
    witness: Optional[object] = None


def nu(p: int, n: int) -> int:
    """p-adic valuation: largest e with p^e | n."""
    if n < 1:
        raise ValueError("n must be positive")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def factorial_divisibility(A: ExponentSet) -> CriterionResult:
    """Necessary condition for a length-n regular sequence: n! | product."""
    n = len(A)
    prod = math.prod(A.entries)
    fact = math.factorial(n)
    holds = prod % fact == 0
    return CriterionResult(
        name="factorial-divisibility",
        holds=holds,
        details={"n!": fact, "product": prod},
    )


def conjecture4_conditions(A: ExponentSet) -> CriterionResult:
    """The three conditions of the four-variable conjectural criterion.

    This evaluates the conditions only; it never claims the regular-sequence
    conclusion (the conjecture is open).
    """
    if len(A) != 4:
        raise ValueError("need exactly four exponents")
    entries = A.entries
    if math.gcd(*entries) != 1:
        raise GcdNotOne("exponent set must have gcd 1")
    prod = math.prod(entries)
    cond1 = prod % 24 == 0
    nu2 = {nu(2, a) for a in entries}
    positives = {v for v in nu2 if v > 0}
    cond2 = len(positives) >= 2
    bad_subset = None
    for trip in combinations(entries, 3):
        d = trip[0]
        if trip[1] == 2 * d and trip[2] == 5 * d:
            bad_subset = set(trip)
            break
    cond3 = bad_subset is None
    return CriterionResult(
        name="conjectural n=4 criterion",
        holds=cond1 and cond2 and cond3,
        details={
            "product multiple of 24": cond1,
            "nu_2 values": sorted(nu(2, a) for a in entries),
            "two distinct positive nu_2": cond2,
            "no {d,2d,5d} subset": cond3,
        },
        witness=bad_subset,
    )


def normal4(a: int, b: int) -> CriterionResult:
    """Normality of C[x1..x4]/(p_a, p_b) for a < b.

    a = 1: normal iff b is even.  a > 1: normal iff neither root-of-unity
    rule holds (`_unity_rule`, q = 2 and q = 3), i.e. no unity case does.
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if a == 1:
        holds = b % 2 == 0
        details = {"a": 1, "b even": holds}
    else:
        c2, c3 = not _unity_rule(2, a, b), not _unity_rule(3, a, b)
        holds = c2 and c3
        details = {
            "nu_2(a) != nu_2(b)": c2,
            "nu_3 condition": c3,
            "nu_3 values (a, b, b-a)": (nu(3, a), nu(3, b), nu(3, b - a)),
        }
    return CriterionResult("normal domain (4 variables)", holds, details)


def _unity_rule(q: int, a: int, b: int) -> bool:
    """nu_q(a) = nu_q(b) < nu_q(|b - a|).  For q = 2 the equality implies
    the inequality: a = 2^e a', b = 2^e b' with a', b' odd, so 2^(e+1)
    divides b - a."""
    return nu(q, a) == nu(q, b) < nu(q, abs(b - a))


# case -> (q, j): the rule for q decides the case, and the witness is
# alpha^j for each listed j, with alpha of order q^(nu_q(a) + 1)
_UNITY_CASES = {1: (2, (1,)), 2: (3, (1, 2)), 3: (2, (1, 2, 1))}


def roots_of_unity_case(case: int, a: int, b: int) -> CriterionResult:
    """Existence of roots of unity alpha (beta, gamma) with alpha^{b-a} = 1
    and alpha^a + ... + 1 = 0, per the three cases:

      1: alpha^a + 1 = 0            <=> nu_2(a) = nu_2(b)
      2: alpha^a + beta^a + 1 = 0   <=> nu_3(a) = nu_3(b) < nu_3(b - a)
      3: alpha^a + beta^a + gamma^a + 1 = 0  <=> nu_2(a) = nu_2(b)

    When the predicate holds, minimal-order witnesses are emitted and their
    defining equations verified by exact root-of-unity arithmetic: alpha
    has order q^(nu_q(a) + 1), so alpha^(q^nu_q(a)) is -1 (q = 2) or omega
    (q = 3).
    """
    if a == b or a <= 0 or b <= 0:
        raise ValueError("need distinct positive a, b")
    if case not in _UNITY_CASES:
        raise ValueError("case must be 1, 2, or 3")
    q, powers = _UNITY_CASES[case]
    k = abs(b - a)
    holds = _unity_rule(q, a, b)
    witness = None
    if holds:
        alpha = UnityRoot(q ** (nu(q, a) + 1), 1)
        witness = _verified_witness(tuple(alpha ** j for j in powers), a, k)
    details = ({"nu_2(a)": nu(2, a), "nu_2(b)": nu(2, b)} if q == 2 else
               {"nu_3 values (a, b, b-a)": (nu(3, a), nu(3, b), nu(3, k))})
    return CriterionResult(f"unity case {case}", holds, details, witness)


def _verified_witness(roots: tuple, a: int, k: int) -> tuple:
    """`roots` after an exact check that each is a k-th root of unity and
    that their a-th powers plus 1 sum to zero."""
    if not all((w ** k).is_one() for w in roots):
        raise VerificationFailed(f"witness {roots} is not of order dividing {k}")
    if not unity_sum_is_zero([w ** a for w in roots] + [UnityRoot(1, 0)]):
        raise VerificationFailed(f"witness {roots} fails the unity sum")
    return roots


def roots_of_unity_bruteforce(case: int, a: int, b: int) -> bool:
    """Exhaustive oracle: search all tuples of roots of unity of order
    dividing |b - a| using exact sum tests."""
    if case not in _UNITY_CASES:
        raise ValueError("case must be 1, 2, or 3")
    k = abs(b - a)
    roots = [UnityRoot(k, j) for j in range(k)]
    one = UnityRoot(1, 0)
    for tup in product(roots, repeat=case):  # case c searches c roots
        if unity_sum_is_zero([w ** a for w in tup] + [one]):
            return True
    return False
