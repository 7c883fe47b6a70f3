"""Arithmetic criteria, normality characterization, and the roots-of-unity
existence predicates with their exhaustive oracle."""

import pytest

from pscert.criteria import (ExponentSet, conjecture4_conditions,
                             factorial_divisibility, normal4, nu,
                             roots_of_unity_bruteforce, roots_of_unity_case)
from pscert.errors import GcdNotOne
from pscert.exactnum import UnityRoot, unity_sum_is_zero


class TestValuation:
    def test_values(self):
        assert nu(2, 24) == 3
        assert nu(3, 24) == 1
        assert nu(5, 24) == 0
        assert nu(2, 1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            nu(2, 0)


class TestExponentSet:
    def test_sorted_dedup(self):
        assert ExponentSet([4, 2, 2, 1]).entries == (1, 2, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExponentSet([0, 1])


class TestFactorialDivisibility:
    def test_holds(self):
        assert factorial_divisibility(ExponentSet([1, 2, 3, 4])).holds

    def test_fails(self):
        r = factorial_divisibility(ExponentSet([1, 2, 5]))
        assert not r.holds  # 6 does not divide 10

    def test_details(self):
        r = factorial_divisibility(ExponentSet([2, 3, 4]))
        assert r.details["n!"] == 6 and r.details["product"] == 24


class TestConjecture4:
    def test_requires_gcd_one(self):
        with pytest.raises(GcdNotOne):
            conjecture4_conditions(ExponentSet([2, 4, 6, 8]))

    def test_holds_example(self):
        assert conjecture4_conditions(ExponentSet([1, 2, 4, 6])).holds

    def test_excluded_progression(self):
        r = conjecture4_conditions(ExponentSet([1, 2, 4, 10]))
        assert not r.holds
        assert r.witness == {2, 4, 10}

    def test_24_divisibility(self):
        r = conjecture4_conditions(ExponentSet([1, 2, 3, 4]))
        assert r.details["product multiple of 24"]

    def test_nu2_condition(self):
        # product 1*2*3*4... need two distinct positive nu_2 values
        r = conjecture4_conditions(ExponentSet([1, 3, 8, 9]))
        assert not r.details["two distinct positive nu_2"]


class TestNormal4:
    def test_a1_matches_parity(self):
        for b in range(2, 201):
            assert normal4(1, b).holds == (b % 2 == 0)

    def test_a_greater_one(self):
        assert normal4(2, 4).holds   # nu_2 differ: 1 vs 2
        assert not normal4(2, 6).holds  # nu_2 equal: 1 vs 1

    def test_nu3_branch(self):
        # nu_2(2)=1, nu_2(3)=0 differ; nu_3: 0 vs 1 differ -> normal
        assert normal4(2, 3).holds

    def test_validation(self):
        with pytest.raises(ValueError):
            normal4(3, 3)

    def test_a_greater_one_iff_no_unity_case(self):
        for a in range(2, 201):
            for b in range(a + 1, 201):
                no_case = not any(roots_of_unity_case(case, a, b).holds
                                  for case in (1, 2, 3))
                assert normal4(a, b).holds == no_case, (a, b)


class TestRootsOfUnity:
    def test_bruteforce_equivalence(self):
        for a in range(1, 13):
            for b in range(a + 1, 13):
                for case in (1, 2, 3):
                    assert roots_of_unity_case(case, a, b).holds == \
                        roots_of_unity_bruteforce(case, a, b), (case, a, b)

    def test_witnesses_verify(self):
        one = UnityRoot(1, 0)
        for a in range(1, 13):
            for b in range(a + 1, 13):
                for case in (1, 2, 3):
                    r = roots_of_unity_case(case, a, b)
                    if not r.holds:
                        assert r.witness is None
                        continue
                    k = b - a
                    terms = [w ** a for w in r.witness] + [one]
                    assert unity_sum_is_zero(terms)
                    for w in r.witness:
                        assert (w ** k).is_one()

    def test_case1_predicate(self):
        assert roots_of_unity_case(1, 2, 6).holds   # nu_2 equal (1, 1)
        assert not roots_of_unity_case(1, 2, 4).holds

    def test_case2_predicate(self):
        # nu_3(1) = nu_3(1) = 0 < nu_3(9 - ... ) need b - a divisible by 3
        assert roots_of_unity_case(2, 1, 4).holds
        assert not roots_of_unity_case(2, 3, 6).holds

    def test_invalid_case(self):
        with pytest.raises(ValueError):
            roots_of_unity_case(4, 1, 2)

    def test_bruteforce_invalid_case(self):
        with pytest.raises(ValueError, match="case must be 1, 2, or 3"):
            roots_of_unity_bruteforce(4, 1, 2)
