import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gabor_lca as gl
from gabor_lca.padic import (
    NotPrimeError,
    Place,
    RationalMatrix,
    SingularMatrixError,
)
from oracles import det_by_forward_elimination, inverse_by_gauss_jordan, seeded_matrices

primes = st.sampled_from([2, 3, 5, 7, 11, 13])
# prime factors must stay below the certification bound, so bound the
# numerator and denominator directly
rationals = st.builds(Fraction, st.integers(-10 ** 5, 10 ** 5), st.integers(1, 10 ** 4))
nonzero_rationals = rationals.filter(lambda q: q != 0)


class TestPrimes:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 97, 65537):
            assert gl.certify_prime(p) == p

    def test_composites_rejected(self):
        for n in (1, 0, -3, 4, 91, 561):
            with pytest.raises(NotPrimeError):
                gl.certify_prime(n)

    def test_large_candidates_rejected(self):
        with pytest.raises(NotPrimeError):
            gl.certify_prime((1 << 20) + 7)


class TestValuation:
    def test_examples(self):
        assert gl.valuation(12, 2) == 2
        assert gl.valuation(Fraction(1, 6), 3) == -1
        assert gl.valuation(0, 5) == math.inf

    def test_nonprime_rejected(self):
        with pytest.raises(NotPrimeError):
            gl.valuation(12, 6)

    def test_zero_sentinel(self):
        for p in (2, 3, 5):
            assert gl.valuation(Fraction(0), p) == math.inf
            assert gl.padic_abs(Fraction(0), p) == 0

    @settings(max_examples=80, deadline=None)
    @given(nonzero_rationals, primes)
    def test_defining_factorization(self, q, p):
        v = gl.valuation(q, p)
        unit = q / Fraction(p) ** v
        assert unit.numerator % p != 0
        assert unit.denominator % p != 0


class TestPadicAbs:
    def test_examples(self):
        assert gl.padic_abs(12, 2) == Fraction(1, 4)
        assert gl.padic_abs(Fraction(1, 6), 3) == 3
        assert gl.padic_abs(0, 7) == 0

    def test_integral_and_non_integral_in_q3(self):
        assert gl.valuation(Fraction(9, 2), 3) == 2
        assert gl.padic_abs(Fraction(9, 2), 3) == Fraction(1, 9)
        assert gl.valuation(Fraction(1, 3), 3) < 0

    @settings(max_examples=80, deadline=None)
    @given(nonzero_rationals, nonzero_rationals, primes)
    def test_multiplicative(self, x, y, p):
        assert gl.padic_abs(x * y, p) == gl.padic_abs(x, p) * gl.padic_abs(y, p)

    @settings(max_examples=80, deadline=None)
    @given(rationals, rationals, primes)
    def test_ultrametric(self, x, y, p):
        assert gl.padic_abs(x + y, p) <= max(gl.padic_abs(x, p), gl.padic_abs(y, p))

    @settings(max_examples=60, deadline=None)
    @given(nonzero_rationals)
    def test_product_formula(self, q):
        support = set()
        for n in (q.numerator, q.denominator):
            n = abs(n)
            d = 2
            while d * d <= n:
                if n % d == 0:
                    support.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                support.add(n)
        product = abs(q)
        for p in support:
            product *= gl.padic_abs(q, p)
        assert product == 1


class TestRationalMatrix:
    def test_det_and_inverse_exact(self):
        A = RationalMatrix.from_rows([[1, 2], [3, "5/2"]])
        assert A.det == Fraction(-7, 2)
        inv = A.inverse()
        assert inv @ A == RationalMatrix.identity(2)

    def test_solve(self):
        A = RationalMatrix.from_rows([[2, 1], [1, 1]])
        assert A.solve([3, 2]) == (Fraction(1), Fraction(1))

    def test_singular_raises(self):
        A = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert A.det == 0
        with pytest.raises(SingularMatrixError):
            A.inverse()


class TestEliminationOracles:
    def test_det_inverse_solve_match_oracles(self):
        rng = np.random.default_rng(11)
        swapped = singular = 0
        for A in seeded_matrices(10, 150):
            det = det_by_forward_elimination(A)
            assert A.det == det
            vec = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                   for _ in range(A.n_rows)]
            swapped += A.entries[0][0] == 0 and det != 0
            if det == 0:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    A.inverse()
                with pytest.raises(SingularMatrixError):
                    A.solve(vec)
                continue
            inv = inverse_by_gauss_jordan(A)
            assert A.inverse() == inv
            assert A.solve(vec) == inv.apply(vec)
        assert swapped >= 10 and singular >= 10

    def test_product_det_seeded_from_cached_factors(self):
        """A product of two matrices whose determinants are cached carries
        det(A) det(B) without an elimination; it equals a fresh one exactly."""
        by_size = {}
        for M in seeded_matrices(12, 240):
            by_size.setdefault(M.n_rows, []).append(M)
        pairs = singular = 0
        for mats in by_size.values():
            for A, B in zip(mats, mats[1:]):
                assert "det" not in (A @ B).__dict__
                A.det, B.det  # cache both
                P = A @ B
                assert "det" in P.__dict__
                assert P.det == det_by_forward_elimination(P) == RationalMatrix(P.entries).det
                eye = RationalMatrix.identity(A.n_rows)
                assert eye.det == det_by_forward_elimination(eye) == 1
                assert (A @ eye).__dict__["det"] == A.det
                pairs += 1
                singular += P.det == 0
        assert pairs >= 200 and singular >= 50

    def test_non_square_refused(self):
        A = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            A.det
        with pytest.raises(ValueError):
            A.inverse()
        with pytest.raises(ValueError):
            A.solve([1, 2])

    def test_solve_length_checked(self):
        with pytest.raises(ValueError):
            RationalMatrix.identity(2).solve([1, 2, 3])

    def test_from_rows_normalizes_once(self):
        A = RationalMatrix.from_rows([[1, "1/2"], [Fraction(3, 4), 0]])
        assert A.entries == ((Fraction(1), Fraction(1, 2)), (Fraction(3, 4), Fraction(0)))
        assert all(type(v) is Fraction for row in A.entries for v in row)
        assert A == RationalMatrix(((1, "1/2"), ("3/4", 0)))


class TestGlnZp:
    def test_identity_everywhere(self):
        I = RationalMatrix.identity(3)
        for p in (2, 3, 5):
            assert gl.in_gl_n_zp(I, p)

    def test_diagonal_examples(self):
        assert not gl.in_gl_n_zp(RationalMatrix.from_rows([[2, 0], [0, 1]]), 2)
        assert gl.in_gl_n_zp(RationalMatrix.from_rows([[3, 0], [0, 1]]), 2)

    def test_singular_flagged(self):
        with pytest.raises(SingularMatrixError):
            gl.in_gl_n_zp(RationalMatrix.from_rows([[1, 1], [1, 1]]), 2)

    def test_inverse_consistency(self):
        rngs = [
            RationalMatrix.from_rows([[1, 2], [0, 1]]),
            RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]]),
            RationalMatrix.from_rows([[3, 1], [1, 2]]),
        ]
        for A in rngs:
            for p in (2, 3, 5):
                member = gl.in_gl_n_zp(A, p)
                both = member and gl.in_gl_n_zp(A.inverse(), p)
                assert member == both


class TestLocalModular:
    def test_scalar_example(self):
        a = RationalMatrix.from_rows([[3]])
        assert gl.local_modular(a, Place.finite(3)) == Fraction(1, 3)

    def test_identity(self):
        I = RationalMatrix.identity(2)
        assert gl.local_modular(I, Place.infinite()) == 1
        assert gl.local_modular(I, Place.finite(7)) == 1

    def test_diag_2_3(self):
        A = RationalMatrix.from_rows([[2, 0], [0, 3]])
        assert gl.local_modular(A, Place.finite(2)) == Fraction(1, 2)
        assert gl.local_modular(A, Place.finite(3)) == Fraction(1, 3)
        assert gl.local_modular(A, Place.infinite()) == 6

    def test_homomorphism_exact(self):
        A = RationalMatrix.from_rows([[2, 1], [1, 1]])
        B = RationalMatrix.from_rows([[Fraction(1, 3), 0], [1, 6]])
        for place in (Place.infinite(), Place.finite(2), Place.finite(3)):
            assert gl.local_modular(A @ B, place) == \
                gl.local_modular(A, place) * gl.local_modular(B, place)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            gl.local_modular(RationalMatrix.from_rows([[0]]), Place.infinite())


class TestPlace:
    def test_str(self):
        assert str(Place.infinite()) == "infinity"
        assert str(Place.finite(5)) == "p=5"

    def test_finite_requires_prime(self):
        with pytest.raises(NotPrimeError):
            Place.finite(6)
