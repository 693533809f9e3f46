"""Exact p-adic arithmetic on rationals: valuations, absolute values,
GL_n(Z_p) membership and local modular factors of rational matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

RationalLike = Union[int, str, Fraction]

#: Primality is certified by deterministic trial division; larger candidates
#: are rejected outright (desk scale).
PRIME_BOUND = 1 << 20


class NotPrimeError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def certify_prime(p: int) -> int:
    p = int(p)
    if p >= PRIME_BOUND:
        raise NotPrimeError(f"{p} exceeds the certification bound {PRIME_BOUND}")
    if p < 2:
        raise NotPrimeError(f"{p} is not prime")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise NotPrimeError(f"{p} is not prime ({d} divides it)")
        d += 1
    return p


@dataclass(frozen=True)
class Place:
    """Infinite place or a finite place carrying a certified prime."""

    prime: int | None

    def __post_init__(self):
        if self.prime is not None:
            object.__setattr__(self, "prime", certify_prime(self.prime))

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "infinity" if self.prime is None else f"p={self.prime}"


def _multiplicity(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("multiplicity of p in 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def valuation(q: RationalLike, p: int) -> int | float:
    """The unique k with q = p^k * (a/b), p dividing neither a nor b; +inf at 0."""
    p = certify_prime(p)
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _multiplicity(q.numerator, p) - _multiplicity(q.denominator, p)


def padic_abs(q: RationalLike, p: int) -> Fraction:
    """|q|_p = p^(-valuation) as an exact rational; |0|_p = 0."""
    v = valuation(q, p)
    if v == math.inf:
        return Fraction(0)
    return Fraction(1, p ** v) if v >= 0 else Fraction(p ** (-v))


@dataclass(frozen=True, eq=True)
class RationalMatrix:
    """Dense matrix of exact rationals with the handful of operations needed
    for automorphism and lattice computations."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and of equal length")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RationalMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        eye = cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        eye.__dict__["det"] = Fraction(1)  # so that products with it need no elimination
        return eye

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("matrix dimensions do not match")
        rows = []
        for i in range(self.n_rows):
            row = []
            for j in range(other.n_cols):
                row.append(sum((self.entries[i][k] * other.entries[k][j]
                                for k in range(self.n_cols)), Fraction(0)))
            rows.append(tuple(row))
        product = RationalMatrix(tuple(rows))
        if "det" in self.__dict__ and "det" in other.__dict__:
            # Only a square matrix caches det, so the product is square and
            # det(AB) = det(A) det(B) exactly: seed its cache, no elimination.
            product.__dict__["det"] = self.det * other.det
        return product

    def apply(self, vector: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        vec = [Fraction(v) for v in vector]
        if len(vec) != self.n_cols:
            raise ValueError("vector length does not match")
        return tuple(sum((self.entries[i][k] * vec[k] for k in range(self.n_cols)),
                         Fraction(0)) for i in range(self.n_rows))

    def _eliminate(self, rhs: Sequence[Sequence[Fraction | int]]
                   ) -> tuple[Fraction, list[list[Fraction]] | None]:
        """(det A, A^-1 rhs), or (0, None) when A is singular: forward
        elimination on [A | rhs] with the first nonzero pivot of each column,
        then back substitution into the rhs columns only, so an rhs with empty
        rows costs what the determinant alone costs."""
        if not self.is_square:
            raise ValueError("determinant, inverse and solve need a square matrix")
        n = self.n_rows
        m = [list(row) + list(extra) for row, extra in zip(self.entries, rhs)]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0), None
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            top = m[col]
            det *= top[col]
            for row in m[col + 1:]:
                factor = row[col] / top[col]
                if factor != 0:
                    row[col + 1:] = [a - factor * b for a, b in zip(row[col + 1:], top[col + 1:])]
        x = [row[n:] for row in m]
        for i in reversed(range(n)):
            row = m[i]
            for j in range(i + 1, n):
                if row[j] != 0:
                    x[i] = [a - row[j] * b for a, b in zip(x[i], x[j])]
            x[i] = [v / row[i] for v in x[i]]
        return det, x

    @cached_property
    def det(self) -> Fraction:
        return self._eliminate([()] * self.n_rows)[0]

    def inverse(self) -> "RationalMatrix":
        n = self.n_rows
        _, x = self._eliminate([[int(i == j) for j in range(n)] for i in range(n)])
        if x is None:
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix(x)

    def solve(self, vector: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """The exact q with A q = vector."""
        if len(vector) != self.n_cols:
            raise ValueError("vector length does not match")
        _, x = self._eliminate([[Fraction(v)] for v in vector])
        if x is None:
            raise SingularMatrixError("matrix is singular")
        return tuple(row[0] for row in x)

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.entries) + "]"


def in_gl_n_zp(A: RationalMatrix, p: int) -> bool:
    """Entries p-integral and the determinant a p-adic unit."""
    p = certify_prime(p)
    if not A.is_square:
        raise ValueError("GL_n membership needs a square matrix")
    if A.det == 0:
        raise SingularMatrixError("matrix is singular")
    for row in A.entries:
        for v in row:
            if v != 0 and valuation(v, p) < 0:
                return False
    return valuation(A.det, p) == 0


def local_modular(A: RationalMatrix, place: Place) -> Fraction:
    """Haar-scaling factor of the automorphism A of F^n at the given place:
    |det A|_v, the Euclidean absolute value at the infinite place."""
    if not A.is_square:
        raise ValueError("modular factor needs a square matrix")
    d = A.det
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    if place.is_finite:
        return padic_abs(d, place.prime)
    return abs(d)
