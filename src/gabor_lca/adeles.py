"""S-adeles over the rationals as exact data: diagonal automorphisms, lattices
A * Z(S)^n, membership and equality tests, global modular values and the
Balian-Low classifier.

Only finitely many places are ever materialized; every unstored component is
the identity (automorphisms) or integral (vectors) by construction.

The exact path imports no numpy: only a float A_inf and a finite group spec
load it, inside the functions that need them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .padic import (
    RationalLike,
    RationalMatrix,
    SingularMatrixError,
    certify_prime,
    padic_abs,
)

if TYPE_CHECKING:
    import numpy as np

#: The finite transference harness lives in ``gabor``.  These names stay
#: reachable from here through ``__getattr__``, which binds nothing in this
#: module, so a wrapper installed on ``gabor`` is the object returned.
_HARNESS = ("TransferenceResult", "compact_open_surrogate", "finite_transference_check")


def __getattr__(name: str):
    if name in _HARNESS:
        from . import gabor
        return getattr(gabor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PlaceDataError(ValueError):
    """Inconsistent or incomplete per-place data."""


@dataclass(frozen=True)
class PlaceSet:
    """Finite sorted set of primes S; everything outside S stays integral."""

    primes: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(sorted(certify_prime(p) for p in self.primes))
        if len(set(primes)) != len(primes):
            raise ValueError(f"duplicate primes in place set {self.primes!r}")
        object.__setattr__(self, "primes", primes)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.primes) + "}"


def _in_z_s(value: Fraction, place_set: PlaceSet) -> bool:
    """The denominator of value has no prime factor outside S."""
    den = value.denominator
    for p in place_set:
        while den % p == 0:
            den //= p
    return den == 1


@dataclass(frozen=True, eq=False)
class AdeleAutomorphism:
    """Diagonal automorphism (A_inf, (A_p)_p) of the S-adele group A_{Q,S}^n.

    ``a_inf`` may be an exact RationalMatrix (required for membership and
    equality work) or a float ndarray (volume-only work).  Finite components
    are stored sparsely; unstored primes act as the identity.
    """

    place_set: PlaceSet
    a_inf: RationalMatrix | np.ndarray
    finite: tuple[tuple[int, RationalMatrix], ...] = ()

    def __post_init__(self):
        a_inf = self.a_inf
        if isinstance(a_inf, RationalMatrix):
            if not a_inf.is_square:
                raise ValueError("A_inf must be square")
            if a_inf.det == 0:
                raise SingularMatrixError("A_inf is singular")
        else:
            import numpy as np
            a_inf = np.ascontiguousarray(a_inf, dtype=np.float64)
            if a_inf.ndim != 2 or a_inf.shape[0] != a_inf.shape[1]:
                raise ValueError("A_inf must be square")
            if np.linalg.det(a_inf) == 0.0:
                raise SingularMatrixError("A_inf is singular")
            a_inf.setflags(write=False)
            object.__setattr__(self, "a_inf", a_inf)
        n = self.dim
        items = []
        seen = set()
        for p, mat in (self.finite.items() if isinstance(self.finite, Mapping)
                       else self.finite):
            p = certify_prime(p)
            if p not in self.place_set:
                raise PlaceDataError(f"component at p={p} outside the place set {self.place_set}")
            if p in seen:
                raise PlaceDataError(f"duplicate component at p={p}")
            seen.add(p)
            if not isinstance(mat, RationalMatrix):
                mat = RationalMatrix.from_rows(mat)
            if not mat.is_square or mat.n_rows != n:
                raise ValueError(f"A_{p} must be {n}x{n}")
            if mat.det == 0:
                raise SingularMatrixError(f"A_{p} is singular")
            items.append((p, mat))
        object.__setattr__(self, "finite", tuple(sorted(items)))

    @property
    def dim(self) -> int:
        if isinstance(self.a_inf, RationalMatrix):
            return self.a_inf.n_rows
        return int(self.a_inf.shape[0])

    @property
    def is_exact(self) -> bool:
        return isinstance(self.a_inf, RationalMatrix)

    @classmethod
    def identity(cls, n: int, place_set: PlaceSet) -> "AdeleAutomorphism":
        return cls(place_set, RationalMatrix.identity(n))

    def component(self, p: int) -> RationalMatrix:
        for q, mat in self.finite:
            if q == p:
                return mat
        if p not in self.place_set:
            raise PlaceDataError(f"p={p} is outside the place set {self.place_set}")
        return RationalMatrix.identity(self.dim)

    def _exact_a_inf(self) -> RationalMatrix:
        if not self.is_exact:
            raise PlaceDataError(
                "this operation needs rational A_inf entries; float A_inf is volume-only")
        return self.a_inf

    def compose(self, other: "AdeleAutomorphism") -> "AdeleAutomorphism":
        """Componentwise composition self o other."""
        if self.place_set != other.place_set or self.dim != other.dim:
            raise PlaceDataError("automorphisms live on different adele groups")
        if self.is_exact and other.is_exact:
            a_inf: RationalMatrix | np.ndarray = self.a_inf @ other.a_inf
        else:
            a_inf = _float_matrix(self.a_inf) @ _float_matrix(other.a_inf)
        primes = sorted({p for p, _ in self.finite} | {p for p, _ in other.finite})
        finite = tuple((p, self.component(p) @ other.component(p)) for p in primes)
        return AdeleAutomorphism(self.place_set, a_inf, finite)

    def inverse(self) -> "AdeleAutomorphism":
        if self.is_exact:
            a_inf: RationalMatrix | np.ndarray = self.a_inf.inverse()
        else:
            import numpy as np
            a_inf = np.linalg.inv(self.a_inf)
        finite = tuple((p, mat.inverse()) for p, mat in self.finite)
        return AdeleAutomorphism(self.place_set, a_inf, finite)


def _float_matrix(m: RationalMatrix | np.ndarray) -> np.ndarray:
    import numpy as np
    if isinstance(m, RationalMatrix):
        return np.array([[float(v) for v in row] for row in m.entries])
    return m


@dataclass(frozen=True)
class ModularValue:
    """Braconnier modular value split into archimedean and finite factors.

    The finite factor is always an exact rational; the archimedean factor is
    exact exactly when A_inf has rational entries.
    """

    archimedean: Fraction | float
    finite: Fraction

    @property
    def is_exact(self) -> bool:
        return isinstance(self.archimedean, Fraction)

    @property
    def value(self) -> Fraction | float:
        if self.is_exact:
            return self.archimedean * self.finite
        return float(self.archimedean) * float(self.finite)

    def __mul__(self, other: "ModularValue") -> "ModularValue":
        if self.is_exact and other.is_exact:
            arch: Fraction | float = self.archimedean * other.archimedean
        else:
            arch = float(self.archimedean) * float(other.archimedean)
        return ModularValue(arch, self.finite * other.finite)


def global_modular(auto: AdeleAutomorphism) -> ModularValue:
    """|det A_inf|_inf * prod_p |det A_p|_p; scales Haar mass on A_{Q,S}^n."""
    if auto.is_exact:
        arch: Fraction | float = abs(auto.a_inf.det)
    else:
        import numpy as np
        arch = float(abs(np.linalg.det(auto.a_inf)))
    finite = Fraction(1)
    for p, mat in auto.finite:
        finite *= padic_abs(mat.det, p)
    return ModularValue(arch, finite)


@dataclass(frozen=True)
class AdeleVector:
    """Rational vector data at the infinite place and at every p in S."""

    place_set: PlaceSet
    at_infinity: tuple[Fraction, ...]
    finite: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def __post_init__(self):
        inf = tuple(Fraction(v) for v in self.at_infinity)
        object.__setattr__(self, "at_infinity", inf)
        comps = {}
        for p, vec in (self.finite.items() if isinstance(self.finite, Mapping)
                       else self.finite):
            if p in comps:
                raise PlaceDataError(f"duplicate component at p={p}")
            comps[p] = vec
        normalized = []
        for p in self.place_set:
            if p not in comps:
                raise PlaceDataError(f"missing component at p={p}")
            vec = tuple(Fraction(v) for v in comps.pop(p))
            if len(vec) != len(inf):
                raise PlaceDataError(f"component at p={p} has wrong dimension")
            normalized.append((p, vec))
        if comps:
            raise PlaceDataError(f"components at primes outside the place set: {sorted(comps)}")
        object.__setattr__(self, "finite", tuple(normalized))

    @property
    def dim(self) -> int:
        return len(self.at_infinity)

    @classmethod
    def create(cls, place_set: PlaceSet, at_infinity: Sequence[RationalLike],
               components: Mapping[int, Sequence[RationalLike]] | None = None,
               default: Sequence[RationalLike] | None = None) -> "AdeleVector":
        """Materialize a vector; places missing from ``components`` get ``default``."""
        merged = dict.fromkeys(place_set, default) if default is not None else {}
        merged.update(components or {})
        return cls(place_set, at_infinity, merged)

    @classmethod
    def diagonal(cls, place_set: PlaceSet, values: Sequence[RationalLike]) -> "AdeleVector":
        return cls.create(place_set, values, default=values)

    def component(self, p: int) -> tuple[Fraction, ...]:
        for q, vec in self.finite:
            if q == p:
                return vec
        raise PlaceDataError(f"p={p} is outside the place set {self.place_set}")


@dataclass(frozen=True)
class AdeleLattice:
    """The lattice A * Z(S)^n = {(A_inf q, (A_p q)_p) : q in Z(S)^n}.

    The representing automorphism is not unique; equality is semantic via
    ``lattice_equality``.
    """

    automorphism: AdeleAutomorphism

    @property
    def dim(self) -> int:
        return self.automorphism.dim

    @property
    def place_set(self) -> PlaceSet:
        return self.automorphism.place_set

    @classmethod
    def standard(cls, n: int, place_set: PlaceSet) -> "AdeleLattice":
        return cls(AdeleAutomorphism.identity(n, place_set))

    def element(self, q: Sequence[RationalLike]) -> AdeleVector:
        """Image of a rational point q in Z(S)^n under the automorphism."""
        qv = [Fraction(v) for v in q]
        for v in qv:
            if not _in_z_s(v, self.place_set):
                raise PlaceDataError(f"{v} is not in Z(S) for S={self.place_set}")
        auto = self.automorphism
        inf = auto._exact_a_inf().apply(qv)
        return AdeleVector(self.place_set, inf,
                           {p: auto.component(p).apply(qv) for p in self.place_set})

    def generators(self) -> list[AdeleVector]:
        n = self.dim
        basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return [self.element(b) for b in basis]


def lattice_volume(lattice: AdeleLattice) -> Fraction | float:
    """Covolume normalized so that vol(Z(S)^n) = 1; scales by the modular value."""
    return global_modular(lattice.automorphism).value


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    witness: tuple[Fraction, ...] | None

    def __bool__(self) -> bool:
        return self.is_member


def lattice_membership(x: AdeleVector, lattice: AdeleLattice) -> MembershipResult:
    """Solve A_inf q = x_inf exactly, then cross-check every finite place and
    that the witness has denominators supported in S."""
    if x.place_set != lattice.place_set:
        raise PlaceDataError("vector and lattice use different place sets")
    if x.dim != lattice.dim:
        raise PlaceDataError("vector and lattice dimensions differ")
    auto = lattice.automorphism
    q = auto._exact_a_inf().solve(x.at_infinity)
    for v in q:
        if not _in_z_s(v, lattice.place_set):
            return MembershipResult(False, None)
    for p in lattice.place_set:
        if auto.component(p).apply(q) != x.component(p):
            return MembershipResult(False, None)
    return MembershipResult(True, q)


def lattice_equality(a: AdeleLattice, b: AdeleLattice) -> bool:
    """A1 Z(S)^n = A2 Z(S)^n iff A1^{-1} A2 is one rational matrix R at every
    place with R in GL_n(Z(S)): by the adjugate formula, exactly when the
    entries of R and 1/det R = det A1_inf / det A2_inf lie in Z(S).

    R comes from one exact solve A1_inf R = A2_inf; each finite place then
    only checks A1_p R = A2_p.
    """
    if a.place_set != b.place_set:
        raise PlaceDataError("lattices use different place sets")
    if a.dim != b.dim:
        return False
    a1, a2 = a.automorphism._exact_a_inf(), b.automorphism._exact_a_inf()
    r = RationalMatrix(a1._eliminate(a2.entries)[1])
    if not (_in_z_s(a1.det / a2.det, a.place_set)
            and all(_in_z_s(v, a.place_set) for row in r.entries for v in row)):
        return False
    return all(a.automorphism.component(p) @ r == b.automorphism.component(p)
               for p in a.place_set)


# --- Balian-Low classification ----------------------------------------------

@dataclass(frozen=True)
class LcaGroupDescription:
    """Shape data of a group built from d real lines and an S-adic or finite
    compact-open part; only the shape matters for the classifier."""

    kind: str  # "adele" | "local" | "finite"
    n: int
    primes: tuple[int, ...] = ()

    @property
    def real_dimension(self) -> int:
        return self.n if self.kind == "adele" else 0


_SPEC_RE = re.compile(r"^(A_Q|Q_S)\s*\{(.*)\}$")


def parse_lca_group_spec(text: str) -> LcaGroupDescription:
    """Parse 'A_Q{S=2,3; n=2}', 'Q_S{S=2; n=1}' or a finite spec like 'Z4xZ2'."""
    body = text.strip()
    m = _SPEC_RE.match(body)
    if m is None:
        from .groups import parse_group_spec
        parse_group_spec(body)  # raises ValueError on garbage
        return LcaGroupDescription("finite", 1)
    kind = "adele" if m.group(1) == "A_Q" else "local"
    primes: tuple[int, ...] = ()
    n = 1
    seen = set()
    for item in m.group(2).split(";"):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        _refuse_repeated(key, seen)
        if key == "S":
            primes = PlaceSet(tuple(int(v) for v in value.split(",") if v.strip() != "")).primes
        elif key == "n":
            n = int(value)
        else:
            raise ValueError(f"unknown key {key!r} in group spec {text!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "local" and not primes:
        raise ValueError("Q_S needs a nonempty place set")
    return LcaGroupDescription(kind, n, primes)


@dataclass(frozen=True)
class BalianLowVerdict:
    description: LcaGroupDescription
    real_dimension: int
    compact_identity_component: bool
    blt_holds: bool
    message: str


def balian_low_classifier(spec: str | LcaGroupDescription) -> BalianLowVerdict:
    """Decide the Balian-Low dichotomy from the identity component's shape.

    d >= 1 real factors make the identity component noncompact, so no
    well-localized window gives a frame over a volume-1 lattice; d = 0 means a
    compact-open subgroup exists and an orthonormal Gabor basis exists over
    every Lambda x Lambda_perp.
    """
    desc = parse_lca_group_spec(spec) if isinstance(spec, str) else spec
    d = desc.real_dimension
    if d >= 1:
        return BalianLowVerdict(
            desc, d, False, True,
            "BLT holds: noncompact identity component; no well-localized frame "
            "exists over any lattice of volume 1")
    return BalianLowVerdict(
        desc, 0, True, False,
        "BLT fails: compact identity component; an orthonormal Gabor basis "
        "exists over Lambda x Lambda_perp for every lattice Lambda")


class VolumeAboveOneError(ValueError):
    pass


def deformation_margin(lattice: AdeleLattice) -> float:
    """Largest eps with (1+eps) scaling of A_inf keeping volume <= 1.

    For a lattice of volume v <= 1 in the 2n-dimensional plane the margin is
    (1/v)^(1/(2n)) - 1; it vanishes exactly at critical volume, which is the
    arithmetic engine of the Balian-Low argument.
    """
    if lattice.dim % 2 != 0:
        raise ValueError("deformation margin needs a lattice in a 2n-dimensional plane")
    vol = lattice_volume(lattice)
    if vol > 1:
        raise VolumeAboveOneError(f"lattice volume {vol} exceeds 1")
    if vol == 1:
        return 0.0
    return float(1 / Fraction(vol)) ** (1.0 / lattice.dim) - 1.0


# --- automorphism documents ---------------------------------------------------

def _refuse_repeated(key: str | int, seen: set) -> None:
    """Record key; an earlier item of the same text must not have used it."""
    if key in seen:
        raise ValueError(f"repeated key {key!r}")
    seen.add(key)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text.strip()!r}") from None


def _parse_matrix_literal(text: str) -> RationalMatrix:
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ValueError(f"matrix literal must look like [[..],[..]]: {text!r}")
    rows = re.findall(r"\[([^\[\]]*)\]", body)
    parsed = []
    for row in rows:
        parsed.append([_parse_rational(v) for v in row.split(",") if v.strip() != ""])
    return RationalMatrix.from_rows(parsed)


def parse_automorphism_document(text: str,
                                place_set: PlaceSet | None = None) -> AdeleAutomorphism:
    """Parse a UTF-8 key-value document describing an exact automorphism.

    Recognized keys: ``S`` (comma-separated primes, optional when ``place_set``
    is given), ``Ainf`` (required, rational matrix) and ``Ap`` for each prime
    p, e.g. ``A2 = [[2,0],[0,1]]``.  Rational entries use ``p/q`` notation.
    """
    a_inf: RationalMatrix | None = None
    finite: dict[int, RationalMatrix] = {}
    primes: tuple[int, ...] | None = None
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        key = key.strip()
        if re.fullmatch(r"A\d+", key):
            key = f"A{int(key[1:])}"
        _refuse_repeated("Ainf" if key == "A_inf" else key, seen)
        if key == "S":
            primes = tuple(int(v) for v in value.split(",") if v.strip() != "")
        elif key in ("Ainf", "A_inf"):
            a_inf = _parse_matrix_literal(value)
        elif re.fullmatch(r"A\d+", key):
            finite[int(key[1:])] = _parse_matrix_literal(value)
        elif key == "n":
            continue  # dimension is implied by the matrices
        else:
            raise ValueError(f"unknown key {key!r} in automorphism document")
    if a_inf is None:
        raise ValueError("automorphism document must define Ainf")
    if place_set is None:
        if primes is None:
            primes = tuple(sorted(finite))
        place_set = PlaceSet(primes)
    return AdeleAutomorphism(place_set, a_inf, tuple(sorted(finite.items())))


def format_automorphism_document(auto: AdeleAutomorphism) -> str:
    if not auto.is_exact:
        raise ValueError("only exact automorphisms can be serialized")
    lines = ["S = " + ",".join(str(p) for p in auto.place_set),
             f"Ainf = {auto.a_inf}"]
    for p, mat in auto.finite:
        lines.append(f"A{p} = {mat}")
    return "\n".join(lines) + "\n"
