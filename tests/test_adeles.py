import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gabor_lca as gl
from gabor_lca import adeles, gabor
from gabor_lca.adeles import (
    AdeleAutomorphism,
    AdeleLattice,
    AdeleVector,
    PlaceDataError,
    PlaceSet,
    VolumeAboveOneError,
    compact_open_surrogate,
    finite_transference_check,
    format_automorphism_document,
    parse_automorphism_document,
)
from gabor_lca.experiments import random_plane_lattice
from gabor_lca.gabor import (
    TfLattice,
    Window,
    _adjoint_coefficients,
    _identity_defect,
    _product_lattice,
)
from gabor_lca.groups import FiniteLcaGroup, coords_matrix
from gabor_lca.padic import RationalMatrix
from oracles import (
    lattice_equality_by_inverse,
    product_residual_by_shifts,
    transference_grid,
    transference_lattice_by_points,
)


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def scalar_auto(place_set, inf, **finite):
    fin = {int(k[1:]): rmat([[v]]) for k, v in finite.items()}
    return AdeleAutomorphism(place_set, rmat([[inf]]), fin)


class TestPlaceSet:
    def test_sorted_and_certified(self):
        S = PlaceSet((5, 2, 3))
        assert S.primes == (2, 3, 5)
        assert 3 in S and 7 not in S

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PlaceSet((2, 2))


class TestGlobalModular:
    def test_identity(self):
        auto = AdeleAutomorphism.identity(2, PlaceSet((2, 3)))
        assert adeles.global_modular(auto).value == 1

    def test_multiplication_by_three(self):
        auto = scalar_auto(PlaceSet((3,)), 3, A3=3)
        mv = adeles.global_modular(auto)
        assert mv.archimedean == 3
        assert mv.finite == Fraction(1, 3)
        assert mv.value == 1
        assert mv.is_exact

    def test_float_archimedean_only(self):
        S = PlaceSet((2,))
        auto = AdeleAutomorphism(S, np.array([[1.5, 0.25], [0.0, 2.0]]))
        mv = adeles.global_modular(auto)
        assert not mv.is_exact
        assert mv.value == pytest.approx(3.0)
        assert mv.finite == 1

    def test_homomorphism_exact(self):
        S = PlaceSet((2, 3))
        a = AdeleAutomorphism(S, rmat([[2, 1], [1, 1]]),
                              {2: rmat([[2, 0], [0, 1]]), 3: rmat([[1, 1], [0, 3]])})
        b = AdeleAutomorphism(S, rmat([[Fraction(1, 2), 0], [3, 1]]),
                              {3: rmat([[9, 0], [1, 1]])})
        lhs = adeles.global_modular(a.compose(b))
        rhs = adeles.global_modular(a) * adeles.global_modular(b)
        assert lhs.archimedean == rhs.archimedean
        assert lhs.finite == rhs.finite

    def test_determinant_one_archimedean_gives_rational_value(self):
        # with |det A_inf| = 1 the modular value is an exact rational supported
        # on the primes of S
        S = PlaceSet((2, 3))
        a_inf = rmat([[1, 5], [0, -1]])  # det -1
        auto = AdeleAutomorphism(S, a_inf,
                                 {2: rmat([[Fraction(1, 2), 0], [1, 4]]),
                                  3: rmat([[9, 1], [0, 1]])})
        value = adeles.global_modular(auto).value
        assert isinstance(value, Fraction)
        assert _prime_support(value) <= {2, 3}


class TestLatticeVolume:
    def test_base_lattice_normalized(self):
        assert adeles.lattice_volume(AdeleLattice.standard(2, PlaceSet((2,)))) == 1

    def test_scaling_in_plane(self):
        S = PlaceSet(())
        eps = Fraction(1, 100)
        auto = AdeleAutomorphism(S, rmat([[1 + eps, 0], [0, 1 + eps]]))
        assert adeles.lattice_volume(AdeleLattice(auto)) == (1 + eps) ** 2

    def test_s3_example_fixes_volume(self):
        auto = scalar_auto(PlaceSet((3,)), 3, A3=3)
        assert adeles.lattice_volume(AdeleLattice(auto)) == 1

    def test_volume_scales_by_modular_value(self):
        S = PlaceSet((2,))
        base = AdeleAutomorphism(S, rmat([[2, 1], [1, 1]]), {2: rmat([[4, 0], [0, 1]])})
        alpha = AdeleAutomorphism(S, rmat([[3, 0], [0, Fraction(1, 5)]]),
                                  {2: rmat([[2, 0], [0, 2]])})
        lhs = adeles.lattice_volume(AdeleLattice(alpha.compose(base)))
        rhs = adeles.global_modular(alpha).value * adeles.lattice_volume(AdeleLattice(base))
        assert lhs == rhs


class TestMembership:
    def test_diagonal_in_base(self):
        S = PlaceSet((2,))
        base = AdeleLattice.standard(1, S)
        res = adeles.lattice_membership(AdeleVector.diagonal(S, [Fraction(5, 2)]), base)
        assert res.is_member and res.witness == (Fraction(5, 2),)

    def test_denominator_outside_s(self):
        S = PlaceSet((2,))
        base = AdeleLattice.standard(1, S)
        assert not adeles.lattice_membership(AdeleVector.diagonal(S, [Fraction(1, 3)]), base)

    def test_mixed_components(self):
        S = PlaceSet((2,))
        lattice = AdeleLattice(scalar_auto(S, 2))  # A_inf = 2, A_2 = 1
        yes = AdeleVector.create(S, [2], {2: [1]})
        no = AdeleVector.create(S, [1], {2: [1]})
        res = adeles.lattice_membership(yes, lattice)
        assert res.is_member and res.witness == (Fraction(1),)
        assert not adeles.lattice_membership(no, lattice)

    def test_generators_are_members(self):
        S = PlaceSet((2, 3))
        auto = AdeleAutomorphism(S, rmat([[2, 1], [0, Fraction(1, 3)]]),
                                 {2: rmat([[1, 1], [1, 2]])})
        lattice = AdeleLattice(auto)
        for gen in lattice.generators():
            assert adeles.lattice_membership(gen, lattice)

    def test_dimension_mismatch_raises(self):
        S = PlaceSet((2,))
        lattice = AdeleLattice.standard(2, S)
        with pytest.raises(PlaceDataError):
            adeles.lattice_membership(AdeleVector.diagonal(S, [1]), lattice)

    def test_float_a_inf_rejected_for_membership(self):
        S = PlaceSet((2,))
        auto = AdeleAutomorphism(S, np.array([[2.0]]))
        with pytest.raises(PlaceDataError):
            adeles.lattice_membership(AdeleVector.diagonal(S, [1]), AdeleLattice(auto))


class TestAdeleVector:
    def test_create_with_default(self):
        S = PlaceSet((2, 3))
        v = AdeleVector.create(S, [1], {2: [Fraction(1, 2)]}, default=[1])
        assert v.component(2) == (Fraction(1, 2),)
        assert v.component(3) == (Fraction(1),)

    def test_missing_component_rejected(self):
        S = PlaceSet((2, 3))
        with pytest.raises(PlaceDataError):
            AdeleVector.create(S, [1], {2: [1]})

    def test_component_outside_place_set_rejected(self):
        S = PlaceSet((2,))
        with pytest.raises(PlaceDataError):
            AdeleVector(S, (Fraction(1),), ((2, (Fraction(1),)), (5, (Fraction(1),))))

    def test_duplicate_component_rejected(self):
        with pytest.raises(PlaceDataError, match="duplicate component at p=2"):
            AdeleVector(PlaceSet((2,)), (1,), ((2, (1,)), (2, (3,))))


class TestAdeleVectorCreate:
    def test_component_outside_place_set_rejected(self):
        S = PlaceSet((2, 3))
        with pytest.raises(PlaceDataError):
            AdeleVector.create(S, [1], {5: [1]}, default=[1])

    def test_components_override_default(self):
        S = PlaceSet((2, 3, 5))
        v = AdeleVector.create(S, ["1/2"], {3: [2]}, default=[7])
        assert v == AdeleVector(S, (Fraction(1, 2),),
                                ((2, (Fraction(7),)), (3, (Fraction(2),)), (5, (Fraction(7),))))
        assert hash(v) == hash(AdeleVector(S, [Fraction(1, 2)], {2: [7], 3: [2], 5: [7]}))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PlaceDataError):
            AdeleVector.create(PlaceSet((2,)), [1, 2], default=[1])


class TestLatticeEquality:
    def test_reflexive(self):
        S = PlaceSet((2,))
        L = AdeleLattice(scalar_auto(S, Fraction(3, 2), A2=Fraction(3, 2)))
        assert adeles.lattice_equality(L, L)

    def test_unit_rescaling_is_equal(self):
        S = PlaceSet((2,))
        base = AdeleLattice.standard(1, S)
        doubled = AdeleLattice(scalar_auto(S, 2, A2=2))
        assert adeles.lattice_equality(base, doubled)
        assert adeles.lattice_equality(doubled, base)

    def test_single_place_rescaling_differs(self):
        S = PlaceSet((2,))
        base = AdeleLattice.standard(1, S)
        skew = AdeleLattice(scalar_auto(S, 2))  # only the infinite place scaled
        assert not adeles.lattice_equality(base, skew)

    def test_non_unit_common_factor_differs(self):
        S = PlaceSet((2,))
        tripled = AdeleLattice(scalar_auto(S, 3, A2=3))
        base = AdeleLattice.standard(1, S)
        assert not adeles.lattice_equality(base, tripled)

    def test_unstored_place_forces_identity(self):
        S = PlaceSet((2, 3))
        base = AdeleLattice.standard(1, S)
        partial = AdeleLattice(scalar_auto(S, 2, A2=2))  # A_3 stays identity
        assert not adeles.lattice_equality(base, partial)

    def test_agrees_with_generator_membership_oracle(self):
        rng = np.random.default_rng(2024)
        S = PlaceSet((2, 3))

        def contained(inner, outer):
            return all(adeles.lattice_membership(g, outer).is_member
                       for g in inner.generators())

        equal_count = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))

            def random_exact(unit=False):
                while True:
                    M = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
                    if M.det == 0:
                        continue
                    if not unit or set(_prime_support(abs(M.det))) <= {2, 3}:
                        return M

            auto_a = AdeleAutomorphism(S, random_exact(),
                                       {2: random_exact(), 3: random_exact()})
            L1 = AdeleLattice(auto_a)
            if rng.random() < 0.5:
                R = random_exact(unit=True)
                auto_b = auto_a.compose(AdeleAutomorphism(S, R, {2: R, 3: R}))
            else:
                auto_b = AdeleAutomorphism(S, random_exact(),
                                           {2: random_exact(), 3: random_exact()})
            L2 = AdeleLattice(auto_b)
            oracle = contained(L1, L2) and contained(L2, L1)
            assert adeles.lattice_equality(L1, L2) == oracle
            equal_count += oracle
        assert 0 < equal_count < 100  # both outcomes exercised

    def test_non_unit_determinant_agrees_with_membership_oracle(self):
        # R = diag(5, 1, ...) U has entries in Z(S) but det R is not a unit
        # there, so only the determinant decides that R is not in GL_n(Z(S)).
        rng = np.random.default_rng(2025)
        S = PlaceSet((2, 3))

        def contained(inner, outer):
            return all(adeles.lattice_membership(g, outer).is_member
                       for g in inner.generators())

        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(1, 4))
            while True:
                U = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
                if U.det != 0 and set(_prime_support(abs(U.det))) <= {2, 3}:
                    break
            while True:
                A = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
                if A.det != 0:
                    break
            L1 = AdeleLattice(AdeleAutomorphism(S, A, {2: A, 3: A}))
            R = rmat(np.diag([5 if rng.random() < 0.5 else 1] + [1] * (n - 1)).tolist()) @ U
            L2 = AdeleLattice(L1.automorphism.compose(AdeleAutomorphism(S, R, {2: R, 3: R})))
            oracle = contained(L1, L2) and contained(L2, L1)
            assert adeles.lattice_equality(L1, L2) == oracle
            assert oracle == (R.det == U.det)
            outcomes.add(oracle)
        assert outcomes == {True, False}


def _prime_support(q: Fraction):
    out = set()
    for n in (q.numerator, q.denominator):
        n = abs(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def generator_oracle_cases():
    """The 100 seeded pairs of ``test_agrees_with_generator_membership_oracle``."""
    rng = np.random.default_rng(2024)
    S = PlaceSet((2, 3))
    for _ in range(100):
        n = int(rng.integers(1, 4))

        def random_exact(unit=False):
            while True:
                M = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
                if M.det == 0:
                    continue
                if not unit or set(_prime_support(abs(M.det))) <= {2, 3}:
                    return M

        auto_a = AdeleAutomorphism(S, random_exact(), {2: random_exact(), 3: random_exact()})
        if rng.random() < 0.5:
            R = random_exact(unit=True)
            auto_b = auto_a.compose(AdeleAutomorphism(S, R, {2: R, 3: R}))
        else:
            auto_b = AdeleAutomorphism(S, random_exact(), {2: random_exact(), 3: random_exact()})
        yield AdeleLattice(auto_a), AdeleLattice(auto_b)


def non_unit_determinant_cases():
    """The 40 seeded pairs of ``test_non_unit_determinant_agrees_with_membership_oracle``."""
    rng = np.random.default_rng(2025)
    S = PlaceSet((2, 3))
    for _ in range(40):
        n = int(rng.integers(1, 4))
        while True:
            U = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
            if U.det != 0 and set(_prime_support(abs(U.det))) <= {2, 3}:
                break
        while True:
            A = rmat(rng.integers(-3, 4, size=(n, n)).tolist())
            if A.det != 0:
                break
        L1 = AdeleLattice(AdeleAutomorphism(S, A, {2: A, 3: A}))
        R = rmat(np.diag([5 if rng.random() < 0.5 else 1] + [1] * (n - 1)).tolist()) @ U
        yield L1, AdeleLattice(L1.automorphism.compose(AdeleAutomorphism(S, R, {2: R, 3: R})))


class TestLatticeEqualityOracle:
    @pytest.mark.parametrize("cases", [generator_oracle_cases, non_unit_determinant_cases])
    def test_same_verdicts_as_composed_inverse(self, cases):
        verdicts = []
        for L1, L2 in cases():
            verdict = adeles.lattice_equality(L1, L2)
            assert verdict == lattice_equality_by_inverse(L1, L2)
            assert adeles.lattice_equality(L2, L1) == verdict
            verdicts.append(verdict)
        assert len(verdicts) in (100, 40) and set(verdicts) == {True, False}

    def test_builds_no_automorphism(self, monkeypatch):
        L1, L2 = next(generator_oracle_cases())

        def refuse(*args, **kwargs):
            raise AssertionError("lattice_equality built an automorphism")

        monkeypatch.setattr(AdeleAutomorphism, "__post_init__", refuse)
        monkeypatch.setattr(RationalMatrix, "inverse", refuse)
        adeles.lattice_equality(L1, L2)

    def test_float_a_inf_rejected(self):
        S = PlaceSet((2,))
        exact = AdeleLattice.standard(1, S)
        floating = AdeleLattice(AdeleAutomorphism(S, np.eye(1)))
        with pytest.raises(PlaceDataError):
            adeles.lattice_equality(exact, floating)
        with pytest.raises(PlaceDataError):
            adeles.lattice_equality(floating, exact)


class TestBalianLowClassifier:
    def test_adele_spec_holds(self):
        verdict = adeles.balian_low_classifier("A_Q{S=2; n=1}")
        assert verdict.blt_holds and not verdict.compact_identity_component
        assert verdict.real_dimension == 1

    def test_pure_local_spec_fails(self):
        verdict = adeles.balian_low_classifier("Q_S{S=2,3; n=2}")
        assert not verdict.blt_holds and verdict.compact_identity_component

    def test_finite_group_fails(self):
        verdict = adeles.balian_low_classifier("Z4")
        assert not verdict.blt_holds

    def test_higher_dimension(self):
        assert adeles.balian_low_classifier("A_Q{S=2,3,5; n=3}").real_dimension == 3

    def test_malformed_spec(self):
        with pytest.raises(ValueError):
            adeles.balian_low_classifier("A_Q{k=1}")
        with pytest.raises(ValueError):
            adeles.balian_low_classifier("bogus")


class TestDeformationMargin:
    def test_critical_volume_has_no_room(self):
        S = PlaceSet(())
        auto = AdeleAutomorphism(S, rmat([[1, 0], [0, 1]]))
        assert adeles.deformation_margin(AdeleLattice(auto)) == 0.0

    def test_quarter_volume(self):
        S = PlaceSet(())
        auto = AdeleAutomorphism(S, rmat([[Fraction(1, 4), 0], [0, 1]]))
        assert adeles.deformation_margin(AdeleLattice(auto)) == pytest.approx(1.0)

    def test_half_volume(self):
        S = PlaceSet(())
        auto = AdeleAutomorphism(S, rmat([[Fraction(1, 2), 0], [0, 1]]))
        assert adeles.deformation_margin(AdeleLattice(auto)) == pytest.approx(math.sqrt(2) - 1)

    def test_volume_above_one_rejected(self):
        S = PlaceSet(())
        auto = AdeleAutomorphism(S, rmat([[2, 0], [0, 1]]))
        with pytest.raises(VolumeAboveOneError):
            adeles.deformation_margin(AdeleLattice(auto))

    def test_odd_dimension_rejected(self):
        S = PlaceSet(())
        auto = AdeleAutomorphism(S, rmat([[1]]))
        with pytest.raises(ValueError):
            adeles.deformation_margin(AdeleLattice(auto))

    def test_inverse_volume_past_the_float_range(self):
        """(1/v)^(1/dim) - 1 from logarithms when 1/v is no float; refused
        when the margin is none either."""
        S = PlaceSet(())
        for dim, exponent, margin in [(2, 400, 1e200), (4, 400, 1e100), (2, 700, None)]:
            rows = [[Fraction(1, 10 ** exponent) if i == j == 0 else int(i == j)
                     for j in range(dim)] for i in range(dim)]
            lattice = AdeleLattice(AdeleAutomorphism(S, rmat(rows)))
            if margin is None:
                with pytest.raises(ValueError, match="float range"):
                    adeles.deformation_margin(lattice)
            else:
                assert adeles.deformation_margin(lattice) == pytest.approx(margin, rel=1e-12)

    def test_volume_next_to_critical_keeps_its_digits(self):
        """v = 1 - 10^-k for k = 1..20 against a 50-digit decimal reference."""
        S = PlaceSet(())
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for dim in (2, 4):
                for k in range(1, 21):
                    v = 1 - Fraction(1, 10 ** k)
                    rows = [[v if i == j == 0 else int(i == j) for j in range(dim)]
                            for i in range(dim)]
                    lattice = AdeleLattice(AdeleAutomorphism(S, rmat(rows)))
                    exact = (-(1 - Decimal(10) ** -k).ln() / dim).exp() - 1
                    assert adeles.deformation_margin(lattice) == pytest.approx(
                        float(exact), rel=1e-12, abs=0), (dim, k)


class TestCompactOpenSurrogate:
    def test_unit_ball_mass_one(self):
        H, K, K_perp = compact_open_surrogate(4, 2)
        assert H.weight == Fraction(1, 2)
        assert K.order * H.weight == 1
        assert [e.coords for e in K.elements] == [(0,), (2,)]
        assert [e.coords for e in K_perp.elements] == [(0,), (2,)]

    def test_indicator_inner_products(self):
        H, K, K_perp = compact_open_surrogate(4, 2)
        one_k = gl.indicator_window(K)
        perp_coords = {e.coords for e in K_perp.elements}
        for x in H.elements():
            for w in H.dual().elements():
                value = one_k.inner(gl.tf_shift(x, w, one_k))
                expected = 1.0 if (x in K and w.coords in perp_coords) else 0.0
                assert value == pytest.approx(expected, abs=1e-13)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            compact_open_surrogate(4, 3)


class TestTransference:
    def test_delta_pair_both_sides_true(self):
        G = FiniteLcaGroup((4,))
        g, ta = gl.standard_onb(G)
        result = finite_transference_check(g, g, ta, 4, 2)
        assert result.base_is_dual_pair and result.product_is_dual_pair
        assert result.equivalent

    def test_zero_dual_both_sides_false(self):
        G = FiniteLcaGroup((4,))
        g, ta = gl.standard_onb(G)
        zero = Window(G, np.zeros(4))
        result = finite_transference_check(g, zero, ta, 4, 2)
        assert not result.base_is_dual_pair and not result.product_is_dual_pair
        assert result.equivalent

    def test_canonical_dual_pair(self):
        G = FiniteLcaGroup((4,))
        rng = np.random.default_rng(11)
        g = gl.random_window(G, rng)
        ta = TfLattice.time_axis(G)
        h = gl.canonical_dual(g, ta)
        result = finite_transference_check(g, h, ta, 6, 2)
        assert result.base_is_dual_pair and result.product_is_dual_pair

    def test_volume_carries_over(self):
        G = FiniteLcaGroup((4,))
        g, ta = gl.standard_onb(G)
        result = finite_transference_check(g, g, ta, 8, 4)
        assert result.volume == ta.volume == 1

    def test_product_residual_matches_shift_oracle(self):
        rng = np.random.default_rng(31)
        for orders in [(2,), (3,), (4,), (2, 2)]:
            G = FiniteLcaGroup(orders)
            for delta in (TfLattice.time_axis(G), TfLattice.full_plane(G),
                          random_plane_lattice(G, rng)):
                g = gl.random_window(G, rng)
                duals = [gl.random_window(G, rng)]
                if gl.frame_bounds(g, delta).is_frame:
                    duals.append(gl.canonical_dual(g, delta))
                for h in duals:
                    for M, d in [(4, 2), (6, 3), (3, 1)]:
                        result = finite_transference_check(g, h, delta, M, d)
                        oracle = product_residual_by_shifts(g, h, delta, M, d)
                        assert abs(result.product_residual - oracle) <= 1e-12


class TestAutomorphismDocuments:
    def test_round_trip(self):
        S = PlaceSet((2, 3))
        auto = AdeleAutomorphism(
            S, rmat([[Fraction(1, 2), 0], [1, 3]]),
            {2: rmat([[2, 1], [0, 1]])})
        text = format_automorphism_document(auto)
        parsed = parse_automorphism_document(text)
        assert parsed.place_set == S
        assert parsed.a_inf == auto.a_inf
        assert parsed.finite == auto.finite

    def test_parse_example(self):
        text = "S = 3\nAinf = [[3]]\nA3 = [[3]]\n"
        auto = parse_automorphism_document(text)
        assert adeles.global_modular(auto).value == 1

    def test_requires_a_inf(self):
        with pytest.raises(ValueError):
            parse_automorphism_document("S = 2\nA2 = [[1]]\n")

    def test_component_outside_s_rejected(self):
        with pytest.raises(PlaceDataError):
            parse_automorphism_document("S = 2\nAinf = [[1]]\nA5 = [[5]]\n")


rational_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def exact_automorphisms(draw):
    primes = draw(st.lists(st.sampled_from([2, 3, 5]), unique=True))
    n = draw(st.integers(1, 3))

    def invertible():
        rows = draw(st.lists(st.lists(rational_entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        M = rmat(rows)
        assume(M.det != 0)
        return M

    stored = draw(st.lists(st.sampled_from(primes), unique=True)) if primes else []
    return AdeleAutomorphism(PlaceSet(tuple(primes)), invertible(),
                             {p: invertible() for p in stored})


class TestAutomorphismDocumentRoundTrip:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(exact_automorphisms())
    def test_format_then_parse_is_identity(self, auto):
        parsed = parse_automorphism_document(format_automorphism_document(auto))
        assert parsed.place_set == auto.place_set
        assert parsed.a_inf == auto.a_inf
        assert parsed.finite == auto.finite


class TestTransferenceLattice:
    def test_product_helper_matches_point_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            G = FiniteLcaGroup(((2,), (3,), (4,), (2, 2), (6,))[int(rng.integers(5))])
            delta1 = random_plane_lattice(G, rng)
            M = int(rng.integers(2, 9))
            divisors = [d for d in range(1, M + 1) if M % d == 0]
            d = divisors[int(rng.integers(len(divisors)))]
            _, K, K_perp = compact_open_surrogate(M, d)
            fast = _product_lattice(delta1, TfLattice.separable(K, K_perp))
            slow = transference_lattice_by_points(delta1, M, d)
            assert fast == slow and fast.base_group == slow.base_group
            assert fast.subgroup.generators == slow.subgroup.generators
            assert fast.volume == delta1.volume

    def test_surrogate_lattice_is_its_own_adjoint(self):
        """K x K_perp is self-adjoint, (K_perp)_perp = K, which lets the harness
        take the product adjoint from delta1's adjoint and the surrogate itself."""
        for M in range(1, 65):
            for d in (d for d in range(1, M + 1) if M % d == 0):
                _, K, K_perp = compact_open_surrogate(M, d)
                surrogate = TfLattice.separable(K, K_perp)
                assert gl.adjoint_lattice(surrogate) == surrogate, (M, d)

    def test_harness_builds_no_dense_operator_and_scans_no_surrogate(self, monkeypatch):
        """With delta1's adjoint read first, the harness runs neither the dense
        frame operator nor an adjoint scan, and its base residual is bit for
        bit the identity defect of the dense operator."""
        grid = list(transference_grid())
        dense = [_identity_defect(gl.frame_operator(g, h, delta1))
                 for g, h, delta1, _, _ in grid]
        for _, _, delta1, _, _ in grid:
            delta1.adjoint

        def refuse(*args, **kwargs):
            raise AssertionError("dense frame operator or adjoint scan in the harness")

        monkeypatch.setattr(gabor, "frame_operator", refuse)
        monkeypatch.setattr(gabor, "adjoint_lattice", refuse)
        for case, defect in zip(grid, dense):
            result = finite_transference_check(*case)
            assert result.base_residual == defect
            assert result.volume == case[2].volume

    def test_base_part_mask_reads_index_bounds(self):
        # Oracle: the coordinate slices of the product plane's points, where
        # the check reads x_index < M and w_index < M.
        rng = np.random.default_rng(46)
        for L in (2, 3, 4, 6):
            G = FiniteLcaGroup((L,))
            for delta1 in (TfLattice.time_axis(G), TfLattice.full_plane(G)):
                g, h = gl.random_window(G, rng), gl.random_window(G, rng)
                for M, d in [(2, 1), (4, 2), (6, 3), (8, 2)]:
                    _, K, K_perp = compact_open_surrogate(M, d)
                    adj = gl.adjoint_lattice(_product_lattice(delta1, TfLattice.separable(K, K_perp)))
                    coords = coords_matrix(adj.subgroup.group.orders)[adj.subgroup.index_array]
                    by_coords = ~coords[:, 0].astype(bool) & ~coords[:, 2].astype(bool)
                    by_index = (adj.x_indices < M) & (adj.w_indices < M)
                    assert np.array_equal(by_coords, by_index) and by_index.any()
                    result = finite_transference_check(g, h, delta1, M, d)
                    g_t = Window(adj.base_group, np.kron(g.values, gl.indicator_window(K).values))
                    h_t = Window(adj.base_group, np.kron(h.values, gl.indicator_window(K).values))
                    target = np.where(by_coords, float(delta1.volume), 0.0)
                    values = _adjoint_coefficients(g_t, h_t, adj)
                    assert result.product_residual == float(np.max(np.abs(values - target)))
