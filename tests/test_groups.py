import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gabor_lca as gl
from gabor_lca import groups
from gabor_lca.groups import (
    CardinalityCapError,
    FiniteLcaGroup,
    GroupShapeError,
    Subgroup,
    _coset_minima,
    _index_sum,
    add_index_table,
    parse_coord_tuples,
)
from oracles import (
    all_subgroups_by_add_table,
    all_subgroups_by_closure,
    annihilator_by_from_indices,
    annihilator_full_scan,
    assert_kernel_matches,
    birkhoff_delsarte_count,
    closure_by_elements,
    coset_minima_by_loop,
    coset_minima_by_matrix,
    count_closures,
    from_elements_by_closure,
    naive_closure,
    pairing_exponent_by_coords,
    shapes_up_to,
)


def walk_record(subs):
    """What a walk must reproduce exactly: list order, index arrays and generators."""
    return [(H.index_array.tolist(), [g.coords for g in H.generators]) for H in subs]


def assert_coset_minima_match(sub, xs):
    fast = _coset_minima(sub, xs)
    for oracle in (coset_minima_by_loop, coset_minima_by_matrix):
        slow = oracle(sub, xs)
        assert fast.shape == slow.shape and np.array_equal(fast, slow), (str(sub), oracle)


def generators_and_elements(sub):
    return [g.coords for g in sub.generators], [e.coords for e in sub.elements]


small_groups = st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(
    lambda orders: math.prod(orders) <= 64).map(lambda o: FiniteLcaGroup(tuple(o)))


@st.composite
def group_and_elements(draw, count=2):
    group = draw(small_groups)
    elems = [group.element_by_index(draw(st.integers(0, group.cardinality - 1)))
             for _ in range(count)]
    return group, elems


class TestGroupBasics:
    def test_cardinality_and_strides(self):
        G = FiniteLcaGroup((2, 3, 8))
        assert G.cardinality == 48
        for i in range(G.cardinality):
            assert G.element_by_index(i).index == i

    def test_coordinates_reduced(self):
        G = FiniteLcaGroup((4,))
        assert G.element((7,)).coords == (3,)
        assert (-G.element((1,))).coords == (3,)

    def test_cap_enforced(self):
        with pytest.raises(CardinalityCapError):
            FiniteLcaGroup((5000,))

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            FiniteLcaGroup((0,))
        with pytest.raises(ValueError):
            FiniteLcaGroup(())

    def test_dual_is_reflexive(self):
        G = FiniteLcaGroup((4, 6))
        assert G.dual().orders == G.orders
        assert G.dual().weight == Fraction(1, 24)
        assert G.dual().dual() == G

    def test_dual_and_plane_are_built_once(self):
        G = FiniteLcaGroup((4, 6), Fraction(3))
        assert G.dual() is G.dual() and G.plane() is G.plane()
        assert G.dual() == FiniteLcaGroup((4, 6), Fraction(1, 72))
        assert G.plane() == FiniteLcaGroup((4, 6, 4, 6), Fraction(1, 24))

    def test_plane_refusal_names_the_plane(self):
        G = FiniteLcaGroup((64, 64))
        with pytest.raises(CardinalityCapError, match="plane of Z64xZ64 has 16777216 points"):
            G.plane()

    def test_plane_measure_is_canonical(self):
        G = FiniteLcaGroup((4,))
        assert G.plane().weight == Fraction(1, 4)
        # independent of the Haar normalization on G
        scaled = FiniteLcaGroup((4,), Fraction(3))
        assert scaled.plane().weight == Fraction(1, 4)

    def test_mixed_group_arithmetic_rejected(self):
        a = FiniteLcaGroup((4,)).element((1,))
        b = FiniteLcaGroup((5,)).element((1,))
        with pytest.raises(GroupShapeError):
            a + b

    def test_parse_group_spec(self):
        assert gl.parse_group_spec("Z4").orders == (4,)
        assert gl.parse_group_spec("Z2xZ3xZ8").orders == (2, 3, 8)
        with pytest.raises(ValueError):
            gl.parse_group_spec("G4")

    def test_parse_coord_tuples(self):
        assert parse_coord_tuples("gens=(2,0),(0,2)") == [(2, 0), (0, 2)]
        assert parse_coord_tuples("2,3") == [(2,), (3,)]


class TestPairing:
    def test_primitive_fourth_root(self):
        G = FiniteLcaGroup((4,))
        value = gl.pairing(G.dual().element((1,)), G.element((1,)))
        assert value == pytest.approx(1j)

    def test_trivial_character(self):
        G = FiniteLcaGroup((4,))
        for x in G.elements():
            assert gl.pairing(G.dual().zero(), x) == pytest.approx(1.0)

    def test_fourth_power_closes(self):
        G = FiniteLcaGroup((4,))
        assert gl.pairing(G.dual().element((2,)), G.element((2,))) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(group_and_elements(count=3))
    def test_bimultiplicative(self, data):
        group, (x, y, w) = data
        omega = group.dual().element(w.coords)
        lhs = gl.pairing(omega, x + y)
        rhs = gl.pairing(omega, x) * gl.pairing(omega, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(group_and_elements(count=2))
    def test_exact_exponent_additive(self, data):
        group, (x, y) = data
        omega = group.dual().element(x.coords)
        e1, N = gl.groups.pairing_exponent(omega, x)
        e2, _ = gl.groups.pairing_exponent(omega, y)
        e12, _ = gl.groups.pairing_exponent(omega, x + y)
        assert e12 == (e1 + e2) % N

    def test_shape_mismatch(self):
        with pytest.raises(GroupShapeError):
            gl.pairing(FiniteLcaGroup((4,)).element((1,)), FiniteLcaGroup((5,)).element((1,)))

    @pytest.mark.parametrize("group", [FiniteLcaGroup((4,)).plane(), FiniteLcaGroup((6,)).plane(),
                                       FiniteLcaGroup((2, 2)).plane(), FiniteLcaGroup((3, 4))])
    def test_exponent_matches_coordinate_loop(self, group):
        points = list(group.elements())
        for omega in points:
            for x in points:
                assert gl.groups.pairing_exponent(omega, x) == pairing_exponent_by_coords(omega, x)


class TestSubgroups:
    def test_z4_generated_by_two(self):
        G = FiniteLcaGroup((4,))
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        assert [e.coords for e in H.elements] == [(0,), (2,)]

    def test_z2xz2_full(self):
        G = FiniteLcaGroup((2, 2))
        H = gl.enumerate_subgroup(G, [G.element((1, 0)), G.element((0, 1))])
        assert H.order == 4

    def test_z6_coprime_generators(self):
        G = FiniteLcaGroup((6,))
        H = gl.enumerate_subgroup(G, [G.element((2,)), G.element((3,))])
        oracle = naive_closure(G, [G.element((2,)), G.element((3,))])
        assert {e.coords for e in H.elements} == oracle
        assert H.order == 6

    @settings(max_examples=40, deadline=None)
    @given(group_and_elements(count=2))
    def test_closure_matches_naive_oracle(self, data):
        group, gens = data
        H = gl.enumerate_subgroup(group, gens)
        assert {e.coords for e in H.elements} == naive_closure(group, gens)

    @settings(max_examples=40, deadline=None)
    @given(group_and_elements(count=2))
    def test_subgroup_axioms(self, data):
        group, gens = data
        H = gl.enumerate_subgroup(group, gens)
        assert group.zero() in H
        members = list(H.elements)
        for a in members:
            assert -a in H
            for b in members:
                assert a + b in H
        assert group.cardinality % H.order == 0

    def test_equality_is_by_elements(self):
        G = FiniteLcaGroup((6,))
        H1 = gl.enumerate_subgroup(G, [G.element((2,)), G.element((4,))])
        H2 = gl.enumerate_subgroup(G, [G.element((4,))])
        assert H1 == H2
        assert hash(H1) == hash(H2)

    def test_from_elements_rejects_non_closed(self):
        G = FiniteLcaGroup((4,))
        with pytest.raises(ValueError):
            Subgroup.from_elements(G, (G.zero(), G.element((1,))))

    def test_all_subgroups_counts(self):
        assert len(gl.all_subgroups(FiniteLcaGroup((4,)))) == 3
        assert len(gl.all_subgroups(FiniteLcaGroup((6,)))) == 4
        assert len(gl.all_subgroups(FiniteLcaGroup((2, 2)))) == 5

    def test_coset_transversal(self):
        G = FiniteLcaGroup((4,))
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        reps = gl.coset_transversal(G, H)
        assert [r.coords for r in reps] == [(0,), (1,)]
        covered = {(r + s).coords for r in reps for s in H.elements}
        assert len(covered) == 4


class TestAnnihilator:
    def test_z4_self_paired(self):
        G = FiniteLcaGroup((4,))
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        ann = gl.annihilator(H)
        assert [e.coords for e in ann.elements] == [(0,), (2,)]
        assert ann.group == G.dual()

    def test_trivial_and_full(self):
        G = FiniteLcaGroup((6,))
        assert gl.annihilator(gl.trivial_subgroup(G)).order == 6
        assert gl.annihilator(gl.full_subgroup(G)).order == 1

    def test_defining_property(self):
        G = FiniteLcaGroup((2, 4))
        H = gl.enumerate_subgroup(G, [G.element((1, 2))])
        ann = gl.annihilator(H)
        for om in G.dual().elements():
            trivial = all(gl.pairing_is_one(om, x) for x in H.elements)
            assert trivial == (om in ann)

    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 4), (3, 3), (12,)])
    def test_reflexivity_and_counting(self, orders):
        G = FiniteLcaGroup(orders)
        for H in gl.all_subgroups(G):
            ann = gl.annihilator(H)
            assert H.order * ann.order == G.cardinality
            double = gl.annihilator(ann)
            assert [e.coords for e in double.elements] == [e.coords for e in H.elements]

    def test_generator_scan_matches_full_scan(self):
        shapes = shapes_up_to(16)
        assert (2, 2, 2, 2) in shapes and (16,) in shapes
        for orders in shapes:
            G = FiniteLcaGroup(orders)
            for H in gl.all_subgroups(G):
                fast = gl.annihilator(H)
                slow = annihilator_full_scan(H)
                assert fast.group == slow.group == G.dual()
                assert [e.coords for e in fast.elements] == [e.coords for e in slow.elements]

    def test_redundant_and_empty_generating_sets(self):
        G = FiniteLcaGroup((2, 6))
        gens = [G.element((0, 0)), G.element((1, 2)), G.element((1, 2)), G.element((0, 4))]
        H = gl.enumerate_subgroup(G, gens)
        assert gl.annihilator(H) == annihilator_full_scan(H)
        trivial = gl.trivial_subgroup(G)
        assert trivial.generators == ()
        assert gl.annihilator(trivial).order == G.cardinality


class TestVolumes:
    def test_counting_side(self):
        G = FiniteLcaGroup((4,))
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        assert gl.lattice_volume(H) == 2

    def test_dual_side_and_product(self):
        G = FiniteLcaGroup((4,))
        H = gl.enumerate_subgroup(G, [G.element((2,))])
        ann = gl.annihilator(H)
        assert gl.lattice_volume(ann) == Fraction(1, 2)
        assert gl.lattice_volume(H) * gl.lattice_volume(ann) == 1

    def test_plane_diagonal_example(self):
        G = FiniteLcaGroup((4,))
        plane = G.plane()
        D = gl.enumerate_subgroup(plane, [plane.element((2, 0)), plane.element((0, 2))])
        assert gl.lattice_volume(D) == 1

    @pytest.mark.parametrize("orders", [(8,), (2, 6), (3, 4), (2, 2, 2)])
    def test_volume_duality_exact(self, orders):
        G = FiniteLcaGroup(orders)
        for H in gl.all_subgroups(G):
            assert gl.lattice_volume(H) * gl.lattice_volume(gl.annihilator(H)) == 1


class TestIndexCore:
    """The index-array subgroup core against the element-by-element code it replaced."""

    def test_all_subgroups_match_element_oracle(self):
        shapes = shapes_up_to(32)
        assert (2, 2, 2, 2, 2) in shapes and (32,) in shapes
        for orders in shapes:
            G = FiniteLcaGroup(orders)
            fast = [generators_and_elements(H) for H in gl.all_subgroups(G)]
            assert fast == all_subgroups_by_add_table(G), str(G)

    def test_all_subgroups_match_birkhoff_delsarte_count(self):
        shapes = shapes_up_to(64)
        assert len(shapes) == 198
        assert birkhoff_delsarte_count((2,) * 6) == 2825
        for orders in shapes:
            G = FiniteLcaGroup(orders)
            subs = gl.all_subgroups(G)
            assert len(subs) == birkhoff_delsarte_count(orders), str(G)
            for H in subs:
                assert Subgroup.from_indices(G, H.index_array).generators == H.generators

    def test_all_subgroups_match_closure_walk(self):
        shapes = shapes_up_to(64)
        assert len(shapes) == 198
        cases = [FiniteLcaGroup(orders) for orders in shapes]
        cases += [FiniteLcaGroup(orders).plane() for orders in [(2,), (3,), (4,), (6,), (2, 2), (8,)]]
        for G in cases:
            assert walk_record(gl.all_subgroups(G)) == walk_record(all_subgroups_by_closure(G)), str(G)

    @pytest.mark.parametrize("orders", [(2048,), (2, 1024)])
    def test_all_subgroups_match_closure_walk_at_table_cap(self, orders):
        G = FiniteLcaGroup(orders)
        assert G.cardinality == groups._TABLE_CAP
        assert walk_record(gl.all_subgroups(G)) == walk_record(all_subgroups_by_closure(G))

    @pytest.mark.parametrize("orders", [(4,), (6,), (2, 2)])
    def test_plane_subgroups_match_element_oracle(self, orders):
        plane = FiniteLcaGroup(orders).plane()
        fast = [generators_and_elements(H) for H in gl.all_subgroups(plane)]
        assert fast == all_subgroups_by_add_table(plane)

    @settings(max_examples=40, deadline=None)
    @given(group_and_elements(count=3))
    def test_from_indices_matches_greedy_oracle(self, data):
        group, gens = data
        H = gl.enumerate_subgroup(group, gens)
        oracle = from_elements_by_closure(group, closure_by_elements(group, gens))
        rebuilt = Subgroup.from_indices(group, H.index_array[::-1])
        assert generators_and_elements(rebuilt) == oracle
        assert [e.coords for e in H.elements] == oracle[1]
        assert rebuilt == H and hash(rebuilt) == hash(H)

    def test_from_indices_rejects_bad_sets(self):
        G = FiniteLcaGroup((2, 3))
        for bad in ([], [1], [0, 1], [0, 6]):
            with pytest.raises(ValueError):
                Subgroup.from_indices(G, bad)

    def test_membership_and_subsets_on_indices(self):
        G = FiniteLcaGroup((2, 6))
        H = gl.enumerate_subgroup(G, [G.element((0, 2))])
        K = gl.enumerate_subgroup(G, [G.element((1, 2))])
        for x in G.elements():
            assert (x in H) == (x.coords in {e.coords for e in H.elements})
        assert H.is_subset_of(K) and not K.is_subset_of(H)
        assert H.index_array.flags.writeable is False

    def test_add_index_table_matches_row_loop(self):
        for orders in [(1,), (12,), (2, 6), (3, 4, 5), (2,) * 6, (4, 8, 16)]:
            every = np.arange(math.prod(orders))
            rows = np.array([_index_sum(orders, a, every) for a in every])
            assert np.array_equal(add_index_table(orders), rows), orders

    def test_coset_minima_match_loop_oracle(self):
        """The doubled minima equal the loop and index-sum-matrix oracles on
        enumerated subgroups, on every subgroup of the walk, and on their
        kernel-built annihilators."""
        rng = np.random.default_rng(48)
        for orders in shapes_up_to(64):
            G = FiniteLcaGroup(orders)
            card = G.cardinality
            picked = [G.element_by_index(int(i)) for i in rng.integers(card, size=2)]
            subs = [gl.trivial_subgroup(G), gl.full_subgroup(G), gl.enumerate_subgroup(G, picked)]
            xs_cases = [int(rng.integers(card)), np.arange(card), rng.integers(card, size=(3, 5))]
            for H in subs:
                for xs in xs_cases:
                    assert_coset_minima_match(H, xs)
            for H in gl.all_subgroups(G):
                assert_coset_minima_match(H, np.arange(card))
                assert_coset_minima_match(gl.annihilator(H), np.arange(card))

    def test_coset_transversal_memory_is_linear_in_the_group(self):
        """Z4096 modulo <2>: the doubling holds a few |G|-sized arrays, where
        an |xs| x |H| index-sum matrix peaks at 134 MB."""
        G = FiniteLcaGroup((4096,))
        H = gl.enumerate_subgroup(G, [G.element(2)])
        tracemalloc.start()
        try:
            reps = gl.coset_transversal(G, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.coords for r in reps] == [(0,), (1,)]
        assert peak < 2 * 2**20

    def test_coset_transversal_matches_covering_oracle(self):
        for orders in shapes_up_to(16):
            G = FiniteLcaGroup(orders)
            for H in gl.all_subgroups(G):
                covered, reps = set(), []
                for x in G.elements():
                    if x.coords not in covered:
                        reps.append(x.coords)
                        covered.update((x + s).coords for s in H.elements)
                assert [r.coords for r in gl.coset_transversal(G, H)] == reps


class TestKernelSubgroups:
    """Annihilators are closed by construction: built without a closure walk,
    they recover ``from_indices``'s greedy generators on first read."""

    def test_annihilators_match_from_indices_oracle(self):
        shapes = shapes_up_to(64)
        assert len(shapes) == 198
        for orders in shapes:
            G = FiniteLcaGroup(orders)
            for H in gl.all_subgroups(G):
                assert_kernel_matches(gl.annihilator(H), annihilator_by_from_indices(H))

    def test_closure_count_of_subgroup_walk_and_annihilators(self, monkeypatch):
        """The coset-minima walk and the annihilators of its subgroups run no
        closure; the closure walk it replaced runs 10,784 on the same shapes."""
        shapes = shapes_up_to(63)
        assert len(shapes) == 187
        calls = count_closures(monkeypatch)
        for orders in shapes:
            for H in gl.all_subgroups(FiniteLcaGroup(orders)):
                gl.annihilator(H)
        assert calls[0] == 0
        for orders in shapes:
            all_subgroups_by_closure(FiniteLcaGroup(orders))
        assert calls[0] == 10784
