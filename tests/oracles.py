"""The brute-force oracles of the test suite, and the pools they share.

Each fast route of ``src/`` is checked against an independent, slower route:
usually the one it replaced.  Every oracle is defined here once, and its
docstring opens with the route it checks.  An oracle reads neither that route
nor the route's private helpers; it may read the exact kernels and tables
(``_index_sum``, ``pair_exponent_table``, ``char_table``, ...), which have
per-point oracles of their own.

``ROWS`` lists the checks that only say "route equals oracle on a seeded
pool, within a fixed tolerance"; ``test_oracles.test_route_matches_oracle``
runs each row.  Checks that say more import their oracle from here.
"""

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

import gabor_lca as gl
from gabor_lca import adeles, gabor
from gabor_lca.adeles import _parse_rational
from gabor_lca.experiments import random_plane_lattice, seeded_janssen_instances
from gabor_lca.gabor import TfLattice, Window, compact_open_surrogate
from gabor_lca.groups import (
    FiniteLcaGroup,
    Subgroup,
    _coset_leaders,
    _index_sum,
    _mask,
    _multiples,
    add_index_table,
    char_table,
    coords_matrix,
    pair_exponent_table,
    pairing_exponent,
)
from gabor_lca.padic import RationalMatrix, SingularMatrixError

# --- shared pools and checks --------------------------------------------------


def Z(n, *rest):
    """The group Z/n x Z/rest[0] x ... with counting measure."""
    return FiniteLcaGroup((n,) + tuple(rest))


def shapes_up_to(max_card):
    """Every Z/n_1 x ... x Z/n_k with 2 <= n_1 <= ... <= n_k and |G| <= max_card."""
    def factorizations(n, least):
        if n == 1:
            yield ()
            return
        for f in range(least, n + 1):
            if n % f == 0:
                for rest in factorizations(n // f, f):
                    yield (f,) + rest
    return [(1,)] + [o for n in range(2, max_card + 1) for o in factorizations(n, 2)]


def assert_kernel_matches(sub, oracle):
    """A kernel-built subgroup equals its ``from_indices`` oracle exactly: the
    same sorted, unique index array, and the same greedy generators, which it
    recovers only when they are read."""
    assert "generators" not in vars(sub)
    assert sub.group == oracle.group
    assert np.all(np.diff(sub.index_array) > 0)
    assert np.array_equal(sub.index_array, oracle.index_array)
    assert sub.generators == oracle.generators


def seeded_matrices(seed, count):
    """Rational matrices with n <= 8: dense ones, ones whose leading column
    starts with zeros (row swaps), and singular ones (a repeated combination)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 9))
        rows = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n)]
                for _ in range(n)]
        kind = k % 3
        if kind == 1 and n > 1:
            for r in range(int(rng.integers(1, n))):
                rows[r][0] = Fraction(0)
        elif kind == 2 and n > 1:
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            c = Fraction(int(rng.integers(-3, 4)), 2)
            rows[j] = [c * v for v in rows[i]]
        out.append(RationalMatrix.from_rows(rows))
    return out


#: The README's automorphism file, and that file times [[1, 1], [0, 1]].
AUTO = "S = 2,3\nAinf = [[1/2, 0], [0, 2]]\nA2 = [[2, 0], [0, 1]]\n"
AUTO_REBASED = ("S = 2,3\nAinf = [[1/2, 1/2], [0, 2]]\nA2 = [[2, 2], [0, 1]]\n"
                "A3 = [[1, 1], [0, 1]]\n")

#: Grammar pieces of the CLI argv fuzz: each option draws from its own pool,
#: with valid literals next to malformed ones.  Groups have at most 16 points
#: and counts are at most 20, so that no example runs for long.
FUZZ_GROUPS = ["Z1", "Z2", "Z3", "Z4", "Z6", "Z8", "Z16", "Z2xZ2", "Z2xZ4",
               "G4", "Z0", "Z4x", "z4", ""]
FUZZ_WINDOWS = ["delta0", "gauss", "const", "values=(1,0),(0,0)",
                "values=(1,0),(0,0),(0,0),(0,0)", "values=(1),(0)",
                "values=(nan,0),(0,0)", "values=(1e308,0),(1e308,0)", "values=", "square",
                "values=(1,0)junk(0,0),(0,0),(0,0)", "values=(1,,0),(0,0)", "values=(1,0)(0,0)"]
FUZZ_LATTICES = ["time-axis", "frequency-axis", "full-plane", "separable:gens=(2)",
                 "separable:gens=(1,0)", "separable:gens=", "plane-gens=((2),(0));((0),(2))",
                 "plane-gens=((1,0))", "plane-gens=((1,1),(0,1))", "plane-gens=(())",
                 "plane-gens=((1),(0)", "plane-gens=((x),(0))", "plane-gens=", "lattice",
                 "separable:gens=(2)banana", "plane-gens=((1),(0))((0),(1))"]
FUZZ_SUBGROUPS = ["gens=(2)", "gens=(1,0)", "gens=(0,2)", "gens=", "gens=(2", "gens=(a)", "4",
                  "gens=(2)junk(1)", "gens=(2),", "gens=((2))", "gens=(1,,0)"]
FUZZ_NUMBERS = ["0", "1", "2", "3", "4", "8", "20", "-1", "0.5", "1e-9", "nan", "inf", "x", ""]
FUZZ_RATIONALS = ["12", "5/2", "-3/4", "0", "1/0", "x", ""]
FUZZ_SPECS = ["A_Q{S=2,3; n=2}", "A_Q{S=2; n=1}", "Q_S{S=2; n=1}", "A_Q{S=4;n=1}",
              "A_Q{S=; n=1}", "A_Q{S=2; n=0}", "R^2", "Z4", "{", "", "A_Q{S=2,,3; n=2}"]
FUZZ_VECTORS = ["diag=(5/2,1)", "diag=(5/2)", "diag=(1/0,1)", "inf=(1,0); 2=(1,0)",
                "inf=(1,0); 2=(1,0); 2=(0,1)", "inf=(1,2); 5=(1,2)", "2=(1,0)", "diag=(x,1)",
                "diag=(5/2,1)junk", "diag=((5/2,1))", "diag=(5/2,,1)", "diag=", "diag=(5/2),(1)"]
FUZZ_DOCUMENTS = {"auto.txt": AUTO, "rebased.txt": AUTO_REBASED,
                  "zero.txt": "S = 2\nAinf = [[1/0]]\n",
                  "big.txt": "S =\nAinf = [[2, 0], [0, 1]]\n",
                  "junk.txt": "Ainf = [[1, 2]\n", "empty.txt": "",
                  "unread.txt": "S = 2,3\nAinf = [[1/2, 0]junk[0, 2]]\n",
                  "blank.txt": "S = 2,3\nAinf = [[1/2, 0], [0, 2]]\nA2 = [[2,, 0], [0, 1]]\n"}
FUZZ_FILES = sorted(FUZZ_DOCUMENTS) + ["missing.txt"]
FUZZ_EPS = ["0,0.01,0.02", "0", "0.02,0.01", "0,inf", "nan", ",", "x", "0,,0.01"]
FUZZ_N_LISTS = ["2", "2,3", "3,2", "2,2", "1", ",", "x", "2,3,"]
FUZZ_FORMATS = ["csv", "json", "xml"]


# --- groups -------------------------------------------------------------------


def naive_closure(group, gens):
    """Oracle for ``groups.enumerate_subgroup``: grow a set of coordinates
    until it is closed under + and negation."""
    elems = {group.zero().coords}
    changed = True
    while changed:
        changed = False
        current = [group.element(c) for c in elems]
        for a in current:
            for b in list(gens) + current:
                for cand in (a + b, a - b):
                    if cand.coords not in elems:
                        elems.add(cand.coords)
                        changed = True
    return elems


def annihilator_full_scan(sub):
    """Oracle for ``groups.annihilator``: every character of G tested against
    every element of ``sub``."""
    group = sub.group
    N = group.exponent
    C = coords_matrix(group.orders)
    scale = np.array([N // n for n in group.orders], dtype=np.int64)
    E = C @ (C[sub.index_array] * scale).T % N
    hits = np.nonzero(~E.any(axis=1))[0]
    dual = group.dual()
    return Subgroup.from_elements(dual, [dual.element_by_index(int(i)) for i in hits])


def annihilator_by_from_indices(sub):
    """Oracle for ``groups.annihilator``: the characters whose pairing-table
    row vanishes on ``sub``, handed to ``from_indices`` in descending order."""
    E = pair_exponent_table(sub.group.orders)
    hits = np.flatnonzero(~E[:, sub.index_array].any(axis=1))
    return Subgroup.from_indices(sub.group.dual(), hits[::-1])


def _close(orders, mask, multiples):
    """Oracle for the growth step ``groups._joined_minima``: the membership
    mask of <H, x>, for the subgroup H with membership ``mask`` and the
    ``_multiples`` row of x; the closure step of ``all_subgroups_by_closure``.

    <H, x> is the union of the cosets k*x + H for k below the order m of x
    modulo H, so it is one sum of H's indices with the first m multiples.
    """
    m = 1 + int(np.argmax(mask[multiples[1:]]))
    out = np.zeros_like(mask)
    out[_index_sum(orders, np.flatnonzero(mask)[:, None], multiples[:m])] = True
    return out


def count_closures(monkeypatch):
    """Route every ``_close`` call through a counter; returns it.  ``src/``
    grows subgroups only by ``groups._joined_minima``, so only the oracles
    of this module can add to the count."""
    calls = [0]
    close = _close

    def counted(*args):
        calls[0] += 1
        return close(*args)

    monkeypatch.setitem(globals(), "_close", counted)
    return calls


def pairing_exponent_by_coords(omega, x):
    """Oracle for ``groups.pairing_exponent``: the exact pairing exponent
    summed one coordinate at a time."""
    N = omega.group.exponent
    e = 0
    for w, c, n in zip(omega.coords, x.coords, omega.group.orders):
        e += w * c * (N // n)
    return e % N, N


def closure_by_elements(group, generators):
    """Oracle for ``groups.enumerate_subgroup``: close a generating set one
    GroupElement at a time."""
    members = {group.zero().coords}
    elems = [group.zero()]
    for gen in generators:
        if gen.coords in members:
            continue
        base = list(elems)
        step = gen
        while step.coords not in members:
            shifted = [e + step for e in base]
            members.update(e.coords for e in shifted)
            elems.extend(shifted)
            step = step + gen
    return elems


def from_elements_by_closure(group, elements):
    """Oracle for ``Subgroup.from_indices``: greedy generators in ascending
    index order, re-closing the element list after each one.

    Returns (generators, sorted elements) as coordinate tuples.
    """
    elems = sorted(elements, key=lambda e: e.index)
    gens = []
    have = {group.zero().coords}
    for e in elems:
        if e.coords in have:
            continue
        gens.append(e)
        have = {m.coords for m in closure_by_elements(group, gens)}
    if have != {e.coords for e in elems}:
        raise ValueError("element list is not closed under the group operation")
    return [g.coords for g in gens], [e.coords for e in elems]


def all_subgroups_by_add_table(group):
    """Oracle for ``groups.all_subgroups``: close index sets under single
    extra elements through the ADD table, trying every element outside each
    one."""
    ADD = add_index_table(group.orders)
    trivial = frozenset({0})
    seen = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for x in range(1, group.cardinality):
            if x in H:
                continue
            base = np.fromiter(H, dtype=np.int64)
            closed = set(H)
            y = x
            while y not in H:
                closed.update(int(i) for i in ADD[base, y])
                y = int(ADD[y, x])
            closed = frozenset(closed)
            if closed not in seen:
                seen.add(closed)
                queue.append(closed)
    out = []
    for member_set in sorted(seen, key=lambda s: (len(s), sorted(s))):
        elems = [group.element_by_index(i) for i in sorted(member_set)]
        out.append(from_elements_by_closure(group, elems))
    return out


def all_subgroups_by_closure(group):
    """Oracle for ``groups.all_subgroups``: the walk it replaced, which closes
    <H, x> for every coset leader x > g_i of each H = <g_1..g_i> and keeps it
    when no point of it outside H is below x.  It looks ``_close`` up when it
    runs, so ``count_closures`` counts its closures."""
    orders, card = group.orders, group.cardinality
    trivial = _mask(card, 0)
    found, stack = [], [(Subgroup(group, (), np.flatnonzero(trivial)), trivial)]
    multiples = lru_cache(maxsize=None)(lambda x: _multiples(orders, x))  # once per walk
    while stack:
        H, mask = stack.pop()
        found.append(H)
        start = H.generators[-1].index + 1 if H.generators else 1
        for x in _coset_leaders(H, np.arange(start, card)).tolist():
            closed = _close(orders, mask, multiples(x))
            if np.array_equal(closed[:x], mask[:x]):
                gens = H.generators + (group.element_by_index(x),)
                stack.append((Subgroup(group, gens, np.flatnonzero(closed)), closed))
    return sorted(found, key=lambda H: (H.order, H.index_array.tolist()))


def gaussian_binomial(n, k, p):
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def conjugate_partition(parts):
    return [sum(1 for a in parts if a > i) for i in range(max(parts, default=0))]


def birkhoff_delsarte_count(orders):
    """Oracle for the number of subgroups ``groups.all_subgroups`` finds,
    independent of any enumeration.

    The count is the product over primes p of the counts of the Sylow
    p-parts.  A p-group of type lambda has, for each type mu <= lambda,
    prod_i p^(mu'_{i+1} (lambda'_i - mu'_i)) [lambda'_i - mu'_{i+1} choose
    mu'_i - mu'_{i+1}]_p subgroups of type mu, where ' is the conjugate
    partition (Butler, Mem. AMS 539, 1994).
    """
    sylow = {}
    for n in orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                sylow.setdefault(p, []).append(e)
            p += 1
    total = 1
    for p, lam in sylow.items():
        lam = sorted(lam, reverse=True)
        lam_c = conjugate_partition(lam)
        count = 0
        for mu in itertools.product(*(range(a + 1) for a in lam)):
            if any(b > a for a, b in zip(mu, mu[1:])):
                continue
            mu_c = conjugate_partition(mu) + [0] * (len(lam_c) + 1)
            term = 1
            for i, l in enumerate(lam_c):
                term *= p ** (mu_c[i + 1] * (l - mu_c[i])) * gaussian_binomial(
                    l - mu_c[i + 1], mu_c[i] - mu_c[i + 1], p)
            count += term
        total *= count
    return total


def coset_minima_by_loop(sub, xs):
    """Oracle for ``groups._coset_minima``: one index sum over the candidates
    per element of the subgroup."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.full(xs.shape, sub.group.cardinality, dtype=np.int64)
    for h in sub.index_array:
        np.minimum(out, _index_sum(sub.group.orders, xs, h), out=out)
    return out


def coset_minima_by_matrix(sub, xs):
    """Oracle for ``groups._coset_minima``: the |xs| x |H| matrix of index
    sums x + h, minimised over h."""
    xs = np.asarray(xs, dtype=np.int64)
    return _index_sum(sub.group.orders, xs[..., None], sub.index_array).min(axis=-1)


# --- gabor --------------------------------------------------------------------


def _coords(orders):
    """Coordinates of every point of Z/n_1 x ... x Z/n_k in index order, one row each."""
    return np.stack(np.unravel_index(np.arange(math.prod(orders)), orders), axis=-1)


def _difference_indices(orders, xs):
    """Index of t - x for every point t (rows) and every index x of ``xs``
    (columns), from coordinates."""
    C = _coords(orders)
    moved = (C[:, None, :] - C[xs][None, :, :]) % np.array(orders)
    return np.ravel_multi_index(tuple(np.moveaxis(moved, -1, 0)), orders)


def _characters(orders, ws):
    """<w, t> for every index w of ``ws`` (rows) and every point t (columns),
    from coordinates."""
    N = math.lcm(*orders)
    C = _coords(orders)
    E = (C[ws] * (N // np.array(orders))) @ C.T % N
    return np.exp(2j * np.pi * E / N)


def adjoint_full_scan(delta):
    """Oracle for ``gabor.adjoint_lattice``: every plane point tested against
    every element of Delta."""
    base = delta.base_group
    plane = base.plane()
    C = coords_matrix(plane.orders)
    S = C[delta.subgroup.index_array]
    k = base.rank
    N = base.exponent
    scale = np.array([N // n for n in base.orders], dtype=np.int64)
    X, W = C[:, :k], C[:, k:]
    Y, T = S[:, :k], S[:, k:]
    E = (X @ (T * scale).T - W @ (Y * scale).T) % N
    hits = np.nonzero(~E.any(axis=1))[0]
    elems = [plane.element_by_index(int(i)) for i in hits]
    return TfLattice(base, Subgroup.from_elements(plane, elems))


def coefficients_by_shifts(g, h, adj):
    """Oracle for ``gabor._adjoint_coefficients``: <g, pi(z) h> one shifted
    window at a time."""
    return np.array([g.inner(gl.tf_shift_plane(z, h)) for z in adj.elements])


def wexler_raz_residual_by_shifts(g, h, delta):
    """Oracle for the residual of ``gabor.wexler_raz_check``: the largest
    |<g, pi(z) h> - vol(Delta) [z = 0]| over the adjoint, one shifted window
    at a time."""
    kappa = float(delta.volume)
    residual = 0.0
    for z in gl.adjoint_lattice(delta).elements:
        target = kappa if z.is_zero() else 0.0
        residual = max(residual, abs(g.inner(gl.tf_shift_plane(z, h)) - target))
    return residual


def product_by_points(delta1, delta2):
    """Oracle for ``gabor._product_lattice``: delta1 x delta2 point by point."""
    grp1, grp2 = delta1.base_group, delta2.base_group
    product = FiniteLcaGroup(grp1.orders + grp2.orders, grp1.weight * grp2.weight)
    plane = product.plane()
    elems = []
    for z1 in delta1.elements:
        x1, w1 = z1.coords[:grp1.rank], z1.coords[grp1.rank:]
        for z2 in delta2.elements:
            x2, w2 = z2.coords[:grp2.rank], z2.coords[grp2.rank:]
            elems.append(plane.element(x1 + x2 + w1 + w2))
    return TfLattice(product, Subgroup.from_elements(plane, elems))


def separable_by_points(lam, dual_part):
    """Oracle for ``TfLattice.separable``: Lambda x dual_part point by point."""
    plane = lam.group.plane()
    elems = [plane.element(x.coords + w.coords)
             for x in lam.elements for w in dual_part.elements]
    return TfLattice(lam.group, Subgroup.from_elements(plane, elems))


def product_indices_by_points(delta1, delta2):
    """Oracle for the plane indices of ``gabor._product_lattice``: those of
    delta1 x delta2, delta1-major and so unsorted."""
    grp1, grp2 = delta1.base_group, delta2.base_group
    plane = FiniteLcaGroup(grp1.orders + grp2.orders).plane()
    k1, k2 = grp1.rank, grp2.rank
    return [plane.element(z1.coords[:k1] + z2.coords[:k2] + z1.coords[k1:] + z2.coords[k2:]).index
            for z1 in delta1.elements for z2 in delta2.elements]


def commutation_exponent_by_coords(z, w):
    """Oracle for ``gabor.commutation_exponent``: the exact commutation
    exponent summed one coordinate at a time."""
    k = len(z.coords) // 2
    x, omega = z.coords[:k], z.coords[k:]
    y, tau = w.coords[:k], w.coords[k:]
    grp = z.group
    N = grp.exponent
    e = 0
    for i in range(k):
        n = grp.orders[i]
        e += (tau[i] * x[i] - omega[i] * y[i]) * (N // n)
    return e % N, N


def push_by_characters(group, finite_sub, lam, quot_vals):
    """Oracle for ``gabor.push_finite_subgroup``: the quotient Fourier
    transform taken one character and one coset representative at a time,
    repeated on every coset of F_perp in the dual group, and transformed back
    with the character matrix.  The sqrt(|F|) that makes the quotient
    transform unitary and the 1/sqrt(|F|) of the lift across |F| cosets
    cancel."""
    reps = gl.coset_transversal(group, finite_sub)
    f_perp = gl.annihilator(finite_sub)
    dual = group.dual()
    shifts = gl.coset_transversal(dual, f_perp)
    gamma = np.zeros(dual.cardinality, dtype=np.complex128)
    for ch in f_perp.elements:
        acc = 0.0 + 0.0j
        for i, rep in enumerate(reps):
            e, N = pairing_exponent(ch, rep)
            acc += quot_vals[i] * np.exp(-2j * np.pi * (e / N))
        for shift in shifts:
            gamma[(shift + ch).index] = acc
    every = np.arange(group.cardinality)
    return Window(group, float(dual.weight) * (gamma @ _characters(group.orders, every)))


def gram_defect_of_vectors(group, vectors):
    """max |Gram - I| of the given vectors under the Haar weight of ``group``."""
    V = np.array(vectors).T
    gram = float(group.weight) * (V.conj().T @ V)
    return float(np.max(np.abs(gram - np.eye(V.shape[1]))))


def lift_defect_by_elements(group, sub, values, lam):
    """Oracle for the Gram check of ``gabor.lift_finite_index``: identity
    defect of the system on ``sub`` over lam x (lam_perp modulo sub_perp),
    one element and one character at a time."""
    ann_sub = gl.annihilator(sub)
    taken, char_reps = set(), []
    for ch in gl.annihilator(lam).elements:
        if ch.index in taken:
            continue
        char_reps.append(ch)
        taken.update((ch + s).index for s in ann_sub.elements)
    pos = {e.coords: i for i, e in enumerate(sub.elements)}
    vectors = []
    for lam_el in lam.elements:
        for ch in char_reps:
            vec = np.zeros(sub.order, dtype=np.complex128)
            for i, t in enumerate(sub.elements):
                e, N = pairing_exponent(ch, t)
                vec[i] = np.exp(2j * np.pi * (e / N)) * values[pos[(t - lam_el).coords]]
            vectors.append(vec)
    return gram_defect_of_vectors(group, vectors)


def quotient_defect_by_elements(group, finite_sub, lam, quot_vals):
    """Oracle for the Gram check of ``gabor.push_finite_subgroup``: identity
    defect of the quotient system over p(lam) x p(lam)_perp on G/F, one coset
    and one character at a time."""
    reps = gl.coset_transversal(group, finite_sub)
    coset_pos = {(rep + s).coords: i for i, rep in enumerate(reps) for s in finite_sub.elements}
    lam_reps, covered = [], set()
    for el in lam.elements:
        if el.coords in covered:
            continue
        lam_reps.append(el)
        covered.update((el + s).coords for s in finite_sub.elements)
    vectors = []
    for lam_el in lam_reps:
        for ch in gl.annihilator(lam).elements:
            vec = np.zeros(len(reps), dtype=np.complex128)
            for i, rep in enumerate(reps):
                e, N = pairing_exponent(ch, rep)
                vec[i] = np.exp(2j * np.pi * (e / N)) * quot_vals[coset_pos[(rep - lam_el).coords]]
            vectors.append(vec)
    return gram_defect_of_vectors(group, vectors)


def janssen_by_scatter_loop(g, h, delta):
    """Oracle for ``gabor.janssen_operator``: one scatter of a shifted
    character column per adjoint point, with the coefficients <h, pi(z) g>
    of ``coefficients_by_shifts``."""
    card = g.group.cardinality
    CHI, ADD = char_table(g.group.orders), add_index_table(g.group.orders)
    adj = gl.adjoint_lattice(delta)
    cols = np.arange(card)
    J = np.zeros((card, card), dtype=np.complex128)
    for x_idx, w_idx, c in zip(adj.x_indices, adj.w_indices, coefficients_by_shifts(h, g, adj)):
        rows = ADD[cols, x_idx]
        J[rows, cols] += c * CHI[w_idx, rows]
    return J / float(delta.volume)


def stft_by_dense_product(f, g):
    """Oracle for ``gabor.stft``: the sum over t as a product with the
    character matrix, both built from coordinates."""
    orders = f.group.orders
    every = np.arange(f.group.cardinality)
    M = f.values[:, None] * np.conj(g.values[_difference_indices(orders, every)])
    return (np.conj(_characters(orders, every)) @ M).T * float(f.group.weight)


def frame_operator_by_columns(g, h, delta):
    """Oracle for ``gabor.frame_operator``: S = weight * Q P^H, the sum over
    Delta of the columns P[:, z] = pi(z) g and Q[:, z] = pi(z) h, with
    (pi(x, w) f)(t) = <w, t> f(t - x) built from coordinates."""
    orders = g.group.orders
    x_idx, w_idx = np.divmod(delta.subgroup.index_array, g.group.cardinality)
    chars, moved = _characters(orders, w_idx).T, _difference_indices(orders, x_idx)
    P = chars * g.values[moved]
    Q = P if h is g else chars * h.values[moved]
    return float(g.group.weight) * (Q @ P.conj().T)


def symmetrized_delta_side(g, delta):
    """Oracle for the Walnut blocks behind ``gabor.frame_bounds`` and
    ``gabor.canonical_dual``: the dense sum over Delta, symmetrized for
    eigvalsh and solve."""
    S = frame_operator_by_columns(g, g, delta)
    return 0.5 * (S + S.conj().T)


# --- zak ----------------------------------------------------------------------


def quasiperiodicity_full_scan(grid):
    """Oracle for ``zak.quasiperiodicity_residual``: every pair (l, t) of
    lam x lam_perp, each gathering a full plane."""
    orders = grid.window_group.orders
    ADD, CHI = add_index_table(orders), char_table(orders)
    F = grid.values
    residual = 0.0
    for l in grid.lattice.index_array:
        factor = np.conj(CHI[:, l])[None, :]  # conj(<w, l>) per column w
        for t in gl.annihilator(grid.lattice).index_array:
            shifted = F[np.ix_(ADD[:, l], ADD[:, t])]
            residual = max(residual, float(np.max(np.abs(shifted - factor * F))))
    return residual


# --- padic --------------------------------------------------------------------


def det_by_forward_elimination(A):
    """Oracle for ``RationalMatrix.det``: the determinant by its own
    forward-elimination pass."""
    n = A.n_rows
    m = [list(row) for row in A.entries]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def inverse_by_gauss_jordan(A):
    """Oracle for ``RationalMatrix.inverse``: Gauss-Jordan on [A | I]."""
    n = A.n_rows
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A.entries)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return RationalMatrix.from_rows([row[n:] for row in m])


# --- adeles and transference --------------------------------------------------


def transference_lattice_by_points(delta1, M, d):
    """Oracle for the product lattice of ``gabor.finite_transference_check``:
    delta1 x (K x K_perp) over the compact-open surrogate, point by point."""
    _, K, K_perp = compact_open_surrogate(M, d)
    return product_by_points(delta1, separable_by_points(K, K_perp))


def product_residual_by_shifts(g, h, delta1, M, d):
    """Oracle for the product residual of ``gabor.finite_transference_check``:
    the product lattice built point by point, its adjoint scanned, and
    <g~, pi(z) h~> taken one shifted window at a time."""
    k = g.group.rank
    _, K, _ = compact_open_surrogate(M, d)
    one_k = gl.indicator_window(K)
    lattice = transference_lattice_by_points(delta1, M, d)
    g_t = Window(lattice.base_group, np.kron(g.values, one_k.values))
    h_t = Window(lattice.base_group, np.kron(h.values, one_k.values))
    kappa = float(delta1.volume)
    residual = 0.0
    for z in gl.adjoint_lattice(lattice).elements:
        base_zero = not any(z.coords[:k]) and not any(z.coords[k + 1:2 * k + 1])
        target = kappa if base_zero else 0.0
        residual = max(residual, abs(g_t.inner(gl.tf_shift_plane(z, h_t)) - target))
    return residual


def lattice_equality_by_inverse(a, b):
    """Oracle for ``adeles.lattice_equality``: compose A1^{-1} with A2 at
    every place, then test that the common component R lies in GL_n(Z(S)):
    every entry of R and 1/det R has a denominator that divides a power of
    the product of the primes of S."""
    if a.dim != b.dim:
        return False
    m = a.automorphism.inverse().compose(b.automorphism)
    r = m.a_inf
    if any(m.component(p) != r for p in a.place_set):
        return False
    radical = math.prod(a.place_set.primes)

    def in_z_s(value):
        den = value.denominator
        while (common := math.gcd(den, radical)) > 1:
            den //= common
        return den == 1

    return in_z_s(1 / r.det) and all(in_z_s(v) for row in r.entries for v in row)


def base_side_by_vectors(g, h, delta1, tol):
    """Oracle for the base verdict of ``gabor.finite_transference_check``:
    the reconstruction checked one basis vector at a time, independent of
    ``frame_operator``."""
    G = g.group
    card = G.cardinality
    worst = 0.0
    for j in range(card):
        e = np.zeros(card, dtype=complex)
        e[j] = 1.0
        f = Window(G, e)
        out = np.zeros(card, dtype=complex)
        for z in delta1.elements:
            shifted_g = gl.tf_shift_plane(z, g)
            shifted_h = gl.tf_shift_plane(z, h)
            out += f.inner(shifted_g) * shifted_h.values
        worst = max(worst, float(np.max(np.abs(out - e))))
    return worst <= tol


def product_side_by_plane_scan(g, h, delta1, M, d, tol):
    """Oracle for the product verdict of ``gabor.finite_transference_check``:
    a full-plane scan, the batch STFT plus a complex-arithmetic commutant
    mask, fully independent of the exact-integer adjoint computation."""
    base = g.group
    H, K, K_perp = compact_open_surrogate(M, d)
    one_k = gl.indicator_window(K)
    product = FiniteLcaGroup(base.orders + H.orders, base.weight * H.weight)
    g_t = Window(product, np.kron(g.values, one_k.values))
    h_t = Window(product, np.kron(h.values, one_k.values))
    card = product.cardinality
    CHI = char_table(product.orders)
    # commutant of the product lattice, from its generators
    gen_pairs = []
    k = base.rank
    for zgen in delta1.subgroup.generators:
        x = zgen.coords[:k] + (0,)
        w = zgen.coords[k:] + (0,)
        gen_pairs.append((x, w))
    gen_pairs.append(((0,) * k + (d % M,), (0,) * (k + 1)))
    gen_pairs.append(((0,) * (k + 1), (0,) * k + ((M // d) % M,)))
    mask = np.ones((card, card), dtype=bool)
    for (y, tau) in gen_pairs:
        y_idx = product.element(y).index
        tau_idx = product.element(tau).index
        defect = CHI[tau_idx, :][:, None] * np.conj(CHI[:, y_idx])[None, :]
        mask &= np.abs(defect - 1.0) < 1e-9
    V = gl.stft(g_t, h_t)  # V[x, w] = <g_t, pi(x, w) h_t>
    vol = float(delta1.volume)
    coords = coords_matrix(product.orders)
    base_zero_x = ~coords[:, :k].any(axis=1)
    worst = 0.0
    for x_idx in range(card):
        for w_idx in range(card):
            if not mask[x_idx, w_idx]:
                continue
            target = vol if (base_zero_x[x_idx] and base_zero_x[w_idx]) else 0.0
            worst = max(worst, abs(V[x_idx, w_idx] - target))
    return worst <= tol


# --- the replaced literal readers ---------------------------------------------


def parse_coord_tuples_by_findall(text: str, cast=int) -> list[tuple]:
    """Oracle for ``groups.parse_coord_tuples``: the regex reader it replaced."""
    body = text.strip()
    if body.startswith("gens="):
        body = body[len("gens="):]
    tuples = re.findall(r"\(([^()]*)\)", body)
    if tuples:
        out = []
        for t in tuples:
            items = [s for s in t.split(",") if s.strip() != ""]
            out.append(tuple(cast(s) for s in items))
        return out
    if body == "":
        return []
    return [(cast(s),) for s in body.split(",")]


def top_level_groups(body: str) -> list[str]:
    """Oracle for the generator split of ``cli.parse_lattice_literal``: the
    top-level parenthesized groups of a 'plane-gens=' body."""
    groups = []
    depth = 0
    start = end = 0
    for i, ch in enumerate(body):
        if ch == "(":
            if depth == 0:
                gap = body[end:i].strip()
                if gap and not (groups and gap in (";", "x")):
                    raise ValueError(f"unexpected {gap!r} in plane generators {body!r}")
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {body!r}")
            if depth == 0:
                groups.append(body[start:i + 1])
                end = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {body!r}")
    if not groups:
        raise ValueError(f"expected plane generators such as ((1),(0)), got {body!r}")
    if body[end:].strip():
        raise ValueError(f"unexpected {body[end:].strip()!r} in plane generators {body!r}")
    return groups


def parse_plane_gens_by_groups(group: FiniteLcaGroup, text: str) -> gabor.TfLattice:
    """Oracle for ``cli.parse_lattice_literal``: the 'plane-gens=' branch of
    the replaced lattice reader."""
    if not text.strip().startswith("plane-gens="):
        raise ValueError(f"unknown lattice literal {text!r}")
    body = text.strip()[len("plane-gens="):].strip()
    if body == "(())":
        return gabor.TfLattice.from_plane_generators(group, [])
    k = group.rank
    generators = []
    for token in top_level_groups(body):
        inner = token[1:-1].strip()
        tuples = parse_coord_tuples_by_findall(inner)
        if len(tuples) == 2:
            x, w = tuples
        elif len(tuples) == 1 and len(tuples[0]) == 2 * k:
            x, w = tuples[0][:k], tuples[0][k:]
        elif not tuples:
            flat = tuple(int(v) for v in inner.split(",") if v.strip() != "")
            if len(flat) != 2 * k:
                raise ValueError(f"plane generator needs {2 * k} coordinates: {token!r}")
            x, w = flat[:k], flat[k:]
        else:
            raise ValueError(f"cannot read plane generator {token!r}")
        if len(x) != k or len(w) != k:
            raise ValueError(f"plane generator needs {k}+{k} coordinates: {token!r}")
        generators.append((tuple(x), tuple(w)))
    return gabor.TfLattice.from_plane_generators(group, generators)


def parse_adele_vector_by_strip(place_set, text):
    """Oracle for ``cli.parse_adele_vector``: the replaced reader, which
    strips brackets instead of matching them."""
    body = text.strip()
    if body.startswith("diag="):
        values = [_parse_rational(v) for v in body[len("diag="):].strip().strip("()").split(",")]
        return adeles.AdeleVector.diagonal(place_set, values)
    comps = {}
    seen = set()
    for item in body.split(";"):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("inf", "default"):
            key = int(key)
        adeles._refuse_repeated(key, seen)
        comps[key] = [_parse_rational(v) for v in value.strip().strip("()").split(",")]
    inf = comps.pop("inf", None)
    default = comps.pop("default", None)
    if inf is None:
        raise ValueError("adele vector needs an inf=(...) component")
    return adeles.AdeleVector.create(place_set, inf, comps, default=default)


def parse_matrix_literal_by_rows(text: str) -> RationalMatrix:
    """Oracle for ``adeles._parse_matrix_literal``: the replaced row-regex reader."""
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ValueError(f"matrix literal must look like [[..],[..]]: {text!r}")
    rows = re.findall(r"\[([^\[\]]*)\]", body)
    parsed = []
    for row in rows:
        parsed.append([_parse_rational(v) for v in row.split(",") if v.strip() != ""])
    return RationalMatrix.from_rows(parsed)


# --- route = oracle on a seeded pool ------------------------------------------


def within(tol):
    """Comparison of a row: equal shapes, and entries within ``tol``."""
    def compare(fast, slow):
        assert fast.shape == slow.shape
        assert np.max(np.abs(fast - slow)) <= tol
    return compare


def adjoint_coefficient_pool():
    """(g, h, adjoint) of the 20 seeded Janssen triples of seed 23."""
    return [(g, h, gl.adjoint_lattice(delta))
            for g, h, delta in seeded_janssen_instances(20, seed=23, max_card=36)]


def janssen_pool():
    """The 30 seeded Janssen triples of seed 46, and a seeded lattice, the
    full plane and the time axis on four weighted groups (seed 47)."""
    cases = list(seeded_janssen_instances(30, seed=46, max_card=36))
    rng = np.random.default_rng(47)
    for orders, weight in [((6,), Fraction(1, 3)), ((2, 4), Fraction(5, 2)),
                           ((3, 3), Fraction(1, 9)), ((2, 2, 2), 1)]:
        G = FiniteLcaGroup(orders, weight)
        g, h = gl.random_window(G, rng), gl.random_window(G, rng)
        for delta in (random_plane_lattice(G, rng), TfLattice.full_plane(G),
                      TfLattice.time_axis(G)):
            cases.append((g, h, delta))
    assert any(g.group.rank == 2 for g, _, _ in cases)
    return cases


def stft_pool():
    """Two seeded windows on each of three groups of 256 points (seed 48)."""
    rng = np.random.default_rng(48)
    cases = []
    for G in (Z(256), Z(16, 16), FiniteLcaGroup((4, 64), Fraction(1, 8))):
        cases.append((gl.random_window(G, rng), gl.random_window(G, rng)))
    return cases


#: (route, oracle, pool, comparison): ``route(*args)`` and ``oracle(*args)``
#: for every ``args`` of ``pool()`` must pass ``comparison(fast, slow)``.
ROWS = [
    (gabor._adjoint_coefficients, coefficients_by_shifts, adjoint_coefficient_pool,
     within(1e-12)),
    (gabor.janssen_operator, janssen_by_scatter_loop, janssen_pool, within(1e-12)),
    (gabor.stft, stft_by_dense_product, stft_pool, within(1e-12)),
]
