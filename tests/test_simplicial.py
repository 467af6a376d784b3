"""Simplicial complexes, stratifications, and constructions."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ihcalc.exactalg import INTEGERS, PrimeField, RATIONALS
from ihcalc.ihcore import Perversity, ih_homology, ordinary_homology
from ihcalc.simplicial import (
    SimplicialComplex,
    SimplicialError,
    StratifiedComplex,
    barycentric_subdivision,
    build_complex,
    check_full_skeleta,
    cone,
    connected_sum,
    contract_edges,
    orientation_signs,
    product,
    product_complex,
    quotient,
    relabel_canonical,
    simplex_key,
    simplicial_link,
    sorted_vertices,
    stratum_components,
    suspension,
    verify_pseudomanifold,
    vertex_ranks,
)
from ihcalc import catalog
from ihcalc.catalog import catalog_build
from ihcalc.witt import witt_condition_check


def sphere2():
    # boundary of the 3-simplex
    return build_complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    )


class TestComplexBasics:
    def test_boundary_tetrahedron_f_vector(self):
        K = sphere2()
        assert K.f_vector() == (4, 6, 4)  # trivial
        assert K.euler_characteristic() == 2

    def test_point(self):
        K = build_complex([[0]])
        assert K.f_vector() == (1,)
        assert K.dimension == 0

    def test_faces_are_closed(self):
        K = sphere2()
        for s in K.faces(2):
            for v in s:
                assert (s - {v}) in K

    def test_catalog_rp2_f_vector(self):
        K = catalog_build("RP2").complex
        assert K.f_vector() == (6, 15, 10)  # derived: minimal triangulation
        assert K.euler_characteristic() == 1

    def test_link_of_vertex_in_circle(self):
        K = build_complex([[0, 1], [1, 2], [0, 2]])
        L = K.link(frozenset([0]))
        assert L.f_vector() == (2,)

    def test_relabel_canonical_preserves_structure(self):
        K = catalog_build("T2").complex
        K2 = relabel_canonical(K)
        assert K2.f_vector() == K.f_vector()
        assert all(isinstance(v, int) for v in K2.vertices)

    def test_relabel_names_the_simplex_it_collapses(self):
        # a lone 2-simplex without its edges: no edge shows the collapse
        K = SimplicialComplex({2: {frozenset([0, 1, 2])}})
        with pytest.raises(SimplicialError, match=r"collapses \[0, 1, 2\]"):
            K.relabel({0: 0, 1: 0, 2: 2})


def brute_force_facets(K):
    """The definition: simplices that are a proper face of no simplex."""
    out = []
    for d in sorted(K.by_dim, reverse=True):
        for s in K.by_dim[d]:
            if not any(s < t for dd in K.by_dim if dd > d for t in K.by_dim[dd]):
                out.append(s)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
    )
)
def test_facets_match_definition(generators):
    # generators of mixed sizes, some nested, give impure complexes
    K = SimplicialComplex.from_maximal(generators)
    assert K.facets() == brute_force_facets(K)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
    )
)
def test_homogeneity_matches_facets(generators):
    # the degree-by-degree face count agrees with the facet definition,
    # and the facets of lower dimension still head the failures
    K = SimplicialComplex.from_maximal(generators)
    impure = [f for f in K.facets() if len(f) - 1 != K.dimension]
    rep = verify_pseudomanifold(StratifiedComplex.trivial(K))
    assert rep.dimensional_homogeneity == (not impure)
    assert rep.failures[: len(impure)] == impure


@pytest.mark.parametrize("generators, failures", [
    # a dangling edge on a triangle: the closure misses an edge
    ([[0, 1, 2], [2, 3]], [[2, 3], [0, 1], [0, 2], [1, 2], [2, 3]]),
    # a dangling triangle on a tetrahedron: it misses a triangle
    ([[0, 1, 2, 3], [3, 4, 5]],
     [[3, 4, 5], [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [3, 4, 5]]),
    # an isolated vertex beside a tetrahedron: it misses a vertex
    ([[0, 1, 2, 3], [7]], [[7], [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    # a dangling edge on the boundary of a tetrahedron
    ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [3, 4]], [[3, 4], [3, 4]]),
], ids=["edge-on-triangle", "triangle-on-3-complex", "vertex", "edge-on-sphere"])
def test_impure_in_each_degree(generators, failures):
    rep = verify_pseudomanifold(StratifiedComplex.trivial(build_complex(generators)))
    assert not rep.dimensional_homogeneity and not rep.face_regularity
    assert [sorted_vertices(f) for f in rep.failures] == failures
    assert rep.failure_message() == (
        "input is not a pseudomanifold: failed dimensional homogeneity"
        f" and face regularity at {failures[0]}")


class TestVerification:
    def test_sphere_all_flags(self):
        rep = verify_pseudomanifold(StratifiedComplex.trivial(sphere2()))
        assert rep.is_pseudomanifold
        assert rep.orientable and rep.irreducible

    def test_rp2_not_orientable(self):
        rep = verify_pseudomanifold(catalog_build("RP2"))
        assert rep.is_pseudomanifold
        assert not rep.orientable

    def test_klein_not_orientable(self):
        rep = verify_pseudomanifold(catalog_build("Klein"))
        assert rep.is_pseudomanifold and not rep.orientable

    def test_suspension_rp2_flags(self):
        # orientation is tested away from the singular set, where the
        # suspension of a non-orientable surface still fails
        rep = verify_pseudomanifold(catalog_build("S_RP2"))
        assert rep.is_pseudomanifold
        assert not rep.orientable
        assert rep.irreducible

    def test_two_spheres_not_irreducible(self):
        A = sphere2()
        B = sphere2().relabel({i: i + 10 for i in range(4)})
        rep = verify_pseudomanifold(StratifiedComplex.trivial(A.union(B)))
        assert rep.is_pseudomanifold is False or not rep.irreducible

    @pytest.mark.parametrize("name", ["T2", "genus2", "L3_1", "CP2"])
    def test_orientation_signs_cancel_on_every_face(self, name):
        # a coherent orientation induces opposite orientations on each
        # (n-1)-face from its two cofaces
        K = catalog_build(name).complex
        signs = orientation_signs(K)
        assert set(signs) == K.faces(K.dimension)
        induced = {}
        for t, sign in signs.items():
            for j, v in enumerate(sorted_vertices(t)):
                induced.setdefault(t - {v}, []).append(sign * (-1) ** j)
        assert len(induced) == len(K.faces(K.dimension - 1))
        assert all(sorted(s) == [-1, 1] for s in induced.values())

    @pytest.mark.parametrize("name", ["RP2", "Klein"])
    def test_orientation_signs_non_orientable(self, name):
        assert orientation_signs(catalog_build(name).complex) is None

    @pytest.mark.parametrize("name", ["T2", "genus2", "L3_1", "J_L3", "S_T2"])
    def test_orientation_signs_form_a_cycle(self, name):
        # sum of signs[t] * boundary(t) over Z, the boundary taken on the
        # sorted vertex ordering, is the zero chain
        K = catalog_build(name).complex
        signs = orientation_signs(K)
        chain = {}
        for t, sign in signs.items():
            for j, v in enumerate(sorted_vertices(t)):
                f = t - {v}
                chain[f] = chain.get(f, 0) + sign * (-1) ** j
        assert set(signs) == K.faces(K.dimension)
        assert not any(chain.values())
        # the first top simplex in `simplex_key` order is positive
        assert signs[min(signs, key=simplex_key)] == 1

    @pytest.mark.parametrize("name", ["RP2", "Klein"])
    def test_non_orientable_report(self, name):
        assert verify_pseudomanifold(catalog_build(name)).orientable is False

    def test_codim_one_stratum_rejected_flag(self):
        K = sphere2()
        edge = build_complex([[0, 1]])
        X = StratifiedComplex.from_skeleton_map(K, {1: edge})
        rep = verify_pseudomanifold(X)
        assert not rep.no_codim_one
        assert rep.failure_message().endswith("X^{n-1} != X^{n-2}")

    def test_below_formal_dimension_lists_every_facet(self):
        # no (n-1)-face and no n-simplex: homogeneity still names the facets
        K = build_complex([[0, 1], [1, 2], [0, 2]])
        rep = verify_pseudomanifold(StratifiedComplex.trivial(K, 3))
        assert not rep.dimensional_homogeneity and rep.face_regularity
        assert sorted(map(sorted_vertices, rep.failures)) == [[0, 1], [0, 2], [1, 2]]
        assert rep.failure_message() == (
            "input is not a pseudomanifold: failed dimensional homogeneity"
            f" at {sorted_vertices(rep.failures[0])}")


E = SimplicialComplex.empty()


def _points(*vs):
    return SimplicialComplex.from_maximal([{v} for v in vs])


class TestStratifiedComplexRefusals:
    @pytest.mark.parametrize("skeleta,message", [
        ([E, sphere2()], "need 3 skeleta for formal dimension 2, got 2"),
        ([E, E, build_complex([[0, 1, 2]])], "top skeleton must be the whole complex"),
        ([build_complex([[0, 1]])] * 2 + [sphere2()], r"skeleton 0 has dimension > 0"),
        ([_points(0), E, sphere2()], "skeleton 0 not contained in skeleton 1"),
        ([_points(9), _points(9), sphere2()], "skeleton 0 not a subcomplex"),
    ], ids=["count", "top", "dimension", "nested", "subcomplex"])
    def test_refusal(self, skeleta, message):
        with pytest.raises(SimplicialError, match=message):
            StratifiedComplex(sphere2(), skeleta, 2)


# S2 with the two point strata 0 and 1, whose edge [0, 1] is not in X^0
NOT_FULL = StratifiedComplex.from_skeleton_map(sphere2(), {0: _points(0, 1)}, 2)


class TestFullSkeleta:
    def test_missing_edge_is_named(self):
        with pytest.raises(SimplicialError, match=r"skeleton 0 .*\[0, 1\] lies on its vertices"):
            check_full_skeleta(NOT_FULL)

    def test_missing_triangle_is_named(self):
        # X^1 the boundary of the triangle [0, 1, 2] of the 3-sphere
        K = build_complex([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4],
                           [0, 2, 3, 4], [1, 2, 3, 4]])
        X = StratifiedComplex.from_skeleton_map(
            K, {1: build_complex([[0, 1], [1, 2], [0, 2]])}, 3)
        with pytest.raises(SimplicialError, match=r"skeleton 1 .*\[0, 1, 2\]"):
            check_full_skeleta(X)

    def test_tables_and_witt_check_refuse(self):
        with pytest.raises(SimplicialError, match=r"\[0, 1\]"):
            ih_homology(NOT_FULL, Perversity.zero(2), RATIONALS)
        with pytest.raises(SimplicialError, match=r"\[0, 1\]"):
            ih_homology(NOT_FULL, Perversity.zero(2), INTEGERS)
        with pytest.raises(SimplicialError, match=r"\[0, 1\]"):
            witt_condition_check(NOT_FULL, RATIONALS)

    def test_subdivision_makes_the_skeleta_full(self):
        X = barycentric_subdivision(NOT_FULL)
        check_full_skeleta(X)
        assert ih_homology(X, Perversity.zero(2), RATIONALS).dims == (1, 0, 1)


class TestConeSuspension:
    def test_cone_f_vector_identity(self):
        K = sphere2()
        c = cone(StratifiedComplex.trivial(K))
        fk = K.f_vector()
        fc = c.complex.f_vector()
        assert fc[0] == fk[0] + 1
        for k in range(1, len(fk)):
            assert fc[k] == fk[k] + fk[k - 1]
        assert fc[len(fk)] == fk[-1]

    def test_cone_skeleta(self):
        c = cone(catalog_build("RP2"))
        assert c.n == 3
        # lowest skeleta reduce to the apex: the base is trivially
        # filtered, so its lower skeleta are empty
        assert len(c.skeleton(0)) == 1
        assert c.skeleton(1).f_vector() == (1,)
        assert c.skeleton(3) == c.complex

    def test_suspension_f_vector(self):
        K = sphere2()
        s = suspension(StratifiedComplex.trivial(K))
        fk = K.f_vector()
        fs = s.complex.f_vector()
        assert fs[0] == fk[0] + 2
        for k in range(1, len(fk)):
            assert fs[k] == fk[k] + 2 * fk[k - 1]
        assert fs[len(fk)] == 2 * fk[-1]

    def test_iterated_suspension_fresh_labels(self):
        ss = suspension(suspension(StratifiedComplex.trivial(sphere2())))
        assert ss.n == 4
        rep = verify_pseudomanifold(ss)
        assert rep.is_pseudomanifold and rep.orientable

    def test_suspension_skeleton_contains_poles(self):
        s = catalog_build("S_RP2")
        assert len(s.skeleton(0).vertices) == 2


class TestProduct:
    def test_torus_f_vector(self):
        K = catalog_build("T2").complex
        assert K.f_vector() == (9, 27, 18)
        assert K.euler_characteristic() == 0

    def test_product_homology_kunneth(self):
        # derived: H(S2 x S1) = (1,1,1,1) over Q
        S2 = StratifiedComplex.trivial(sphere2())
        S1 = build_complex([[0, 1], [1, 2], [0, 2]])
        P = product(S2, S1)
        assert P.n == 3
        t = ordinary_homology(P.complex, RATIONALS)
        assert tuple(t.dim(i) for i in range(4)) == (1, 1, 1, 1)

    def test_product_skeleta_shift(self):
        c = cone(StratifiedComplex.trivial(build_complex([[0, 1], [1, 2], [0, 2]])))
        S1 = build_complex([[10, 11], [11, 12], [10, 12]])
        P = product(c, S1)
        assert P.n == 3
        # singular stratum = apex x S1, a circle
        sing = P.skeleton(1)
        assert sing.euler_characteristic() == 0
        assert sing.dimension == 1


class TestConnectedSum:
    def test_sphere_sum_is_sphere(self):
        A = sphere2()
        B = sphere2()
        S = connected_sum(A, B)
        assert S.euler_characteristic() == 2
        rep = verify_pseudomanifold(StratifiedComplex.trivial(S))
        assert rep.is_pseudomanifold and rep.orientable and rep.irreducible

    def test_genus2_first_betti(self):
        K = catalog_build("genus2").complex
        t = ordinary_homology(K, RATIONALS)
        assert (t.dim(0), t.dim(1), t.dim(2)) == (1, 4, 1)

    def test_cp2_sum_middle_betti(self):
        K = catalog_build("CP2#CP2").complex
        t = ordinary_homology(K, RATIONALS)
        assert tuple(t.dim(i) for i in range(5)) == (1, 0, 2, 0, 1)

    def test_deterministic(self):
        A = sphere2()
        B = sphere2()
        assert connected_sum(A, B) == connected_sum(A, B)

    @pytest.mark.parametrize("name", ["S2", "T2"])
    def test_independent_of_how_the_labels_sort(self, name):
        # the sum must not depend on how M's labels sort against the
        # labels it makes for itself
        M = catalog_build(name).complex
        Z = M.relabel({v: ("z", v) for v in M.vertices})
        assert connected_sum(Z, Z) == connected_sum(M, M)


class TestLinks:
    def test_vertex_link_in_3_manifold_is_sphere(self):
        X = catalog_build("L3_1")
        v = frozenset([sorted(X.complex.vertices)[0]])
        L = simplicial_link(X, v)
        assert L.n == 2
        t = ordinary_homology(L.complex, RATIONALS)
        assert (t.dim(0), t.dim(1), t.dim(2)) == (1, 0, 1)

    def test_apex_link_of_cone(self):
        X = catalog_build("cone_RP2")
        apex = sorted(X.skeleton(0).vertices, key=str)[0]
        L = simplicial_link(X, [apex])
        assert L.complex.f_vector() == (6, 15, 10)
        assert L.n == 2

    def test_link_rejects_nonsimplex(self):
        X = catalog_build("S2")
        with pytest.raises(SimplicialError):
            simplicial_link(X, [99])


class TestSubdivision:
    def test_sphere_sd_f_vector(self):
        sd = barycentric_subdivision(sphere2())
        # derived: 4 + 6 + 4 vertices, each triangle -> 6
        assert sd.f_vector() == (14, 36, 24)
        assert sd.euler_characteristic() == 2

    def test_homology_preserved(self):
        K = catalog_build("RP2").complex
        sd = barycentric_subdivision(K)
        a = ordinary_homology(K, PrimeField(2))
        b = ordinary_homology(sd, PrimeField(2))
        assert [a.dim(i) for i in range(3)] == [b.dim(i) for i in range(3)]

    def test_stratified_sd_ih_invariance(self):
        X = catalog_build("cone_RP2")
        sd = barycentric_subdivision(X)
        m = Perversity.lower_middle(3)
        for coeff in (RATIONALS, PrimeField(2), INTEGERS):
            a = ih_homology(X, m, coeff)
            b = ih_homology(sd, m, coeff)
            assert a.as_dict() == b.as_dict()


def reference_subdivision(K):
    """The barycentric subdivision with nested labels: each vertex is the
    simplex of K it stands for, each facet a flag of faces of a facet."""
    return SimplicialComplex.from_maximal(
        [[frozenset(perm[:k]) for k in range(1, len(perm) + 1)]
         for f in K.facets() for perm in permutations(f)])


def reference_stratified_subdivision(X):
    """Each skeleton subdivided on its own, its vertices named like those
    of the whole subdivision."""
    sd = reference_subdivision(X.complex)
    rank = vertex_ranks(sd)
    skeleta = [reference_subdivision(X.skeleton(i)).relabel(rank) for i in range(X.n)]
    return StratifiedComplex(sd.relabel(rank), skeleta + [sd.relabel(rank)], X.n)


# vertex labels of three kinds; str and tuple labels order the vertices
# otherwise than the integers do
LABELS = {"int": lambda v: v, "str": str, "tuple": lambda v: (v % 3, -v)}

small_complexes = st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
                           min_size=1, max_size=8).map(SimplicialComplex.from_maximal)


class TestSubdivisionMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(small_complexes, st.sampled_from(sorted(LABELS)))
    def test_random_complexes(self, K, kind):
        K = K.relabel({v: LABELS[kind](v) for v in K.vertices})
        assert barycentric_subdivision(K) == relabel_canonical(reference_subdivision(K))

    @pytest.mark.parametrize("name", ["cone_RP2", "S_RP2", "SS_RP2", "S_T2"])
    def test_catalog_skeleta(self, name):
        X = catalog_build(name)
        assert barycentric_subdivision(X) == reference_stratified_subdivision(X)

    @settings(max_examples=100, deadline=None)
    @given(small_complexes, st.data())
    def test_random_skeleta(self, K, data):
        # each skeleton the closure of some simplices of the one above
        skeleta = [K]
        for i in range(K.dimension - 1, -1, -1):
            pool = sorted((s for s in skeleta[0].all_simplices() if len(s) <= i + 1),
                          key=simplex_key)
            chosen = data.draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
            skeleta.insert(0, SimplicialComplex.from_maximal(chosen))
        X = StratifiedComplex(K, skeleta, K.dimension)
        assert barycentric_subdivision(X) == reference_stratified_subdivision(X)


class TestQuotientAndStrata:
    def test_complex_above_formal_dimension_rejected(self):
        # a filled triangle given formal dimension 1
        K = build_complex([[0, 1, 2]])
        with pytest.raises(SimplicialError, match="dimension above 1"):
            StratifiedComplex(K, [SimplicialComplex.empty(), K], 1)

    def test_quotient_collapse_raises(self):
        K = build_complex([[0, 1, 2]])
        with pytest.raises(SimplicialError):
            quotient(K, {1: 0})

    def test_stratum_components_suspension(self):
        X = catalog_build("S_RP2")
        comps = stratum_components(X, 0)
        assert len(comps) == 2
        top = stratum_components(X, 3)
        assert len(top) == 1

    def test_stratum_components_trivial_filtration(self):
        X = catalog_build("S2")
        assert len(stratum_components(X, 2)) == 1
        assert stratum_components(X, 0) == []


class _Glued(Exception):
    """Stops a catalog build at its quotient; args are (K, glue)."""


def glued(name, monkeypatch, rounds=None):
    """(K, glue) that a glued catalog build hands to `quotient`; with
    `rounds`, the build subdivides at most that many times: the calls of
    `_subdivide` after the first `rounds` hand their input back."""
    def stop(K, glue):
        raise _Glued(K, glue)

    monkeypatch.setattr(catalog, "quotient", stop)
    if rounds is not None:
        calls, subdivide = [], catalog._subdivide

        def counted(K, glue):
            calls.append(K)
            return subdivide(K, glue) if len(calls) <= rounds else (K, glue)

        monkeypatch.setattr(catalog, "_subdivide", counted)
    with pytest.raises(_Glued) as info:
        catalog.catalog_entry(name).build()
    return info.value.args


def orbit_counts(name, K, glue):
    """The closed-form face counts that the glued builds once certified
    their quotients by: lens spaces keep interior simplices, merge cap
    simplices in pairs and equator simplices in orbits of size p; the
    free involution of L2_1 halves every count; the swap of CP2 fixes
    the simplices on its diagonal and pairs the rest."""
    dims = range(K.dimension + 1)
    if name == "L2_1":
        return [len(K.faces(d)) // 2 for d in dims]
    if name == "CP2":
        fixed = {v for v, w in glue.items() if v == w}
        return [(len(K.faces(d)) + sum(s <= fixed for s in K.faces(d))) // 2 for d in dims]
    p = int(name[1])
    caps = [SimplicialComplex.from_maximal(gens) for gens in (
        [{"N", i, (i + 1) % p} for i in range(p)],
        [{"S", i, (i + 1) % p} for i in range(p)],
        [{i, (i + 1) % p} for i in range(p)],
    )]
    for _ in range(2):
        caps = [barycentric_subdivision(C) for C in caps]
    top, bottom, equator = caps
    out = []
    for d in dims:
        t, b, e = len(top.faces(d)), len(bottom.faces(d)), len(equator.faces(d))
        assert e % p == 0
        out.append((len(K.faces(d)) - t - b + e) + (t - e) + e // p)
    return out


def reference_lens_gluing(p):
    """(K, glue) for L(p,1) as the nested labels gave it: the bipyramid
    and its top cap subdivided twice, the twist lifted label by label,
    then every label replaced by its canonical rank."""
    N, S = "N", "S"
    K = SimplicialComplex.from_maximal([{N, S, i, (i + 1) % p} for i in range(p)])
    top = SimplicialComplex.from_maximal([{N, i, (i + 1) % p} for i in range(p)])
    for _ in range(2):
        K, top = reference_subdivision(K), reference_subdivision(top)

    def lift(y):
        return frozenset(map(lift, y)) if isinstance(y, frozenset) else S if y == N else (y + 1) % p

    rank = vertex_ranks(K)
    return K.relabel(rank), {rank[v]: rank[lift(v)] for v in top.vertices}


def reference_quotient(K, glue):
    """The quotient by union-find over the vertices and over all
    simplices, raising SimplicialError unless glue is an injective
    vertex map, simplicial on its domain, whose quotient identifies
    exactly the classes of s ~ glue(s)."""
    if not set(glue) | set(glue.values()) <= K.vertices:
        raise SimplicialError("not a vertex map")
    if len(set(glue.values())) != len(glue):
        raise SimplicialError("not injective")
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        a, b = sorted([find(a), find(b)], key=simplex_key)
        parent[b] = a

    for v, w in glue.items():
        union(frozenset([v]), frozenset([w]))
    for s in K.all_simplices():
        if len(s) > 1 and s <= glue.keys():
            t = frozenset(glue[v] for v in s)
            if t not in K:
                raise SimplicialError("non-simplex")
            union(s, t)
    name = {v: next(iter(find(frozenset([v])))) for v in K.vertices}
    images = {}
    for s in K.all_simplices():
        img = frozenset(name[v] for v in s)
        if len(img) != len(s):
            raise SimplicialError("collapse")
        images.setdefault(img, set()).add(find(s))
    if any(len(roots) > 1 for roots in images.values()):
        raise SimplicialError("merge")
    return SimplicialComplex.from_maximal(images)


class TestQuotientCertificate:
    def test_target_not_a_vertex(self):
        with pytest.raises(SimplicialError, match="not a map between vertices"):
            quotient(sphere2(), {0: 9})

    def test_glue_not_injective(self):
        with pytest.raises(SimplicialError, match="not injective"):
            quotient(sphere2(), {0: 2, 1: 2})

    def test_simplex_sent_to_a_non_simplex(self):
        path = build_complex([[0, 1], [1, 2], [2, 3]])
        with pytest.raises(SimplicialError, match=r"sends \[0, 1\] to a non-simplex"):
            quotient(path, {0: 1, 1: 3})

    def test_facet_collapse(self):
        with pytest.raises(SimplicialError, match="collapses"):
            quotient(build_complex([[0, 1, 2]]), {1: 0})

    def test_unglued_simplices_merged(self):
        # gluing opposite corners of a square also glues its sides
        square = build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
        with pytest.raises(SimplicialError, match="merges unglued 1-simplices"):
            quotient(square, {0: 2})

    def test_rotation_by_a_cycle(self):
        # a 9-gon turned by three steps: edges move in cycles of three
        nine = build_complex([[i, (i + 1) % 9] for i in range(9)])
        Q = quotient(nine, {i: (i + 3) % 9 for i in range(9)})
        assert Q == build_complex([[0, 1], [1, 2], [0, 2]])

    @pytest.mark.parametrize("name, rounds, refusal", [
        ("L3_1", 0, "collapses"),
        ("L5_1", 0, "collapses"),
        ("L3_1", 1, "merges unglued 3-simplices"),
        ("L5_1", 1, "merges unglued 3-simplices"),
        ("L2_1", 0, "merges unglued 3-simplices"),
        ("CP2", 0, "merges unglued 4-simplices"),
    ])
    def test_too_coarse_gluing_refused(self, name, rounds, refusal, monkeypatch):
        K, glue = glued(name, monkeypatch, rounds)
        with pytest.raises(SimplicialError, match=refusal):
            quotient(K, glue)

    @pytest.mark.parametrize("name", ["L2_1", "L3_1", "L5_1", "CP2"])
    def test_face_counts_equal_the_orbit_counts(self, name, monkeypatch):
        K, glue = glued(name, monkeypatch)
        counts = quotient(K, glue).f_vector()
        assert list(counts) == orbit_counts(name, K, glue)
        if name == "CP2":
            assert counts == (333, 3870, 12180, 14400, 5760)

    @pytest.mark.parametrize("p", [3, 5])
    def test_induced_map_is_the_nested_lift(self, p, monkeypatch):
        assert glued(f"L{p}_1", monkeypatch) == reference_lens_gluing(p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
                 min_size=1, max_size=8),
        st.permutations(range(7)),
        st.sets(st.integers(0, 6)),
        st.booleans(),
    )
    def test_random_gluings_match_the_reference(self, generators, perm, domain, symmetric):
        generators = set(generators)
        if symmetric:
            # closed under perm, of order at most 12, perm is simplicial on K
            for _ in range(12):
                generators |= {frozenset(perm[v] for v in s) for s in generators}
        K = SimplicialComplex.from_maximal(generators)
        glue = {v: perm[v] for v in domain & K.vertices if perm[v] in K.vertices}
        try:
            want = reference_quotient(K, glue)
        except SimplicialError:
            with pytest.raises(SimplicialError):
                quotient(K, glue)
        else:
            assert quotient(K, glue) == want


class TestContraction:
    def test_contract_sphere_to_boundary_simplex(self):
        sd = barycentric_subdivision(sphere2())
        small = contract_edges(sd)
        assert small.euler_characteristic() == 2
        rep = verify_pseudomanifold(StratifiedComplex.trivial(small))
        assert rep.is_pseudomanifold and rep.orientable
        assert small.f_vector()[0] <= sd.f_vector()[0]

    def test_contract_preserves_torus_homology(self):
        K = barycentric_subdivision(catalog_build("T2").complex)
        small = contract_edges(K)
        t = ordinary_homology(small, RATIONALS)
        assert (t.dim(0), t.dim(1), t.dim(2)) == (1, 2, 1)


# --- reference copies of the earlier kernels ---------------------------------
# `contract_edges` used to walk star(a) and sort its edges by `simplex_key`;
# `from_maximal` used to close the maximal list with a stack.  The current
# kernels must return exactly what these did.


def reference_contract_edges(K):
    simplices = set(K.all_simplices())
    idx = {}
    for s in simplices:
        for v in s:
            idx.setdefault(v, set()).add(s)
    changed = True
    while changed:
        changed = False
        edges = sorted((s for s in simplices if len(s) == 2), key=simplex_key)
        for e in edges:
            if e not in simplices:
                continue
            a, b = sorted_vertices(e)
            bb = {b}
            if any(
                b not in s
                and (s - {a}) | bb in simplices
                and s | bb not in simplices
                for s in idx[a]
            ):
                continue
            for s in list(idx[b]):
                simplices.discard(s)
                for v in s:
                    idx[v].discard(s)
                t = frozenset(a if v == b else v for v in s)
                if len(t) == len(s) and t not in simplices:
                    simplices.add(t)
                    for v in t:
                        idx.setdefault(v, set()).add(t)
            idx.pop(b, None)
            changed = True
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, set()).add(s)
    return SimplicialComplex(by_dim)


def reference_from_maximal(maximal):
    by_dim = {}
    seen = set()
    stack = [frozenset(m) for m in maximal]
    for m in stack:
        if not m:
            raise SimplicialError("empty simplex in maximal list")
    while stack:
        s = stack.pop()
        if s in seen or not s:
            continue
        seen.add(s)
        by_dim.setdefault(len(s) - 1, set()).add(s)
        if len(s) > 1:
            for v in s:
                f = s - {v}
                if f not in seen:
                    stack.append(f)
    return SimplicialComplex(by_dim)


def quotient_inputs(name, monkeypatch):
    """The complex a glued catalog build hands to `contract_edges`."""
    seen = []

    def record(K):
        seen.append(K)
        return contract_edges(K)

    monkeypatch.setattr(catalog, "contract_edges", record)
    catalog.catalog_entry(name).build()
    (K,) = seen
    return K


class TestContractionMatchesReference:
    @pytest.mark.parametrize("name", ["L2_1", "L3_1", "L5_1", "CP2"])
    def test_quotient_inputs(self, name, monkeypatch):
        K = quotient_inputs(name, monkeypatch)
        small = contract_edges(K)
        assert small == reference_contract_edges(K)
        assert small.f_vector() < K.f_vector()
        if name == "CP2":
            assert K.f_vector() == (333, 3870, 12180, 14400, 5760)

    @pytest.mark.parametrize("label", [
        lambda v: (v % 3, -v),
        lambda v: frozenset({v % 4, 100 + v}),
        lambda v: 7 * v + 3,
        lambda v: 37 * v % 1009,
    ], ids=["tuple", "frozenset", "gaps", "scattered-gaps"])
    def test_relabelled_torus(self, label):
        # labels whose canonical order is not the integer order, and
        # integer labels with gaps, as a quotient leaves them
        sd = barycentric_subdivision(catalog_build("T2").complex)
        K = sd.relabel({v: label(v) for v in sd.vertices})
        small = contract_edges(K)
        assert small == reference_contract_edges(K)
        assert small.f_vector()[0] < K.f_vector()[0]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
            min_size=1,
            max_size=12,
        )
    )
    def test_random_complexes(self, generators):
        K = SimplicialComplex.from_maximal(generators)
        assert contract_edges(K) == reference_contract_edges(K)


class TestFromMaximalMatchesReference:
    @pytest.mark.parametrize("maximal", [
        [{0, 1, 2, 3}, {3, 4}, {5}],
        [{0, 1, 2}, {0, 1}, {1}, {2, 3}],
        [{0, 1, 2}, {0, 1, 2}, {2, 1, 0}, {4, 5}, {5, 4}],
        [("a", 1), ("a", 2)],
        [],
    ], ids=["mixed", "nested", "duplicated", "labels", "none"])
    def test_lists(self, maximal):
        assert SimplicialComplex.from_maximal(maximal) == reference_from_maximal(maximal)

    def test_empty_simplex(self):
        with pytest.raises(SimplicialError, match="empty simplex in maximal list"):
            SimplicialComplex.from_maximal([{0, 1}, set()])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
            max_size=12,
        )
    )
    def test_random_lists(self, generators):
        assert SimplicialComplex.from_maximal(generators) == reference_from_maximal(generators)
