"""Perversities, allowability, and intersection homology tables."""

import pytest
from hypothesis import given, settings, strategies as st

from ihcalc.catalog import catalog_build
from ihcalc.exactalg import (
    ExactMatrix,
    INTEGERS,
    PrimeField,
    RATIONALS,
    kernel_image,
    make_field,
    rank,
    smith_normal_form,
)
from ihcalc import ihcore
from ihcalc.ihcore import (
    IHTable,
    Perversity,
    PerversityError,
    _ChainData,
    ih_homology,
    ordinary_homology,
    torsion_free_check,
    uct_violation_report,
)
from ihcalc.simplicial import (
    SimplicialComplex,
    StratifiedComplex,
    build_complex,
    cone,
    simplex_key,
    suspension,
    vertex_ranks,
)
from lattice_reference import (
    allowable,
    boundary_chain,
    boundary_matrix,
    intersection_chain_complex,
    stream_matrix,
)


class TestPerversity:
    def test_growth_constraint(self):
        Perversity((0, 1, 1, 2), 5)
        with pytest.raises(PerversityError):
            Perversity((0, 2), 3)  # jump of two
        with pytest.raises(PerversityError):
            Perversity((0, 1, 0), 4)  # decreasing
        with pytest.raises(PerversityError):
            Perversity((1,), 2)  # must start at 0

    def test_call_boundaries(self):
        p = Perversity((0, 1), 3)
        assert p(1) == 0 and p(0) == 0
        assert p(2) == 0 and p(3) == 1
        with pytest.raises(PerversityError):
            p(4)

    def test_standard_families(self):
        # trivial: closed forms of the four standard perversities
        assert Perversity.lower_middle(7).values == (0, 0, 1, 1, 2, 2)
        assert Perversity.upper_middle(7).values == (0, 1, 1, 2, 2, 3)
        assert Perversity.zero(4).values == (0, 0, 0)
        assert Perversity.top(4).values == (0, 1, 2)

    def test_duality(self):
        n = 6
        m, nbar = Perversity.lower_middle(n), Perversity.upper_middle(n)
        assert m.dual() == nbar
        assert nbar.dual() == m
        assert Perversity.zero(n).dual() == Perversity.top(n)

    def test_small_dimensions(self):
        m, nb = Perversity.lower_middle(2), Perversity.upper_middle(2)
        assert m.values == (0,) and nb.values == (0,)
        m3, nb3 = Perversity.lower_middle(3), Perversity.upper_middle(3)
        assert m3.values == (0, 0) and nb3.values == (0, 1)


class TestAllowability:
    def test_cone_simplices(self):
        # cone on a circle, zero perversity: the apex vertex is not
        # allowable as a 0-simplex, a triangle through the apex is
        X = cone(StratifiedComplex.trivial(build_complex([[0, 1], [1, 2], [0, 2]])))
        apex = next(iter(X.skeleton(0).vertices))
        pb = Perversity.zero(2)
        assert not allowable([apex], 0, pb, X)
        tri = next(s for s in X.complex.faces(2) if apex in s)
        assert allowable(tri, 2, pb, X)

    def test_dimension_mismatch_raises(self):
        X = catalog_build("S2")
        s = next(iter(X.complex.faces(1)))
        with pytest.raises(PerversityError):
            allowable(s, 2, Perversity.zero(2), X)

    def test_trivial_filtration_everything_allowable(self):
        X = catalog_build("T2")
        pb = Perversity.zero(2)
        for d in range(3):
            for s in X.complex.faces(d):
                assert allowable(s, d, pb, X)


def test_boundary_chain_signs():
    ch = dict(boundary_chain(frozenset([0, 1, 2])))
    assert ch[frozenset([1, 2])] == 1
    assert ch[frozenset([0, 2])] == -1
    assert ch[frozenset([0, 1])] == 1


class TestConeTables:
    """Cone on the projective plane, lower-middle perversity."""

    def test_integral(self):
        # derived: truncated homology of the base below the cut degree
        X = catalog_build("cone_RP2")
        t = ih_homology(X, Perversity.lower_middle(3), INTEGERS)
        assert t.rank(0) == 1 and t.torsion_at(0) == ()
        assert t.rank(1) == 0 and t.torsion_at(1) == (2,)
        assert t.group_description(1) == "Z/2"
        for i in (2, 3):
            assert t.rank(i) == 0 and t.torsion_at(i) == ()

    def test_integral_table_has_no_dim(self):
        t = ih_homology(catalog_build("cone_RP2"), Perversity.lower_middle(3), INTEGERS)
        with pytest.raises(ValueError, match=r"rank\(\) and torsion_at\(\)"):
            t.dim(1)

    def test_mod_two(self):
        X = catalog_build("cone_RP2")
        t = ih_homology(X, Perversity.lower_middle(3), PrimeField(2))
        assert tuple(t.dim(i) for i in range(4)) == (1, 1, 0, 0)

    def test_upper_middle_kills_torsion(self):
        X = catalog_build("cone_RP2")
        t = ih_homology(X, Perversity.upper_middle(3), INTEGERS)
        assert t.torsion_at(1) == ()
        t2 = ih_homology(X, Perversity.upper_middle(3), PrimeField(2))
        assert tuple(t2.dim(i) for i in range(4)) == (1, 0, 0, 0)

    def test_chain_dim_depends_on_ring(self):
        # the obstruction to a 3-chain being an intersection chain sits
        # in its boundary's coefficients, so IC_3 differs between Z and Z2
        X = catalog_build("cone_RP2")
        pb = Perversity.lower_middle(3)
        icc2 = intersection_chain_complex(X, pb, PrimeField(2))
        iccZ = intersection_chain_complex(X, pb, INTEGERS)
        assert [len(b) for b in icc2.bases] == [6, 15, 10, 1]
        assert [len(b) for b in iccZ.bases] == [6, 15, 10, 0]


class TestSuspensionTables:
    def test_s_rp2_lower_middle(self):
        # known tables for the suspended projective plane
        X = catalog_build("S_RP2")
        m = Perversity.lower_middle(3)
        tq = ih_homology(X, m, RATIONALS)
        assert tuple(tq.dim(i) for i in range(4)) == (1, 0, 0, 0)
        t2 = ih_homology(X, m, PrimeField(2))
        assert tuple(t2.dim(i) for i in range(4)) == (1, 1, 0, 1)


def _all_perversities(n):
    """Every perversity in dimension n: p(2) = 0, then steps of 0 or 1."""
    values = [(0,)]
    for _ in range(n - 2):
        values = [v + (v[-1] + d,) for v in values for d in (0, 1)]
    return [Perversity(v, n) for v in values]


def _reference_boundary(simplices, faces):
    row = {f: r for r, f in enumerate(faces)}
    entries = {}
    for j, s in enumerate(simplices):
        for f, sign in boundary_chain(s):
            entries[(row[f], j)] = sign
    return ExactMatrix(len(faces), len(simplices), entries)


def _reference_chain_data(X, pb):
    """faces[i], A[i], D[i] and bad[i] assembled simplex by simplex: faces
    sorted by `simplex_key`, boundaries from `boundary_chain`."""
    faces = [sorted(X.complex.faces(i), key=simplex_key) for i in range(X.n + 1)]
    ok = [[allowable(s, i, pb, X) for s in faces[i]] for i in range(X.n + 1)]
    A = [[s for s, a in zip(faces[i], ok[i]) if a] for i in range(X.n + 1)]
    D = [None] + [_reference_boundary(A[i], faces[i - 1]) for i in range(1, X.n + 1)]
    bad = [None] + [[r for r, a in enumerate(ok[i - 1]) if not a] for i in range(1, X.n + 1)]
    return faces, A, D, bad


def _labels(X, tuples):
    """The label simplices of `_ChainData` rank tuples of X."""
    label = {r: v for v, r in vertex_ranks(X.complex).items()}
    return [frozenset(map(label.__getitem__, t)) for t in tuples]


def _relabelled_torus(label):
    T = catalog_build("T2")
    return T.relabel({v: label(v) for v in T.complex.vertices})


class TestChainAssembly:
    """Rank-tuple assembly against the simplex-by-simplex reference, on
    spaces whose labels are strings, tuples and frozensets."""

    SPACES = {
        "cone_L5_1": lambda: cone(catalog_build("L5_1")),
        "S_RP2": lambda: catalog_build("S_RP2"),
        "SS_L5_1": lambda: suspension(suspension(catalog_build("L5_1"))),
        "T2_tuples": lambda: _relabelled_torus(lambda v: ("v", v)),
        "T2_frozensets": lambda: _relabelled_torus(lambda v: frozenset([v, -1 - v])),
    }

    @staticmethod
    def _perversities(X):
        return _all_perversities(X.n) if X.n >= 2 else [Perversity((), X.n)]

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_reference(self, name):
        X = self.SPACES[name]()
        for pb in self._perversities(X):
            data = _ChainData(X, pb)
            faces, A, D, bad = _reference_chain_data(X, pb)
            assert [_labels(X, f) for f in data.faces] == faces
            assert [_labels(X, a) for a in data.allowed] == A
            assert [boundary_matrix(data, i) for i in range(1, X.n + 1)] == D[1:]
            assert data.bad[1:] == bad[1:]

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_allowability_split(self, name):
        # every simplex is in allowed[i] exactly when `allowable` says so,
        # and its position is in bad[i + 1] exactly when it is not
        X = self.SPACES[name]()
        for pb in self._perversities(X):
            data = _ChainData(X, pb)
            for i in range(X.n + 1):
                flags = [allowable(s, i, pb, X) for s in _labels(X, data.faces[i])]
                assert data.allowed[i] == [t for t, a in zip(data.faces[i], flags) if a]
                if i < X.n:
                    assert data.bad[i + 1] == [r for r, a in enumerate(flags) if not a]

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_emitted_index_leaves_out_the_skipped_columns(self, name, monkeypatch):
        # each boundary streamed for a table is the reference boundary
        # minus exactly the columns cleared by the degree above, with the
        # rows of non-allowable faces keyed after every other row
        X = self.SPACES[name]()
        real = ihcore._boundary
        emitted = []

        def spy(allowed, faces, i, skip, bad):
            columns = list(real(allowed, faces, i, skip, bad))
            kept = [c for c in range(len(allowed)) if c not in skip]
            keys, rows = {r for col in columns for r in col}, set(bad)
            # a row is keyed len(faces) up exactly when it is in `bad`
            keyed_last = all((r >= len(faces)) == (r % len(faces) in rows) for r in keys)
            full = [{} for _ in allowed]
            for c, col in zip(kept, columns):
                full[c] = col
            emitted.append((i, set(skip), len(columns) == len(kept), keyed_last,
                            stream_matrix(full, len(faces), len(allowed))))
            return iter(columns)

        monkeypatch.setattr(ihcore, "_boundary", spy)
        for pb in self._perversities(X):
            _, _, D, _ = _reference_chain_data(X, pb)
            for coeff in (PrimeField(3), INTEGERS):
                emitted.clear()
                ih_homology(X, pb, coeff)
                assert [i for i, *_ in emitted] == list(range(X.n, 0, -1))
                for i, skip, one_per_column, keyed_last, M in emitted:
                    assert skip <= set(range(D[i].ncols))
                    assert one_per_column and keyed_last
                    assert M == ExactMatrix(D[i].nrows, D[i].ncols, {
                        (r, c): v for (r, c), v in D[i].entries.items()
                        if c not in skip})
                assert not emitted[0][1]  # nothing is cleared in the top degree

    @pytest.mark.parametrize("name", ["S_RP2", "T2_tuples", "T2_frozensets"])
    def test_ordinary_homology_matrices(self, name, monkeypatch):
        K = self.SPACES[name]().complex
        seen = []
        real = ihcore._homology_table
        monkeypatch.setattr(
            ihcore, "_homology_table",
            lambda coeff, data: seen.append(data) or real(coeff, data),
        )
        ordinary_homology(K, PrimeField(3))
        faces = [sorted(K.faces(i), key=simplex_key) for i in range(K.dimension + 1)]
        want = [_reference_boundary(faces[i], faces[i - 1]) for i in range(1, len(faces))]
        assert [boundary_matrix(seen[0], i) for i in range(1, len(faces))] == want


def _integral_homology_of(icc):
    """Free ranks and torsion read off the explicit lattice complex."""
    snfs = [smith_normal_form(d) for d in icc.boundaries] + [None]
    free, tors = [], []
    for i in range(icc.n + 1):
        r_hi = snfs[i + 1].rank if i < icc.n else 0
        free.append(len(icc.bases[i]) - snfs[i].rank - r_hi)
        tors.append(snfs[i + 1].torsion if i < icc.n else ())
    return tuple(free), tuple(tors)


class TestIntegralTableAgainstLatticeComplex:
    """The production path reads torsion off face coordinates; the
    explicit complex works in lattice coordinates."""

    @pytest.mark.parametrize("name", ["cone_RP2", "S_RP2", "SS_RP2", "S_T2"])
    def test_every_perversity(self, name):
        X = catalog_build(name)
        for pb in _all_perversities(X.n):
            t = ih_homology(X, pb, INTEGERS)
            icc = intersection_chain_complex(X, pb, INTEGERS)
            assert (t.free_ranks, t.torsion) == _integral_homology_of(icc)

    def test_suspended_lens_space(self):
        X = suspension(catalog_build("L3_1"))
        pb = Perversity.lower_middle(4)
        t = ih_homology(X, pb, INTEGERS)
        icc = intersection_chain_complex(X, pb, INTEGERS)
        assert (t.free_ranks, t.torsion) == _integral_homology_of(icc)
        assert t.torsion_at(1) == (3,)


def _groups(t):
    return [(t.rank(i), t.torsion_at(i)) for i in range(t.n + 1)]


def _integral_link_groups(L, pb):
    """Integral IH of L for the restriction of pb to L's codimensions."""
    sub = Perversity(pb.values[: L.n - 1], L.n)
    return _groups(ih_homology(L, sub, INTEGERS))


def _cone_oracle(link, pb):
    """IH of the cone on L from IH of L (as _groups), L of dimension
    n = len(link) - 1: the groups of L below the cutoff n - p(n + 1),
    zero from there on."""
    c = len(link) - 1 - pb(len(link))
    return [g if i < c else (0, ()) for i, g in enumerate(link)] + [(0, ())]


def _suspension_oracle(link, pb):
    """IH of the suspension of L, by Mayer-Vietoris over the two cones:
    the diagonal into two copies of a group splits, so below the cutoff
    c the groups of L survive, degree c is zero, and above c the
    connecting map shifts the groups of L up by one."""
    c = len(link) - 1 - pb(len(link))
    return [
        link[i] if i < c else (0, ()) if i == c else link[i - 1]
        for i in range(len(link) + 1)
    ]


class TestIntegralConeAndSuspension:
    """Chain-level integral tables of cones and suspensions against the
    integral cone and suspension formulas, at every perversity."""

    @pytest.mark.parametrize(
        "name", ["RP2", "T2", "Klein", "genus2", "L2_1", "L3_1", "L5_1", "S_RP2"]
    )
    @pytest.mark.parametrize(
        "build, oracle",
        [(cone, _cone_oracle), (suspension, _suspension_oracle)],
        ids=["cone", "suspension"],
    )
    def test_every_perversity(self, name, build, oracle):
        L = catalog_build(name)
        X = build(L)
        for pb in _all_perversities(X.n):
            want = oracle(_integral_link_groups(L, pb), pb)
            assert _groups(ih_homology(X, pb, INTEGERS)) == want


@pytest.fixture(scope="module")
def sj_l3():
    return catalog_build("SJ_L3")


class TestSuspendedJ:
    """SJ_L3, the suspension of L(3,1) x S1, over Z: the largest catalog
    space, whose integral table needs the elimination of bad rows."""

    J_GROUPS = [(1, ()), (1, (3,)), (0, (3,)), (1, ()), (1, ())]

    def test_ordinary_homology_of_j(self):
        J = catalog_build("J_L3").complex
        assert _groups(ordinary_homology(J, INTEGERS)) == self.J_GROUPS

    def test_lower_middle_and_uct_mod_3(self, sj_l3):
        m = Perversity.lower_middle(5)
        r = uct_violation_report(sj_l3, m, 3)
        assert r.integral.free_ranks == (1, 1, 0, 0, 1, 1)
        assert r.integral.torsion == ((), (3,), (3,), (), (), ())
        assert _groups(r.integral) == _suspension_oracle(self.J_GROUPS, m)
        # mod 3 is (1, 2, 2, 0, 2, 1); universal coefficients would give
        # (1, 2, 2, 1, 1, 1)
        assert r.violations == [(3, 1, 0), (4, 1, 2)]

    def test_upper_middle(self, sj_l3):
        n = Perversity.upper_middle(5)
        t = ih_homology(sj_l3, n, INTEGERS)
        assert t.free_ranks == (1, 1, 0, 0, 1, 1)
        assert t.torsion == ((), (3,), (), (3,), (), ())
        assert _groups(t) == _suspension_oracle(self.J_GROUPS, n)


def _bottom_up_table(coeff, data):
    """`_homology_table` without clearing: one `kernel_image` per degree
    from degree 1 up, with every column of D[i] kept."""
    n = data.n
    integral = coeff is INTEGERS
    chains = [len(a) for a in data.allowed]
    image, tors = [0] * (n + 2), [()] * (n + 1)
    for i in range(1, n + 1):
        faces = data.faces[i - 1]
        columns = ihcore._boundary(data.allowed[i], faces, i, (), data.bad[i])
        lost, img, _ = kernel_image(columns, len(faces), coeff)
        chains[i] -= lost
        image[i] = img.rank if integral else img
        tors[i - 1] = img.torsion if integral else ()
    ranks = tuple(chains[i] - image[i] - image[i + 1] for i in range(n + 1))
    if integral:
        return IHTable("Z", n, free_ranks=ranks, torsion=tuple(tors),
                       chain_dims=tuple(chains))
    return IHTable(coeff.label, n, dims=ranks, chain_dims=tuple(chains))


CLEARING_RINGS = (RATIONALS, PrimeField(2), PrimeField(3), INTEGERS)


class TestClearing:
    """Top-down tables that leave out the faces the boundary one degree
    up pivoted on, against the bottom-up tables that keep every face."""

    SPACES = {
        "cone_RP2": lambda: catalog_build("cone_RP2"),
        "S_RP2": lambda: catalog_build("S_RP2"),
        "SS_RP2": lambda: catalog_build("SS_RP2"),
        "S_T2": lambda: catalog_build("S_T2"),
        "cone_L5_1": lambda: cone(catalog_build("L5_1")),
        "S_L3_1": lambda: suspension(catalog_build("L3_1")),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_tables_match_bottom_up(self, name):
        X = self.SPACES[name]()
        for pb in _all_perversities(X.n):
            data = _ChainData(X, pb)
            for coeff in CLEARING_RINGS:
                want = _bottom_up_table(coeff, data)
                assert ih_homology(X, pb, coeff) == want

    @staticmethod
    def _left_out(monkeypatch, X, pb, coeff):
        """(columns `_boundary` left out, image of the `kernel_image` call
        on that boundary), degree by degree, top down."""
        calls = []
        boundary, elimination = ihcore._boundary, ihcore.kernel_image

        def boundary_spy(allowed, faces, i, skip, bad):
            calls.append([len(skip)])
            return boundary(allowed, faces, i, skip, bad)

        def elimination_spy(columns, nrows, coeff):
            out = elimination(columns, nrows, coeff)
            calls[-1].append(out[1])
            return out

        monkeypatch.setattr(ihcore, "_boundary", boundary_spy)
        monkeypatch.setattr(ihcore, "kernel_image", elimination_spy)
        ih_homology(X, pb, coeff)
        return [tuple(call) for call in calls]

    def test_field_leaves_out_the_image_rank(self):
        X, pb = catalog_build("J_L3"), Perversity.lower_middle(4)
        # over Q every pivot counts, not only those with low entry +-1,
        # and clearing leaves those faces out too
        for coeff, want in ((PrimeField(3), [0, 1247, 1871, 737]),
                            (RATIONALS, [0, 1247, 1872, 738])):
            with pytest.MonkeyPatch.context() as mp:
                calls = self._left_out(mp, X, pb, coeff)
            assert [left for left, _ in calls] == want
            for (_, image), (left, _) in zip(calls, calls[1:]):
                assert left == image

    def test_integral_counts(self, monkeypatch):
        # over Z only +-1 pivots are left out: D_3 has rank 1872 with
        # invariant factor 3, and 1871 of its pivots are units
        X, pb = catalog_build("J_L3"), Perversity.lower_middle(4)
        calls = self._left_out(monkeypatch, X, pb, INTEGERS)
        assert [left for left, _ in calls] == [0, 1247, 1871, 737]
        assert [snf.rank for _, snf in calls] == [1247, 1872, 738, 56]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_ordinary_homology_clearing_matches_bottom_up(generators):
    K = SimplicialComplex.from_maximal(generators)
    seen = []
    real = ihcore._homology_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ihcore, "_homology_table",
                   lambda *args: seen.append(args) or real(*args))
        for coeff in CLEARING_RINGS:
            table = ordinary_homology(K, coeff)
            assert table == _bottom_up_table(*seen[-1])


class TestOrdinaryHomology:
    def test_lens_space_integral(self):
        X = catalog_build("L3_1")
        t = ordinary_homology(X.complex, INTEGERS)
        assert t.rank(0) == 1 and t.rank(3) == 1
        assert t.torsion_at(1) == (3,)
        assert t.rank(1) == 0 and t.rank(2) == 0

    def test_klein_bottle(self):
        K = catalog_build("Klein").complex
        t = ordinary_homology(K, INTEGERS)
        assert t.rank(1) == 1 and t.torsion_at(1) == (2,)
        assert t.rank(2) == 0
        t2 = ordinary_homology(K, PrimeField(2))
        assert tuple(t2.dim(i) for i in range(3)) == (1, 2, 1)

    def test_matches_ih_on_trivial_filtration(self):
        X = catalog_build("T2")
        for coeff in (RATIONALS, PrimeField(2), make_field(2, 2), INTEGERS):
            a = ordinary_homology(X.complex, coeff)
            b = ih_homology(X, Perversity.lower_middle(2), coeff)
            assert a.as_dict()["degrees"] == b.as_dict()["degrees"]


class TestUCT:
    def test_cone_rp2_violation_at_two(self):
        X = catalog_build("cone_RP2")
        r = uct_violation_report(X, Perversity.lower_middle(3), 2)
        assert not r.holds
        assert r.violations == [(2, 1, 0)]

    def test_cone_rp2_no_violation_at_three(self):
        X = catalog_build("cone_RP2")
        r = uct_violation_report(X, Perversity.lower_middle(3), 3)
        assert r.holds

    def test_manifold_never_violates(self):
        for name in ("RP2", "Klein", "L3_1"):
            X = catalog_build(name)
            m = Perversity.lower_middle(X.n)
            for p in (2, 3):
                assert uct_violation_report(X, m, p).holds


class TestTorsionFree:
    def test_cone_rp2_fails(self):
        X = catalog_build("cone_RP2")
        r = torsion_free_check(X, Perversity.lower_middle(3))
        assert not r.passes
        assert r.failures() == [(0, frozenset(["apex"]), 1, (2,))]

    def test_suspended_torus_passes(self):
        X = catalog_build("S_T2")
        assert torsion_free_check(X, Perversity.lower_middle(3)).passes

    def test_manifold_vacuous(self):
        X = catalog_build("S2")
        r = torsion_free_check(X, Perversity.lower_middle(2))
        assert r.entries == [] and r.passes

    @pytest.mark.parametrize("build, torsion", [
        (lambda: catalog_build("S_RP2"), (2,)),
        (lambda: suspension(catalog_build("L5_1")), (5,)),
    ], ids=["S_RP2", "S_L5_1"])
    def test_one_table_per_distinct_link(self, build, torsion, monkeypatch):
        # the two poles have equal links, so one table serves both entries
        X = build()
        calls = []
        real = ihcore.ih_homology
        monkeypatch.setattr(
            ihcore, "ih_homology", lambda *a: calls.append(a) or real(*a)
        )
        r = torsion_free_check(X, Perversity.lower_middle(X.n))
        assert len(calls) == 1
        assert r.entries == [
            (0, frozenset([pole]), 1, torsion) for pole in ("N", "S")
        ]


class TestStructuralInvariants:
    def test_boundary_squares_to_zero(self):
        X = catalog_build("S_RP2")
        pb = Perversity.lower_middle(3)
        for coeff in (RATIONALS, PrimeField(2), PrimeField(3), INTEGERS):
            # intersection_chain_complex asserts d(d(x)) = 0 internally
            intersection_chain_complex(X, pb, coeff)

    def test_rank_identities_match_explicit_kernels(self):
        # the production path computes dims from rank identities; compare
        # with the explicit chain complex on several spaces
        for name in ("cone_RP2", "S_RP2", "S_T2"):
            X = catalog_build(name)
            for pb in (Perversity.zero(3), Perversity.lower_middle(3), Perversity.top(3)):
                for coeff in (RATIONALS, PrimeField(2), PrimeField(3)):
                    t = ih_homology(X, pb, coeff)
                    icc = intersection_chain_complex(X, pb, coeff)
                    for i in range(4):
                        ri = rank(icc.boundaries[i], coeff)
                        ri1 = (
                            rank(icc.boundaries[i + 1], coeff)
                            if i + 1 <= 3
                            else 0
                        )
                        assert t.dim(i) == len(icc.bases[i]) - ri - ri1

    def test_perversity_monotonicity_of_chain_spaces(self):
        # a chain allowable for a smaller perversity stays allowable for
        # a larger one, so the chain space dimensions are monotone
        X = catalog_build("S_RP2")
        coeff = PrimeField(2)
        seq = [Perversity.zero(3), Perversity.lower_middle(3), Perversity.upper_middle(3), Perversity.top(3)]
        dims = [
            [len(b) for b in intersection_chain_complex(X, pb, coeff).bases]
            for pb in seq
        ]
        for a, b in zip(dims, dims[1:]):
            assert all(x <= y for x, y in zip(a, b))

    def test_characteristic_invariance(self):
        # dims over F_{p^m} equal dims over Z_p; dims over Q equal the
        # integral free ranks
        X = catalog_build("cone_RP2")
        pb = Perversity.lower_middle(3)
        z = ih_homology(X, pb, INTEGERS)
        q = ih_homology(X, pb, RATIONALS)
        for i in range(4):
            assert q.dim(i) == z.rank(i)
        for p, m in ((2, 2), (3, 2)):
            a = ih_homology(X, pb, PrimeField(p))
            b = ih_homology(X, pb, make_field(p, m))
            assert [a.dim(i) for i in range(4)] == [b.dim(i) for i in range(4)]

    def test_euler_characteristic_consistency(self):
        # alternating sum of IH dims equals alternating sum of chain dims
        X = catalog_build("S_RP2")
        pb = Perversity.lower_middle(3)
        for coeff in (RATIONALS, PrimeField(2)):
            t = ih_homology(X, pb, coeff)
            icc = intersection_chain_complex(X, pb, coeff)
            lhs = sum((-1) ** i * t.dim(i) for i in range(4))
            rhs = sum((-1) ** i * len(icc.bases[i]) for i in range(4))
            assert lhs == rhs
