"""Catalog construction, validation, and determinism."""

import dataclasses
import hashlib
import json

import pytest

from ihcalc import catalog, cli
from ihcalc.catalog import (
    CatalogError,
    catalog_build,
    catalog_entries,
    catalog_entry,
    catalog_table,
)
from ihcalc.exactalg import INTEGERS, PrimeField, RATIONALS
from ihcalc.ihcore import Perversity, ih_homology, ordinary_homology
from ihcalc.simplicial import (
    check_full_skeleta,
    contract_edges,
    product_complex,
    simplex_key,
    sorted_vertices,
    verify_pseudomanifold,
)


# integral homology of each triangulated entry: (free ranks, torsion)
# all derived from the standard closed forms for these spaces
EXPECTED_HOMOLOGY = {
    "S0": ((2,), ((),)),
    "S1": ((1, 1), ((), ())),
    "S2": ((1, 0, 1), ((), (), ())),
    "T2": ((1, 2, 1), ((), (), ())),
    "RP2": ((1, 0, 0), ((), (2,), ())),
    "Klein": ((1, 1, 0), ((), (2,), ())),
    "genus2": ((1, 4, 1), ((), (), ())),
    "CP2": ((1, 0, 1, 0, 1), ((), (), (), (), ())),
    "CP2#CP2": ((1, 0, 2, 0, 1), ((), (), (), (), ())),
    "L2_1": ((1, 0, 0, 1), ((), (2,), (), ())),
    "L3_1": ((1, 0, 0, 1), ((), (3,), (), ())),
    "L5_1": ((1, 0, 0, 1), ((), (5,), (), ())),
    "J_L3": ((1, 1, 0, 1, 1), ((), (3,), (3,), (), ())),
}

ORIENTABLE = {
    "S0": True, "S1": True, "S2": True, "T2": True, "RP2": False,
    "Klein": False, "genus2": True, "CP2": True, "CP2#CP2": True,
    "L2_1": True, "L3_1": True, "L5_1": True, "J_L3": True,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_HOMOLOGY))
def test_triangulated_homology(name):
    X = catalog_build(name)
    h = ordinary_homology(X.complex, INTEGERS)
    assert (h.free_ranks, h.torsion) == EXPECTED_HOMOLOGY[name]
    rep = verify_pseudomanifold(X)
    assert rep.is_pseudomanifold and rep.irreducible
    assert rep.orientable == ORIENTABLE[name]


# Golden triangulations: f-vector and the first 16 hex digits of the
# sha256 of the simplex list in `simplex_key` order.  Constructions may
# get faster, but every catalog space must stay the same complex.
GOLDEN_TRIANGULATIONS = {
    "S0": ((2,), "9c731319e6f8d3c3"),
    "S1": ((3, 3), "ff2c755dab80b98f"),
    "S2": ((4, 6, 4), "9378f6c1ba2ca40e"),
    "T2": ((9, 27, 18), "bffe4f3e4a3825bc"),
    "RP2": ((6, 15, 10), "08915671f2fbf9ee"),
    "Klein": ((9, 27, 18), "72436a8b9eff885e"),
    "genus2": ((15, 51, 34), "d3d8a68f5b4f6d4b"),
    "L2_1": ((11, 52, 82, 41), "673e6e621fa8b49d"),
    "L3_1": ((19, 123, 208, 104), "5ee304a77fbbdb9a"),
    "L5_1": ((22, 156, 268, 134), "14974a273f210fd3"),
    "J_L3": ((57, 795, 2610, 3120, 1248), "659f54dfa1f4e935"),
    "CP2": ((17, 116, 324, 370, 148), "cb2455d6b0fc038c"),
    "CP2#CP2": ((29, 222, 638, 735, 294), "8dfa6794fad634a0"),
    "cone_RP2": ((7, 21, 25, 10), "7b62f72ef32533f2"),
    "S_RP2": ((8, 27, 40, 20), "322214bc5d288bb3"),
    "SS_RP2": ((10, 43, 94, 100, 40), "1d5a75495562f7d9"),
    "S_T2": ((11, 45, 72, 36), "3c492a8161e41df6"),
    "SJ_L3": ((59, 909, 4200, 8340, 7488, 2496), "54da0225f6ddc5b1"),
}

# digests of the skeleta X^0, ..., X^(n-1) of the stratified entries
_APEX, _POLES, _POLES_2 = "8b2836ec15ab03da", "e48cd0c92605842c", "37c94338d47700d6"
GOLDEN_SKELETA = {
    "cone_RP2": (_APEX,) * 3,
    "S_RP2": (_POLES,) * 3,
    "SS_RP2": ("4f82ce7a4d48353d",) + (_POLES_2,) * 3,
    "S_T2": (_POLES,) * 3,
    "SJ_L3": (_POLES,) * 5,
}


def _digest(K):
    simplices = [sorted_vertices(s) for s in sorted(K.all_simplices(), key=simplex_key)]
    return hashlib.sha256(json.dumps(simplices).encode()).hexdigest()[:16]


def test_golden_covers_every_triangulated_entry():
    triangulated = {e.name for e in catalog_entries() if e.kind == "triangulated"}
    assert set(GOLDEN_TRIANGULATIONS) == triangulated


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIANGULATIONS))
def test_golden_triangulation(name):
    K = catalog_build(name).complex
    assert (K.f_vector(), _digest(K)) == GOLDEN_TRIANGULATIONS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SKELETA))
def test_golden_skeleta(name):
    X = catalog_build(name)
    assert tuple(_digest(sk) for sk in X.skeleta[:-1]) == GOLDEN_SKELETA[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIANGULATIONS))
def test_skeleta_are_full(name):
    # allowability counts vertices in the skeleta, which needs them full
    check_full_skeleta(catalog_build(name))


def test_no_edge_of_the_j_product_contracts():
    # why the J_L3 build takes the staircase product as it is
    P = product_complex(catalog_build("L3_1").complex, catalog_build("S1").complex)
    assert contract_edges(P) == P


class TestStratifiedEntries:
    def test_cone_rp2_skeleta(self):
        X = catalog_build("cone_RP2")
        assert X.n == 3
        assert len(X.skeleton(0)) == 1
        rep = verify_pseudomanifold(X)
        # a compact cone has boundary, so face regularity fails there
        assert rep.dimensional_homogeneity and rep.no_codim_one
        assert not rep.face_regularity

    def test_suspensions(self):
        for name, n, poles in (("S_RP2", 3, 2), ("SS_RP2", 4, 2), ("S_T2", 3, 2), ("SJ_L3", 5, 2)):
            X = catalog_build(name)
            assert X.n == n
            assert len(X.skeleton(0).vertices) == poles
            assert verify_pseudomanifold(X).is_pseudomanifold

    def test_sj_f_vector(self):
        # frozen from the build: suspension of the simplified J
        X = catalog_build("SJ_L3")
        assert X.complex.f_vector() == (59, 909, 4200, 8340, 7488, 2496)
        assert X.complex.euler_characteristic() == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", ["RP2", "T2", "L3_1", "S_RP2"])
    def test_rebuild_identical(self, name):
        # builds are pure: two fresh runs, past the cache, give distinct
        # objects with the same simplex sets
        a = catalog_entry(name).build()
        b = catalog_entry(name).build()
        assert a is not b
        assert a == b

    def test_cache_returns_same_object(self):
        assert catalog_build("S2") is catalog_build("S2")


class TestManifest:
    def test_every_entry_resolvable(self):
        for e in catalog_entries():
            assert catalog_entry(e.name) == e
            if e.kind == "triangulated":
                X = catalog_build(e.name)
                assert X.n == e.dimension
            else:
                t = catalog_table(
                    e.name, Perversity.lower_middle(e.dimension), "Q"
                )
                assert t.n == e.dimension

    def test_unknown_names(self):
        with pytest.raises(CatalogError):
            catalog_build("nope")
        with pytest.raises(CatalogError):
            catalog_entry("nope")
        with pytest.raises(CatalogError):
            catalog_table("nope", Perversity.lower_middle(4), "Q")

    def test_formula_entry_not_buildable(self):
        with pytest.raises(CatalogError):
            catalog_build("X8_SY")

    def test_listing_calls_no_build(self, monkeypatch, capsys):
        def refuse(*args, **kw):
            raise AssertionError("a listing ran a build")

        for name, e in list(catalog._ENTRIES.items()):
            monkeypatch.setitem(catalog._ENTRIES, name, dataclasses.replace(e, build=refuse))
        monkeypatch.setattr(catalog, "catalog_build", refuse)
        monkeypatch.setattr(cli, "catalog_build", refuse)
        names = [e.name for e in catalog_entries()]
        assert len(names) == 22
        assert cli.main(["catalog", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in doc["entries"]] == names
        assert cli.main(["catalog"]) == 0


class TestLensSpaces:
    @pytest.mark.parametrize("p,name", [(2, "L2_1"), (3, "L3_1"), (5, "L5_1")])
    def test_fundamental_torsion(self, p, name):
        X = catalog_build(name)
        h = ordinary_homology(X.complex, INTEGERS)
        assert h.torsion_at(1) == (p,)

    def test_l3_middle_ih_matches_ordinary(self):
        # a manifold's intersection homology is its homology
        X = catalog_build("L3_1")
        m = Perversity.lower_middle(3)
        a = ih_homology(X, m, INTEGERS)
        b = ordinary_homology(X.complex, INTEGERS)
        assert a.as_dict()["degrees"] == b.as_dict()["degrees"]


@pytest.mark.parametrize("name", ["Klein", "L2_1", "L3_1", "L5_1", "CP2"])
def test_glued_builds_work_on_integer_vertices(name, monkeypatch):
    # nested labels (frozensets of frozensets) made every quotient and
    # contraction hash them over and over; they must not come back
    seen = []
    for fn in ("quotient", "contract_edges"):
        def spy(K, *glue, fn=fn, real=getattr(catalog, fn)):
            seen.append((fn, K, glue))
            return real(K, *glue)
        monkeypatch.setattr(catalog, fn, spy)
    catalog_entry(name).build()
    called = [fn for fn, _, _ in seen]
    assert called == (["quotient"] if name == "Klein" else ["quotient", "contract_edges"])
    for _, K, glue in seen:
        assert {type(v) for v in K.vertices} == {int}
        for g in glue:
            assert {type(v) for v in (*g, *g.values())} == {int}


class TestFormulaEntries:
    def test_uhat_default_euler_number(self):
        t = catalog_table("Uhat_S2", Perversity.lower_middle(4), "Z3")
        assert t.dims == (1, 0, 0, 0, 1)

    @pytest.mark.parametrize("name", ["Uhat_S2", "Y_T2", "X8_SJ", "X8_SY"])
    def test_refuses_the_integers(self, name):
        pbar = Perversity.lower_middle(catalog_entry(name).dimension)
        with pytest.raises(CatalogError, match="formula entries need field coefficients"):
            catalog_table(name, pbar, "Z")

    def test_x8_tables_have_dimension_eight(self):
        m8 = Perversity.lower_middle(8)
        for name in ("X8_SJ", "X8_SY"):
            assert catalog_table(name, m8, "Z3").n == 8
