"""Closed-form homology engines and the bordism splitting."""

import time

import pytest

from ihcalc.catalog import catalog_build, catalog_table
from ihcalc.exactalg import INTEGERS, PrimeField, RATIONALS
from ihcalc.formulas import (
    FormulaError,
    compactified_bundle_formula,
    cone_formula,
    homology_with_coefficients,
    kunneth,
    omega_splitting,
    suspension_formula,
)
from ihcalc.ihcore import IHTable, Perversity, ih_homology, ordinary_homology
from ihcalc.witt import AbelianGroup, bordism_group


def table(label, dims):
    return IHTable(coeff_label=label, n=len(dims) - 1, dims=tuple(dims))


M4 = Perversity.lower_middle(4)


class TestConeFormula:
    def test_matches_chain_level_cone_rp2(self):
        # derived: chain-level table is the oracle
        X = catalog_build("cone_RP2")
        rp2 = catalog_build("RP2")
        for pb in (Perversity.zero(3), Perversity.lower_middle(3), Perversity.top(3)):
            for coeff in (RATIONALS, PrimeField(2), PrimeField(3)):
                link = ordinary_homology(rp2.complex, coeff)
                predicted = cone_formula(link, 2, pb)
                actual = ih_homology(X, pb, coeff)
                assert predicted.dims == tuple(actual.dim(i) for i in range(4))

    def test_zero_dimensional_link(self):
        t = cone_formula(table("Q", [2]), 0, Perversity.zero(2))
        assert t.dims == (1, 0)

    def test_rejects_integral_table(self):
        X = catalog_build("RP2")
        z = ordinary_homology(X.complex, INTEGERS)
        with pytest.raises(FormulaError):
            cone_formula(z, 2, Perversity.lower_middle(3))


class TestSuspensionFormula:
    def test_matches_chain_level(self):
        # derived: chain-level suspensions as oracle
        for base_name, susp_name in (("RP2", "S_RP2"), ("T2", "S_T2")):
            base = catalog_build(base_name)
            susp = catalog_build(susp_name)
            for pb in (Perversity.zero(3), Perversity.lower_middle(3), Perversity.top(3)):
                for coeff in (RATIONALS, PrimeField(2), PrimeField(5)):
                    bt = ordinary_homology(base.complex, coeff)
                    predicted = suspension_formula(bt, 2, pb)
                    actual = ih_homology(susp, pb, coeff)
                    assert predicted.dims == tuple(actual.dim(i) for i in range(4))

    def test_sphere_suspension(self):
        # trivial: suspension of a sphere table is a sphere table
        t = suspension_formula(table("Q", [1, 0, 1]), 2, Perversity.zero(3))
        assert t.dims == (1, 0, 0, 1)


class TestBundleFormula:
    def test_uhat_tables(self):
        # known behavior: the euler number e kills the middle class mod p | e
        u3 = catalog_table("Uhat_S2", M4, "Z3", e=3)
        assert u3.dims == (1, 0, 0, 0, 1)
        u5 = catalog_table("Uhat_S2", M4, "Z5", e=3)
        assert u5.dims == (1, 0, 1, 0, 1)
        uq = catalog_table("Uhat_S2", M4, "Q", e=3)
        assert uq.dims == (1, 0, 1, 0, 1)

    def test_y_tables(self):
        # known tables for the torus base
        y3 = catalog_table("Y_T2", M4, "Z3", e=3)
        assert y3.dims == (1, 2, 0, 2, 1)
        yq = catalog_table("Y_T2", M4, "Q", e=3)
        assert yq.dims == (1, 2, 1, 2, 1)

    def test_composite_euler_number(self):
        # derived: e = 6 dies mod 2 and mod 3, survives mod 5
        for label, mid in (("Z2", 0), ("Z3", 0), ("Z5", 1), ("Q", 1)):
            t = catalog_table("Uhat_S2", M4, label, e=6)
            assert t.dim(2) == mid

    def test_middle_perversities_agree(self):
        # only the codimension-4 value matters here and the two middle
        # perversities agree at even codimension
        nbar = Perversity.upper_middle(4)
        for label in ("Q", "Z3"):
            assert catalog_table("Uhat_S2", M4, label).dims == catalog_table(
                "Uhat_S2", nbar, label
            ).dims

    def test_unverified_base_warns(self):
        base = table("Q", [1, 0, 0, 1])
        with pytest.warns(UserWarning, match="unverified"):
            compactified_bundle_formula(base, 2, 1, Perversity.lower_middle(5))

    def test_verified_bases_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compactified_bundle_formula(table("Q", [1, 0, 1]), 2, 3, M4)
            compactified_bundle_formula(table("Q", [1, 2, 1]), 2, 3, M4)


class TestKunneth:
    def test_x8_degree_four(self):
        # known middle-degree dimensions of the 8-dimensional
        # product spaces
        m8 = Perversity.lower_middle(8)
        assert catalog_table("X8_SJ", m8, "Z3").dim(4) == 6
        assert catalog_table("X8_SJ", m8, "Q").dim(4) == 2
        assert catalog_table("X8_SY", m8, "Z3", e=3).dim(4) == 4
        assert catalog_table("X8_SY", m8, "Z5", e=5).dim(4) == 4
        assert catalog_table("X8_SY", m8, "Q", e=3).dim(4) == 5

    def test_kunneth_against_triangulated_product(self):
        # derived: J = L(3,1) x S1 built simplicially
        J = catalog_build("J_L3")
        for coeff, label in ((RATIONALS, "Q"), (PrimeField(3), "Z3")):
            lens = ordinary_homology(catalog_build("L3_1").complex, coeff)
            circle = ordinary_homology(catalog_build("S1").complex, coeff)
            pred = kunneth(lens, circle)
            act = ordinary_homology(J.complex, coeff)
            assert pred.dims == tuple(act.dim(i) for i in range(5))

    def test_mixed_coefficients_rejected(self):
        with pytest.raises(FormulaError):
            kunneth(table("Q", [1]), table("Z3", [1]))


class TestCoefficientHomology:
    def test_cyclic_coefficients(self):
        # H(L(3,1); Z/3): UCT gives Z/3 in every degree 0..3
        t = ordinary_homology(catalog_build("L3_1").complex, INTEGERS)
        for r in range(4):
            g = homology_with_coefficients(t, AbelianGroup(0, (3,)), r)
            assert g.free_rank == 0 and g.torsion == (3,)

    def test_coprime_cyclic_coefficients(self):
        t = ordinary_homology(catalog_build("L3_1").complex, INTEGERS)
        g1 = homology_with_coefficients(t, AbelianGroup(0, (2,)), 1)
        assert g1.is_trivial

    def test_free_coefficients(self):
        t = ordinary_homology(catalog_build("T2").complex, INTEGERS)
        g = homology_with_coefficients(t, AbelianGroup(2, ()), 1)
        assert g.free_rank == 4 and g.torsion == ()


class TestOmegaSplitting:
    def test_point(self):
        # known value: bordism of a point in degree 4
        t = table("Z", [0])
        pt = IHTable(coeff_label="Z", n=0, free_ranks=(1,), torsion=((),), )
        g = omega_splitting(pt, 4, 3)
        assert g.free_rank == 0 and g.torsion == (4,)

    def test_circle(self):
        s1 = ordinary_homology(catalog_build("S1").complex, INTEGERS)
        g = omega_splitting(s1, 5, 3)
        assert g.free_rank == 0 and g.torsion == (4,)
        g2 = omega_splitting(s1, 4, 5)
        assert g2.free_rank == 0 and g2.torsion == (2, 2)

    def test_degree_zero_gives_z(self):
        s1 = ordinary_homology(catalog_build("S1").complex, INTEGERS)
        g = omega_splitting(s1, 0, 3)
        assert g.free_rank == 1 and g.torsion == ()

    def test_rejects_field_table(self):
        with pytest.raises(FormulaError):
            omega_splitting(table("Q", [1]), 4, 3)

    @staticmethod
    def _every_degree(h_table, n, p):
        # the sum as first written: one term per bordism degree s = 0..n
        total = AbelianGroup()
        for s in range(n + 1):
            coeffs = bordism_group(s, p)
            if not coeffs.is_trivial:
                total = total + homology_with_coefficients(h_table, coeffs, n - s)
        return total

    @pytest.mark.parametrize("name", ["RP2", "Klein", "L3_1", "T2", "top torsion"])
    def test_matches_the_sum_over_every_degree(self, name):
        if name == "top torsion":
            # a table no complex has, whose Tor term reaches one degree
            # above the top
            h = IHTable(coeff_label="Z", n=1, free_ranks=(1, 0), torsion=((), (2, 4)))
        else:
            h = ordinary_homology(catalog_build(name).complex, INTEGERS)
        for p in (2, 3, 5, 7):
            for n in range(-2, 21):
                assert omega_splitting(h, n, p) == self._every_degree(h, n, p), (n, p)

    def test_huge_degree(self):
        h = ordinary_homology(catalog_build("L3_1").complex, INTEGERS)
        start = time.perf_counter()
        g = omega_splitting(h, 10**12, 3)
        assert time.perf_counter() - start < 1
        # 10^12 = 0 mod 4: Z/4 from H_0; H_3 = Z meets degree 10^12 - 3
        assert g == AbelianGroup(0, (4,))
        assert omega_splitting(h, 10**12 + 3, 3) == AbelianGroup(0, (4,))
