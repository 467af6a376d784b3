"""Witt classes, Witt groups, the extension restriction map, and the
link-vanishing condition."""

import itertools
import random

import pytest

from ihcalc import ihcore, witt
from ihcalc.catalog import catalog_build
from ihcalc.exactalg import (
    INTEGERS,
    FiniteField,
    PrimeField,
    RATIONALS,
    is_prime,
    is_square,
    make_field,
    smallest_nonsquare,
)
from ihcalc.simplicial import suspension
from ihcalc.witt import (
    AbelianGroup,
    BilinearForm,
    LinkCheck,
    WittClass,
    WittError,
    bordism_group,
    characteristic_reduction_check,
    diagonal_representative,
    diagonalize,
    isotropic_vector,
    restriction_map,
    witt_class_add,
    witt_class_of_catalog_space,
    witt_condition_check,
    witt_condition_checks,
    witt_group,
    witt_group_elements,
    witt_invariants,
)

Z2, Z3, Z5, Z7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
F4, F9 = make_field(2, 2), make_field(3, 2)


def diag_form(entries, field, lift=True):
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return BilinearForm(rows, field, lift=lift)


def echelon_reference(form):
    """(nondegenerate, determinant) of the Gram matrix from a row echelon
    in the field's own operations, independent of the congruent
    reduction in `witt`."""
    f, n = form.field, form.n
    work = [row[:] for row in form.rows]
    det = f.one
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if work[i][col] != f.zero), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = f.neg(det)
        det = f.mul(det, work[r][col])
        inv = f.inv(work[r][col])
        for i in range(r + 1, n):
            c = f.mul(work[i][col], inv)
            if c != f.zero:
                work[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[r])]
        r += 1
    return (True, det) if r == n else (False, f.zero)


def check_against_reference(form):
    """The verdicts of is_nondegenerate, diagonalize and witt_invariants,
    and the determinant class, against `echelon_reference`."""
    f, n = form.field, form.n
    ok, det = echelon_reference(form)
    assert form.is_nondegenerate() == ok
    if not ok:
        with pytest.raises(WittError, match="degenerate"):
            witt_invariants(form)
        if f.char != 2:
            with pytest.raises(WittError, match="degenerate"):
                diagonalize(form)
        return
    cls = witt_invariants(form)
    if f.char == 0:
        # det has the sign (-1)^(number of negative entries of a diagonal)
        assert (det > 0) == ((n - cls.signature) // 2 % 2 == 0)
    elif f.char != 2:
        signed = f.neg(det) if n * (n - 1) // 2 % 2 else det
        assert cls.dpm == ("square" if is_square(signed, f) else "nonsquare")
        prod = f.one
        for d in diagonalize(form):
            prod = f.mul(prod, d)
        assert is_square(f.mul(prod, det), f)


def random_symmetric(rng, field, n, zero_diagonal=False):
    """Random symmetric Gram rows in the field's own encoding."""
    if field.char == 0:
        draw = lambda: field.from_int(rng.randrange(-2, 3))
    else:
        draw = lambda: rng.randrange(field.order)
    rows = [[draw() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
        if zero_diagonal:
            rows[i][i] = field.zero
    return BilinearForm(rows, field, lift=False)


def order_of(cls, field):
    acc = cls
    for k in range(1, 5):
        if acc.is_identity:
            return k
        acc = witt_class_add(acc, cls)
    raise AssertionError("order exceeds 4")


class TestAbelianGroup:
    def test_add_and_describe(self):
        g = AbelianGroup(1, (2,)) + AbelianGroup(0, (4,))
        assert g.free_rank == 1 and g.torsion == (2, 4)
        assert "Z" in g.describe()
        assert AbelianGroup().is_trivial


class TestDiagonalize:
    def test_hyperbolic_plane(self):
        form = BilinearForm([[0, 1], [1, 0]], Z3)
        diag = diagonalize(form)
        assert len(diag) == 2
        assert all(d != Z3.zero for d in diag)

    def test_diagonal_preserves_invariants(self):
        rng = random.Random(0)
        for field in (Z3, Z5, F9):
            for _ in range(20):
                n = rng.randint(1, 3)
                while True:
                    rows = [
                        [field.from_int(rng.randrange(field.p)) for _ in range(n)]
                        for _ in range(n)
                    ]
                    for i in range(n):
                        for j in range(i):
                            rows[i][j] = rows[j][i]
                    form = BilinearForm(rows, field)
                    if form.is_nondegenerate():
                        break
                diag = diagonalize(form)
                n = len(diag)
                again = BilinearForm(
                    [
                        [diag[i] if i == j else field.zero for j in range(n)]
                        for i in range(n)
                    ],
                    field,
                    lift=False,
                )
                assert witt_invariants(form) == witt_invariants(again)

    def test_degenerate_rejected(self):
        with pytest.raises(WittError):
            witt_invariants(BilinearForm([[0]], Z3))

    @pytest.mark.parametrize("field", [Z5, RATIONALS])
    def test_diagonalize_rejects_degenerate_forms(self, field):
        # rank 2: the third row is the sum of the first two
        rows = [[1, 2, 3], [2, 0, 2], [3, 2, 5]]
        with pytest.raises(WittError, match="degenerate"):
            diagonalize(BilinearForm(rows, field))

    def test_diagonalize_verdict_is_nondegeneracy(self):
        rng = random.Random(1)
        for field in (Z2, F4, Z3, Z5, F9, RATIONALS):
            for _ in range(150):
                n = rng.randint(1, 4)
                rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    for j in range(i):
                        rows[i][j] = rows[j][i]
                check_against_reference(BilinearForm(rows, field))

    def test_zero_diagonal_forms_take_hyperbolic_pivots(self):
        # alternating forms in characteristic 2, and zero diagonals in
        # odd characteristic, reach the hyperbolic 2x2 pivot
        rng = random.Random(2)
        for field in (Z2, F4, Z3, F9, RATIONALS):
            for _ in range(100):
                n = rng.randint(0, 5)
                check_against_reference(random_symmetric(rng, field, n, True))
        for field in (Z5, RATIONALS):
            form = BilinearForm([[0, 1, 1], [1, 0, 1], [1, 1, 0]], field)
            check_against_reference(form)
            assert witt._congruent_pivots(form)[1]
        # eigenvalues 2, -1, -1
        assert witt_invariants(form).signature == -1
        # det 2, signed -2 = 3, a nonsquare mod 5
        cls = witt_invariants(BilinearForm([[0, 1, 1], [1, 0, 1], [1, 1, 0]], Z5))
        assert (cls.dim0, cls.dpm) == (1, "nonsquare")

    def test_diagonal_of_hyperbolic_plane(self):
        # [[0, b], [b, 0]] is <2b, -2b>
        assert diagonalize(BilinearForm([[0, 3], [3, 0]], RATIONALS)) == [6, -6]

    @pytest.mark.parametrize("field", [Z2, F4])
    def test_diagonalize_refuses_characteristic_two(self, field):
        with pytest.raises(WittError, match="odd characteristic"):
            diagonalize(BilinearForm([[1]], field))

class TestRingsThatAreNotFiniteFields:
    @pytest.mark.parametrize("call", [
        lambda: witt_invariants(BilinearForm([[1]], INTEGERS)),
        lambda: witt_invariants(BilinearForm([], INTEGERS)),
        lambda: witt_group(INTEGERS),
        lambda: witt_group_elements(RATIONALS),
        lambda: witt_group_elements(INTEGERS),
        lambda: isotropic_vector(BilinearForm([[1]], INTEGERS)),
        lambda: witt_class_of_catalog_space("Uhat_nonsquare", INTEGERS),
    ], ids=["invariants-Z", "identity-Z", "group-Z", "elements-Q",
            "elements-Z", "isotropic-Z", "catalog-nonsquare-Z"])
    def test_refused(self, call):
        with pytest.raises(WittError):
            call()


class TestInvariants:
    def test_unit_form_classes(self):
        a = witt_invariants(diag_form([1], Z3))
        assert (a.dim0, a.dpm) == (1, "square")
        b = witt_invariants(diag_form([1, 1], Z3))
        # signed determinant is -1, a nonsquare mod 3
        assert (b.dim0, b.dpm) == (0, "nonsquare")
        c = witt_invariants(diag_form([1, 1], Z5))
        assert c.is_identity

    def test_f9_unit_square(self):
        # -1 is a square in F9, so <1,1> dies in the extension
        b = witt_invariants(diag_form([1, 1], F9))
        assert b.is_identity

    def test_char_two_parity_only(self):
        a = witt_invariants(diag_form([1], Z2))
        assert a.dim0 == 1 and a.dpm is None
        b = witt_invariants(BilinearForm([[0, 1], [1, 0]], Z2))
        assert b.dim0 == 0

    def test_rational_signature(self):
        a = witt_invariants(BilinearForm([[1, 0], [0, -1]], RATIONALS))
        assert a.signature == 0
        b = witt_invariants(BilinearForm([[2, 0], [0, 3]], RATIONALS))
        assert b.signature == 2


class TestGroupLaw:
    def test_orders_of_unit_class(self):
        # derived: W(Z3) is cyclic of order 4 on <1>, W(Z5) has exponent 2
        assert order_of(witt_invariants(diag_form([1], Z3)), Z3) == 4
        assert order_of(witt_invariants(diag_form([1], Z5)), Z5) == 2
        assert order_of(witt_invariants(diag_form([1], Z2)), Z2) == 2
        assert order_of(witt_invariants(diag_form([1], F9)), F9) == 2

    def test_group_structures(self):
        assert witt_group(Z3).structure == "Z4"
        assert witt_group(Z7).structure == "Z4"
        assert witt_group(Z5).structure == "Z2xZ2"
        assert witt_group(F9).structure == "Z2xZ2"
        assert witt_group(Z2).structure == "Z2"
        assert witt_group(F4).structure == "Z2"
        assert witt_group(RATIONALS).structure == "Z-signature"

    def test_element_counts(self):
        assert len(witt_group_elements(Z3)) == 4
        assert len(witt_group_elements(Z2)) == 2

    def test_identity_neutral(self):
        for field in (Z3, Z5, F9, Z2):
            e = witt_invariants(BilinearForm([], field))
            for a in witt_group_elements(field):
                assert witt_class_add(a, e) == a

    def test_every_element_has_inverse(self):
        for field in (Z3, Z5, F9):
            elems = witt_group_elements(field)
            for a in elems:
                assert any(witt_class_add(a, b).is_identity for b in elems)

    def test_additivity_vs_block_sum(self):
        # exhaustive over diagonal forms of total dimension <= 3, the
        # units drawn as encoded elements so that F9's lie outside Z3
        for field in (Z3, Z5, Z7, F9):
            units = range(1, field.order)
            for da in range(1, 3):
                for db in range(1, 4 - da):
                    for ea in itertools.product(units, repeat=da):
                        for eb in itertools.product(units, repeat=db):
                            a = witt_invariants(diag_form(ea, field, lift=False))
                            b = witt_invariants(diag_form(eb, field, lift=False))
                            s = witt_invariants(
                                diag_form(ea + eb, field, lift=False)
                            )
                            assert witt_class_add(a, b) == s

    def test_additivity_vs_block_sum_rationals(self):
        # over Q a class is its signature, and block sums add them
        for ea in itertools.product((1, -2, 3), repeat=2):
            for eb in ((-1,), (5, -7), (2, 2, -3)):
                a = witt_invariants(diag_form(ea, RATIONALS))
                b = witt_invariants(diag_form(eb, RATIONALS))
                s = witt_invariants(diag_form(ea + eb, RATIONALS))
                assert witt_class_add(a, b) == s
                assert s.signature == sum(1 if e > 0 else -1 for e in ea + eb)

    def test_additivity_vs_block_sum_f27(self):
        # a seeded sample over an extension field with q = 3 mod 4
        F27 = make_field(3, 3)
        rng = random.Random(27)

        def form(entries):
            n = len(entries)
            return BilinearForm(
                [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)],
                F27,
                lift=False,
            )

        for _ in range(60):
            ea = [rng.randrange(1, 27) for _ in range(rng.randint(1, 2))]
            eb = [rng.randrange(1, 27) for _ in range(rng.randint(1, 2))]
            a, b = witt_invariants(form(ea)), witt_invariants(form(eb))
            assert witt_class_add(a, b) == witt_invariants(form(ea + eb))

    @pytest.mark.parametrize("label, want", [("F3^10", "square"),
                                             ("F3^3", "nonsquare")])
    def test_odd_plus_odd_builds_no_field_tables(self, label, want, monkeypatch):
        # <1> + <1> = <1, 1>, whose signed determinant is -1: a square
        # exactly when q = 1 mod 4
        def refuse(self):
            raise AssertionError("field tables built")

        monkeypatch.setattr(FiniteField, "_exp", property(refuse))
        one = WittClass(label, dim0=1, dpm="square")
        assert witt_class_add(one, one) == WittClass(label, dim0=0, dpm=want)

    def test_congruence_invariance(self):
        # invariants must not depend on the basis
        rng = random.Random(0)
        for field in (Z3, Z5, F9):
            q = field.p ** getattr(field, "m", 1)
            for _ in range(70):
                n = rng.randint(1, 4)
                entries = [rng.randrange(1, q) for _ in range(n)]
                if any(field.from_int(e) == field.zero for e in entries):
                    continue
                form = diag_form(entries, field)
                base = witt_invariants(form)
                # random invertible change of basis
                while True:
                    # element encodings are the integers 0..q-1
                    P = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(n)
                    ]
                    G = [
                        [
                            form.evaluate(
                                [P[i][k] for i in range(n)],
                                [P[i][l] for i in range(n)],
                            )
                            for l in range(n)
                        ]
                        for k in range(n)
                    ]
                    changed = BilinearForm(G, field, lift=False)
                    if changed.is_nondegenerate():
                        break
                assert witt_invariants(changed) == base


class TestRestriction:
    def test_z3_to_f9_kernel(self):
        # derived: the extension trivializes exactly the even classes
        kernel = [
            a
            for a in witt_group_elements(Z3)
            if restriction_map(a, 2).is_identity
        ]
        assert len(kernel) == 2
        assert WittClass("Z3", dim0=0, dpm="nonsquare") in kernel

    def test_z3_to_f27_injective(self):
        # odd-degree extension of q = 3 keeps -1 a nonsquare
        kernel = [
            a
            for a in witt_group_elements(Z3)
            if restriction_map(a, 3).is_identity
        ]
        assert len(kernel) == 1

    def test_is_homomorphism(self):
        for p, m in ((3, 2), (5, 2), (7, 3)):
            field = PrimeField(p)
            for a in witt_group_elements(field):
                for b in witt_group_elements(field):
                    lhs = restriction_map(witt_class_add(a, b), m)
                    rhs = witt_class_add(
                        restriction_map(a, m), restriction_map(b, m)
                    )
                    assert lhs == rhs

    def test_z5_even_extension_recorded_behavior(self):
        # derived and frozen: every unit of Z5 becomes a square in the
        # degree-2 extension, so the determinant invariant dies and the
        # kernel again has order 2; recorded as computed, see the
        # analysis notes kept outside the package
        ext = make_field(5, 2)
        assert is_square(ext.from_int(2), ext)
        kernel = [
            a
            for a in witt_group_elements(Z5)
            if restriction_map(a, 2).is_identity
        ]
        assert len(kernel) == 2

    def test_char_two_restriction(self):
        a = WittClass("Z2", dim0=1)
        assert restriction_map(a, 2).dim0 == 1

    def test_closed_form_matches_the_invariants_of_a_representative(self):
        cases = [(p, m) for p in range(2, 18) if is_prime(p)
                 for m in range(1, 5) if p**m <= 65536]
        checked = 0
        for p, m in cases:
            ext = make_field(p, m)
            for a in witt_group_elements(PrimeField(p)):
                rep = diagonal_representative(a)
                assert restriction_map(a, m) == witt_invariants(BilinearForm(rep.rows, ext))
                checked += 1
        assert checked == 100


class TestIsotropic:
    def test_f9_sum_of_squares(self):
        # x^2 + y^2 vanishes at (1, x) in F9 since x^2 = -1
        v = isotropic_vector(diag_form([1, 1], F9))
        assert v == (1, 3)

    def test_z3_sum_of_squares_anisotropic(self):
        assert isotropic_vector(diag_form([1, 1], Z3)) is None

    def test_hyperbolic_always_isotropic(self):
        for field in (Z3, Z5, Z7, F9):
            assert isotropic_vector(BilinearForm([[0, 1], [1, 0]], field)) is not None

    def test_bounds_enforced(self):
        with pytest.raises(WittError):
            isotropic_vector(diag_form([1] * 7, Z3))

    def test_two_dim_metabolic_iff_isotropic(self):
        # derived: a nondegenerate 2-dim form is Witt trivial exactly
        # when it has an isotropic vector
        for field in (Z3, Z5, F9):
            q = field.p ** getattr(field, "m", 1)
            for a in range(1, q):
                for b in range(1, q):
                    form = diag_form([a, b], field)
                    if not form.is_nondegenerate():
                        continue
                    trivial = witt_invariants(form).is_identity
                    iso = isotropic_vector(form) is not None
                    assert trivial == iso

    def test_hyperbolic_trivial_small_fields(self):
        for p in range(3, 50):
            if not is_prime(p):
                continue
            field = PrimeField(p)
            h = witt_invariants(BilinearForm([[0, 1], [1, 0]], field))
            assert h.is_identity


class TestConditionCheck:
    def test_suspended_rp2(self):
        X = catalog_build("S_RP2")
        rq = witt_condition_check(X, RATIONALS)
        assert rq.passes
        assert not rq.oriented
        r2 = witt_condition_check(X, Z2)
        assert not r2.passes
        assert r2.checks[0].middle_degree == 1

    def test_suspended_torus_fails_everywhere(self):
        # links are tori; first homology never vanishes
        X = catalog_build("S_T2")
        for coeff in (RATIONALS, Z2, Z3):
            assert not witt_condition_check(X, coeff).passes

    def test_sj_verdicts(self):
        X = catalog_build("SJ_L3")
        assert witt_condition_check(X, RATIONALS).passes
        assert witt_condition_check(X, Z5).passes
        assert not witt_condition_check(X, Z3).passes

    def test_surfaces_vacuous(self):
        for name in ("S2", "T2", "RP2", "Klein"):
            X = catalog_build(name)
            r = witt_condition_check(X, Z2)
            assert r.checks == [] and r.passes

    def test_extension_fields_match_prime_field(self):
        X = catalog_build("S_RP2")
        assert witt_condition_check(X, F4).passes == witt_condition_check(X, Z2).passes
        assert witt_condition_check(X, F9).passes == witt_condition_check(X, Z3).passes
        assert characteristic_reduction_check(X, 2, 2)
        assert characteristic_reduction_check(X, 3, 2)

    def test_check_all_links_consistent(self):
        X = catalog_build("S_RP2")
        r = witt_condition_check(X, Z2, check_all_links=True)
        assert all(c.all_links_agree for c in r.checks)

    @pytest.mark.parametrize("build, want", [
        (lambda: catalog_build("SJ_L3"), [(("N",), 2, False), (("S",), 2, False)]),
        (lambda: suspension(suspension(catalog_build("L5_1"))),
         [((("N", 0),), 0, True), ((("S", 1),), 0, True)]),
    ], ids=["SJ_L3", "SS_L5_1"])
    def test_one_table_per_distinct_link(self, build, want, monkeypatch):
        # the two poles have equal links, so one table serves both checks
        X = build()
        calls = []
        real = ihcore.ih_homology
        monkeypatch.setattr(
            ihcore, "ih_homology", lambda *a: calls.append(a) or real(*a)
        )
        r = witt_condition_check(X, Z3)
        assert len(calls) == 1
        assert (r.coeff_label, r.n, r.oriented, r.irreducible) == ("Z3", 5, True, True)
        assert r.checks == [
            LinkCheck(stratum_dim=0, middle_degree=2, representative=rep,
                      link_dim_checked=dim, passes=ok, all_links_agree=True)
            for rep, dim, ok in want
        ]

    def test_strata_and_links_are_found_once_for_all_fields(self, monkeypatch):
        # SJ_L3 has odd codimensions 5 and 3, and two point strata (the
        # poles) of codimension 5: one walk serves Q, Z3 and F9
        X = catalog_build("SJ_L3")
        coeffs = [RATIONALS, Z3, F9]
        want = [witt_condition_check(X, coeff) for coeff in coeffs]
        calls = {"stratum_components": 0, "simplicial_link": 0}
        for name in calls:
            real = getattr(ihcore, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ihcore, name, spy)
        reports = witt_condition_checks(X, coeffs)
        assert calls == {"stratum_components": 2, "simplicial_link": 2}
        assert reports == want
        assert [r.passes for r in reports] == [True, False, False]

    def test_fields_of_one_characteristic_share_their_link_tables(self, monkeypatch):
        # the two poles of SJ_L3 have the one link J_L3: five fields in
        # three characteristics take three tables, each in the prime field
        X = catalog_build("SJ_L3")
        coeffs = [RATIONALS, Z2, F4, Z3, F9]
        want = [witt_condition_check(X, coeff) for coeff in coeffs]
        calls = []
        real = ihcore.ih_homology
        monkeypatch.setattr(
            ihcore, "ih_homology", lambda *a: calls.append(a) or real(*a)
        )
        reports = witt_condition_checks(X, coeffs)
        assert [coeff for *_, coeff in calls] == [RATIONALS, Z2, Z3]
        assert len({link for link, *_ in calls}) == 1
        assert reports == want
        assert [r.coeff_label for r in reports] == ["Q", "Z2", "F2^2", "Z3", "F3^2"]

    @pytest.mark.parametrize("name", ["S_RP2", "SS_RP2", "S_T2"])
    def test_characteristic_reduction_verifies_once(self, name, monkeypatch):
        X = catalog_build(name)
        calls = []
        real = witt.verify_pseudomanifold
        monkeypatch.setattr(
            witt, "verify_pseudomanifold", lambda Y: calls.append(Y) or real(Y)
        )
        assert characteristic_reduction_check(X, 3, 2)
        assert calls == [X]

    @pytest.mark.parametrize("name", ["S_RP2", "SS_RP2"])
    def test_all_links_give_the_same_verdicts(self, name):
        X = catalog_build(name)
        for coeff in (Z2, Z3, RATIONALS, F9):
            one = witt_condition_check(X, coeff)
            every = witt_condition_check(X, coeff, check_all_links=True)
            assert every == one

    @pytest.mark.parametrize("name", ["T2", "S_RP2"])
    def test_rejects_the_integers_before_any_work(self, name, monkeypatch):
        # T2 has no links to check and S_RP2 has one; neither gets a table
        X = catalog_build(name)
        calls = []
        monkeypatch.setattr(ihcore, "ih_homology", lambda *a: calls.append(a))
        with pytest.raises(WittError, match="tested over fields"):
            witt_condition_check(X, INTEGERS)
        assert calls == []

    def test_rejects_non_pseudomanifold(self):
        from ihcalc.simplicial import StratifiedComplex, build_complex

        K = build_complex([[0, 1, 2], [2, 3]])
        with pytest.raises(WittError, match=r"failed dimensional homogeneity.* at \[2, 3\]"):
            witt_condition_check(StratifiedComplex.trivial(K, 2), Z2)


class TestBordism:
    def test_structure_by_degree(self):
        assert bordism_group(0, 3) == AbelianGroup(1, ())
        for n in (1, 2, 3, 5, 6, 7, 9, 10, 11):
            assert bordism_group(n, 3).is_trivial
        assert bordism_group(4, 3) == AbelianGroup(0, (4,))
        assert bordism_group(8, 3) == AbelianGroup(0, (4,))
        assert bordism_group(12, 3) == AbelianGroup(0, (4,))
        assert bordism_group(4, 5) == AbelianGroup(0, (2, 2))
        assert bordism_group(4, 2) == AbelianGroup(0, (2,))

    def test_negative_degrees_are_trivial(self):
        # -4 % 4 == 0 must not make a negative degree look like 4k
        for n in (-1, -4, -8):
            assert bordism_group(n, 3).is_trivial


class TestCatalogClasses:
    def test_signatures_over_q(self):
        assert witt_class_of_catalog_space("CP2", RATIONALS).signature == 1
        assert witt_class_of_catalog_space("CP2#CP2", RATIONALS).signature == 2

    def test_x8_antisymmetric_pairing_trivial(self):
        for field in (Z3, Z5, F9):
            assert witt_class_of_catalog_space("X8_SY", field).is_identity

    def test_nonsquare_generator(self):
        a = witt_class_of_catalog_space("Uhat_nonsquare", Z5)
        assert (a.dim0, a.dpm) == (1, "nonsquare")

    def test_unknown_name(self):
        with pytest.raises(WittError):
            witt_class_of_catalog_space("nope", Z3)
