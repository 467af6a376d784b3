"""Acceptance suite: nine end-to-end criteria with time budgets.

Each criterion prints one PASS/FAIL line (run pytest with -s to see
them) and fails the run if either the values or the budget are off.
"""

import itertools
import random
import time

from ihcalc.catalog import catalog_build, catalog_table
from ihcalc.exactalg import (
    INTEGERS,
    PrimeField,
    RATIONALS,
    make_field,
)
from ihcalc.formulas import (
    cone_formula,
    omega_splitting,
    suspension_formula,
)
from ihcalc.ihcore import (
    Perversity,
    ih_homology,
    ordinary_homology,
    uct_violation_report,
)
from ihcalc.simplicial import StratifiedComplex, cone, suspension
from ihcalc.witt import (
    BilinearForm,
    bordism_group,
    isotropic_vector,
    restriction_map,
    witt_class_add,
    witt_condition_check,
    witt_group_elements,
    witt_invariants,
)
from lattice_reference import intersection_chain_complex

Z2, Z3, Z5 = PrimeField(2), PrimeField(3), PrimeField(5)
F4, F9 = make_field(2, 2), make_field(3, 2)
SIX_FIELDS = (RATIONALS, Z2, Z3, Z5, F4, F9)


def report(num, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {num} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} value mismatch"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_1_uct_violation():
    t0 = time.monotonic()
    X = catalog_build("cone_RP2")
    pb = Perversity((0, 0), 3)  # p(3) = 0
    z = ih_homology(X, pb, INTEGERS)
    f2 = ih_homology(X, pb, Z2)
    r = uct_violation_report(X, pb, 2)
    ok = (
        z.rank(1) == 0
        and z.torsion_at(1) == (2,)
        and z.rank(2) == 0
        and z.torsion_at(2) == ()
        and tuple(f2.dim(i) for i in range(4)) == (1, 1, 0, 0)
        and [v[0] for v in r.violations] == [2]
    )
    report(1, ok, time.monotonic() - t0, 1.0)


def test_criterion_2_cone_suspension_oracle():
    t0 = time.monotonic()
    links = {
        "S2": catalog_build("S2").complex,
        "RP2": catalog_build("RP2").complex,
        "T2": catalog_build("T2").complex,
        "L3_1": catalog_build("L3_1").complex,
    }
    ok = True
    for name, L in links.items():
        n = L.dimension
        trivial = StratifiedComplex.trivial(L)
        cX = cone(trivial)
        sX = suspension(trivial)
        perversities = (
            Perversity.zero(n + 1),
            Perversity.lower_middle(n + 1),
            Perversity.upper_middle(n + 1),
            Perversity.top(n + 1),
        )
        for pb in perversities:
            for coeff in SIX_FIELDS:
                lt = ordinary_homology(L, coeff)
                want_c = cone_formula(lt, n, pb).dims
                got_c = ih_homology(cX, pb, coeff)
                want_s = suspension_formula(lt, n, pb).dims
                got_s = ih_homology(sX, pb, coeff)
                ok = ok and want_c == tuple(
                    got_c.dim(i) for i in range(n + 2)
                )
                ok = ok and want_s == tuple(
                    got_s.dim(i) for i in range(n + 2)
                )
    report(2, ok, time.monotonic() - t0, 60.0)


def test_criterion_3_sj_tables():
    t0 = time.monotonic()
    X = catalog_build("SJ_L3")
    m = Perversity.lower_middle(5)
    dims = {}
    for coeff, label in ((RATIONALS, "Q"), (Z3, "Z3"), (Z5, "Z5")):
        t = ih_homology(X, m, coeff)
        dims[label] = tuple(t.dim(i) for i in range(6))
    ok = (
        dims["Q"] == (1, 1, 0, 0, 1, 1)
        and dims["Z5"] == (1, 1, 0, 0, 1, 1)
        and dims["Z3"] == (1, 2, 2, 0, 2, 1)
    )
    report(3, ok, time.monotonic() - t0, 300.0)


def test_criterion_4_witt_verdict_matrix():
    t0 = time.monotonic()
    ok = True
    for name in ("S_RP2", "SS_RP2"):
        X = catalog_build(name)
        rq = witt_condition_check(X, RATIONALS)
        r2 = witt_condition_check(X, Z2)
        ok = ok and rq.passes and not r2.passes and not rq.oriented
    SJ = catalog_build("SJ_L3")
    ok = ok and witt_condition_check(SJ, RATIONALS).passes
    ok = ok and witt_condition_check(SJ, Z5).passes
    ok = ok and not witt_condition_check(SJ, Z3).passes
    for name in ("S2", "T2", "RP2", "Klein", "genus2"):
        X = catalog_build(name)
        for coeff in SIX_FIELDS:
            ok = ok and witt_condition_check(X, coeff).passes
    # extension fields must agree with their prime fields
    for name in ("S_RP2", "SS_RP2", "SJ_L3"):
        X = catalog_build(name)
        ok = ok and (
            witt_condition_check(X, F9).passes
            == witt_condition_check(X, Z3).passes
        )
        ok = ok and (
            witt_condition_check(X, F4).passes
            == witt_condition_check(X, Z2).passes
        )
    report(4, ok, time.monotonic() - t0, 300.0)


def test_criterion_5_bundle_tables():
    t0 = time.monotonic()
    m4 = Perversity.lower_middle(4)
    ok = (
        catalog_table("Uhat_S2", m4, "Z3", e=3).dim(2) == 0
        and catalog_table("Uhat_S2", m4, "Q", e=3).dim(2) == 1
        and catalog_table("Uhat_S2", m4, "Z5", e=3).dim(2) == 1
        and catalog_table("Y_T2", m4, "Q", e=3).dims == (1, 2, 1, 2, 1)
        and catalog_table("Y_T2", m4, "Z5", e=3).dims == (1, 2, 1, 2, 1)
        and catalog_table("Y_T2", m4, "Z3", e=3).dims == (1, 2, 0, 2, 1)
    )
    for label, mid in (("Z2", 0), ("Z3", 0), ("Z5", 1), ("Q", 1)):
        ok = ok and catalog_table("Uhat_S2", m4, label, e=6).dim(2) == mid
    report(5, ok, time.monotonic() - t0, 5.0)


def test_criterion_6_degree_four_kunneth():
    t0 = time.monotonic()
    m8 = Perversity.lower_middle(8)
    ok = (
        catalog_table("X8_SJ", m8, "Q").dim(4) == 2
        and catalog_table("X8_SJ", m8, "Z3").dim(4) == 6
        and catalog_table("X8_SY", m8, "Z3", e=3).dim(4) == 4
        and catalog_table("X8_SY", m8, "Z5", e=5).dim(4) == 4
        and catalog_table("X8_SY", m8, "Q", e=3).dim(4) == 5
    )
    report(6, ok, time.monotonic() - t0, 60.0)


def test_criterion_7_witt_arithmetic():
    t0 = time.monotonic()

    def order(cls):
        acc = cls
        for k in range(1, 5):
            if acc.is_identity:
                return k
            acc = witt_class_add(acc, cls)
        return None

    def unit(field):
        return witt_invariants(BilinearForm([[1]], field))

    ok = (
        order(unit(Z3)) == 4
        and order(unit(Z5)) == 2
        and order(unit(Z2)) == 2
        and len(witt_group_elements(Z3)) == 4
        and len(witt_group_elements(Z5)) == 4
        and len(witt_group_elements(F9)) == 4
        and all(order(a) in (1, 2) for a in witt_group_elements(F9))
    )
    kernel = [
        a for a in witt_group_elements(Z3) if restriction_map(a, 2).is_identity
    ]
    two_units = witt_invariants(BilinearForm([[1, 0], [0, 1]], Z3))
    ok = ok and len(kernel) == 2 and two_units in kernel
    v = isotropic_vector(BilinearForm([[1, 0], [0, 1]], F9))
    x = F9.from_coeffs((0, 1))
    ok = ok and v == (F9.one, x) and F9.mul(x, x) == F9.from_int(-1)
    report(7, ok, time.monotonic() - t0, 5.0)


def test_criterion_8_bordism():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        for n in range(13):
            g = bordism_group(n, p)
            if n == 0:
                ok = ok and g.free_rank == 1 and g.torsion == ()
            elif n % 4 == 0:
                want = (4,) if p % 4 == 3 else ((2, 2) if p % 4 == 1 else (2,))
                ok = ok and g.free_rank == 0 and g.torsion == want
            else:
                ok = ok and g.is_trivial
    from ihcalc.ihcore import IHTable

    pt = IHTable(coeff_label="Z", n=0, free_ranks=(1,), torsion=((),))
    for p in (2, 3, 5):
        for k in (1, 2):
            ok = ok and omega_splitting(pt, 4 * k, p) == bordism_group(4 * k, p)
    s1 = ordinary_homology(catalog_build("S1").complex, INTEGERS)
    for p in (2, 3, 5):
        for n in range(9):
            # hand evaluation: both homology groups of the circle are Z,
            # so the splitting is the sum of adjacent point groups
            want = bordism_group(n, p) + bordism_group(n - 1, p) if n else bordism_group(0, p)
            ok = ok and omega_splitting(s1, n, p) == want
    report(8, ok, time.monotonic() - t0, 5.0)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    ok = True

    # trivially filtered manifolds: intersection homology is homology
    for name in ("S2", "T2", "RP2", "L3_1"):
        X = catalog_build(name)
        n = X.n
        for pb in (
            Perversity.zero(n),
            Perversity.lower_middle(n),
            Perversity.upper_middle(n),
            Perversity.top(n),
        ):
            for coeff in SIX_FIELDS:
                a = ih_homology(X, pb, coeff)
                b = ordinary_homology(X.complex, coeff)
                ok = ok and all(a.dim(i) == b.dim(i) for i in range(n + 1))

    # chain-level perversity monotonicity
    X = catalog_build("S_RP2")
    seq = [
        Perversity.zero(3),
        Perversity.lower_middle(3),
        Perversity.upper_middle(3),
        Perversity.top(3),
    ]
    chains = [
        [len(b) for b in intersection_chain_complex(X, pb, Z2).bases]
        for pb in seq
    ]
    for a, b in zip(chains, chains[1:]):
        ok = ok and all(x <= y for x, y in zip(a, b))

    # congruence invariance, 200 random basis changes
    rng = random.Random(0)
    count = 0
    while count < 200:
        field = (Z3, Z5, F9)[count % 3]
        q = field.p ** getattr(field, "m", 1)
        n = rng.randint(1, 4)
        entries = [rng.randrange(1, q) for _ in range(n)]
        rows = [
            [entries[i] if i == j else field.zero for j in range(n)]
            for i in range(n)
        ]
        form = BilinearForm(rows, field, lift=False)
        if not form.is_nondegenerate():
            continue
        base = witt_invariants(form)
        P = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        G = [
            [
                form.evaluate(
                    [P[i][k] for i in range(n)], [P[i][l] for i in range(n)]
                )
                for l in range(n)
            ]
            for k in range(n)
        ]
        changed = BilinearForm(G, field, lift=False)
        if not changed.is_nondegenerate():
            continue
        ok = ok and witt_invariants(changed) == base
        count += 1

    # additivity vs the group law, exhaustive for q <= 9
    for field in (Z3, Z5, PrimeField(7), F9):
        q = field.p ** getattr(field, "m", 1)
        units = [u for u in range(1, q)]
        def diag(es):
            return BilinearForm(
                [
                    [es[i] if i == j else field.zero for j in range(len(es))]
                    for i in range(len(es))
                ],
                field,
                lift=False,
            )
        for da in (1, 2):
            for db in range(1, 4 - da):
                for ea in itertools.product(units, repeat=da):
                    for eb in itertools.product(units, repeat=db):
                        a = witt_invariants(diag(list(ea)))
                        b = witt_invariants(diag(list(eb)))
                        s = witt_invariants(diag(list(ea) + list(eb)))
                        ok = ok and witt_class_add(a, b) == s

    # hyperbolic forms are trivial for every odd q <= 49
    from ihcalc.exactalg import is_prime

    odd_fields = [PrimeField(p) for p in range(3, 50) if is_prime(p)]
    odd_fields += [F9, make_field(5, 2), make_field(7, 2), make_field(3, 3)]
    for field in odd_fields:
        q = field.p ** getattr(field, "m", 1)
        if q > 49:
            continue
        h = witt_invariants(BilinearForm([[0, 1], [1, 0]], field))
        ok = ok and h.is_identity

    # metabolic iff isotropic in dimension 2
    for field in (Z3, Z5, F9):
        q = field.p ** getattr(field, "m", 1)
        for a in range(1, q):
            for b in range(1, q):
                form = BilinearForm(
                    [[a, field.zero], [field.zero, b]], field, lift=False
                )
                if not form.is_nondegenerate():
                    continue
                ok = ok and (
                    witt_invariants(form).is_identity
                    == (isotropic_vector(form) is not None)
                )

    report(9, ok, time.monotonic() - t0, 120.0)
