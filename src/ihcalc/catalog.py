"""Built-in spaces: triangulated catalog entries plus formula-level
entries for spaces too large to triangulate.

Every triangulated entry validates itself at build time (homology,
pseudomanifold flags, and quotient certificates for the glued spaces),
so downstream computations never run on a miscooked triangulation.
"""

from dataclasses import dataclass
from functools import lru_cache

from .exactalg import INTEGERS, coeff_from_label
from .formulas import (
    compactified_bundle_formula,
    kunneth,
    suspension_formula,
)
from .ihcore import IHTable, Perversity, ordinary_homology
from .simplicial import (
    SimplicialComplex,
    StratifiedComplex,
    build_complex,
    cone,
    connected_sum,
    contract_edges,
    product_complex,
    quotient,
    relabel_canonical,
    simplex_key,
    suspension,
    verify_pseudomanifold,
    _sd_complex,
)


class CatalogError(ValueError):
    pass


def _sd_raw(K):
    """Barycentric subdivision keeping simplices as vertex labels, so
    simplicial maps of the original induce vertex maps of the result."""
    return _sd_complex(K, {s: s for s in K.all_simplices()})


def _require(cond, name, what):
    if not cond:
        raise CatalogError(f"{name}: build-time validation failed ({what})")


def _check_homology(K, name, ranks, torsion):
    h = ordinary_homology(K, INTEGERS)
    _require(h.free_ranks == ranks and h.torsion == torsion, name,
             f"homology {h.free_ranks} {h.torsion}, wanted {ranks} {torsion}")


def _check_manifold(K, name, orientable):
    rep = verify_pseudomanifold(StratifiedComplex.trivial(K))
    _require(rep.is_pseudomanifold, name, "not a pseudomanifold")
    _require(rep.orientable == orientable, name, "orientability mismatch")


# --- base triangulations -----------------------------------------------------


def _build_S0():
    return build_complex([{0}, {1}])


def _build_S1():
    return build_complex([{0, 1}, {1, 2}, {0, 2}])


def _build_S2():
    return build_complex([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])


RP2_FACETS = [
    {1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
    {2, 3, 5}, {3, 4, 6}, {4, 5, 2}, {5, 6, 3}, {6, 2, 4},
]


def _build_RP2():
    K = build_complex(RP2_FACETS)
    _check_homology(K, "RP2", (1, 0, 0), ((), (2,), ()))
    _check_manifold(K, "RP2", orientable=False)
    return K


def _build_T2():
    S1 = _build_S1()
    K, _ = relabel_canonical(product_complex(S1, S1))
    _check_homology(K, "T2", (1, 2, 1), ((), (), ()))
    _check_manifold(K, "T2", orientable=True)
    return K


def _build_Klein():
    def v(i, j):
        if j == 3:
            return ((-i) % 3, 0)
        return (i % 3, j)

    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris.append(frozenset([a, b, c]))
            tris.append(frozenset([b, c, d]))
    K, _ = relabel_canonical(build_complex(tris))
    _check_homology(K, "Klein", (1, 1, 0), ((), (2,), ()))
    _check_manifold(K, "Klein", orientable=False)
    return K


def _build_genus2():
    T2 = _build_T2()
    K = connected_sum(T2, T2)
    _check_homology(K, "genus2", (1, 4, 1), ((), (), ()))
    _check_manifold(K, "genus2", orientable=True)
    return K


# --- quotient constructions ---------------------------------------------------


def _lens_space(p):
    """L(p,1) from a bipyramid over a p-gon: the top boundary cap is
    glued to the bottom cap with a one-step twist.  The identification
    only becomes simplicial after subdividing twice, and the build
    certifies that the quotient identifies exactly the intended orbits."""
    N, S = "N", "S"
    domain = SimplicialComplex.from_maximal(
        [frozenset([N, S, i, (i + 1) % p]) for i in range(p)]
    )
    topcap = SimplicialComplex.from_maximal(
        [frozenset([N, i, (i + 1) % p]) for i in range(p)]
    )
    bottomcap = SimplicialComplex.from_maximal(
        [frozenset([S, i, (i + 1) % p]) for i in range(p)]
    )
    equator = SimplicialComplex.from_maximal(
        [frozenset([i, (i + 1) % p]) for i in range(p)]
    )
    K, T, Bc, E = domain, topcap, bottomcap, equator
    for _ in range(2):
        K, T, Bc, E = _sd_raw(K), _sd_raw(T), _sd_raw(Bc), _sd_raw(E)

    def glue(v):
        return frozenset(
            frozenset(S if y == N else (y + 1) % p for y in s) for s in v
        )

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in T.vertices:
        a, b = find(v), find(glue(v))
        if a != b:
            if simplex_key([a]) > simplex_key([b]):
                a, b = b, a
            parent[b] = a
    identify = {v: find(v) for v in K.vertices}
    Q = quotient(K, identify)
    # orbit certificate: interior simplices stay distinct, cap simplices
    # merge in pairs, equator orbits have size p
    name = f"L{p}_1"
    for d in range(4):
        total = len(K.faces(d))
        top = len(T.faces(d))
        bot = len(Bc.faces(d))
        eq = len(E.faces(d))
        expected = (total - top - bot + eq) + (top - eq) + eq // p
        _require(eq % p == 0, name, "equator orbit count")
        _require(len(Q.faces(d)) == expected, name,
                 f"quotient face count in dimension {d}")
    QK, _ = relabel_canonical(Q)
    C, _ = relabel_canonical(contract_edges(QK))
    _check_manifold(C, name, orientable=True)
    _check_homology(C, name, (1, 0, 0, 1), ((), (p,), (), ()))
    return C


def _build_L2():
    """RP3 as the antipodal quotient of the join of two squares (a
    16-tetrahedron 3-sphere); one subdivision makes the free involution
    simplicial, certified by the exact halving of the face counts."""
    A = [("a", i) for i in range(4)]
    B = [("b", i) for i in range(4)]

    def cyc(vs):
        return [frozenset([vs[i], vs[(i + 1) % 4]]) for i in range(4)]

    S3 = SimplicialComplex.from_maximal(
        [e1 | e2 for e1 in cyc(A) for e2 in cyc(B)]
    )
    K = _sd_raw(S3)

    def anti(v):
        return frozenset((t, (i + 2) % 4) for (t, i) in v)

    identify = {}
    for v in K.vertices:
        w = anti(v)
        identify[v] = min([v, w], key=lambda s: simplex_key([s]))
    Q = quotient(K, identify)
    for d in range(4):
        _require(len(K.faces(d)) == 2 * len(Q.faces(d)), "L2_1",
                 f"face count does not halve in dimension {d}")
    QK, _ = relabel_canonical(Q)
    C, _ = relabel_canonical(contract_edges(QK))
    _check_manifold(C, "L2_1", orientable=True)
    _check_homology(C, "L2_1", (1, 0, 0, 1), ((), (2,), (), ()))
    return C


def _build_CP2():
    """CP2 as the quotient of S2 x S2 by the factor swap (the symmetric
    square of the sphere).  One subdivision makes the involution
    simplicial; the fixed diagonal makes this a branched quotient, and
    the certificate counts fixed simplices explicitly."""
    S2a = build_complex(
        [frozenset({("a", i), ("a", j), ("a", k)})
         for i, j, k in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
    )
    S2b = build_complex(
        [frozenset({("b", i), ("b", j), ("b", k)})
         for i, j, k in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
    )
    P = product_complex(S2a, S2b)
    K = _sd_raw(P)

    def swap(v):
        return frozenset(
            (("a", vb[1]), ("b", va[1])) for (va, vb) in v
        )

    identify = {}
    for v in K.vertices:
        w = swap(v)
        identify[v] = min([v, w], key=lambda s: simplex_key([s]))
    Q = quotient(K, identify)
    fixed_vs = {v for v in K.vertices if swap(v) == v}
    for d in range(5):
        total = len(K.faces(d))
        fix = sum(1 for s in K.faces(d) if s <= fixed_vs)
        _require((total + fix) % 2 == 0, "CP2", "orbit parity")
        _require(len(Q.faces(d)) == (total + fix) // 2, "CP2",
                 f"orbit count in dimension {d}")
    QK, _ = relabel_canonical(Q)
    C, _ = relabel_canonical(contract_edges(QK))
    _check_manifold(C, "CP2", orientable=True)
    _check_homology(C, "CP2", (1, 0, 1, 0, 1), ((), (), (), (), ()))
    return C


def _build_CP2_sum():
    C = _build_cached("CP2")
    K = connected_sum(C, C)
    _check_homology(K, "CP2#CP2", (1, 0, 2, 0, 1), ((), (), (), (), ()))
    _check_manifold(K, "CP2#CP2", orientable=True)
    return K


def _build_J():
    L = _build_cached("L3_1")
    S1 = _build_S1()
    K, _ = relabel_canonical(contract_edges(product_complex(L, S1)))
    _check_homology(K, "J_L3", (1, 1, 0, 1, 1), ((), (3,), (3,), (), ()))
    _check_manifold(K, "J_L3", orientable=True)
    return K


# --- stratified entries -------------------------------------------------------


def _trivial(K, n=None):
    return StratifiedComplex.trivial(K, n)


_BUILDERS = {
    "S0": lambda: _trivial(_build_S0(), 0),
    "S1": lambda: _trivial(_build_S1()),
    "S2": lambda: _trivial(_build_S2()),
    "T2": lambda: _trivial(_build_cached("T2_plain")),
    "RP2": lambda: _trivial(_build_cached("RP2_plain")),
    "Klein": lambda: _trivial(_build_Klein()),
    "genus2": lambda: _trivial(_build_genus2()),
    "CP2": lambda: _trivial(_build_cached("CP2")),
    "CP2#CP2": lambda: _trivial(_build_CP2_sum()),
    "L2_1": lambda: _trivial(_build_cached("L2_1")),
    "L3_1": lambda: _trivial(_build_cached("L3_1")),
    "L5_1": lambda: _trivial(_build_cached("L5_1")),
    "cone_RP2": lambda: cone(_trivial(_build_cached("RP2_plain"))),
    "S_RP2": lambda: suspension(_trivial(_build_cached("RP2_plain"))),
    "SS_RP2": lambda: suspension(
        suspension(_trivial(_build_cached("RP2_plain")))
    ),
    "J_L3": lambda: _trivial(_build_cached("J_L3")),
    "SJ_L3": lambda: suspension(_trivial(_build_cached("J_L3"))),
    "S_T2": lambda: suspension(_trivial(_build_cached("T2_plain"))),
}

_PLAIN_BUILDERS = {
    "T2_plain": _build_T2,
    "RP2_plain": _build_RP2,
    "CP2": _build_CP2,
    "L2_1": _build_L2,
    "L3_1": lambda: _lens_space(3),
    "L5_1": lambda: _lens_space(5),
    "J_L3": _build_J,
}


@lru_cache(maxsize=None)
def _build_cached(name):
    return _PLAIN_BUILDERS[name]()


@lru_cache(maxsize=None)
def catalog_build(name) -> StratifiedComplex:
    """Deterministic construction of a named catalog space."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name in _FORMULA_BUILDERS:
        raise CatalogError(
            f"{name!r} is a formula-level entry; use catalog_table"
        )
    raise CatalogError(f"unknown catalog space {name!r}")


# --- formula-level entries ----------------------------------------------------


def _base_table(dims, label):
    return IHTable(coeff_label=label, n=len(dims) - 1, dims=tuple(dims))


def _table_Uhat(pbar, coeff_label, e=3):
    base = _base_table((1, 0, 1), coeff_label)
    return compactified_bundle_formula(base, 2, e, pbar)


def _table_Y(pbar, coeff_label, e=3):
    base = _base_table((1, 2, 1), coeff_label)
    return compactified_bundle_formula(base, 2, e, pbar)


def _table_X8_SJ(pbar, coeff_label):
    """SJ x S1 x S2, evaluated from the chain-level SJ table and the
    product-manifold homology by the Kunneth engine."""
    from .ihcore import ih_homology

    sj = catalog_build("SJ_L3")
    sub = Perversity(pbar.values[:4], 5)
    sj_table = ih_homology(sj, sub, coeff_from_label(coeff_label))
    man = _base_table((1, 1, 1, 1), coeff_label)
    return kunneth(sj_table, man)


def _table_X8_SY(pbar, coeff_label, e=3):
    y = _table_Y(Perversity.lower_middle(4), coeff_label, e)
    sy = suspension_formula(y, 4, Perversity(pbar.values[:4], 5))
    man = _base_table((1, 1, 1, 1), coeff_label)
    return kunneth(sy, man)


_FORMULA_BUILDERS = {
    "Uhat_S2": _table_Uhat,
    "Y_T2": _table_Y,
    "X8_SJ": _table_X8_SJ,
    "X8_SY": _table_X8_SY,
}


def catalog_table(name, pbar, coeff_label, **kw) -> IHTable:
    """Homology table of a formula-level catalog entry."""
    if name not in _FORMULA_BUILDERS:
        raise CatalogError(f"unknown formula entry {name!r}")
    return _FORMULA_BUILDERS[name](pbar, coeff_label, **kw)


# --- manifest ------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    kind: str  # triangulated | formula
    cost_class: str  # instant | seconds | stretch
    description: str


_ENTRIES = [
    CatalogEntry("S0", 0, "triangulated", "instant", "two points"),
    CatalogEntry("S1", 1, "triangulated", "instant", "3-vertex circle"),
    CatalogEntry("S2", 2, "triangulated", "instant", "boundary of a tetrahedron"),
    CatalogEntry("T2", 2, "triangulated", "instant", "9-vertex torus (product of circles)"),
    CatalogEntry("RP2", 2, "triangulated", "instant", "6-vertex projective plane"),
    CatalogEntry("Klein", 2, "triangulated", "instant", "9-vertex Klein bottle"),
    CatalogEntry("genus2", 2, "triangulated", "instant", "connected sum of two tori"),
    CatalogEntry("CP2", 4, "triangulated", "seconds", "complex projective plane (symmetric square of the sphere)"),
    CatalogEntry("CP2#CP2", 4, "triangulated", "seconds", "connected sum of two copies of CP2"),
    CatalogEntry("L2_1", 3, "triangulated", "instant", "real projective 3-space"),
    CatalogEntry("L3_1", 3, "triangulated", "instant", "lens space L(3,1)"),
    CatalogEntry("L5_1", 3, "triangulated", "seconds", "lens space L(5,1)"),
    CatalogEntry("cone_RP2", 3, "triangulated", "instant", "cone on the projective plane"),
    CatalogEntry("S_RP2", 3, "triangulated", "instant", "suspension of the projective plane"),
    CatalogEntry("SS_RP2", 4, "triangulated", "instant", "double suspension of the projective plane"),
    CatalogEntry("S_T2", 3, "triangulated", "instant", "suspension of the torus"),
    CatalogEntry("J_L3", 4, "triangulated", "seconds", "L(3,1) x S1"),
    CatalogEntry("SJ_L3", 5, "triangulated", "seconds", "suspension of L(3,1) x S1"),
    CatalogEntry("Uhat_S2", 4, "formula", "instant", "compactified disk bundle over S2 with euler number e"),
    CatalogEntry("Y_T2", 4, "formula", "instant", "compactified disk bundle over T2 with euler number e"),
    CatalogEntry("X8_SJ", 8, "formula", "instant", "SJ x S1 x S2 via the Kunneth engine"),
    CatalogEntry("X8_SY", 8, "formula", "instant", "S1 x S2 x SY via the Kunneth engine"),
]


def catalog_entries():
    return list(_ENTRIES)


def catalog_entry(name) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise CatalogError(f"unknown catalog space {name!r}")
