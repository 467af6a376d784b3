"""Built-in spaces: triangulated catalog entries plus formula-level
entries for spaces too large to triangulate.

Each space is one `CatalogEntry` in the `_ENTRIES` registry, which holds
its name, dimension, kind, cost class, description and build.  A
triangulated entry's build returns a stratified complex, or a plain
complex for a manifold, which `catalog_build` stratifies trivially.  A
derived space (cone, suspension, connected sum, product) builds from
`catalog_build` of its base, so each base is constructed once per
process: `catalog_build` is the package's only cache.  A formula
entry's build is its table function, which `catalog_table` calls.

Every triangulated entry validates itself at build time (homology and
pseudomanifold flags), and every glued space (the lens spaces, RP3, CP2,
the connected sums genus2 and CP2#CP2, and Klein) goes through
`simplicial.quotient`, which certifies the gluing itself, so downstream
computations never run on a miscooked triangulation.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .exactalg import INTEGERS, coeff_from_label
from .formulas import (
    compactified_bundle_formula,
    kunneth,
    suspension_formula,
    _field_table,
)
from .ihcore import IHTable, Perversity, ih_homology, ordinary_homology
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
    suspension,
    verify_pseudomanifold,
    _sd_complex,
)


class CatalogError(ValueError):
    pass


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


def _certify(K, name, ranks, torsion, orientable=True):
    """K, once its integral homology and its manifold flags are as given."""
    _check_homology(K, name, ranks, torsion)
    _check_manifold(K, name, orientable)
    return K


def _simplify(Q):
    """A glued complex edge-contracted and relabelled to 0..V-1."""
    return relabel_canonical(contract_edges(Q))


# --- base triangulations -----------------------------------------------------


def _build_S1():
    return build_complex([{0, 1}, {1, 2}, {0, 2}])


RP2_FACETS = [
    {1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
    {2, 3, 5}, {3, 4, 6}, {4, 5, 2}, {5, 6, 3}, {6, 2, 4},
]


def _build_RP2():
    return _certify(build_complex(RP2_FACETS), "RP2", (1, 0, 0), ((), (2,), ()), orientable=False)


def _build_T2():
    S1 = _build_S1()
    K = relabel_canonical(product_complex(S1, S1))
    return _certify(K, "T2", (1, 2, 1), ((), (), ()))


def _build_Klein():
    """The 3 x 3 grid on S1 x [0, 3], its ends glued by a reflection; (i, j)
    is 3i + j, and 9 + i on the top circle, so the quotient is on 0..8."""
    def v(i, j):
        return 3 * (i % 3) + j if j < 3 else 9 + i % 3
    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [{a, b, c}, {b, c, d}]
    K = quotient(build_complex(tris), {9 + i: 3 * (-i % 3) for i in range(3)})
    return _certify(K, "Klein", (1, 1, 0), ((), (2,), ()), orientable=False)


def _build_genus2():
    T2 = catalog_build("T2").complex
    return _certify(connected_sum(T2, T2), "genus2", (1, 4, 1), ((), (), ()))


# --- quotient constructions ---------------------------------------------------


def _subdivide(K, glue):
    """sd(K), vertex i standing for the i-th simplex of K in `simplex_key`
    order, and the vertex map induced by `glue`, a vertex map on some
    vertices of K: a simplex inside glue's domain goes to its image."""
    sd, simplices = _sd_complex(K)
    index = {s: i for i, s in enumerate(simplices)}
    image, domain = glue.__getitem__, glue.keys()
    return sd, {i: index[frozenset(map(image, s))]
                for i, s in enumerate(simplices) if s <= domain}


def _lens_space(p):
    """L(p,1) from a bipyramid over a p-gon: the top boundary cap is
    glued to the bottom cap with a one-step twist, which becomes
    simplicial after two subdivisions."""
    N, S = "N", "S"
    K = SimplicialComplex.from_maximal([{N, S, i, (i + 1) % p} for i in range(p)])
    glue = {N: S} | {i: (i + 1) % p for i in range(p)}
    for _ in range(2):
        K, glue = _subdivide(K, glue)
    return _certify(_simplify(quotient(K, glue)), f"L{p}_1", (1, 0, 0, 1), ((), (p,), (), ()))


def _build_L2():
    """RP3 as the antipodal quotient of the join of two squares (a
    16-tetrahedron 3-sphere); one subdivision makes the free involution
    simplicial."""
    def square(t):
        return [frozenset([(t, i), (t, (i + 1) % 4)]) for i in range(4)]

    K = SimplicialComplex.from_maximal([e1 | e2 for e1 in square("a") for e2 in square("b")])
    Q = quotient(*_subdivide(K, {y: (y[0], (y[1] + 2) % 4) for y in K.vertices}))
    return _certify(_simplify(Q), "L2_1", (1, 0, 0, 1), ((), (2,), (), ()))


def _build_CP2():
    """CP2 as the quotient of S2 x S2 by the factor swap (the symmetric
    square of the sphere), branched along the fixed diagonal.  One
    subdivision makes the involution simplicial."""
    S2 = catalog_build("S2").complex
    a, b = (S2.relabel({i: (t, i) for i in range(4)}) for t in "ab")
    K = product_complex(a, b)
    Q = quotient(*_subdivide(K, {y: (("a", y[1][1]), ("b", y[0][1])) for y in K.vertices}))
    return _certify(_simplify(Q), "CP2", (1, 0, 1, 0, 1), ((), (), (), (), ()))


def _build_CP2_sum():
    C = catalog_build("CP2").complex
    return _certify(connected_sum(C, C), "CP2#CP2", (1, 0, 2, 0, 1), ((), (), (), (), ()))


def _build_J():
    L = catalog_build("L3_1").complex
    K = relabel_canonical(product_complex(L, _build_S1()))
    return _certify(K, "J_L3", (1, 1, 0, 1, 1), ((), (3,), (3,), (), ()))


# --- formula-level entries ----------------------------------------------------


def _table_Uhat(pbar, coeff_label, e=3):
    base = _field_table(coeff_label, (1, 0, 1))
    return compactified_bundle_formula(base, 2, e, pbar)


def _table_Y(pbar, coeff_label, e=3):
    base = _field_table(coeff_label, (1, 2, 1))
    return compactified_bundle_formula(base, 2, e, pbar)


def _table_X8_SJ(pbar, coeff_label):
    """SJ x S1 x S2, evaluated from the chain-level SJ table and the
    product-manifold homology by the Kunneth engine."""
    sj = catalog_build("SJ_L3")
    sub = Perversity(pbar.values[:4], 5)
    sj_table = ih_homology(sj, sub, coeff_from_label(coeff_label))
    man = _field_table(coeff_label, (1, 1, 1, 1))
    return kunneth(sj_table, man)


def _table_X8_SY(pbar, coeff_label, e=3):
    y = _table_Y(Perversity.lower_middle(4), coeff_label, e)
    sy = suspension_formula(y, 4, Perversity(pbar.values[:4], 5))
    man = _field_table(coeff_label, (1, 1, 1, 1))
    return kunneth(sy, man)


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    kind: str  # triangulated | formula
    cost_class: str  # instant | seconds | stretch
    description: str
    # triangulated: () -> complex; formula: (pbar, coeff_label, **kw) -> IHTable
    build: Callable = field(repr=False, compare=False)


_ENTRIES = {e.name: e for e in [
    CatalogEntry("S0", 0, "triangulated", "instant", "two points", lambda: build_complex([{0}, {1}])),
    CatalogEntry("S1", 1, "triangulated", "instant", "3-vertex circle", _build_S1),
    CatalogEntry("S2", 2, "triangulated", "instant", "boundary of a tetrahedron",
                 lambda: build_complex([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])),
    CatalogEntry("T2", 2, "triangulated", "instant", "9-vertex torus (product of circles)", _build_T2),
    CatalogEntry("RP2", 2, "triangulated", "instant", "6-vertex projective plane", _build_RP2),
    CatalogEntry("Klein", 2, "triangulated", "instant", "9-vertex Klein bottle", _build_Klein),
    CatalogEntry("genus2", 2, "triangulated", "instant", "connected sum of two tori", _build_genus2),
    CatalogEntry("CP2", 4, "triangulated", "seconds",
                 "complex projective plane (symmetric square of the sphere)", _build_CP2),
    CatalogEntry("CP2#CP2", 4, "triangulated", "seconds", "connected sum of two copies of CP2", _build_CP2_sum),
    CatalogEntry("L2_1", 3, "triangulated", "instant", "real projective 3-space", _build_L2),
    CatalogEntry("L3_1", 3, "triangulated", "instant", "lens space L(3,1)", lambda: _lens_space(3)),
    CatalogEntry("L5_1", 3, "triangulated", "seconds", "lens space L(5,1)", lambda: _lens_space(5)),
    CatalogEntry("cone_RP2", 3, "triangulated", "instant", "cone on the projective plane",
                 lambda: cone(catalog_build("RP2"))),
    CatalogEntry("S_RP2", 3, "triangulated", "instant", "suspension of the projective plane",
                 lambda: suspension(catalog_build("RP2"))),
    CatalogEntry("SS_RP2", 4, "triangulated", "instant", "double suspension of the projective plane",
                 lambda: suspension(catalog_build("S_RP2"))),
    CatalogEntry("S_T2", 3, "triangulated", "instant", "suspension of the torus",
                 lambda: suspension(catalog_build("T2"))),
    CatalogEntry("J_L3", 4, "triangulated", "seconds", "L(3,1) x S1", _build_J),
    CatalogEntry("SJ_L3", 5, "triangulated", "seconds", "suspension of L(3,1) x S1",
                 lambda: suspension(catalog_build("J_L3"))),
    CatalogEntry("Uhat_S2", 4, "formula", "instant",
                 "compactified disk bundle over S2 with euler number e", _table_Uhat),
    CatalogEntry("Y_T2", 4, "formula", "instant",
                 "compactified disk bundle over T2 with euler number e", _table_Y),
    CatalogEntry("X8_SJ", 8, "formula", "instant", "SJ x S1 x S2 via the Kunneth engine", _table_X8_SJ),
    CatalogEntry("X8_SY", 8, "formula", "instant", "S1 x S2 x SY via the Kunneth engine", _table_X8_SY),
]}


def catalog_entries():
    return list(_ENTRIES.values())


def catalog_entry(name) -> CatalogEntry:
    if name not in _ENTRIES:
        raise CatalogError(f"unknown catalog space {name!r}")
    return _ENTRIES[name]


@lru_cache(maxsize=None)
def catalog_build(name) -> StratifiedComplex:
    """Deterministic construction of a named catalog space."""
    entry = catalog_entry(name)
    if entry.kind == "formula":
        raise CatalogError(f"{name!r} is a formula-level entry; use catalog_table")
    X = entry.build()
    return StratifiedComplex.trivial(X) if isinstance(X, SimplicialComplex) else X


def catalog_table(name, pbar, coeff_label, **kw) -> IHTable:
    """Homology table of a formula-level catalog entry, over a field."""
    if name not in _ENTRIES or _ENTRIES[name].kind != "formula":
        raise CatalogError(f"unknown formula entry {name!r}")
    if coeff_label == INTEGERS.label:
        raise CatalogError("formula entries need field coefficients")
    return _ENTRIES[name].build(pbar, coeff_label, **kw)
