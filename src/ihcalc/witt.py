"""Witt group arithmetic over finite fields and the Witt condition check.

Symmetric bilinear forms over a finite field of odd characteristic are
classified by the pair (dimension mod 2, square class of the signed
determinant); in characteristic 2 by the dimension mod 2 alone; over the
rationals we expose only the signature.  Every form fact is read off one
congruent reduction by 1x1 and hyperbolic 2x2 pivots (Milnor and
Husemoller, Symmetric Bilinear Forms, ch. I and III), which works in
every characteristic: nondegeneracy, a diagonal form and the invariants.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    CoefficientError,
    Integers,
    PrimeField,
    Rationals,
    coeff_from_label,
    is_square,
    make_field,
    prime_field,
    smallest_nonsquare,
)
from .ihcore import AbelianGroup, Perversity, link_tables, stratum_links
from .simplicial import StratifiedComplex, sorted_vertices, verify_pseudomanifold


class WittError(ValueError):
    pass


ZERO_GROUP = AbelianGroup()


class BilinearForm:
    """Symmetric bilinear form given by a Gram matrix over a field."""

    def __init__(self, gram_rows, field, lift=True):
        # with lift=False the entries are taken verbatim as elements of
        # the field's internal encoding; needed for extension fields,
        # whose elements are plain ints that from_int would reduce mod p
        if isinstance(field, Integers):
            raise WittError("bilinear forms are taken over fields, not Z")
        self.field = field
        self.n = len(gram_rows)
        rows = []
        for row in gram_rows:
            if len(row) != self.n:
                raise WittError("Gram matrix must be square")
            rows.append([self._lift(v) if lift else v for v in row])
        for i in range(self.n):
            for j in range(self.n):
                if rows[i][j] != rows[j][i]:
                    raise WittError("Gram matrix must be symmetric")
        self.rows = rows

    def _lift(self, v):
        f = self.field
        if isinstance(f, Rationals):
            return Fraction(v)
        if isinstance(v, int):
            return f.from_int(v)
        return v

    def is_nondegenerate(self):
        try:
            _congruent_pivots(self)
        except WittError:
            return False
        return True

    def evaluate(self, u, v):
        f = self.field
        acc = f.zero
        for i, a in enumerate(u):
            if a == f.zero:
                continue
            for j, b in enumerate(v):
                if b == f.zero:
                    continue
                acc = f.add(acc, f.mul(f.mul(a, self.rows[i][j]), b))
        return acc


def _congruent_pivots(form: BilinearForm):
    """Reduce the Gram matrix by congruent Schur complements, in any
    characteristic.  A nonzero live diagonal entry d is a 1x1 pivot; when
    every live diagonal entry is 0, the first nonzero entry b of the first
    live row is a hyperbolic 2x2 pivot [[0, b], [b, 0]].  Returns (the
    d's, the b's); the form is congruent to their orthogonal sum.  Raises
    WittError on a degenerate form: a live row that is all zero."""
    f = form.field
    G = [row[:] for row in form.rows]
    live = list(range(form.n))
    ds, bs = [], []
    while live:
        k = next((i for i in live if G[i][i] != f.zero), None)
        if k is not None:
            live.remove(k)
            ds.append(G[k][k])
            dinv = f.inv(G[k][k])
            for i in live:
                c = f.mul(G[i][k], dinv)
                if c != f.zero:
                    for j in live:
                        G[i][j] = f.sub(G[i][j], f.mul(c, G[k][j]))
            continue
        k = live[0]
        j0 = next((j for j in live if G[k][j] != f.zero), None)
        if j0 is None:
            raise WittError("form is degenerate")
        live.remove(k)
        live.remove(j0)
        bs.append(G[k][j0])
        binv = f.inv(G[k][j0])
        for i in live:
            u, v = f.mul(G[i][k], binv), f.mul(G[i][j0], binv)
            for j in live:
                t = f.add(f.mul(u, G[j0][j]), f.mul(v, G[k][j]))
                G[i][j] = f.sub(G[i][j], t)
    return ds, bs


def diagonalize(form: BilinearForm):
    """Diagonal entries of a form congruent to this one, read off the
    pivots of the one congruent reduction: each 1x1 pivot d is kept and
    each hyperbolic pivot b becomes <2b, -2b>.  Characteristic must not
    be 2.  Raises WittError on a degenerate form."""
    f = form.field
    if f.char == 2:
        raise WittError("diagonalization needs odd characteristic")
    ds, bs = _congruent_pivots(form)
    return ds + [x for b in bs for x in (f.add(b, b), f.neg(f.add(b, b)))]


@dataclass(frozen=True)
class WittClass:
    """Witt class invariants.

    Odd finite fields use (dim0, dpm) with dpm the canonical square-class
    representative of the signed determinant; characteristic 2 uses dim0
    alone; the rationals carry the signature.
    """

    field_label: str
    dim0: int = 0
    dpm: object = None
    signature: object = None

    @property
    def is_identity(self):
        if self.signature is not None:
            return self.signature == 0
        if self.dpm is None:
            return self.dim0 == 0
        return self.dim0 == 0 and self.dpm == "square"

    def describe(self):
        if self.signature is not None:
            return f"signature {self.signature}"
        if self.dpm is None:
            return f"(dim0={self.dim0})"
        return f"(dim0={self.dim0}, d={self.dpm})"


def _square_class(a, field):
    return "square" if is_square(a, field) else "nonsquare"


def witt_invariants(form: BilinearForm) -> WittClass:
    f, n = form.field, form.n
    ds, bs = _congruent_pivots(form)
    if isinstance(f, Rationals):
        # a hyperbolic plane has signature 0
        return WittClass(f.label, signature=sum(1 if d > 0 else -1 for d in ds))
    if f.char == 2:
        return WittClass(f.label, dim0=n % 2)
    # det = prod(d) * prod(-b^2) exactly: the reduction is a congruence
    # by a matrix of determinant +-1
    det = f.one
    for d in ds:
        det = f.mul(det, d)
    for b in bs:
        det = f.mul(det, f.neg(f.mul(b, b)))
    signed = f.neg(det) if (n * (n - 1) // 2) % 2 else det
    return WittClass(f.label, dim0=n % 2, dpm=_square_class(signed, f))


def _class_mul(a, b):
    return "square" if a == b else "nonsquare"


def witt_class_add(a: WittClass, b: WittClass) -> WittClass:
    if a.field_label != b.field_label:
        raise WittError("field mismatch")
    if a.signature is not None:
        return WittClass(a.field_label, signature=a.signature + b.signature)
    if a.dpm is None:
        return WittClass(a.field_label, dim0=(a.dim0 + b.dim0) % 2)
    f = _class_mul(a.dpm, b.dpm)
    if a.dim0 and b.dim0:
        # the (-1)^(e e') twist of the group law
        f = _class_mul(f, _minus_one_class(a.field_label))
    return WittClass(a.field_label, dim0=(a.dim0 + b.dim0) % 2, dpm=f)


def _minus_one_class(label):
    # for odd q, -1 is a square in F_q exactly when q = 1 mod 4; the
    # field is built without its tables
    return "square" if _class_field(label).order % 4 == 1 else "nonsquare"


def _class_field(label):
    try:
        return coeff_from_label(label)
    except CoefficientError as e:
        raise WittError(str(e)) from None


@dataclass(frozen=True)
class WittGroupDescr:
    field_label: str
    structure: str  # Z4 | Z2xZ2 | Z2 | Z-signature
    generators: tuple
    abelian: AbelianGroup


def witt_group(field) -> WittGroupDescr:
    label = field.label
    if isinstance(field, Integers):
        raise WittError("Witt groups are taken over fields, not Z")
    if isinstance(field, Rationals):
        return WittGroupDescr(
            label, "Z-signature", (((1,),),), AbelianGroup(free_rank=1)
        )
    q = field.order
    if q % 2 == 0:
        return WittGroupDescr(label, "Z2", (((1,),),), AbelianGroup(0, (2,)))
    if q % 4 == 3:
        return WittGroupDescr(label, "Z4", (((1,),),), AbelianGroup(0, (4,)))
    s = smallest_nonsquare(field)
    return WittGroupDescr(
        label, "Z2xZ2", (((1,),), ((s,),)), AbelianGroup(0, (2, 2))
    )


def witt_group_elements(field):
    """All Witt classes over a finite field, in a deterministic order."""
    label = field.label
    if not field.char:
        raise WittError(f"no finite field for {label}")
    if field.char == 2:
        return [WittClass(label, dim0=e) for e in (0, 1)]
    return [
        WittClass(label, dim0=e, dpm=f)
        for e in (0, 1)
        for f in ("square", "nonsquare")
    ]


def diagonal_representative(a: WittClass):
    """A diagonal form over the class's own field with these invariants."""
    field = _class_field(a.field_label)
    if not field.char:
        raise WittError(f"no finite field for {a.field_label}")
    if a.dpm is None:
        return BilinearForm([[1]] if a.dim0 else [], field)
    one = field.one
    s = smallest_nonsquare(field)
    if a.dim0 == 1:
        d = one if a.dpm == "square" else s
        return BilinearForm([[d]], field, lift=False)
    if a.is_identity:
        return BilinearForm([], field)
    # two-dimensional: need d(form) = -(product) to land in the class
    target = field.neg(one if a.dpm == "square" else s)
    b = one if is_square(target, field) else s
    return BilinearForm([[one, field.zero], [field.zero, b]], field, lift=False)


def restriction_map(a: WittClass, m: int) -> WittClass:
    """The image of a Witt class over Z_p in the degree-m extension field.
    For odd p an element of Z_p* is a square in F_{p^m} exactly when it
    is a square in Z_p or m is even, so the dimension parity stays and
    the determinant class becomes a square when m is even."""
    base = _class_field(a.field_label)
    if not isinstance(base, PrimeField):
        raise WittError("restriction starts from a prime field")
    ext = make_field(base.p, m)
    if base.p == 2:
        return WittClass(ext.label, dim0=a.dim0)
    return WittClass(ext.label, dim0=a.dim0, dpm="square" if m % 2 == 0 else a.dpm)


def isotropic_vector(form: BilinearForm):
    """Brute-force isotropic vector search over a small finite field.
    Scans projective representatives (first nonzero coordinate 1) in
    lexicographic order; returns None when the form is anisotropic."""
    f = form.field
    if isinstance(f, Rationals):
        raise WittError("finite fields only")
    if form.n > 6 or f.order > 49:
        raise WittError("search bounds exceeded")
    n = form.n

    def vectors(prefix, k):
        if k == n:
            yield tuple(prefix)
            return
        for e in f.elements():
            yield from vectors(prefix + [e], k + 1)

    for lead in range(n):
        prefix = [f.zero] * lead + [f.one]
        for v in vectors(prefix, lead + 1):
            if form.evaluate(v, v) == f.zero:
                return v
    return None


@dataclass
class LinkCheck:
    stratum_dim: int
    middle_degree: int
    representative: tuple
    link_dim_checked: int
    passes: bool
    all_links_agree: bool = True


@dataclass
class WittReport:
    coeff_label: str
    n: int
    oriented: bool
    irreducible: bool
    checks: list

    @property
    def passes(self):
        return all(c.passes for c in self.checks)


def witt_condition_check(X: StratifiedComplex, coeff, check_all_links=False):
    """The report of `witt_condition_checks` for the one field `coeff`."""
    return witt_condition_checks(X, [coeff], check_all_links)[0]


def witt_condition_checks(X: StratifiedComplex, coeffs, check_all_links=False,
                          report=None):
    """One WittReport per field of `coeffs`, in order: middle-perversity
    vanishing in degree (c - 1) / 2 of the links, from
    `ihcore.link_tables`, of every stratum component of odd codimension
    c >= 3, walked with the stratum dimension ascending.  X is verified,
    unless `report` is its `verify_pseudomanifold` report already, and
    its strata and links are found, once for all the fields.  Fields of
    one characteristic share their link tables, taken once per distinct
    link in the prime field (`exactalg.prime_field`): a report reads
    only dimensions, and over F_{p^m} they are those over Z_p.  Raises
    WittError on Z, before any work, and, naming what fails, on a
    non-pseudomanifold."""
    if any(isinstance(coeff, Integers) for coeff in coeffs):
        raise WittError("the Witt condition is tested over fields")
    rep = report or verify_pseudomanifold(X)
    if not rep.is_pseudomanifold:
        raise WittError(rep.failure_message())
    n = X.n
    odd = range(n - 1 + n % 2, 2, -2)
    mbar = Perversity.lower_middle(n)
    links = stratum_links(X, odd, check_all_links)
    shared, reports = {}, []
    for coeff in coeffs:
        prime = prime_field(coeff)
        if prime not in shared:
            shared[prime] = list(link_tables(links, mbar, prime))
        checks = []
        for c, comp, tables in shared[prime]:
            k = (c - 1) // 2
            dims = [t.dim(k) for t in tables]
            checks.append(
                LinkCheck(
                    stratum_dim=n - c,
                    middle_degree=k,
                    representative=tuple(sorted_vertices(comp[0])),
                    link_dim_checked=dims[0],
                    passes=all(v == 0 for v in dims),
                    all_links_agree=all(v == dims[0] for v in dims),
                )
            )
        reports.append(WittReport(
            coeff_label=coeff.label,
            n=n,
            oriented=rep.orientable,
            irreducible=rep.irreducible,
            checks=checks,
        ))
    return reports


def characteristic_reduction_check(X, p, m):
    """The Witt verdict must not see the difference between the prime
    field and its extensions; true when the per-stratum verdicts agree.
    One `witt_condition_checks` call makes both reports, so they share
    one verification, one stratum walk and their link tables."""
    base, ext = witt_condition_checks(X, [PrimeField(p), make_field(p, m)])
    return [c.passes for c in base.checks] == [c.passes for c in ext.checks]


def bordism_group(n, p) -> AbelianGroup:
    """Witt bordism coefficients: the integers in degree 0, the Witt
    group of Z_p in positive degrees divisible by 4, zero elsewhere."""
    if n < 0:
        return ZERO_GROUP
    if n == 0:
        return AbelianGroup(free_rank=1)
    if n % 4 != 0:
        return ZERO_GROUP
    return witt_group(PrimeField(p)).abelian


_CATALOG_GRAMS = {
    # middle-degree intersection pairings recorded with the spaces
    "CP2": [[1]],
    "CP2#CP2": [[1, 0], [0, 1]],
    "X8_SY": [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
    "Uhat_nonsquare": "nonsquare-generator",
}


def witt_class_of_catalog_space(name, field) -> WittClass:
    if name not in _CATALOG_GRAMS:
        raise WittError(f"no pairing data recorded for {name!r}")
    data = _CATALOG_GRAMS[name]
    if data == "nonsquare-generator":
        if field.char % 2 == 0:
            raise WittError("nonsquare generator needs an odd finite field")
        s = smallest_nonsquare(field)
        return witt_invariants(BilinearForm([[s]], field))
    return witt_invariants(BilinearForm(data, field))
