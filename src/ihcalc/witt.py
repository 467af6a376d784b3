"""Witt group arithmetic over finite fields and the Witt condition check.

Symmetric bilinear forms over a finite field of odd characteristic are
classified by the pair (dimension mod 2, square class of the signed
determinant); in characteristic 2 by the dimension mod 2 alone; over the
rationals we expose only the signature.
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
    smallest_nonsquare,
)
from .ihcore import Perversity, ih_homology
from .simplicial import (
    StratifiedComplex,
    simplicial_link,
    sorted_vertices,
    stratum_components,
    verify_pseudomanifold,
)


class WittError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus cyclic torsion
    summands (orders sorted ascending)."""

    free_rank: int = 0
    torsion: tuple = ()

    def __add__(self, other):
        return AbelianGroup(
            self.free_rank + other.free_rank,
            tuple(sorted(self.torsion + other.torsion)),
        )

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = AbelianGroup()


class BilinearForm:
    """Symmetric bilinear form given by a Gram matrix over a field."""

    def __init__(self, gram_rows, field, lift=True):
        # with lift=False the entries are taken verbatim as elements of
        # the field's internal encoding; needed for extension fields,
        # whose elements are plain ints that from_int would reduce mod p
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
        f = self.field
        # eliminate with the field's own operations: exactalg.rank would
        # read encoded F_{p^m} entries as integers
        work = [row[:] for row in self.rows]
        r = 0
        for col in range(self.n):
            piv = next(
                (i for i in range(r, self.n) if work[i][col] != f.zero), None
            )
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = f.inv(work[r][col])
            for i in range(r + 1, self.n):
                c = f.mul(work[i][col], inv)
                if c != f.zero:
                    work[i] = [
                        f.sub(a, f.mul(c, b)) for a, b in zip(work[i], work[r])
                    ]
            r += 1
        return r == self.n

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


def diagonalize(form: BilinearForm):
    """Congruent diagonalization: returns (diagonal entries, P) with
    P^T G P equal to the diagonal matrix.  Characteristic must not be 2.
    Raises WittError on a degenerate form: a pivot that neither a swap
    nor a column addition makes nonzero leaves a zero row."""
    f = form.field
    if getattr(f, "p", 0) == 2:
        raise WittError("diagonalization needs odd characteristic")
    n = form.n
    G = [row[:] for row in form.rows]
    P = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        # column operation followed by the matching row operation keeps
        # G congruent; P records the accumulated column operations.
        for i in range(n):
            G[i][dst] = f.add(G[i][dst], f.mul(c, G[i][src]))
        for j in range(n):
            G[dst][j] = f.add(G[dst][j], f.mul(c, G[src][j]))
        for i in range(n):
            P[i][dst] = f.add(P[i][dst], f.mul(c, P[i][src]))

    def swap_col(a, b):
        for i in range(n):
            G[i][a], G[i][b] = G[i][b], G[i][a]
        for j in range(n):
            G[a][j], G[b][j] = G[b][j], G[a][j]
        for i in range(n):
            P[i][a], P[i][b] = P[i][b], P[i][a]

    for k in range(n):
        if G[k][k] == f.zero:
            pivot = None
            for j in range(k + 1, n):
                if G[j][j] != f.zero:
                    pivot = j
                    break
            if pivot is not None:
                # a swap cannot cancel, unlike adding the pivot column
                swap_col(k, pivot)
            else:
                for j in range(k + 1, n):
                    if G[k][j] != f.zero:
                        add_col(k, j, f.one)
                        break
                else:
                    raise WittError("form is degenerate")
        d = G[k][k]
        dinv = f.inv(d)
        for j in range(k + 1, n):
            c = f.neg(f.mul(G[k][j], dinv))
            if c != f.zero:
                add_col(j, k, c)
    return [G[i][i] for i in range(n)], P


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
    f = form.field
    label = f.label
    n = form.n
    if isinstance(f, Rationals):
        if n == 0:
            return WittClass(label, signature=0)
        diag, _ = diagonalize(form)
        sig = sum(1 if d > 0 else -1 for d in diag)
        return WittClass(label, signature=sig)
    if f.p == 2:
        if not form.is_nondegenerate():
            raise WittError("form is degenerate")
        return WittClass(label, dim0=n % 2)
    if n == 0:
        return WittClass(label, dim0=0, dpm="square")
    diag, _ = diagonalize(form)
    det = f.one
    for d in diag:
        det = f.mul(det, d)
    sign_exp = (n * (n - 1) // 2) % 2
    signed = f.neg(det) if sign_exp else det
    return WittClass(label, dim0=n % 2, dpm=_square_class(signed, f))


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
    field = _class_field(label)
    return _square_class(field.neg(field.one), field)


def _class_field(label):
    try:
        return coeff_from_label(label)
    except CoefficientError as e:
        raise WittError(str(e)) from None


def witt_identity(field):
    label = field.label
    if isinstance(field, Rationals):
        return WittClass(label, signature=0)
    if field.p == 2:
        return WittClass(label, dim0=0)
    return WittClass(label, dim0=0, dpm="square")


@dataclass(frozen=True)
class WittGroupDescr:
    field_label: str
    structure: str  # Z4 | Z2xZ2 | Z2 | Z-signature
    generators: tuple
    abelian: AbelianGroup


def witt_group(field) -> WittGroupDescr:
    label = field.label
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
    if field.p == 2:
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
    """Reinterpret a Witt class over Z_p in the degree-m extension field
    by re-evaluating the invariants of a diagonal representative."""
    base = _class_field(a.field_label)
    if not isinstance(base, PrimeField):
        raise WittError("restriction starts from a prime field")
    p = base.p
    ext = make_field(p, m)
    if p == 2:
        return WittClass(ext.label, dim0=a.dim0)
    rep = diagonal_representative(a)
    if rep.n == 0:
        return witt_identity(ext)
    return witt_invariants(BilinearForm(rep.rows, ext))


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
    """Middle-perversity vanishing at the middle degree of every link of
    every odd-codimension stratum component (codimension at least 3);
    equal links, such as the two poles of a suspension, share one table."""
    if isinstance(coeff, Integers):
        raise WittError("the Witt condition is tested over fields")
    rep = verify_pseudomanifold(X)
    if not rep.is_pseudomanifold:
        raise WittError("input is not a pseudomanifold")
    n = X.n
    checks = []
    tables = {}
    for d in range(0, n - 2):
        codim = n - d
        if codim % 2 == 0:
            continue
        k = (codim - 1) // 2
        if k <= 0:
            continue
        for comp in stratum_components(X, d):
            reps = comp if check_all_links else comp[:1]
            dims = []
            for s in reps:
                link = simplicial_link(X, s)
                if link not in tables:
                    mbar = Perversity.lower_middle(link.n)
                    tables[link] = ih_homology(link, mbar, coeff)
                dims.append(tables[link].dim(k))
            first = dims[0]
            checks.append(
                LinkCheck(
                    stratum_dim=d,
                    middle_degree=k,
                    representative=tuple(sorted_vertices(comp[0])),
                    link_dim_checked=first,
                    passes=all(v == 0 for v in dims),
                    all_links_agree=all(v == first for v in dims),
                )
            )
    return WittReport(
        coeff_label=coeff.label,
        n=n,
        oriented=rep.orientable,
        irreducible=rep.irreducible,
        checks=checks,
    )


def characteristic_reduction_check(X, p, m):
    """The Witt verdict must not see the difference between the prime
    field and its extensions; true when the per-stratum verdicts agree."""
    base = witt_condition_check(X, PrimeField(p))
    ext = witt_condition_check(X, make_field(p, m))
    if len(base.checks) != len(ext.checks):
        return False
    return all(
        a.passes == b.passes for a, b in zip(base.checks, ext.checks)
    )


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
        if isinstance(field, Rationals) or field.p == 2:
            raise WittError("nonsquare generator needs an odd finite field")
        s = smallest_nonsquare(field)
        return witt_invariants(BilinearForm([[s]], field))
    return witt_invariants(BilinearForm(data, field))
