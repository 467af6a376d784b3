"""Intersection homology of stratified complexes.

The chain groups are assembled per coefficient ring: over a field, the
allowable chains with allowable boundary form a subspace of the span of
allowable simplices; over the integers they form a lattice.  The two are
genuinely different objects (the integral complex tensored with a field
is not the field-coefficient complex), so nothing here tensors from Z.

Field extension is flat, so the complex over F_{p^m} is the complex over
Z_p tensored up: F_{p^m} tables are computed in the prime field Z_p and
keep their own label.

There is one chain-assembly path and one table path.  `_ChainData`
keeps what the tables over every ring share: each simplex written as
the ascending tuple of its vertex ranks in the canonical label order,
which sort in `simplex_key` order, split into the allowable simplices
and, in bad[i], the rows of D[i] on the others.  `_homology_table` goes
top down and makes one `exactalg.kernel_image` call per degree: column
operations on D[i] clear its bad rows, and what is left spans the
boundaries of the allowable chains, ranked over a field or put in Smith
normal form over Z.  D[i] is streamed by `_boundary`, which takes the
faces of each simplex from `itertools.combinations`, a column at a time
with the bad rows keyed after every other, and only once D[i + 1] has
been reduced: the columns of D[i] on the faces at which D[i + 1]'s image
pivots have their lowest row are never built (clearing).
`ordinary_homology` is the table of the trivial stratification, where
every simplex is allowable.  The Witt and local torsion conditions both
read `link_tables`, one table per distinct link of the strata that
`stratum_links` walks.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, filterfalse, repeat
from math import gcd

from .exactalg import (
    Integers,
    INTEGERS,
    PrimeField,
    kernel_image,
    prime_field,
)
from .simplicial import (
    SimplicialComplex,
    StratifiedComplex,
    check_full_skeleta,
    simplicial_link,
    stratum_components,
    vertex_ranks,
)


class PerversityError(ValueError):
    pass


class Perversity:
    """A perversity function on codimensions 2..n.

    Stored as the tuple (p(2), ..., p(n)).  Must start at 0 and grow by
    steps of 0 or 1.
    """

    __slots__ = ("values", "n")

    def __init__(self, values, n):
        values = tuple(int(v) for v in values)
        if n >= 2 and len(values) != n - 1:
            raise PerversityError(
                f"need values for codimensions 2..{n}, got {len(values)}"
            )
        if n < 2 and values:
            raise PerversityError("no codimensions >= 2 in this dimension")
        if values:
            if values[0] != 0:
                raise PerversityError("perversity must vanish at codimension 2")
            for a, b in zip(values, values[1:]):
                if not (a <= b <= a + 1):
                    raise PerversityError(
                        f"perversity must grow by 0 or 1, got {values}"
                    )
        self.values = values
        self.n = n

    def __call__(self, k):
        if k < 2:
            return 0
        if k > self.n:
            raise PerversityError(f"perversity not defined at codimension {k}")
        return self.values[k - 2]

    @classmethod
    def zero(cls, n):
        return cls((0,) * max(n - 1, 0), n)

    @classmethod
    def top(cls, n):
        return cls(tuple(k - 2 for k in range(2, n + 1)), n)

    @classmethod
    def lower_middle(cls, n):
        return cls(tuple((k - 2) // 2 for k in range(2, n + 1)), n)

    @classmethod
    def upper_middle(cls, n):
        return cls(tuple((k - 1) // 2 for k in range(2, n + 1)), n)

    def dual(self):
        return Perversity(
            tuple(k - 2 - self(k) for k in range(2, self.n + 1)), self.n
        )

    def __le__(self, other):
        return self.n == other.n and all(
            a <= b for a, b in zip(self.values, other.values)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Perversity)
            and self.n == other.n
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.values, self.n))

    def __repr__(self):
        return f"Perversity({self.values}, n={self.n})"


def _skeleton_vertex_sets(X):
    """(k, vertices of X^(n-k)) for each nonempty X^(n-k), k = 2..n;
    counting vertices needs full skeleta (`check_full_skeleta`)."""
    check_full_skeleta(X)
    n = X.n
    out = []
    for k in range(2, n + 1):
        skel = X.skeleton(n - k)
        if skel.dimension >= 0:
            out.append((k, skel.vertices))
    return out


def _not_allowable(simplices, i, pbar, bounds):
    """The set of those `simplices`, i-simplices as rank tuples, that are
    not allowable for the skeleton vertex sets `bounds`, in rank form.
    An allowable simplex meets each X^(n-k) in dimension at most
    i - k + p(k), so in at most i - k + p(k) + 1 vertices: a skeleton
    whose bound exceeds i is skipped, skeleta with the same vertices
    are tested once, at the least bound, and vertices are counted only
    in the simplices that meet the skeleton."""
    most = {}
    for k, verts in bounds:
        m = i - k + pbar(k) + 1
        if m <= i:
            most[verts] = min(m, most.get(verts, m))
    bad = set()
    for verts, m in most.items():
        bad.update(t for t in filterfalse(verts.isdisjoint, simplices)
                   if len(verts.intersection(t)) > m)
    return bad


def _boundary(allowed, faces, i, skip, bad):
    """The boundary from the span of the i-simplices `allowed` to the span
    of `faces`, both rank tuples, as the columns `kernel_image` takes:
    {row: +-1} for each simplex of `allowed` whose position is not in
    `skip`, in order.  The row of a face is its position in `faces`,
    plus len(faces) at the positions `bad`, so that those rows come
    after every other.  `combinations(t, i)` lists the faces of t
    leaving out t[i], t[i - 1], ..., t[0]: the k-th has the alternating
    sign (-1)^(i - k) of the vertex it leaves out."""
    row = {f: r for r, f in enumerate(faces)}
    for r in bad:
        row[faces[r]] += len(faces)
    row = row.__getitem__
    signs = [-1 if (i - k) % 2 else 1 for k in range(i + 1)]
    return (dict(zip(map(row, combinations(t, i)), signs))
            for c, t in enumerate(allowed) if c not in skip)


class _ChainData:
    """What the tables over every ring share.

    For each degree i: faces[i] lists the i-simplices as rank tuples in
    `simplex_key` order, allowed[i] the allowable ones among them, and
    bad[i] the positions in faces[i - 1] of the non-allowable faces,
    which are the rows of the boundary of allowed[i] (`_boundary`) that
    an intersection chain must miss.  The intersection chain group in
    degree i is the kernel of those rows.
    """

    def __init__(self, X, pbar):
        n = self.n = X.n
        rank_of = vertex_ranks(X.complex).__getitem__
        bounds = [(k, frozenset(map(rank_of, verts)))
                  for k, verts in _skeleton_vertex_sets(X)]
        self.faces, self.allowed, self.bad = [], [], [None]
        for i in range(n + 1):
            faces = sorted(map(tuple, map(sorted, map(
                map, repeat(rank_of), X.complex.faces(i)))))
            bad = _not_allowable(faces, i, pbar, bounds)
            self.faces.append(faces)
            self.allowed.append([t for t in faces if t not in bad] if bad else faces)
            if i < n:
                self.bad.append([r for r, t in enumerate(faces) if t in bad]
                                if bad else [])


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


@dataclass(frozen=True)
class IHTable:
    """Homology table in degrees 0..n.

    Field coefficients fill `dims`; integer coefficients fill
    `free_ranks` and `torsion` (a tuple of invariant-factor tuples).
    """

    coeff_label: str
    n: int
    dims: tuple = None
    free_ranks: tuple = None
    torsion: tuple = None
    chain_dims: tuple = None

    @property
    def is_integral(self):
        return self.free_ranks is not None

    def dim(self, i):
        if self.is_integral:
            raise ValueError(
                "an integral table has no dimensions; use rank() and torsion_at()"
            )
        if not 0 <= i <= self.n:
            return 0
        return self.dims[i]

    def rank(self, i):
        if not 0 <= i <= self.n:
            return 0
        return self.free_ranks[i] if self.is_integral else self.dims[i]

    def torsion_at(self, i):
        if not self.is_integral or not 0 <= i <= self.n:
            return ()
        return self.torsion[i]

    def group_description(self, i):
        if self.is_integral:
            return AbelianGroup(self.rank(i), self.torsion_at(i)).describe()
        d = self.dim(i)
        if d == 0:
            return "0"
        base = self.coeff_label
        if d == 1:
            return base
        # F3^2 squared prints as (F3^2)^2, not F3^2^2
        return f"({base})^{d}" if "^" in base else f"{base}^{d}"

    def as_dict(self):
        out = {"coefficients": self.coeff_label, "degrees": {}}
        for i in range(self.n + 1):
            if self.is_integral:
                out["degrees"][str(i)] = {
                    "rank": self.free_ranks[i],
                    "torsion": list(self.torsion[i]),
                    "group": self.group_description(i),
                }
            else:
                out["degrees"][str(i)] = {
                    "dimension": self.dims[i],
                    "group": self.group_description(i),
                }
        return out


def _homology_table(coeff, data):
    """Table of the complex whose degree-i chains are the elements of
    the free module on data.allowed[i] that the rows data.bad[i] of the
    boundary D[i] (i = 1..n) send to 0.  One `kernel_image` per degree,
    top down, gives the lost chain rank and the boundaries; the cycles
    are saturated, so over Z the boundaries' Smith normal form in face
    coordinates holds the torsion.

    Clearing (Chen and Kerber, "Persistent homology computation with a
    twist", 2011): the row of D[i + 1] on face r is column
    r - #{b in bad[i + 1] : b < r} of D[i], and D[i] is built without
    the columns of the rows s at which an image pivot b_s of D[i + 1]
    has its lowest row.  b_s lies in the image, so it is an allowable
    cycle, and the b_s are triangular on their lowest rows with units on
    the diagonal.  So the kernel of the bad rows of D[i] is the kernel on
    the other columns plus the span of the b_s, which D[i] kills and the
    bad rows do not see: neither the lost rank nor the image changes.
    Over a field every pivot counts; over Z only those with lowest entry
    +-1 do, so that the b_s span a direct summand."""
    n = data.n
    integral = isinstance(coeff, Integers)
    if not integral:
        prime_field(coeff)  # rejects an unsupported ring even when n == 0
    chains = [len(a) for a in data.allowed]
    image = [0] * (n + 2)
    tors = [()] * (n + 1)
    skip = ()
    for i in range(n, 0, -1):
        bad, faces = data.bad[i], data.faces[i - 1]
        columns = _boundary(data.allowed[i], faces, i, skip, bad)
        lost, img, pivots = kernel_image(columns, len(faces), coeff)
        chains[i] -= lost
        if integral:
            image[i], tors[i - 1] = img.rank, img.torsion
        else:
            image[i] = img
        skip = {r - bisect_left(bad, r) for r in pivots}
    ranks = tuple(chains[i] - image[i] - image[i + 1] for i in range(n + 1))
    if integral:
        return IHTable(coeff_label="Z", n=n, free_ranks=ranks,
                       torsion=tuple(tors), chain_dims=tuple(chains))
    return IHTable(coeff_label=coeff.label, n=n, dims=ranks, chain_dims=tuple(chains))


def ih_homology(X: StratifiedComplex, pbar: Perversity, coeff) -> IHTable:
    """Intersection homology table of X for one perversity, computed
    directly over the requested coefficient ring."""
    if pbar.n != X.n:
        raise PerversityError(
            f"perversity is for dimension {pbar.n}, space has {X.n}"
        )
    return _homology_table(coeff, _ChainData(X, pbar))


def ordinary_homology(C: SimplicialComplex, coeff) -> IHTable:
    """Simplicial homology: the table of the trivial stratification, on
    which every simplex is allowable; the oracle the intersection
    machinery is checked against on manifolds."""
    n = max(C.dimension, 0)
    return ih_homology(StratifiedComplex.trivial(C, n), Perversity.zero(n), coeff)


def uct_cyclic(table: IHTable, q, r):
    """Orders of the cyclic summands of H_r tensor Z/q plus
    Tor(H_(r-1), Z/q), by universal coefficients from an integral table."""
    tors = table.torsion_at(r) + table.torsion_at(r - 1)
    return [q] * table.rank(r) + [g for g in (gcd(t, q) for t in tors) if g > 1]


@dataclass
class UCTReport:
    prime: int
    integral: IHTable
    mod_p: IHTable
    violations: list  # (degree, predicted, actual)

    @property
    def holds(self):
        return not self.violations


def uct_violation_report(X, pbar, p):
    """Compare mod-p intersection homology with what universal
    coefficients would predict from the integral table."""
    integral = ih_homology(X, pbar, INTEGERS)
    modp = ih_homology(X, pbar, PrimeField(p))
    violations = []
    for i in range(X.n + 1):
        predicted = len(uct_cyclic(integral, p, i))
        actual = modp.dim(i)
        if predicted != actual:
            violations.append((i, predicted, actual))
    return UCTReport(prime=p, integral=integral, mod_p=modp, violations=violations)


@dataclass
class TorsionFreeReport:
    entries: list  # (stratum_dim, representative, degree, torsion)

    @property
    def passes(self):
        return all(not t for *_, t in self.entries)

    def failures(self):
        return [e for e in self.entries if e[3]]


def stratum_links(X, codims, every_link=False):
    """(c, component, links) for each component of each stratum whose
    codimension c is in `codims`, in that order: the link of its first
    simplex, or of every simplex when `every_link`.  Raises
    SimplicialError unless X's skeleta are full (`check_full_skeleta`)."""
    check_full_skeleta(X)
    return [(c, comp, [simplicial_link(X, s) for s in (comp if every_link else comp[:1])])
            for c in codims for comp in stratum_components(X, X.n - c)]


def link_tables(links, pbar, coeff):
    """For each (c, component, links) of `stratum_links`, yields (c,
    component, tables): the table over `coeff` of each link, at `pbar`
    cut to the link's dimension.  Equal links, such as the two poles of
    a suspension, share one table."""
    seen = {}
    for c, comp, ls in links:
        for link in ls:
            if link not in seen:
                sub = Perversity(pbar.values[: max(link.n - 1, 0)], link.n)
                seen[link] = ih_homology(link, sub, coeff)
        yield c, comp, [seen[link] for link in ls]


def torsion_free_check(X, pbar):
    """Local torsion condition: for each singular stratum component of
    codimension c, the integral intersection homology of its link must be
    torsion free in degree c - 2 - p(c)."""
    return TorsionFreeReport(entries=[
        (X.n - c, comp[0], deg, table.torsion_at(deg))
        for c, comp, (table,) in link_tables(
            stratum_links(X, range(X.n, 1, -1)), pbar, INTEGERS)
        for deg in [c - 2 - pbar(c)]
    ])
