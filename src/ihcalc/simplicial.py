"""Finite simplicial complexes with stratifications.

Simplices are frozensets of hashable vertex labels.  Integer labels are
the common case (the only one the CLI file format and subdivisions
produce), but products and connected sums temporarily use tuples as
labels; `relabel_canonical` flattens any complex back to integer labels
deterministically.  Hot loops key simplices by rank tuples instead
(`ranked_simplices`): the ascending vertex ranks in the canonical label
order, which compare like `simplex_key`.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations, repeat


class SimplicialError(ValueError):
    pass


def _canon_key(v):
    """Total order on mixed vertex labels, for deterministic output."""
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(_canon_key(x) for x in v))
    if isinstance(v, frozenset):
        return (3, tuple(sorted(_canon_key(x) for x in v)))
    raise SimplicialError(f"unsupported vertex label {v!r}")


def simplex_key(s):
    return tuple(sorted((_canon_key(v) for v in s)))


def sorted_vertices(s):
    return sorted(s, key=_canon_key)


class SimplicialComplex:
    """Downward-closed set of simplices, indexed by dimension.

    Immutable after construction.  `by_dim[d]` is a frozenset of
    frozensets of d+1 vertices.
    """

    __slots__ = ("by_dim", "dimension")

    def __init__(self, by_dim):
        self.by_dim = {d: frozenset(ss) for d, ss in by_dim.items() if ss}
        self.dimension = max(self.by_dim, default=-1)

    @classmethod
    def empty(cls):
        return cls({})

    @classmethod
    def from_maximal(cls, maximal):
        """The downward closure of `maximal`, one dimension at a time:
        the d-simplices are the given ones of dimension d plus the
        codimension-1 faces of the (d+1)-simplices."""
        top = {}
        for m in maximal:
            m = frozenset(m)
            if not m:
                raise SimplicialError("empty simplex in maximal list")
            top.setdefault(len(m) - 1, set()).add(m)
        by_dim = {}
        cur = set()
        for d in range(max(top, default=-1), -1, -1):
            cur |= top.get(d, set())
            by_dim[d] = cur
            cur = {s - {v} for s in cur for v in s}
        return cls(by_dim)

    def faces(self, d):
        return self.by_dim.get(d, frozenset())

    def all_simplices(self):
        for d in sorted(self.by_dim):
            yield from self.by_dim[d]

    def __contains__(self, s):
        s = frozenset(s)
        return s in self.by_dim.get(len(s) - 1, ())

    def __len__(self):
        return sum(len(ss) for ss in self.by_dim.values())

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.by_dim == other.by_dim

    def __hash__(self):
        return hash(frozenset(self.by_dim.items()))

    def __le__(self, other):
        return all(
            ss <= other.by_dim.get(d, frozenset()) for d, ss in self.by_dim.items()
        )

    @property
    def vertices(self):
        return {next(iter(s)) for s in self.by_dim.get(0, ())}

    def f_vector(self):
        return tuple(len(self.faces(d)) for d in range(self.dimension + 1))

    def euler_characteristic(self):
        return sum((-1) ** d * len(ss) for d, ss in self.by_dim.items())

    def facets(self):
        """Simplices that are not proper faces of another simplex.

        By downward closure, a d-simplex is a proper face of some simplex
        exactly when it is a codimension-1 face of a (d+1)-simplex.  The
        working set holds the complex's own d-simplices, so the faces
        generated from the (d+1)-simplices are freed at once.  Order:
        dimension descending, then `by_dim[d]` iteration order."""
        out = []
        for d in sorted(self.by_dim, reverse=True):
            uncovered = set(self.by_dim[d])
            for t in self.by_dim.get(d + 1, ()):
                uncovered.difference_update([t - {v} for v in t])
            out.extend(s for s in self.by_dim[d] if s in uncovered)
        return out

    def link(self, s):
        s = frozenset(s)
        if s not in self:
            raise SimplicialError(f"{sorted_vertices(s)} is not a simplex")
        by_dim = {}
        for d, ss in self.by_dim.items():
            ld = d - len(s)
            if ld < 0:
                continue
            for t in ss:
                if s <= t:
                    by_dim.setdefault(ld, set()).add(t - s)
        return SimplicialComplex(by_dim)

    def union(self, other):
        by_dim = {d: set(ss) for d, ss in self.by_dim.items()}
        for d, ss in other.by_dim.items():
            by_dim.setdefault(d, set()).update(ss)
        return SimplicialComplex(by_dim)

    def intersection(self, other):
        by_dim = {
            d: ss & other.by_dim.get(d, frozenset())
            for d, ss in self.by_dim.items()
        }
        return SimplicialComplex(by_dim)

    def relabel(self, mapping):
        """The image under the vertex map `mapping`; refuses any simplex
        whose image loses a vertex (by_dim need not be downward closed)."""
        image = mapping.__getitem__
        by_dim = {}
        for d, ss in self.by_dim.items():
            by_dim[d] = images = {frozenset(map(image, s)) for s in ss}
            if min(map(len, images)) <= d:
                s = next(s for s in ss if len(frozenset(map(image, s))) <= d)
                raise SimplicialError(f"vertex map collapses {sorted_vertices(s)}")
        return SimplicialComplex(by_dim)

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dimension}, f={self.f_vector()})"


def build_complex(maximal_simplices):
    if not maximal_simplices:
        raise SimplicialError("no maximal simplices given")
    return SimplicialComplex.from_maximal(maximal_simplices)


def vertex_ranks(K):
    """{vertex: its position in the canonical label order}."""
    return {v: k for k, v in enumerate(sorted(K.vertices, key=_canon_key))}


def ranked_simplices(simplices, rank):
    """(rank tuple, simplex) pairs in `simplex_key` order.  A rank tuple
    lists the simplex's vertex ranks ascending; such tuples compare like
    `simplex_key`, since ranks follow the canonical label order."""
    rank_of = rank.__getitem__
    return sorted([(tuple(sorted(map(rank_of, s))), s) for s in simplices])


def relabel_canonical(K):
    """Relabel vertices to 0..V-1 in canonical label order; the mapping
    is `vertex_ranks(K)`."""
    return K.relabel(vertex_ranks(K))


class StratifiedComplex:
    """A simplicial complex with a skeleton filtration.

    skeleta[i] is the subcomplex X^i for 0 <= i <= n, with skeleta[n]
    equal to the whole complex.  The singular locus is skeleta[n-2].
    """

    __slots__ = ("complex", "skeleta", "n")

    def __init__(self, complex, skeleta, n):
        skeleta = list(skeleta)
        if len(skeleta) != n + 1:
            raise SimplicialError(
                f"need {n + 1} skeleta for formal dimension {n}, got {len(skeleta)}"
            )
        if complex.dimension > n:
            raise SimplicialError(f"complex has dimension above {n}")
        if skeleta[n] != complex:
            raise SimplicialError("top skeleton must be the whole complex")
        for i in range(n):
            if skeleta[i].dimension > i:
                raise SimplicialError(f"skeleton {i} has dimension > {i}")
            if not skeleta[i] <= skeleta[i + 1]:
                raise SimplicialError(f"skeleton {i} not contained in skeleton {i + 1}")
            if not skeleta[i] <= complex:
                raise SimplicialError(f"skeleton {i} not a subcomplex")
        self.complex = complex
        self.skeleta = tuple(skeleta)
        self.n = n

    @classmethod
    def trivial(cls, complex, n=None):
        if n is None:
            n = complex.dimension
        empty = SimplicialComplex.empty()
        return cls(complex, [empty] * n + [complex], n)

    @classmethod
    def from_skeleton_map(cls, complex, skel_map, n=None):
        """Skeleta given as {i: subcomplex}; omitted i default to the
        largest given skeleton below, or the empty complex."""
        if n is None:
            n = complex.dimension
        skeleta = []
        prev = SimplicialComplex.empty()
        for i in range(n):
            if i in skel_map:
                prev = skel_map[i]
            skeleta.append(prev)
        skeleta.append(complex)
        return cls(complex, skeleta, n)

    def skeleton(self, i):
        if i < 0:
            return SimplicialComplex.empty()
        if i >= self.n:
            return self.complex
        return self.skeleta[i]

    def relabel(self, mapping):
        return StratifiedComplex(
            self.complex.relabel(mapping),
            [sk.relabel(mapping) for sk in self.skeleta],
            self.n,
        )

    def __eq__(self, other):
        return (
            isinstance(other, StratifiedComplex)
            and self.n == other.n
            and self.complex == other.complex
            and self.skeleta == other.skeleta
        )

    def __hash__(self):
        return hash((self.complex, self.skeleta, self.n))

    def __repr__(self):
        return f"StratifiedComplex(n={self.n}, f={self.complex.f_vector()})"


def check_full_skeleta(X: StratifiedComplex):
    """Raise SimplicialError unless each skeleton X^0, ..., X^(n-2) is a
    full subcomplex, holding every simplex of X on its vertices, as
    allowability assumes when it counts a simplex's vertices in X^(n-k).
    Only those simplices are visited, grown a vertex at a time from the
    skeleton's vertices."""
    K = X.complex
    for i, skel in enumerate(X.skeleta[:X.n - 1]):
        verts, level, d = skel.vertices, skel.faces(0), 0
        while level:
            d += 1
            level = K.faces(d).intersection(s | {v} for s in level for v in verts - s)
            missing = level - skel.faces(d)
            if missing:
                first = sorted_vertices(min(missing, key=simplex_key))
                raise SimplicialError(f"skeleton {i} is not a full subcomplex: "
                                      f"{first} lies on its vertices but not in it")


@dataclass
class PseudomanifoldReport:
    dimensional_homogeneity: bool
    face_regularity: bool
    no_codim_one: bool
    orientable: bool
    irreducible: bool
    failures: list = field(default_factory=list)
    # {n-simplex: +-1} propagated across the regular (n-1)-faces outside
    # the singular locus, relative to the sorted vertex ordering; coherent
    # when `orientable`
    signs: dict = field(default_factory=dict, repr=False)

    @property
    def is_pseudomanifold(self):
        return (
            self.dimensional_homogeneity
            and self.face_regularity
            and self.no_codim_one
        )

    def failure_message(self):
        """Why the input is not a pseudomanifold: the first of `failures`
        (which precede orientation failures), else the codimension-one stratum."""
        broken = " and ".join(name for name, ok in (
            ("dimensional homogeneity", self.dimensional_homogeneity),
            ("face regularity", self.face_regularity)) if not ok)
        if not broken:
            return "input is not a pseudomanifold: X^{n-1} != X^{n-2}"
        where = f" at {sorted_vertices(self.failures[0])}" if self.failures else ""
        return f"input is not a pseudomanifold: failed {broken}{where}"


def verify_pseudomanifold(X: StratifiedComplex) -> PseudomanifoldReport:
    K = X.complex
    n = X.n
    failures = []

    # simplices as rank tuples; the faces of each top simplex are listed
    # in its frozenset's order, which the search below depends on
    rank = vertex_ranks(K)
    top = ranked_simplices(K.faces(n), rank)
    cofaces = {}
    for t, s in top:
        for v in s:
            j = t.index(rank[v])
            cofaces.setdefault(t[:j] + t[j + 1:], []).append((s, j))

    # the closure of the top simplices lies in K, so K is pure iff the
    # two have as many faces in each degree; only failures need facets()
    homogeneous, level = K.dimension == n, cofaces.keys()
    for d in range(n - 1, -1, -1):
        if not homogeneous:
            break
        homogeneous = len(level) == len(K.faces(d))
        level = set(chain.from_iterable(map(combinations, level, repeat(d))))
    if not homogeneous:
        failures.extend(s for s in K.facets() if len(s) - 1 != n)

    # the keys of `cofaces` are (n-1)-faces: sort all only to list failures
    regular = n < 1 or (len(cofaces) == len(K.faces(n - 1)) and all(
        len(ts) == 2 for ts in cofaces.values()))
    for t, f in [] if regular else ranked_simplices(K.faces(n - 1), rank):
        if len(cofaces.get(t, ())) != 2:
            failures.append(f)

    if n >= 2:
        no_codim_one = X.skeleton(n - 1) == X.skeleton(n - 2)
    elif n == 1:
        no_codim_one = len(X.skeleton(0)) == 0
    else:
        no_codim_one = True

    # Orientability and irreducibility are checked on the dual graph of
    # n-simplices across the (n-1)-faces with two cofaces (none lies in
    # the singular locus, of dimension <= n-2); vertex j has sign (-1)^j.
    adj = {s: [] for _, s in top}
    for ts in cofaces.values():
        if len(ts) == 2:
            (a, ja), (b, jb) = ts
            rel = -((-1) ** ja) * ((-1) ** jb)
            adj[a].append((b, rel))
            adj[b].append((a, rel))

    orientable = True
    signs = {}
    components = 0
    for _, start in top:
        if start in signs:
            continue
        components += 1
        signs[start] = 1
        frontier = [start]
        while frontier:
            t = frontier.pop()
            for u, rel in adj[t]:
                want = signs[t] * rel
                if u not in signs:
                    signs[u] = want
                    frontier.append(u)
                elif signs[u] != want:
                    orientable = False
                    failures.append(u)
    irreducible = components <= 1

    return PseudomanifoldReport(
        dimensional_homogeneity=homogeneous,
        face_regularity=regular,
        no_codim_one=no_codim_one,
        orientable=orientable,
        irreducible=irreducible,
        failures=failures,
        signs=signs,
    )


def orientation_signs(K):
    """Coherent orientation signs {n-simplex: +-1}, or None if K is not
    orientable.  Signs are relative to the sorted vertex ordering."""
    rep = verify_pseudomanifold(StratifiedComplex.trivial(K))
    return rep.signs if rep.orientable else None


def _join(K1, K2):
    """Simplicial join: simplices s1 | s2 with s_i a simplex or empty."""
    if K1.dimension < 0:
        return K2
    if K2.dimension < 0:
        return K1
    by_dim = {}
    all1 = [frozenset()] + list(K1.all_simplices())
    all2 = [frozenset()] + list(K2.all_simplices())
    for s1 in all1:
        for s2 in all2:
            s = s1 | s2
            if s:
                by_dim.setdefault(len(s) - 1, set()).add(s)
    return SimplicialComplex(by_dim)


def _fresh_labels(used, names):
    out = []
    k = 0
    for name in names:
        lab = name
        while lab in used or lab in out:
            lab = (name, k)
            k += 1
        out.append(lab)
    return out


def _join_strata(L: StratifiedComplex, names):
    """Join of L with fresh points named after `names`, stratified with
    the points as the 0-skeleton and the join with each skeleton of L one
    level up."""
    points = SimplicialComplex(
        {0: {frozenset([v]) for v in _fresh_labels(L.complex.vertices, names)}}
    )
    skeleta = [points] + [_join(points, L.skeleton(i)) for i in range(L.n + 1)]
    return StratifiedComplex(skeleta[-1], skeleta, L.n + 1)


def cone(L: StratifiedComplex):
    """Compact cone on L, stratified with the apex as the 0-skeleton and
    the cone on each skeleton of L one level up."""
    return _join_strata(L, ["apex"])


def suspension(L: StratifiedComplex):
    """Suspension of L: union of two cones, stratified so the i-skeleton
    is the suspension of L's (i-1)-skeleton."""
    return _join_strata(L, ["N", "S"])


def _staircase_facets(f1, f2, pos1, pos2):
    """Maximal simplices of the product of two simplices, as monotone
    staircase paths through the grid of vertex pairs."""
    a = sorted(f1, key=lambda v: pos1[v])
    b = sorted(f2, key=lambda v: pos2[v])
    s, t = len(a) - 1, len(b) - 1
    out = []
    stack = [((0, 0), ((a[0], b[0]),))]
    while stack:
        (i, j), path = stack.pop()
        if i == s and j == t:
            out.append(frozenset(path))
            continue
        if i < s:
            stack.append(((i + 1, j), path + ((a[i + 1], b[j]),)))
        if j < t:
            stack.append(((i, j + 1), path + ((a[i], b[j + 1]),)))
    return out


def product_complex(K1, K2):
    """Staircase triangulation of |K1| x |K2|; vertices are pairs.

    Vertex orders are the canonical label orders, so products of
    subcomplexes are subcomplexes of the product.
    """
    pos1, pos2 = vertex_ranks(K1), vertex_ranks(K2)
    facets = []
    for f1 in K1.facets():
        for f2 in K2.facets():
            facets.extend(_staircase_facets(f1, f2, pos1, pos2))
    return SimplicialComplex.from_maximal(facets)


def product(X: StratifiedComplex, M: SimplicialComplex):
    """Product of a stratified complex with a closed manifold factor.

    The skeleta are X^j x M shifted up by dim M, so the strata are the
    products of X's strata with M.
    """
    rep = verify_pseudomanifold(StratifiedComplex.trivial(M))
    if not rep.is_pseudomanifold:
        raise SimplicialError("product factor must be a closed manifold")
    m = M.dimension
    skeleta = [product_complex(X.skeleton(k - m), M) for k in range(X.n + m + 1)]
    return StratifiedComplex(skeleta[-1], skeleta, X.n + m)


def connected_sum(M1, M2):
    """Connected sum of two closed oriented triangulated manifolds.

    The vertices of M1 and M2 are tagged (0, v) and (1, v), one facet is
    removed from each (the canonically lowest), and `quotient` glues the
    boundary spheres by matching vertices in ascending label order,
    flipped by one transposition when the induced boundary orientations
    fail to cancel.  The canonical relabelling lists M1's vertices first,
    then M2's unglued ones, each in its own order.
    """
    if M1.dimension != M2.dimension:
        raise SimplicialError("dimension mismatch")
    n = M1.dimension
    parts = []
    for t, M in enumerate((M1, M2)):
        rep = verify_pseudomanifold(StratifiedComplex.trivial(M))
        if not rep.is_pseudomanifold:
            raise SimplicialError("connected sum requires closed manifolds")
        if not rep.orientable:
            raise SimplicialError("connected sum requires orientable summands")
        F = min(M.faces(n), key=simplex_key)
        parts.append((t, M, F, rep.signs[F]))
    (_, _, F1, sign1), (_, _, F2, sign2) = parts
    b1, b2 = sorted_vertices(F1), sorted_vertices(F2)
    # Glued orientations cancel when the two removed facets carry opposite
    # signs under the ascending-order identification.
    if sign1 == sign2:
        b2 = b2[:-2] + [b2[-1], b2[-2]]
    # the disjoint union of the tagged summands, less F1 and F2
    union = SimplicialComplex({d: {
        frozenset((t, v) for v in s)
        for t, M, F, _ in parts for s in M.faces(d) if s != F
    } for d in range(n + 1)})
    glue = {(1, u): (0, v) for u, v in zip(b2, b1)}
    return relabel_canonical(quotient(union, glue))


def simplicial_link(X: StratifiedComplex, s):
    """Link of a simplex with the stratification it inherits from X."""
    s = frozenset(s)
    if s not in X.complex:
        raise SimplicialError(f"{sorted_vertices(s)} is not a simplex")
    d = len(s) - 1
    L = X.complex.link(s)
    formal = X.n - d - 1
    skeleta = []
    for j in range(formal):
        skeleta.append(L.intersection(X.skeleton(j + d + 1)))
    skeleta.append(L)
    return StratifiedComplex(L, skeleta, formal)


def _sd_complex(K):
    """(sd(K), the simplices of K in `simplex_key` order), vertex i of
    sd(K) standing for the i-th simplex.  A simplex of sd(K) is a chain
    of faces, made once, from the chains below its largest face."""
    ranked = ranked_simplices(K.all_simplices(), vertex_ranks(K))
    chains, by_dim = {}, {d: [] for d in range(K.dimension, -1, -1)}
    for i, (t, _) in sorted(enumerate(ranked), key=lambda it: len(it[1][0])):
        top = frozenset([i])
        chains[t] = [top] + [c | top for k in range(1, len(t))
                             for u in combinations(t, k) for c in chains[u]]
        for c in chains[t]:
            by_dim[len(c) - 1].append(c)
    return SimplicialComplex(by_dim), [s for _, s in ranked]


def barycentric_subdivision(X):
    """Barycentric subdivision; skeleta subdivide along.  Accepts either
    a plain complex or a stratified one.  New vertex labels are integers
    assigned in canonical order of the old simplices.  sd(X^i) is the
    full subcomplex of sd(X) on the vertices of the simplices of X^i."""
    K = X.complex if isinstance(X, StratifiedComplex) else X
    sd, simplices = _sd_complex(K)
    if not isinstance(X, StratifiedComplex):
        return sd
    verts = [{k for k, s in enumerate(simplices) if s in X.skeleton(i)} for i in range(X.n)]
    skeleta = [SimplicialComplex({d: [s for s in sd.faces(d) if s <= vs] for d in range(i + 1)})
               for i, vs in enumerate(verts)]
    return StratifiedComplex(sd, skeleta + [sd], X.n)


def quotient(K, glue):
    """Quotient of K by the gluing v ~ glue[v], `glue` a map on some
    vertices of K; each class is named by its least vertex in canonical
    order.

    The quotient certifies itself, raising SimplicialError unless glue is
    an injective map into the vertices of K that sends each simplex on
    its domain to a simplex, no simplex collapses, and in each dimension
    d the quotient has exactly one d-simplex per class of s ~ glue(s).
    A gluing refused only by the last two needs a finer triangulation.
    """
    own = {v: v for v in K.vertices}
    if not own.keys() >= {*glue, *glue.values()}:
        raise SimplicialError("glue is not a map between vertices of K")
    # K's own label objects, so that simplices compare labels by identity
    g = {own[v]: own[w] for v, w in glue.items()}
    if len(set(g.values())) != len(g):
        raise SimplicialError("glue is not injective")

    # s ~ glue(s) splits the d-simplices into paths and cycles, so the
    # classes number N - (simplices moved) + (cycles of length >= 2)
    domain, image = frozenset(g), g.__getitem__
    classes = {}
    for d, ss in K.by_dim.items():
        simplex = {s: s for s in ss}.get
        step = {}
        for s in ss:
            if s <= domain:
                t = simplex(frozenset(map(image, s)))
                if t is None:
                    raise SimplicialError(
                        f"glue sends {sorted_vertices(s)} to a non-simplex"
                    )
                if t is not s:
                    step[s] = t
        moved, cycles = len(step), 0
        while step:
            s, t = step.popitem()
            while t in step:
                t = step.pop(t)
            cycles += t is s
        classes[d] = len(ss) - moved + cycles

    parent = dict(own)

    def root(v):
        while parent[v] is not v:
            v = parent[v]
        return v

    for v, w in g.items():
        a, b = sorted([root(v), root(w)], key=_canon_key)
        parent[b] = a
    Q = K.relabel({v: root(v) for v in own})
    for d, count in classes.items():
        if len(Q.faces(d)) != count:
            raise SimplicialError(
                f"quotient merges unglued {d}-simplices; subdivide first"
            )
    return Q


def stratum_components(X: StratifiedComplex, d):
    """Connected components of the d-dimensional stratum X^d - X^(d-1),
    as sorted lists of the d-simplices whose interiors lie in it.  Two
    d-simplices are adjacent when they share a (d-1)-face that is also
    outside X^(d-1)."""
    inside = X.skeleton(d).faces(d) - X.skeleton(d - 1).faces(d)
    if not inside:
        return []
    lower = X.skeleton(d - 1)
    shared = {}
    if d > 0:
        for s in inside:
            for v in s:
                f = s - {v}
                if f not in lower:
                    shared.setdefault(f, []).append(s)
    adj = {s: set() for s in inside}
    for ss in shared.values():
        for a in ss:
            for b in ss:
                if a != b:
                    adj[a].add(b)
    components = []
    seen = set()
    for start in sorted(inside, key=simplex_key):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for t in adj[s]:
                if t not in comp:
                    comp.add(t)
                    frontier.append(t)
        seen |= comp
        components.append(sorted(comp, key=simplex_key))
    return components


def contract_edges(K):
    """Shrink a complex by contracting edges that satisfy the link
    condition, which preserves PL type on combinatorial manifolds.
    Greedy sweeps in canonical edge order until nothing contracts; the
    edge ab, a before b, contracts b into a."""
    simplices = set(K.all_simplices())
    rank = vertex_ranks(K)
    order = list(rank)
    star, nbr = {v: set() for v in order}, {v: set() for v in order}
    for s in simplices:
        for v in s:
            star[v].add(s)
    for a, b in K.faces(1):
        nbr[a].add(b)
        nbr[b].add(a)

    changed = True
    while changed:
        changed = False
        # contraction only removes vertices, so the ranks of the
        # survivors stay valid and rank pairs give the canonical order
        edges = sorted((rank[a], rank[b])
                       for a, ns in nbr.items() for b in ns if rank[a] < rank[b])
        for ra, rb in edges:
            a, b = order[ra], order[rb]
            if b not in nbr.get(a, ()):
                continue
            # The link condition lk(a) & lk(b) == lk(ab) is symmetric in a
            # and b.  With x the endpoint of smaller star and y the other,
            # it fails exactly when some s in star(x) avoiding y has
            # (s - x) + y in the complex but not s + y; such an s lies
            # among y's neighbours.
            x, y = (a, b) if len(star[a]) <= len(star[b]) else (b, a)
            xx, yy = {x}, {y}
            if any(s | yy not in simplices and (s - xx) | yy in simplices
                   for s in filter(nbr[y].issuperset, star[x])):
                continue
            # star(b) goes, and what of it avoids a moves onto a
            aa, bb = {a}, {b}
            star_b = star.pop(b)
            moved = star_b - star[a]
            simplices -= star_b
            for s in star_b:
                for v in s - bb:
                    star[v].discard(s)
            for s in moved:
                t = s - bb | aa
                if t not in simplices:
                    simplices.add(t)
                    for v in t:
                        star[v].add(t)
            for c in nbr.pop(b) - aa:
                nbr[c].discard(b)
                nbr[c].add(a)
                nbr[a].add(c)
            nbr[a].discard(b)
            changed = True
    return SimplicialComplex({d: [s for s in simplices if len(s) == d + 1]
                              for d in range(K.dimension, -1, -1)})
