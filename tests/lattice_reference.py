"""The lattice reference: explicit kernel bases and an explicit
intersection chain complex, built by a fraction-free vector echelon and
an xgcd lattice routine that the package does not use.  The tests hold
its answers against the package's one elimination (`kernel_image`);
`tests/test_source.py` checks that none of it is defined in the package
again.  `stream_matrix` turns the columns the package's boundaries are
streamed as back into an `ExactMatrix`, entry for entry.  `allowable`
and `boundary_chain` are the simplex-by-simplex references that the
chain assembly (`_ChainData`, `_not_allowable`, `_boundary`) is checked
against."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ihcalc.exactalg import (
    CoefficientError,
    ExactMatrix,
    Integers,
    prime_field,
)
from ihcalc.ihcore import PerversityError, _ChainData, _boundary, _skeleton_vertex_sets
from ihcalc.simplicial import StratifiedComplex, sorted_vertices


def col_dicts(A):
    """The columns of A, as dicts {row: value}."""
    cols = [dict() for _ in range(A.ncols)]
    for (r, c), v in A.entries.items():
        cols[c][r] = v
    return cols


def stream_matrix(columns, nrows, ncols):
    """The nrows x ncols ExactMatrix whose columns, in order, are
    `columns`, {row: value} dicts as `ihcore._boundary` streams them:
    a row keyed nrows + r is row r.  Fails unless there are ncols of
    them and every key is below 2 nrows."""
    columns = list(columns)
    assert len(columns) == ncols, "the stream has the wrong number of columns"
    entries = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            assert 0 <= r < 2 * nrows, "a row key is out of range"
            entries[(r - nrows if r >= nrows else r, c)] = v
    return ExactMatrix(nrows, ncols, entries)


def boundary_matrix(data, i):
    """D[i] of the `_ChainData` data, with every column, as an
    ExactMatrix: rows data.faces[i - 1], columns data.allowed[i]."""
    faces, allowed = data.faces[i - 1], data.allowed[i]
    columns = _boundary(allowed, faces, i, (), data.bad[i])
    return stream_matrix(columns, len(faces), len(allowed))


def allowable(s, i, pbar, X: StratifiedComplex):
    """Allowability of an i-simplex: its intersection with each skeleton
    X^(n-k) must have dimension at most i - k + p(k).  An empty
    intersection satisfies every bound."""
    s = frozenset(s)
    if len(s) - 1 != i:
        raise PerversityError(f"simplex has dimension {len(s) - 1}, not {i}")
    return all(
        c == 0 or c - 1 <= i - k + pbar(k)
        for k, verts in _skeleton_vertex_sets(X)
        for c in [len(verts & s)]
    )


def boundary_chain(s):
    """Signed boundary of a simplex: list of (face, sign) with the usual
    alternating signs for the sorted vertex ordering."""
    vs = sorted_vertices(s)
    return [(s - {v}, (-1) ** j) for j, v in enumerate(vs)]


def _sub_multiple(x, f, y, p):
    """x -= f * y mod p, in place, on sparse dicts."""
    for k, v in y.items():
        nv = (x.get(k, 0) - f * v) % p
        if nv:
            x[k] = nv
        else:
            x.pop(k, None)


def _cross(fa, x, fb, y):
    """fa * x - fb * y on sparse integer dicts."""
    out = {}
    for k in x.keys() | y.keys():
        v = fa * x.get(k, 0) - fb * y.get(k, 0)
        if v:
            out[k] = v
    return out


def _echelon(vectors, p, traced=False):
    """Sparse elimination of `vectors` (dicts {index: value}) in input
    order, each pivoting on its lowest index.

    For a prime p it works mod p and scales each pivot to 1.  For p == 0
    it is fraction-free over Z: denominators are cleared once, steps
    cross-multiply, and each vector and its trace are divided by their
    common content.  Returns the pivots, {lowest index: (vector,
    trace)}, and {input position: trace} for every dependent vector.  A
    trace (None unless traced) writes its vector as
    sum(trace[j] * vectors[j]), so a dependent vector's trace is a
    relation summing to 0."""
    pivots = {}
    relations = {}
    for j, vec in enumerate(vectors):
        if p:
            row = {c: v % p for c, v in vec.items() if v % p}
            trace = {j: 1} if traced else None
        else:
            denom = lcm(
                *(v.denominator for v in vec.values() if isinstance(v, Fraction))
            )
            row = {c: int(v * denom) for c, v in vec.items() if v}
            g = gcd(*row.values(), denom if traced else 0)
            if g > 1:
                row = {c: v // g for c, v in row.items()}
            trace = {j: denom // g} if traced else None
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                if p:
                    f = pow(row[c], p - 2, p)
                    row = {cc: v * f % p for cc, v in row.items()}
                    if traced:
                        trace = {jj: v * f % p for jj, v in trace.items()}
                pivots[c] = (row, trace)
                break
            prow, ptrace = piv
            if p:
                f = row[c]
                _sub_multiple(row, f, prow, p)
                if traced:
                    _sub_multiple(trace, f, ptrace, p)
                continue
            a, b = row[c], prow[c]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            row = _cross(fa, row, fb, prow)
            g = gcd(*row.values())
            if traced:
                trace = _cross(fa, trace, fb, ptrace)
                g = gcd(g, *trace.values())
                if g > 1:
                    trace = {jj: v // g for jj, v in trace.items()}
            if g > 1:
                row = {cc: v // g for cc, v in row.items()}
        else:
            relations[j] = trace
    return pivots, relations


def _quotient(a, s, p):
    """a / s in the prime field of characteristic p."""
    if p:
        return a * pow(s, p - 2, p) % p
    return Fraction(a, s)


def kernel_basis(A: ExactMatrix, coeff):
    """Basis of ker A over a field, as dense lists of length ncols: one
    vector per column that depends on the columns before it, with
    coefficient 1 on that column."""
    field = prime_field(coeff)
    p = field.char
    _, relations = _echelon(col_dicts(A), p, traced=True)
    kernel = []
    for j, trace in relations.items():
        vec = [field.zero] * A.ncols
        for jj, v in trace.items():
            vec[jj] = _quotient(v, trace[j], p)
        kernel.append(vec)
    return kernel


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def integer_kernel_basis(A: ExactMatrix):
    """Basis of the integer kernel lattice of A (saturated by construction),
    as dense integer lists of length ncols."""
    cols = col_dicts(A)
    pivots = {}  # row -> (column dict, trace dict), pivot entry positive
    kernel = []
    for j in range(A.ncols):
        col = dict(cols[j])
        trace = {j: 1}
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                if col[r] < 0:
                    col = {rr: -v for rr, v in col.items()}
                    trace = {jj: -v for jj, v in trace.items()}
                pivots[r] = (col, trace)
                break
            pcol, ptrace = piv
            a, b = pcol[r], col[r]
            g, x, y = _xgcd(a, b)
            fa, fb = a // g, b // g
            # new pivot x*pcol + y*col has entry g at r; the new column
            # (a/g)*col - (b/g)*pcol has entry 0 there
            pivots[r] = (_cross(x, pcol, -y, col), _cross(x, ptrace, -y, trace))
            col, trace = _cross(fa, col, fb, pcol), _cross(fa, trace, fb, ptrace)
        else:
            vec = [0] * A.ncols
            for jj, v in trace.items():
                vec[jj] = v
            kernel.append(vec)
    return kernel


def solve_columns(basis_cols, target_cols, coeff):
    """Express each target column in terms of the independent basis columns.

    Returns a list of dicts {basis index: coefficient}.  Raises if a target
    is not in the span.  Over Integers, solves with exact rationals and
    checks integrality (valid for saturated bases)."""
    p = 0 if isinstance(coeff, Integers) else prime_field(coeff).char
    k = len(basis_cols)
    _, relations = _echelon(list(basis_cols) + list(target_cols), p, traced=True)
    if any(j < k for j in relations):
        raise CoefficientError("basis columns are dependent")
    results = []
    for t in range(k, k + len(target_cols)):
        trace = relations.get(t)
        if trace is None:
            raise CoefficientError("target not in span of basis")
        coords = {}
        for jj, v in trace.items():
            if jj != t:
                coords[jj] = _quotient(-v, trace[t], p)
        if isinstance(coeff, Integers):
            if any(v.denominator != 1 for v in coords.values()):
                raise CoefficientError("non-integral solution")
            coords = {jj: v.numerator for jj, v in coords.items()}
        results.append(coords)
    return results


def _row_block(D, rows):
    """The rows `rows` of D, as a matrix of their own."""
    pos = {r: k for k, r in enumerate(rows)}
    entries = {(pos[r], c): v for (r, c), v in D.entries.items() if r in pos}
    return ExactMatrix(len(rows), D.ncols, entries)


def _combine(cols, coeffs, p):
    """Sparse column sum(c * cols[t] for t, c in coeffs), mod p if p > 0."""
    acc = {}
    for t, c in coeffs:
        if c:
            for r, v in cols[t].items():
                acc[r] = acc.get(r, 0) + c * v
    if p:
        return {r: v % p for r, v in acc.items() if v % p}
    return {r: v for r, v in acc.items() if v}


@dataclass
class IntersectionChainComplex:
    """Explicit chain-level data: per degree, the allowable simplices
    (as `_ChainData` rank tuples), a basis of the intersection chains in
    those coordinates, and the boundary matrix between consecutive
    bases."""

    n: int
    coeff_label: str
    allowable: list
    bases: list
    boundaries: list


def intersection_chain_complex(X, pbar, coeff):
    """Explicit intersection chain complex: bases of the chain lattices
    (over Z) or subspaces (over a field, worked in its prime field), and
    the boundary matrices in those coordinates."""
    data = _ChainData(X, pbar)
    n = data.n
    integral = isinstance(coeff, Integers)
    ring = coeff if integral else prime_field(coeff)
    p = ring.char
    a0 = len(data.allowed[0])
    one, zero = ring.one, ring.zero
    bases = [[[one if j == t else zero for j in range(a0)] for t in range(a0)]]
    D = [None] + [boundary_matrix(data, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        B = _row_block(D[i], data.bad[i])
        bases.append(integer_kernel_basis(B) if integral else kernel_basis(B, ring))
    boundaries = [ExactMatrix(0, a0)]
    for i in range(1, n + 1):
        if not bases[i] or not bases[i - 1]:
            boundaries.append(ExactMatrix(len(bases[i - 1]), len(bases[i])))
            continue
        # boundaries of the basis vectors, in the coordinates of A[i - 1]
        Dcols, bad = col_dicts(D[i]), set(data.bad[i])
        good = (r for r in range(D[i].nrows) if r not in bad)
        pos = {r: t for t, r in enumerate(good)}
        targets = []
        for u in bases[i]:
            col = _combine(Dcols, enumerate(u), p)
            if not col.keys() <= pos.keys():
                raise PerversityError("boundary leaked onto a bad face")
            targets.append({pos[r]: v for r, v in col.items()})
        basis_cols = [{t: c for t, c in enumerate(u) if c} for u in bases[i - 1]]
        sols = solve_columns(basis_cols, targets, ring)
        entries = {(r, j): v for j, sol in enumerate(sols) for r, v in sol.items()}
        boundaries.append(ExactMatrix(len(bases[i - 1]), len(bases[i]), entries))
    icc = IntersectionChainComplex(
        n=n,
        coeff_label=coeff.label,
        allowable=data.allowed,
        bases=bases,
        boundaries=boundaries,
    )
    _assert_square_zero(icc, p)
    return icc


def _assert_square_zero(icc, p):
    for i in range(2, icc.n + 1):
        lo = col_dicts(icc.boundaries[i - 1])
        for col in col_dicts(icc.boundaries[i]):
            if _combine(lo, col.items(), p):
                raise AssertionError("boundary squared is nonzero")
