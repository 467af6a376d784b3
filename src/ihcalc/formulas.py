"""Closed-form homology engines: cone, suspension, compactified-bundle,
and Kunneth formulas on homology tables, plus the bordism splitting.

These run on tables rather than triangulations, so they serve both as
independent oracles for the chain-level machinery and as the only way to
reach spaces too large to triangulate.
"""

import warnings

from .exactalg import CoefficientError, coeff_from_label
from .ihcore import AbelianGroup, IHTable, Perversity, PerversityError, uct_cyclic
from .witt import bordism_group


class FormulaError(ValueError):
    pass


def _field_table(label, dims):
    return IHTable(coeff_label=label, n=len(dims) - 1, dims=tuple(dims))


def cone_formula(link_table: IHTable, n: int, pbar: Perversity) -> IHTable:
    """Intersection homology of the cone on an n-dimensional space:
    degrees at or above n - p(n+1) vanish, lower degrees copy the link.

    The n = 0 cone (no codimension-(n+1) perversity value exists) is a
    stratified interval; its table is taken to be (1, 0)."""
    if link_table.is_integral:
        raise FormulaError("formula engines take field tables")
    if n == 0:
        return _field_table(link_table.coeff_label, [1, 0])
    if pbar.n < n + 1:
        raise PerversityError(f"perversity undefined at codimension {n + 1}")
    cutoff = n - pbar(n + 1)
    dims = [link_table.dim(i) if i < cutoff else 0 for i in range(n + 2)]
    return _field_table(link_table.coeff_label, dims)


def suspension_formula(base_table: IHTable, n: int, pbar: Perversity) -> IHTable:
    """Intersection homology of a suspension: shifted copy of the base
    above the cutoff degree n - p(n+1), zero at it, identical below."""
    if base_table.is_integral:
        raise FormulaError("formula engines take field tables")
    if pbar.n < n + 1:
        raise PerversityError(f"perversity undefined at codimension {n + 1}")
    cutoff = n - pbar(n + 1)
    dims = []
    for i in range(n + 2):
        if i > cutoff:
            dims.append(base_table.dim(i - 1))
        elif i == cutoff:
            dims.append(0)
        else:
            dims.append(base_table.dim(i))
    return _field_table(base_table.coeff_label, dims)


def compactified_bundle_formula(base_table: IHTable, r: int, e: int,
                                pbar: Perversity) -> IHTable:
    """Homology of the cone-compactified total space of a rank-r disk
    bundle with euler number e over a closed manifold base.

    Above the transition degree the table is the Thom shift of the base;
    below it, the base itself; at the transition degree the dimension is
    the rank of multiplication by e from the top of the base to the
    shifted bottom.  The scalar model of that map is exact for the
    sphere and torus bases used here; other bases are accepted but
    flagged as an unverified regime."""
    if base_table.is_integral:
        raise FormulaError("formula engines take field tables")
    m = base_table.n
    n = m + r
    if pbar.n < n:
        raise PerversityError(f"perversity undefined at codimension {n}")
    try:
        char = coeff_from_label(base_table.coeff_label).char
    except CoefficientError as e:
        raise FormulaError(str(e)) from None
    transition = n - pbar(n) - 1
    if base_table.dims not in {(1, 0, 1), (1, 2, 1)}:
        warnings.warn("transition-term model unverified for this base",
                      stacklevel=2)
    dims = []
    for i in range(n + 1):
        if i > transition:
            dims.append(base_table.dim(i - r))
        elif i < transition:
            dims.append(base_table.dim(i))
        else:
            if i == m and i - r == 0 and base_table.dim(m) and base_table.dim(0):
                nonzero = e != 0 if char == 0 else e % char != 0
                dims.append(1 if nonzero else 0)
            else:
                dims.append(0)
    return _field_table(base_table.coeff_label, dims)


def kunneth(x_table: IHTable, m_table: IHTable) -> IHTable:
    """Graded convolution of two field tables (one factor a manifold)."""
    if x_table.is_integral or m_table.is_integral:
        raise FormulaError("Kunneth engine takes field tables")
    if x_table.coeff_label != m_table.coeff_label:
        raise FormulaError("mixed coefficients")
    n = x_table.n + m_table.n
    dims = [
        sum(x_table.dim(r) * m_table.dim(i - r) for r in range(i + 1))
        for i in range(n + 1)
    ]
    return _field_table(x_table.coeff_label, dims)


def homology_with_coefficients(table: IHTable, group: AbelianGroup, r):
    """H_r(X; A) for A a finitely generated abelian group, evaluated by
    universal coefficients from the integral table."""
    if not table.is_integral:
        raise FormulaError("needs an integral homology table")
    acc = AbelianGroup()
    if group.free_rank:
        free = table.rank(r) * group.free_rank
        tors = tuple(
            sorted(t for t in table.torsion_at(r) for _ in range(group.free_rank))
        )
        acc = acc + AbelianGroup(free, tors)
    for q in group.torsion:
        acc = acc + AbelianGroup(0, tuple(sorted(uct_cyclic(table, q, r))))
    return acc


def omega_splitting(h_table: IHTable, n: int, p: int) -> AbelianGroup:
    """Witt bordism of a space from its integral homology: the direct
    sum over r + s = n of H_r with coefficients in the degree-s bordism
    group of a point.  H_r(X; A) is zero above the table's top degree
    plus one (its Tor term reads H_(r-1)), so the sum stops there and its
    length does not depend on n."""
    if not h_table.is_integral:
        raise FormulaError("needs an integral homology table")
    total = AbelianGroup()
    for r in range(min(n, h_table.n + 1) + 1):
        coeffs = bordism_group(n - r, p)
        if coeffs.is_trivial:
            continue
        total = total + homology_with_coefficients(h_table, coeffs, r)
    return total
