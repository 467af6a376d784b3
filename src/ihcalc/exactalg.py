"""Exact linear algebra over Q, Z_p, F_{p^m}, and Z.

Everything here is exact: rationals use arbitrary-precision fractions,
Z_p uses integers mod p, F_{p^m} (at most 2^16 elements) uses
logarithm and Zech logarithm tables built on first use, and the Smith
normal form never leaves Z.  No floating point anywhere.  Ranks are
taken in the prime field of the coefficients.  There is one elimination,
and `kernel_image` is the only way into it: a pass of unit pivots taken
sparsest column first, then Euclid steps on the core it leaves, then the
rank, or over Z Smith's column step.  Mod p the unit pass is the whole
rank; over Q the Euclid steps finish it.  Every homology table calls
`kernel_image` on a boundary that `ihcore` builds straight into the
index the elimination works on, the transpose of the matrix as sparse
rows with a column index beside them; no `ExactMatrix` is made.
`kernel_image` first runs the unit and Euclid pivots on a chosen set of
rows, then finishes with the rank or the Smith normal form on the same
index, and returns the rows it pivoted on, for clearing.  `rank` and
`smith_normal_form` are `kernel_image` with no rows chosen, on the index
`_index` builds of an `ExactMatrix`.  Primes must be below 2^64.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd


# Largest order of an extension field: its tables hold q entries each.
_MAX_ORDER = 1 << 16


class CoefficientError(ValueError):
    """Raised for invalid coefficient specifications or misuse."""


# Miller-Rabin over the primes up to 37 is exact below 3.18e23; a prime
# at or above _PRIME_LIMIT is refused rather than tested.
_PRIME_LIMIT = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; CoefficientError for n >= 2^64."""
    if n >= _PRIME_LIMIT:
        raise CoefficientError(f"{n} is not below 2^64")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficient specifications
# ---------------------------------------------------------------------------


class Rationals:
    """The field Q.  Elements are Fraction instances."""

    label = "Q"
    char = 0
    order = None
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class Integers:
    """The ring Z.  Not a field; rank/kernel ops reject it."""

    label = "Z"
    char = 0
    order = None
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def __eq__(self, other):
        return isinstance(other, Integers)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


class PrimeField:
    """Z_p for a prime p.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise CoefficientError(f"{p} is not prime")
        self.p = p
        self.label = f"Z{p}"
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def power(self, a, e):
        return pow(a, e, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Zp", self.p))

    def __repr__(self):
        return f"Z{self.p}"


def _poly_mulmod(a, b, modulus, p):
    """Multiply polynomials a, b (low-degree-first coefficient tuples) mod
    a monic modulus of degree m, coefficients mod p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^m = -(modulus[:-1])
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for k in range(m):
                prod[d - m + k] = (prod[d - m + k] - c * modulus[k]) % p
    prod = prod[:m] + [0] * max(0, m - len(prod))
    return tuple(prod[:m])


def _poly_powmod(a, e, modulus, p):
    """a^e mod the modulus by square and multiply."""
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, modulus, p)
        a = _poly_mulmod(a, a, modulus, p)
        e >>= 1
    return result


def _poly_is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(poly) - 1
    # roots check doubles as degree-1 trial division
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            divisor = _int_to_digits(idx, p, d) + (1,)
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _poly_divides(divisor, poly, p):
    """Long division by a monic divisor; true when nothing remains."""
    rem = list(poly)
    dd = len(divisor) - 1
    for shift in range(len(rem) - 1 - dd, -1, -1):
        lead = rem[shift + dd]
        for k in range(dd + 1):
            rem[shift + k] = (rem[shift + k] - lead * divisor[k]) % p
    return not any(rem)


def _int_to_digits(value, p, m):
    digits = []
    for _ in range(m):
        digits.append(value % p)
        value //= p
    return tuple(digits)


def _digits_to_int(digits, p):
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


class FiniteField:
    """F_{p^m} presented as Z_p[x]/(modulus), with the modulus given by
    `smallest_irreducible`.

    Elements are ints in [0, p^m) encoding coefficient vectors base p,
    low-degree digit first.  Arithmetic reads three tables of size q,
    built on first use from a primitive element g: `_exp` (g^k), `_log`
    and `_zech` (the Zech logarithms log(1 + g^k)).  mul, inv and power
    add logarithms, and add(a, b) is a * (1 + b/a).  Orders above
    `_MAX_ORDER` are refused.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise CoefficientError(f"{p} is not prime")
        if m < 1:
            raise CoefficientError("extension degree must be >= 1")
        # p >= 2, so m > 16 exceeds the bound without forming p**m
        if m > 16 or p**m > _MAX_ORDER:
            raise CoefficientError(f"F{p}^{m} has more than {_MAX_ORDER} elements")
        self.p = p
        self.m = m
        self.modulus = smallest_irreducible(p, m)
        self.label = f"F{p}^{m}"
        self.char = p
        self.order = p**m
        self.zero = 0
        self.one = 1

    @cached_property
    def _exp(self):
        """g^k for k in [0, q-1), g the first element whose power
        g^((q-1)/r) is not 1 for any prime r dividing q-1."""
        p, m, mod = self.p, self.m, self.modulus
        n = self.order - 1
        one = _int_to_digits(1, p, m)
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        for g in range(1, self.order):
            gd = _int_to_digits(g, p, m)
            if all(_poly_powmod(gd, n // r, mod, p) != one for r in primes):
                break
        exp, a = [], one
        for _ in range(n):
            exp.append(_digits_to_int(a, p))
            a = _poly_mulmod(a, gd, mod, p)
        return exp

    @cached_property
    def _log(self):
        """log[g^k] = k; log[0] is None."""
        log = [None] * self.order
        for k, a in enumerate(self._exp):
            log[a] = k
        return log

    @cached_property
    def _zech(self):
        """log(1 + g^k), None where g^k = -1.  Adding 1 changes only the
        constant digit."""
        p, log = self.p, self._log
        return [log[a + 1 if a % p != p - 1 else a + 1 - p] for a in self._exp]

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log, n = self._log, self.order - 1
        z = self._zech[(log[b] - log[a]) % n]
        return 0 if z is None else self._exp[(log[a] + z) % n]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        # p - 1 encodes -1, whose logarithm is (q-1)/2, or 0 when p = 2
        if not a:
            return 0
        log = self._log
        return self._exp[(log[a] + log[self.p - 1]) % (self.order - 1)]

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        return self._exp[(log[a] + log[b]) % (self.order - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[-self._log[a] % (self.order - 1)]

    def power(self, a, e):
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def from_int(self, n):
        return n % self.p

    def from_coeffs(self, coeffs):
        """Element from polynomial coefficients, low-degree first."""
        c = tuple(x % self.p for x in coeffs)
        if len(c) > self.m:
            raise CoefficientError("too many coefficients")
        return _digits_to_int(c + (0,) * (self.m - len(c)), self.p)

    def generator(self):
        """The class of x."""
        return self.from_coeffs((0, 1))

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.m, self.modulus))

    def __repr__(self):
        return f"F{self.order}"


def smallest_irreducible(p: int, m: int) -> tuple:
    """Lexicographically smallest monic irreducible polynomial of degree m
    over Z_p, coefficients compared low-degree-first."""
    for idx in range(p**m):
        poly = _int_to_digits(idx, p, m) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise CoefficientError("no irreducible polynomial found")  # unreachable


def make_field(p: int, m: int = 1):
    """Z_p for m == 1, otherwise F_{p^m} with the canonical modulus."""
    return PrimeField(p) if m == 1 else FiniteField(p, m)


RATIONALS = Rationals()
INTEGERS = Integers()


def coeff_from_label(label):
    """The coefficient ring with this `label`: Q, Z, Z<p> or F<p>^<m>."""
    if label == "Q":
        return RATIONALS
    if label == "Z":
        return INTEGERS
    try:
        if label.startswith("Z"):
            return PrimeField(int(label[1:]))
        if label.startswith("F"):
            p, m = label[1:].split("^")
            return make_field(int(p), int(m))
    except CoefficientError:
        raise
    except ValueError:
        pass
    raise CoefficientError(f"not a coefficient label: {label!r}")


def is_square(a, field) -> bool:
    """True iff a is a nonzero square in the finite field."""
    if not isinstance(field, (PrimeField, FiniteField)):
        raise CoefficientError("is_square requires a finite field")
    if a == field.zero:
        raise CoefficientError("is_square is undefined at 0")
    q = field.order
    return q % 2 == 0 or field.power(a, (q - 1) // 2) == field.one


def smallest_nonsquare(field):
    """Smallest nonsquare in the field's canonical element order."""
    for a in field.elements():
        if a != field.zero and not is_square(a, field):
            return a
    raise CoefficientError("every element is a square")


# ---------------------------------------------------------------------------
# Sparse exact matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Sparse matrix with exact scalar entries.  Zero entries are never
    stored.  Entries are ints, or Fractions over Q; the elimination
    routines read an int as an integer, so over F_{p^m} as an element of
    the prime field."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError("entry out of bounds")
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


# --- elimination ---------------------------------------------------------


def prime_field(coeff):
    """The prime field that eliminations over `coeff` run in: Q for Q,
    Z_p for Z_p and for F_{p^m}.

    An integer matrix has the same rank over F_{p^m} as over Z_p, and its
    kernel is spanned by the same vectors; an int in [0, p) already
    encodes that prime-subfield element of F_{p^m}."""
    if isinstance(coeff, Integers):
        raise CoefficientError("rank over Z is ambiguous; use smith_normal_form")
    if isinstance(coeff, (Rationals, PrimeField)):
        return coeff
    if isinstance(coeff, FiniteField):
        return PrimeField(coeff.p)
    raise CoefficientError(f"unsupported coefficients {coeff!r}")


def _index(entries, p):
    """The index `kernel_image` takes of the matrix with these entries
    {(r, c): v}: its transpose, ({c: {r: v}}, {r: {c: None}}), mod p if
    p > 0."""
    columns, rows = {}, {}
    for (r, c), v in entries.items():
        if p:
            v %= p
            if not v:
                continue
        columns.setdefault(c, {})[r] = v
        rows.setdefault(r, {})[c] = None
    return columns, rows


def _add_row(rows, cols, src, dst, factor, p):
    """Row dst += factor * row src (mod p when p is a prime), keeping the
    column index in step."""
    drow = rows[dst]
    for c, v in rows[src].items():
        nv = drow.get(c, 0) + factor * v
        if p:
            nv %= p
        if nv:
            drow[c] = nv
            cols[c][dst] = None
        else:
            del drow[c]
            del cols[c][dst]


def _drop(rows, cols, pr, pc):
    """Remove a pivot row pr and its cleared column pc from the index."""
    for c in rows.pop(pr):
        del cols[c][pr]
    del cols[pc]


def _unit_pivots(rows, cols, p, only=None):
    """Eliminate unit pivots in place, sparsest column first (a lazy heap:
    a stale count is pushed again) and the shortest row holding a unit in
    it; return their columns in order.  Mod a prime p every nonzero entry
    is a unit and they give the rank; for p == 0 the units are +-1 and a
    core is left.  A pivot clears its column by row operations, then its
    row and column are dropped: clearing the row by column operations
    would touch no other row, so the pass also serves the Smith normal
    form.  Given `only`, some of the columns, pivots are taken in it alone."""
    if only is None:
        heap = list(zip(map(len, cols.values()), cols))
    else:
        heap = [(len(cols[c]), c) for c in only]
    heapq.heapify(heap)
    pivots = []
    while heap:
        n, pc = heapq.heappop(heap)
        col = cols.get(pc)
        if not col:
            continue
        if len(col) != n:
            heapq.heappush(heap, (len(col), pc))
            continue
        units = col if p else (r for r in col if rows[r][pc] in (1, -1))
        pr = min(units, key=lambda r: (len(rows[r]), r), default=None)
        if pr is None:
            continue
        inv = pow(rows[pr][pc], p - 2, p) if p else rows[pr][pc]
        for r in list(col):
            if r != pr:
                _add_row(rows, cols, pr, r, -rows[r][pc] * inv, p)
        _drop(rows, cols, pr, pc)
        pivots.append(pc)
    return pivots


def rank(A: ExactMatrix, coeff) -> int:
    """Rank of A over a coefficient field: `kernel_image` with no rows
    chosen, which ranks the transpose, of the same rank."""
    # prime_field refuses Z, which kernel_image would take
    return kernel_image(_index(A.entries, prime_field(coeff).char), (), coeff)[1]


def _euclid(rows, cols, c):
    """Clear the nonempty column c down to one row by integer row
    operations, each round subtracting multiples of the entry of least
    absolute value; return that row.  Over Q the entries of c lie in
    (1/L)Z, L the common denominator, so this ends as it does over Z."""
    col = cols[c]
    while True:
        pr = min(col, key=lambda r: (abs(rows[r][c]), len(rows[r]), r))
        if len(col) == 1:
            return pr
        for r in list(col):
            if r != pr:
                _add_row(rows, cols, pr, r, -(rows[r][c] // rows[pr][c]), 0)


def _euclid_pivots(rows, cols, only):
    """Pivot on each column of `only` that still has entries, in
    ascending order: `_euclid` leaves it one row, and that row and the
    column are dropped; return those columns.  Each pivot is the only
    entry left in its column, and no later step touches its row, so the
    pivots are triangular with nonzero diagonal.  After the unit pass
    mod p no column has entries."""
    pivots = []
    for c in sorted(only):
        if cols.get(c):
            _drop(rows, cols, _euclid(rows, cols, c), c)
            pivots.append(c)
    return pivots


def kernel_image(index, rows, coeff):
    """(r, image, pivots) for a matrix A given by its transposed index
    ({column c of A: {row r: value}}, {row r: {column c: None}}), the
    rows R = `rows` of A, and K = ker A_R: r is the rank of A_R (over Q
    when coeff is Z), image the rank of A(K) over a field, or over Z the
    SNFResult of the lattice A(K & Z^ncols), and pivots the rows of A on
    which the image phase took a pivot (over Z, only the +-1 pivots).
    The index is used up.  Its values are ints, or Fractions over Q;
    mod p they need no reduction if none is 0 mod p, since the
    elimination reduces every value it writes: `ihcore._boundary` writes
    +-1, and `_index` reduces an ExactMatrix for `rank`.

    Column operations on A are row operations on its transpose, which is
    what is indexed.  Unit pivots are taken in the rows R only
    (`_unit_pivots`); over Q and Z, Euclid steps then clear the core they
    leave in R, and mod p none is left.  A pivot column of A is the only
    column left with an entry in its pivot row, so no element of K uses
    it, and it is dropped.  The operations are unimodular, so the
    columns that remain span A(K) over Z as well, and the rank or the
    Smith normal form finishes on the same index.  The rows pivoted on
    serve clearing (see `ihcore._homology_table`)."""
    integral = isinstance(coeff, Integers)
    p = 0 if integral else prime_field(coeff).char
    idx, cols = index
    bad = cols.keys() & set(rows)
    count = len(_unit_pivots(idx, cols, p, only=bad) + _euclid_pivots(idx, cols, bad))
    if integral:
        return (count, *_smith(idx, cols))
    pivots = _unit_pivots(idx, cols, p) + _euclid_pivots(idx, cols, cols)
    return count, len(pivots), pivots


# --- Smith normal form -----------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    invariant_factors: tuple
    rank: int

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(A: ExactMatrix) -> SNFResult:
    """Invariant factors d1 | d2 | ... of an integer matrix:
    `kernel_image` with no rows chosen, which puts the transpose, of the
    same Smith form, through `_smith`."""
    return kernel_image(_index(_integer_entries(A), 0), (), INTEGERS)[1]


def _integer_entries(A):
    if any(
        not isinstance(v, int) and getattr(v, "denominator", 0) != 1
        for v in A.entries.values()
    ):
        raise CoefficientError("integer coefficients need integer entries")
    return {k: int(v) for k, v in A.entries.items()}


def _smith(rows, cols):
    """(SNFResult, the pivot columns of the unit pre-pass).

    First eliminates +-1 pivots (`_unit_pivots`), each contributing an
    invariant factor 1.  The remaining core is cleared a column at a
    time, sparsest first: Euclid steps on rows (`_euclid`) leave one
    entry g in it, and column operations reduce the rest of its row mod
    g; a remainder becomes the next pivot column.  Invariant factors are
    unique, so the pre-pass does not change the result."""
    units = _unit_pivots(rows, cols, 0)
    diag = [1] * len(units)
    while True:
        live = [c for c, col in cols.items() if col]
        if not live:
            break
        c = min(live, key=lambda c: (len(cols[c]), c))
        while True:
            pr = _euclid(rows, cols, c)
            row, g = rows[pr], rows[pr][c]
            # column operations against column c, whose only entry is in
            # row pr, reduce the rest of that row mod g and touch nothing else
            for cc in [cc for cc in row if cc != c]:
                if row[cc] % g:
                    row[cc] %= g
                else:
                    del row[cc], cols[cc][pr]
            if len(row) == 1:
                break
            c = min((cc for cc in row if cc != c), key=lambda cc: abs(row[cc]))
        diag.append(abs(g))
        _drop(rows, cols, pr, c)

    # repair the divisibility chain: (a, b) -> (gcd, lcm) keeps Z/a + Z/b,
    # and after one sweep each entry divides all later ones; 1s stay put
    tors = [d for d in diag if d > 1]
    for i in range(len(tors)):
        for j in range(i + 1, len(tors)):
            g = gcd(tors[i], tors[j])
            tors[i], tors[j] = g, tors[i] * tors[j] // g
    return SNFResult((1,) * (len(diag) - len(tors)) + tuple(tors), len(diag)), units
