"""Exact linear algebra over Q, Z_p, F_{p^m}, and Z.

Everything here is exact: rationals use arbitrary-precision fractions,
Z_p uses integers mod p, F_{p^m} (at most 2^16 elements) uses
logarithm and Zech logarithm tables built on first use, and the Smith
normal form never leaves Z.  No floating point anywhere.  Ranks are
taken in the prime field of the coefficients.  There is one elimination,
and `kernel_image` is the only way into it: one pass over the columns
of a matrix, each reduced by its lowest row (`_column_pass`), the
standard column reduction of persistent homology.  Mod p a pivot empties
the lowest entry it meets; over Q and Z a remainder swaps the column and
the pivot, so the lowest entries run Euclid's algorithm by unimodular
column operations.  The rows to clear are keyed after every other, so
the pivots that end in them count the rank lost, and the others span
the image of the kernel: over a field they give its rank, and over Z
`_smith` reads its invariant factors off them.  Every homology table
calls `kernel_image` on the columns of a boundary that `ihcore` streams
one at a time; no `ExactMatrix` is made.  `rank` and
`smith_normal_form` are `kernel_image` with no rows to clear, on the
columns of an `ExactMatrix`.  Primes must be below 2^64.
"""

from __future__ import annotations

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


class _Ring:
    """A coefficient ring is known by its label: rings of one class with
    the same label are equal, and the label is the hash and the repr."""

    def __eq__(self, other):
        return type(other) is type(self) and other.label == self.label

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return self.label


class Rationals(_Ring):
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


class Integers(_Ring):
    """The ring Z.  Not a field; rank/kernel ops reject it."""

    label = "Z"
    char = 0
    order = None
    zero = 0
    one = 1

    def from_int(self, n):
        return n


class PrimeField(_Ring):
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


class FiniteField(_Ring):
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

    def elements(self):
        return range(self.order)

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


def _columns(entries, ncols, p):
    """The ncols columns of the matrix with these entries {(r, c): v}, as
    {row: value} dicts, mod p if p > 0."""
    columns = [{} for _ in range(ncols)]
    for (r, c), v in entries.items():
        if p:
            v %= p
        if v:
            columns[c][r] = v
    return columns


def rank(A: ExactMatrix, coeff) -> int:
    """Rank of A over a coefficient field: `kernel_image` with no rows
    to clear."""
    # prime_field refuses Z, which kernel_image would take
    p = prime_field(coeff).char
    return kernel_image(_columns(A.entries, A.ncols, p), A.nrows, coeff)[1]


def _column_pass(columns, p):
    """{low: column}: the columns, {row: value} dicts, reduced one at a
    time by their lowest (largest) row until each is empty or the pivot
    at its low.  A column meeting the pivot at its low subtracts q times
    it: mod a prime p, q = col[low] / pivot[low], which empties that
    entry; over Q and Z, q = col[low] // pivot[low], and a remainder
    left at the low swaps the column and the pivot, so the low entries
    run Euclid's algorithm (a quotient of 0 is a swap alone).  Over Q
    the entries lie in (1/L)Z for a common denominator L, so Euclid ends
    there too.  Every step is a unimodular column operation, and the
    pivots have distinct lows.  Mod p an entry is not reduced until it
    is written, so the columns may hold any value that is not 0 mod p."""
    pivots = {}
    for col in columns:
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            q = col[low] * pow(piv[low], -1, p) % p if p else col[low] // piv[low]
            if q:
                _subtract(col, q, piv, p)
            if low in col:
                pivots[low], col = col, piv
    return pivots


def _subtract(col, q, piv, p):
    """col -= q * piv in place, mod p if p > 0, dropping the zeros."""
    for r, v in piv.items():
        v = col.get(r, 0) - q * v
        if p:
            v %= p
        if v:
            col[r] = v
        else:
            del col[r]


def kernel_image(columns, nrows, coeff):
    """(r, image, pivots) for the matrix A whose columns are `columns`,
    {row: value} dicts, with the rows R to clear keyed `nrows` and up,
    after every other row, and K = ker A_R: r is the rank of A_R (over Q
    when coeff is Z), image the rank of A(K) over a field, or over Z the
    SNFResult of the lattice A(K & Z^ncols), and pivots the rows below
    `nrows` on which a pivot of the image sits (over Z, only the +-1
    pivots).  The columns are used up.  Their values are ints, or
    Fractions over Q; mod p none may be 0 mod p (`_column_pass`):
    `ihcore._boundary` streams +-1, and `_columns` reduces an
    ExactMatrix for `rank`.

    One pass (`_column_pass`) reduces every column by its lowest row.
    The pivots whose low is in R have independent parts in R, and every
    other pivot is 0 in R, since R sorts last: the first count the rank
    of A_R.  The operations are unimodular, so the others span A(K), and
    over Z the lattice A(K & Z^ncols).  Over a field they count its rank.
    Over Z, `_smith` reads the invariant factors off them, and only the
    pivots whose low entry is +-1 are reported.  Either way the reported
    pivots are triangular on their lows with unit diagonal, which is
    what clearing needs (see `ihcore._homology_table`)."""
    integral = isinstance(coeff, Integers)
    pivots = _column_pass(columns, 0 if integral else prime_field(coeff).char)
    image = {low: col for low, col in pivots.items() if low < nrows}
    lost = len(pivots) - len(image)
    if not integral:
        return lost, len(image), list(image)
    units = {low: col for low, col in image.items() if col[low] in (1, -1)}
    core = [col for low, col in image.items() if low not in units]
    return lost, _smith(units, core), list(units)


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
    `kernel_image` with no rows to clear."""
    columns = _columns(_integer_entries(A), A.ncols, 0)
    return kernel_image(columns, A.nrows, INTEGERS)[1]


def _integer_entries(A):
    if any(
        not isinstance(v, int) and getattr(v, "denominator", 0) != 1
        for v in A.entries.values()
    ):
        raise CoefficientError("integer coefficients need integer entries")
    return {k: int(v) for k, v in A.entries.items()}


def _smith(units, core):
    """SNFResult of the lattice spanned by the pivots of `_column_pass`
    over Z: `units`, {low: pivot} with low entry +-1, and the list
    `core` of the others, which it uses up.

    Each unit gives an invariant factor 1.  A core pivot first loses its
    entries at the units' lows, highest first, by subtracting multiples
    of those units, which touch only rows at or below their lows; then
    row operations make the units unit vectors without touching the
    core, which is left to put in Smith form.  That is done a column at
    a time: Euclid steps along a row leave one column g there, and row
    operations reduce the rest of that column mod g; a remainder is the
    next row to take."""
    for col in core:
        while hit := col.keys() & units.keys():
            u = max(hit)
            _subtract(col, col[u] * units[u][u], units[u], 0)
    diag = [1] * len(units)
    while core:
        j = len(core) - 1
        r = max(core[j])
        while True:
            piv, g = core[j], core[j][r]
            for col in core:
                if col is not piv and r in col and col[r] // g:
                    _subtract(col, col[r] // g, piv, 0)
            left = [k for k, col in enumerate(core) if col is not piv and r in col]
            if left:
                j = min(left, key=lambda k: abs(core[k][r]))
                continue
            # row operations against row r, whose only entry is g, reduce
            # the rest of this column mod g and touch no other column
            for s in [s for s in piv if s != r]:
                if piv[s] % g:
                    piv[s] %= g
                else:
                    del piv[s]
            if len(piv) == 1:
                break
            r = min((s for s in piv if s != r), key=lambda s: abs(piv[s]))
        diag.append(abs(g))
        del core[j]

    # repair the divisibility chain: (a, b) -> (gcd, lcm) keeps Z/a + Z/b,
    # and after one sweep each entry divides all later ones; 1s stay put
    tors = [d for d in diag if d > 1]
    for i in range(len(tors)):
        for j in range(i + 1, len(tors)):
            g = gcd(tors[i], tors[j])
            tors[i], tors[j] = g, tors[i] * tors[j] // g
    return SNFResult((1,) * (len(diag) - len(tors)) + tuple(tors), len(diag))
