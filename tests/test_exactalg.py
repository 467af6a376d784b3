"""Exact linear algebra and finite field arithmetic."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ihcalc.exactalg import (
    CoefficientError,
    ExactMatrix,
    FiniteField,
    INTEGERS,
    PrimeField,
    RATIONALS,
    _poly_mulmod,
    SNFResult,
    coeff_from_label,
    is_prime,
    is_square,
    kernel_image,
    make_field,
    prime_field,
    rank,
    smallest_irreducible,
    smallest_nonsquare,
    smith_normal_form,
)
from ihcalc.catalog import catalog_build
from ihcalc.ihcore import Perversity, _ChainData, _boundary
from ihcalc.simplicial import simplex_key
from lattice_reference import (
    _echelon,
    _row_block,
    _xgcd,
    boundary_chain,
    boundary_matrix,
    col_dicts,
    integer_kernel_basis,
    kernel_basis,
    solve_columns,
)


def test_is_prime_small():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n", [2047, 1373653, 25326001, 3215031751, 3825123056546413051]
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each passes the strong test to several of the smallest bases
    assert not is_prime(n)


def test_is_prime_near_the_bound():
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not is_prime(2**64 - 1)
    with pytest.raises(CoefficientError, match="not below 2\\^64"):
        is_prime(2**64 + 13)


class TestFiniteFields:
    def test_f9_modulus_is_x_squared_plus_one(self):
        # lexicographically smallest monic irreducible of degree 2 over Z3
        F9 = make_field(3, 2)
        assert F9.modulus == (1, 0, 1)

    def test_f9_generator_squares_to_minus_one(self):
        F9 = make_field(3, 2)
        x = F9.from_coeffs((0, 1))
        assert F9.mul(x, x) == F9.from_int(2)

    def test_f4_modulus(self):
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_make_field_degree_one_is_prime_field(self):
        assert isinstance(make_field(5, 1), PrimeField)

    def test_field_axioms_f9(self):
        F9 = make_field(3, 2)
        elems = [i for i in range(9)]
        for a in elems:
            if a != F9.zero:
                assert F9.mul(a, F9.inv(a)) == F9.one
            for b in elems:
                assert F9.mul(a, b) == F9.mul(b, a)
                assert F9.add(a, b) == F9.add(b, a)

    def test_frobenius_fixed_field(self):
        F9 = make_field(3, 2)
        fixed = [a for a in range(9) if F9.power(a, 3) == a]
        assert sorted(fixed) == [F9.from_int(i) for i in range(3)]

    def test_smallest_irreducible_is_irreducible(self):
        for p, m in [(2, 3), (3, 3), (5, 2), (2, 10)]:
            # no product of two monic polynomials of positive degree is
            # the modulus, checked without the package's polynomial code
            modulus = smallest_irreducible(p, m)
            assert len(modulus) == m + 1 and modulus[-1] == 1
            for d in range(1, m // 2 + 1):
                for f in _monic(p, d):
                    for g in _monic(p, m - d):
                        assert _poly_mul(f, g, p) != modulus
            # so the multiplicative group is cyclic of order q - 1
            F = make_field(p, m)
            q = F.order
            assert any(_ref_order(F, a) == q - 1 for a in range(1, q))

    def test_field_tables_are_built_on_first_use(self):
        tables = {"_exp", "_log", "_zech"}
        assert make_field(2, 16).label == "F2^16"
        assert not tables & set(vars(make_field(2, 16)))
        F9 = make_field(3, 2)
        assert not tables & set(vars(F9))
        assert F9.add(F9.from_coeffs((0, 1)), F9.one) == F9.from_coeffs((1, 1))
        assert tables <= set(vars(F9))

    @pytest.mark.parametrize("p, m", [(2, 17), (257, 2), (2, 64), (3, 10**9)])
    def test_fields_above_the_bound_are_refused(self, p, m):
        with pytest.raises(CoefficientError, match="more than 65536 elements"):
            make_field(p, m)


def _monic(p, d):
    """All monic polynomials of degree d over Z_p, low degree first."""
    for idx in range(p**d):
        yield tuple(idx // p**k % p for k in range(d)) + (1,)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _digits(F, a):
    return tuple(a // F.p**k % F.p for k in range(F.m))


def _undigits(F, digits):
    return sum(d * F.p**k for k, d in enumerate(digits))


def _ref_mul(F, a, b):
    return _undigits(F, _poly_mulmod(_digits(F, a), _digits(F, b), F.modulus, F.p))


def _ref_power(F, a, e):
    result = 1
    while e:
        if e & 1:
            result = _ref_mul(F, result, a)
        a = _ref_mul(F, a, a)
        e >>= 1
    return result


def _ref_order(F, a):
    k, b = 1, a
    while b != 1:
        k, b = k + 1, _ref_mul(F, b, a)
    return k


# F4, F9, F27, F343, and two fields above 512 elements
REF_FIELDS = [
    make_field(p, m) for p, m in ((2, 2), (3, 2), (3, 3), (7, 3), (2, 10), (3, 7))
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(REF_FIELDS).flatmap(
        lambda F: st.tuples(
            st.just(F),
            st.integers(0, F.order - 1),
            st.integers(0, F.order - 1),
            st.integers(0, 2 * F.order),
        )
    )
)
def test_field_arithmetic_matches_polynomial_reference(case):
    F, a, b, e = case
    da, db = _digits(F, a), _digits(F, b)
    assert F.add(a, b) == _undigits(F, [(x + y) % F.p for x, y in zip(da, db)])
    assert F.sub(a, b) == _undigits(F, [(x - y) % F.p for x, y in zip(da, db)])
    assert F.neg(a) == _undigits(F, [-x % F.p for x in da])
    assert F.mul(a, b) == _ref_mul(F, a, b)
    assert F.power(a, e) == _ref_power(F, a, e)
    if a:
        assert F.inv(a) == _ref_power(F, a, F.order - 2)
        assert _ref_mul(F, a, F.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)


class TestRingIdentity:
    """A coefficient ring is known by its label."""

    RINGS = {"Q": "Q", "Z": "Z", "Z2": "Z2", "Z3": "Z3",
             f"Z{2**61 - 1}": f"Z{2**61 - 1}", "F2^2": "F4", "F3^2": "F9", "F5^2": "F25"}

    @pytest.mark.parametrize("label", sorted(RINGS))
    def test_the_label_gives_the_ring_back(self, label):
        r = coeff_from_label(label)
        again = coeff_from_label(r.label)
        assert r.label == label and repr(r) == self.RINGS[label]
        assert again == r and hash(again) == hash(r) == hash(label)
        assert {r: 1}[again] == 1
        assert r != label and not r != again

    def test_rings_of_one_characteristic_are_told_apart(self):
        rings = [coeff_from_label(label) for label in self.RINGS] + [FiniteField(3, 1)]
        assert repr(FiniteField(3, 1)) == "F3"
        for a, b in combinations(rings, 2):
            assert a != b, (a, b)
        assert len(set(rings)) == len(rings)


class TestSquares:
    def test_minus_one_squareness(self):
        assert is_square(PrimeField(5).from_int(-1), PrimeField(5))
        assert not is_square(PrimeField(3).from_int(-1), PrimeField(3))
        F9 = make_field(3, 2)
        assert is_square(F9.from_int(-1), F9)

    def test_char_two_everything_square(self):
        F4 = make_field(2, 2)
        assert all(is_square(a, F4) for a in range(1, 4))

    def test_is_square_rejects_zero(self):
        with pytest.raises(CoefficientError):
            is_square(0, PrimeField(3))

    def test_smallest_nonsquare(self):
        assert smallest_nonsquare(PrimeField(3)) == 2
        assert smallest_nonsquare(PrimeField(5)) == 2
        assert smallest_nonsquare(PrimeField(7)) == 3

    def test_square_count_odd_field(self):
        F9 = make_field(3, 2)
        squares = {a for a in range(1, 9) if is_square(a, F9)}
        assert len(squares) == 4


class TestRank:
    def test_identity(self):
        A = ExactMatrix.identity(3)
        for coeff in (RATIONALS, PrimeField(2), PrimeField(5), make_field(3, 2)):
            assert rank(A, coeff) == 3

    def test_rank_depends_on_characteristic(self):
        A = ExactMatrix.from_rows([[3]])
        assert rank(A, RATIONALS) == 1
        assert rank(A, PrimeField(3)) == 0
        assert rank(A, PrimeField(2)) == 1

    def test_rank_over_z_rejected(self):
        with pytest.raises(CoefficientError):
            rank(ExactMatrix.identity(2), INTEGERS)

    def test_fraction_entries(self):
        from fractions import Fraction

        A = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        )
        assert rank(A, RATIONALS) == 1
        # Fraction entries over Q: Euclid runs on them as it does on ints
        A = ExactMatrix.from_rows(
            [
                [Fraction(1), Fraction(1, 2), 0, Fraction(2, 3)],
                [Fraction(-1), 0, Fraction(3, 4), Fraction(1, 3)],
                [0, Fraction(1, 2), Fraction(3, 4), 1],
                [Fraction(5, 7), 0, 0, Fraction(-1, 7)],
            ]
        )
        assert rank(A, RATIONALS) == len(_echelon(_sparse_rows(A), 0)[0]) == 3

    def test_j_l3_boundary_ranks(self):
        # D_1..D_4 of L(3,1) x S1 at the lower middle perversity; D_2 and
        # D_3 lose one over Z3, from the Z/3 in H_1 and in H_2
        X = catalog_build("J_L3")
        data = _ChainData(X, Perversity.lower_middle(4))
        for coeff, want in (
            (RATIONALS, (56, 738, 1872, 1247)),
            (PrimeField(3), (56, 737, 1871, 1247)),
            (make_field(3, 2), (56, 737, 1871, 1247)),
        ):
            assert tuple(rank(boundary_matrix(data, i), coeff) for i in range(1, 5)) == want


class TestKernels:
    def test_kernel_of_zero_map(self):
        A = ExactMatrix(2, 3)
        assert len(kernel_basis(A, RATIONALS)) == 3

    def test_kernel_vectors_annihilate(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        A = ExactMatrix.from_rows(rows)
        for coeff in (RATIONALS, PrimeField(5)):
            for v in kernel_basis(A, coeff):
                for r in rows:
                    val = sum(int(a) * int(b) for a, b in zip(r, v))
                    if coeff is RATIONALS:
                        s = sum(a * b for a, b in zip(r, v))
                        assert s == 0
                    else:
                        assert val % 5 == 0

    def test_integer_kernel_saturated(self):
        A = ExactMatrix.from_rows([[2, 4]])
        basis = integer_kernel_basis(A)
        assert basis == [[2, -1]] or basis == [[-2, 1]]

    @pytest.mark.parametrize(
        "a, b",
        [(2, -3), (-2, 3), (-2, -3), (2, 3), (12, -18), (-7, 7), (0, -5), (-5, 0)],
    )
    def test_xgcd_gives_positive_gcd_and_bezout(self, a, b):
        g, x, y = _xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g

    def test_integer_kernel_annihilates(self):
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            A = ExactMatrix.from_rows(rows)
            for v in integer_kernel_basis(A):
                for r in rows:
                    assert sum(a * b for a, b in zip(r, v)) == 0


class TestSolveColumns:
    def test_solve_over_q(self):
        cols = [{0: 1, 1: 2}, {1: 1}]
        sols = solve_columns(cols, [{0: 2, 1: 5}], RATIONALS)
        assert sols[0] == {0: 2, 1: 1}

    def test_solve_over_z_integrality(self):
        cols = [{0: 2}]
        sols = solve_columns(cols, [{0: 4}], INTEGERS)
        assert sols[0] == {0: 2}

    def test_solve_over_zp(self):
        cols = [{0: 1, 1: 2}, {1: 1}]
        # 2 * (1, 2) + 1 * (0, 1) = (2, 5) = (2, 0) mod 5
        assert solve_columns(cols, [{0: 2}, {}], PrimeField(5)) == [{0: 2, 1: 1}, {}]
        # over Z3 the pivot 2 is inverted: (1, 1) = 2 * (2, 0) + (0, 1)
        sols = solve_columns([{0: 2}, {1: 1}], [{0: 1, 1: 1}], PrimeField(3))
        assert sols == [{0: 2, 1: 1}]

    def test_solve_over_extension_reads_integers(self):
        # integer columns over F9 are solved in its prime field Z3
        cols = [{0: 2}, {1: 1}]
        assert solve_columns(cols, [{0: 1, 1: 1}], make_field(3, 2)) == [{0: 2, 1: 1}]

    def test_dependent_basis_rejected(self):
        with pytest.raises(CoefficientError, match="basis columns are dependent"):
            solve_columns([{0: 1}, {0: 3}], [{0: 1}], RATIONALS)
        with pytest.raises(CoefficientError, match="basis columns are dependent"):
            solve_columns([{0: 1}, {0: 3}], [], PrimeField(2))

    def test_target_outside_span_rejected(self):
        with pytest.raises(CoefficientError, match="target not in span of basis"):
            solve_columns([{0: 1}], [{0: 1}, {1: 1}], PrimeField(3))

    def test_non_integral_solution_rejected(self):
        with pytest.raises(CoefficientError, match="non-integral solution"):
            solve_columns([{0: 2}], [{0: 3}], INTEGERS)
        assert solve_columns([{0: 2}], [{0: 3}], RATIONALS) == [{0: Fraction(3, 2)}]


class TestSmithNormalForm:
    def test_diagonal_cases(self):
        assert smith_normal_form(
            ExactMatrix.from_rows([[2, 0], [0, 4]])
        ).invariant_factors == (2, 4)
        assert smith_normal_form(
            ExactMatrix.from_rows([[2, 0], [0, 3]])
        ).invariant_factors == (1, 6)
        assert smith_normal_form(ExactMatrix.from_rows([[2]])).torsion == (2,)

    def test_divisibility_chain(self):
        rng = random.Random(1)
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = ExactMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            fs = smith_normal_form(A).invariant_factors
            for a, b in zip(fs, fs[1:]):
                assert b % a == 0

    def test_zero_matrix(self):
        assert smith_normal_form(ExactMatrix(3, 2)).rank == 0

    @pytest.mark.parametrize(
        "diag, want",
        [((4, 6, 10), (2, 2, 60)), ((6, 10, 15), (1, 30, 30)), ((9, 4, 6), (1, 6, 36))],
    )
    def test_divisor_chain_of_a_diagonal(self, diag, want):
        # a diagonal core with no unit pivot: every order of its entries
        # gives the same chain
        for perm in permutations(diag):
            A = ExactMatrix(3, 3, {(i, i): d for i, d in enumerate(perm)})
            assert smith_normal_form(A).invariant_factors == want

    def test_unit_prepass_leaves_nonunit_core(self):
        # column 0 is a pivot with low entry 1; column 1 plus it is
        # (2, 0, 0), and with (0, 0, 3) the core diag(2, 3) has no +-1
        # low entry and goes through the Smith loop
        A = ExactMatrix.from_rows([[1, 1, 0], [1, -1, 0], [0, 0, 3]])
        assert smith_normal_form(A).invariant_factors == (1, 1, 6)

    def test_j_l3_second_boundary_torsion(self):
        # D_2 of L(3,1) x S1: sparse, almost all pivots +-1, torsion Z/3
        K = catalog_build("J_L3").complex
        edges = {e: r for r, e in enumerate(sorted(K.faces(1), key=simplex_key))}
        entries = {}
        for c, t in enumerate(sorted(K.faces(2), key=simplex_key)):
            for f, sign in boundary_chain(t):
                entries[(edges[f], c)] = sign
        A = ExactMatrix(len(edges), len(K.faces(2)), entries)
        s = smith_normal_form(A)
        assert s.torsion == (3,)
        # rank D_2 = dim Z_1 - b_1, with dim Z_1 = E - V + 1 and b_1 = 1
        assert s.rank == len(K.faces(1)) - len(K.faces(0))

    def test_integral_fraction_accepted(self):
        A = ExactMatrix.from_rows([[Fraction(2), 0], [0, Fraction(3, 1)]])
        assert smith_normal_form(A).invariant_factors == (1, 6)

    def test_non_integer_fraction_rejected(self):
        A = ExactMatrix.from_rows([[1, 0], [0, Fraction(1, 2)]])
        with pytest.raises(CoefficientError):
            smith_normal_form(A)


def _det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def determinantal_invariant_factors(rows):
    """Oracle: d_k = D_k / D_(k-1), where D_k is the gcd of all k x k
    minors, for k up to the rank."""
    m, n = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                g = gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_smith_normal_form_matches_determinantal_divisors(rows):
    s = smith_normal_form(ExactMatrix.from_rows(rows))
    want = determinantal_invariant_factors(rows)
    assert s.invariant_factors == want
    assert s.rank == len(want)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_consistency_across_rings(rows):
    A = ExactMatrix.from_rows(rows)
    s = smith_normal_form(A)
    assert rank(A, RATIONALS) == s.rank
    for p in (2, 3, 5):
        drop = sum(1 for d in s.invariant_factors if d % p == 0)
        assert rank(A, PrimeField(p)) == s.rank - drop
    # extensions of the prime field see the same ranks on integer input
    assert rank(A, make_field(2, 2)) == rank(A, PrimeField(2))
    assert rank(A, make_field(3, 2)) == rank(A, PrimeField(3))


def _sparse_rows(A):
    rows = [{} for _ in range(A.nrows)]
    for (r, c), v in A.entries.items():
        rows[r][c] = v
    return rows


def sparse_matrices(values):
    """Matrices of shape up to 9x9 with at most 2(rows + cols) entries
    drawn from `values`."""
    return st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda shape: st.dictionaries(
            st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)),
            values,
            max_size=2 * (shape[0] + shape[1]),
        ).map(lambda entries: ExactMatrix(shape[0], shape[1], entries))
    )


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(st.integers(-4, 4)))
def test_rank_matches_echelon_on_sparse_matrices(A):
    # entries other than +-1 leave a core over Q and over Z; mod p every
    # entry is a unit
    for coeff in (RATIONALS, PrimeField(2), PrimeField(3), PrimeField(5),
                  make_field(2, 2), make_field(3, 2)):
        p = prime_field(coeff).char
        assert rank(A, coeff) == len(_echelon(_sparse_rows(A), p)[0])
    assert smith_normal_form(A).rank == rank(A, RATIONALS)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(st.one_of(
    st.sampled_from([1, -1]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)))
def test_rank_matches_echelon_on_fraction_matrices(A):
    # over Q Euclid's swaps run on Fraction entries, where the echelon
    # reference clears their denominators first
    assert (rank(A, RATIONALS) == len(_echelon(_sparse_rows(A), 0)[0])
            == dense_field_rank(A, RATIONALS))


def dense_field_rank(A, field):
    """Reference rank: dense Gaussian elimination with the field's own
    mul, sub and inv on the entries read as integers."""
    rows = [[field.zero] * A.ncols for _ in range(A.nrows)]
    for (r, c), v in A.entries.items():
        rows[r][c] = field.from_int(v)
    r = 0
    for c in range(A.ncols):
        piv = next((i for i in range(r, A.nrows) if rows[i][c] != field.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        for i in range(r + 1, A.nrows):
            f = field.mul(rows[i][c], inv)
            if f != field.zero:
                rows[i] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])
                ]
        r += 1
    return r


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_extension_field_rank_matches_dense_reference(rows):
    A = ExactMatrix.from_rows(rows)
    for p, m in ((2, 2), (3, 2), (2, 3)):
        F = make_field(p, m)
        assert rank(A, F) == dense_field_rank(A, F)


@pytest.mark.parametrize("p", [2, 3])
def test_extension_field_rank_on_boundary_matrices(p):
    # the B_i and D_i of the suspended projective plane, over F4 and F9
    X = catalog_build("S_RP2")
    F = make_field(p, 2)
    for pb in (Perversity.zero(3), Perversity.top(3)):  # both perversities
        data = _ChainData(X, pb)
        for i in range(1, 4):
            D = boundary_matrix(data, i)
            for A in (_row_block(D, data.bad[i]), D):
                assert rank(A, F) == dense_field_rank(A, F)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=2, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_kernel_dimension_matches_rank(rows):
    A = ExactMatrix.from_rows(rows)
    n = len(rows[0])
    for coeff in (RATIONALS, PrimeField(3)):
        assert len(kernel_basis(A, coeff)) == n - rank(A, coeff)
    assert len(integer_kernel_basis(A)) == n - rank(A, RATIONALS)


def _rows_of(A, R):
    return ExactMatrix(
        A.nrows, A.ncols, {(r, c): v for (r, c), v in A.entries.items() if r in R}
    )


def _image_of(A, vectors):
    """The matrix whose columns are A u for the dense vectors u."""
    cols = col_dicts(A)
    entries = {}
    for j, u in enumerate(vectors):
        for c, x in enumerate(u):
            for r, v in cols[c].items():
                entries[(r, j)] = entries.get((r, j), 0) + x * v
    return ExactMatrix(A.nrows, len(vectors), entries)


def _kernel_image(A, rows, coeff, skip=()):
    """`kernel_image` on the columns of A not in `skip`, the rows in
    `rows` keyed after every other as `ihcore._boundary` keys them, and
    reduced mod p as `rank` reduces them."""
    p = 0 if coeff is INTEGERS else prime_field(coeff).char
    columns = [{} for _ in range(A.ncols)]
    for (r, c), v in A.entries.items():
        if p:
            v %= p
        if v:
            columns[c][r + A.nrows if r in rows else r] = v
    kept = [col for c, col in enumerate(columns) if c not in skip]
    return kernel_image(kept, A.nrows, coeff)


class TestKernelImage:
    def test_euclid_core(self):
        # no unit in the bad row [2, 4]: its integer kernel is (2, -1),
        # which the second row sends to 2
        A = ExactMatrix.from_rows([[2, 4], [1, 0]])
        assert _kernel_image(A, [0], INTEGERS) == (1, SNFResult((2,), 1), [])
        assert _kernel_image(A, [0], RATIONALS) == (1, 1, [1])
        assert _kernel_image(A, [0], PrimeField(3)) == (1, 1, [1])
        # mod 2 the bad row vanishes
        assert _kernel_image(A, [0], PrimeField(2)) == (0, 1, [1])

    def test_no_rows_is_rank_and_smith_normal_form(self):
        A = ExactMatrix.from_rows([[2, 0, 1], [0, 2, 1], [2, 2, 2]])
        # the one pivot reported is the low of a reduced column: over Z
        # column 2 minus column 0 is (-1, 1, 0), whose low entry is 1;
        # mod 2 column 2 is (1, 1, 0) as it stands
        assert _kernel_image(A, (), INTEGERS) == (0, smith_normal_form(A), [1])
        assert _kernel_image(A, (), PrimeField(2)) == (0, rank(A, PrimeField(2)), [1])

    def test_pivot_of_two(self):
        # 2 is a unit over Q, so its row is a pivot; over Z it is not
        A = ExactMatrix.from_rows([[2]])
        assert _kernel_image(A, (), RATIONALS) == (0, 1, [0])
        assert _kernel_image(A, (), INTEGERS) == (0, SNFResult((2,), 1), [])

    def test_zero_quotient_is_a_swap(self):
        # 1 // 3 is 0: the column (1) swaps with the pivot (3) before any
        # subtraction, and 3 // 1 then empties it
        A = ExactMatrix.from_rows([[3, 1]])
        assert smith_normal_form(A) == SNFResult((1,), 1)
        assert rank(A, RATIONALS) == 1
        assert _kernel_image(A, (), INTEGERS) == (0, SNFResult((1,), 1), [0])
        assert _kernel_image(A, (), RATIONALS) == (0, 1, [0])

    def test_fraction_columns_over_q(self):
        # Euclid on Fraction entries at the low row 1: 1/6 // 1/4 is 0, a
        # swap; 1/4 - 1/6 leaves 1/12, a swap; 1/6 is twice 1/12
        A = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(1, 4), Fraction(1, 6)]])
        assert rank(A, RATIONALS) == 1
        A = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(1, 4), Fraction(1, 5)]])
        assert rank(A, RATIONALS) == 2
        assert _kernel_image(A, [1], RATIONALS) == (1, 1, [0])

    def test_clearing_a_triangle(self):
        # edges 01, 02, 12 of the triangle 012, and its vertices 0, 1, 2
        d2 = ExactMatrix.from_rows([[1], [-1], [1]])
        d1 = ExactMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
        for coeff in (RATIONALS, PrimeField(2), PrimeField(3)):
            _, img, pivots = _kernel_image(d2, (), coeff)
            assert img == 1 and len(pivots) == 1
            assert _kernel_image(d1, (), coeff, set(pivots))[:2] == (0, 2)
        _, img, pivots = _kernel_image(d2, (), INTEGERS)
        assert img == SNFResult((1,), 1) and len(pivots) == 1
        assert _kernel_image(d1, (), INTEGERS, set(pivots))[:2] == (
            0, SNFResult((1, 1), 2))


@pytest.mark.parametrize("p", [2, 3])
def test_boundary_entries_need_no_reduction(p):
    # `_boundary` streams -1 as it is; mod p the elimination gives what it
    # gives on the reduced columns, pivots included
    X = catalog_build("S_RP2")
    F = PrimeField(p)
    for pb in (Perversity.zero(3), Perversity.top(3)):
        data = _ChainData(X, pb)
        for i in range(1, 4):
            faces, bad = data.faces[i - 1], data.bad[i]
            columns = _boundary(data.allowed[i], faces, i, (), bad)
            want = _kernel_image(boundary_matrix(data, i), bad, F)
            assert kernel_image(columns, len(faces), F) == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            ),
            st.sets(st.integers(0, 4)),
        )
    )
)
def test_kernel_image_matches_kernel_lattice(case):
    rows, R = case
    A = ExactMatrix.from_rows(rows)
    AR = _rows_of(A, R)
    K = integer_kernel_basis(AR)
    r, snf, pivots = _kernel_image(A, R, INTEGERS)
    assert (r, snf) == (A.ncols - len(K), smith_normal_form(_image_of(A, K)))
    # the pivot rows are distinct rows outside R, over Z at most the rank
    assert len(set(pivots)) == len(pivots) <= snf.rank
    assert not set(pivots) & R
    for coeff in (RATIONALS, PrimeField(3)):
        basis = K if coeff is RATIONALS else kernel_basis(AR, coeff)
        r, img, pivots = _kernel_image(A, R, coeff)
        assert (r, img) == (rank(AR, coeff), rank(_image_of(A, basis), coeff))
        # over a field every pivot is reported
        assert len(set(pivots)) == len(pivots) == img
        assert not set(pivots) & R
