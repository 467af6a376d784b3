"""The two benchmark workloads and their correctness checks.

Each workload has a set-up, which imports ihcalc afresh and builds the
spaces it needs, and an operation list.  An operation is one call into
the library's public API; its answer is reduced to plain JSON data and
checked, either against `references.json` (answers recorded once and
cross-checked against independent oracles by `make_references.py`) or,
for the seeded Witt-form operations, against closed-form invariants
computed here.

The operation lists are fixed per workload; the seed only fixes their
order and the random Gram matrices of the `prebuilt` workload.  Operations
look the library up through module attributes at call time, so that the
tracer's wrappers see every call.
"""

import contextlib
import importlib
import io
import json
import multiprocessing
import random
import sys
import time
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

MODULES = ("simplicial", "exactalg", "ihcore", "witt", "formulas", "catalog", "cli")

SIX_RINGS = ("Q", "Z2", "Z3", "Z5", "F4", "F9")

# The time cap of the SJ_L3-over-Z operation of the `prebuilt` workload.
# It is part of the workload's definition and the same on every commit.
INTEGRAL_CAP_S = 10.0

# Rank over Q of the integral table equals the rational table, so a
# finished SJ_L3 integral table must have these free ranks (acceptance
# suite, criterion 3).  Its torsion is not known independently.
SJ_L3_FREE_RANKS = [1, 1, 0, 0, 1, 1]


class Op:
    """One operation: `fn()` returns plain data; `check(answer)` is true
    when the answer is right; `prepare()`, if given, runs untimed first."""

    __slots__ = ("key", "fn", "check", "prepare")

    def __init__(self, key, fn, check, prepare=None):
        self.key = key
        self.fn = fn
        self.check = check
        self.prepare = prepare


class Library:
    """The ihcalc modules, imported afresh (as a new process would)."""

    def __init__(self):
        for name in [k for k in sys.modules if k == "ihcalc" or k.startswith("ihcalc.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"ihcalc.{name}"))

    def ring(self, label):
        ea = self.exactalg
        if label == "Q":
            return ea.RATIONALS
        if label == "Z":
            return ea.INTEGERS
        if label.startswith("F"):
            p, m = {"F4": (2, 2), "F9": (3, 2), "F25": (5, 2)}[label]
            return ea.make_field(p, m)
        return ea.PrimeField(int(label[1:]))

    def perversity(self, values, n):
        return self.ihcore.Perversity(tuple(values), n)

    def lower_middle(self, n):
        return self.ihcore.Perversity.lower_middle(n)

    def build(self, name):
        return self.catalog.catalog_build(name)

    def lru_caches(self):
        """The cache_clear of every memoised function in the package,
        looking through wrappers (such as the tracer's) to the cache."""
        seen = {}
        for name in MODULES:
            for obj in vars(getattr(self, name)).values():
                while obj is not None:
                    clear = getattr(obj, "cache_clear", None)
                    if callable(clear):
                        seen[id(obj)] = clear
                        break
                    obj = getattr(obj, "__wrapped__", None)
        return list(seen.values())


def all_perversities(n):
    """Every perversity (p(2), ..., p(n)) from zero to top."""
    out = []

    def rec(vals):
        k = len(vals) + 2
        if k > n:
            out.append(tuple(vals))
            return
        lo = vals[-1] if vals else 0
        for v in (lo, lo + 1):
            if v <= k - 2:
                rec(vals + [v])

    rec([])
    return out


def plain(x):
    """Tuples to lists, as a JSON round trip would give them."""
    return json.loads(json.dumps(x))


def table_answer(t):
    if t.free_ranks is not None:
        return {"free": list(t.free_ranks), "torsion": [list(x) for x in t.torsion]}
    return list(t.dims)


def witt_report_answer(r):
    return {
        "passes": r.passes,
        "oriented": r.oriented,
        "irreducible": r.irreducible,
        "checks": [
            [c.stratum_dim, c.middle_degree, c.link_dim_checked, c.passes]
            for c in r.checks
        ],
    }


# --- space recipes ------------------------------------------------------------
# A recipe names a space the workloads query: a catalog entry, or a cone,
# suspension or double suspension of one.


def build_space(lib, recipe):
    sp = lib.simplicial
    if recipe.startswith("SS(") and recipe.endswith(")"):
        return sp.suspension(sp.suspension(lib.build(recipe[3:-1])))
    if recipe.startswith("S(") and recipe.endswith(")"):
        return sp.suspension(lib.build(recipe[2:-1]))
    if recipe.startswith("c(") and recipe.endswith(")"):
        return sp.cone(lib.build(recipe[2:-1]))
    return lib.build(recipe)


def _ih_op(lib, spaces, recipe, values, ring, prefix):
    X = spaces[recipe]
    pv = "m" if values is None else ",".join(map(str, values))
    key = f"{prefix}/ih/{recipe}/{pv}/{ring}"

    def fn():
        pbar = lib.lower_middle(X.n) if values is None else lib.perversity(values, X.n)
        return table_answer(lib.ihcore.ih_homology(X, pbar, lib.ring(ring)))

    return key, fn


# --- cli-cold -----------------------------------------------------------------

CLI_COMMANDS = (
    [["compute", "--catalog", s, "--coeff", c]
     for s in ("L2_1", "RP2", "T2", "Klein", "genus2") for c in ("Q", "Z", "Zp:2")]
    + [["compute", "--catalog", "SS_RP2", "--perversity", "p:0,0,1", "--coeff", c]
       for c in ("Q", "Z", "Zp:2")]
    + [["compute", "--catalog", "L3_1", "--coeff", "Z"],
       ["compute", "--catalog", "L5_1", "--coeff", "Q"],
       ["compute", "--catalog", "L5_1", "--coeff", "Z"],
       ["compute", "--catalog", "J_L3", "--coeff", "Zp:3"],
       ["compute", "--catalog", "S_T2", "--normalize-triangulation"],
       ["compute", "--catalog", "Uhat_S2", "--coeff", "Zp:3"],
       ["compute", "--catalog", "Y_T2", "--coeff", "Zp:3"],
       ["compute", "--catalog", "X8_SY", "--coeff", "Q"]]
    + [["witt-check", "--catalog", s, "--coeff", "Q,Zp:2,Fq:2:2"]
       for s in ("L5_1", "S_RP2", "SS_RP2")]
    + [["witt-class", "--matrix", "I3", "--field", f] for f in ("Zp:3", "Fq:3:2")]
    + [["bordism", "--n", "4", "--p", "3"],
       ["bordism", "--n", "8", "--p", "5"],
       ["catalog"]]
)


def run_cli(lib, argv):
    """ihcalc.cli.main as a fresh process would run it: empty caches,
    captured output.  Returns the exit code and the parsed JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(list(argv) + ["--json"])
        except SystemExit as e:
            code = e.code
    doc = json.loads(out.getvalue()) if code == 0 else err.getvalue()
    return {"code": code, "doc": doc}


def cli_cold_ops(lib, refs, rng):
    clears = lib.lru_caches()

    def empty_caches():
        # untimed: a fresh process does not pay for freeing the spaces
        # its predecessor cached
        for clear in clears:
            clear()

    ops = []
    for argv in CLI_COMMANDS:
        op = _ref_op(refs, "cli/" + " ".join(argv), lambda argv=argv: run_cli(lib, argv))
        op.prepare = empty_caches
        ops.append(op)
    return ops


# --- tables -------------------------------------------------------------------

TABLES_SPACES = ("J_L3", "S(L5_1)", "c(L5_1)", "S_RP2", "SS_RP2", "S_T2")


def tables_plan():
    """(recipe, perversity values or None for lower middle, ring)."""
    plan = [("J_L3", None, r) for r in ("Z2", "Z3", "Z5", "F9")]
    plan += [("S(L5_1)", (0, 0, 1), r) for r in SIX_RINGS]
    for recipe, n in (("c(L5_1)", 4), ("S_RP2", 3), ("SS_RP2", 4), ("S_T2", 3)):
        plan += [(recipe, v, r) for v in all_perversities(n) for r in SIX_RINGS]
    return plan


def tables_ops(lib, refs, spaces):
    ops = []
    for recipe, values, ring in tables_plan():
        key, fn = _ih_op(lib, spaces, recipe, values, ring, "tables")
        ops.append(_ref_op(refs, key, fn))
    return ops


# --- integral -----------------------------------------------------------------

INTEGRAL_SPACES = (
    "S(L2_1)", "S(L3_1)", "c(L3_1)", "S(L5_1)", "c(L5_1)",
    "cone_RP2", "S_RP2", "SS_RP2", "S_T2",
)


def integral_plan():
    """(kind, recipe, argument): Z tables, UCT reports and local torsion
    checks."""
    plan = [("ih", "S(L2_1)", v) for v in all_perversities(4)]
    plan += [("ih", "c(L3_1)", v) for v in all_perversities(4)]
    plan += [("ih", "S(L5_1)", v) for v in ((0, 0, 0), (0, 0, 1), (0, 1, 2))]
    plan += [("ih", "c(L5_1)", (0, 0, 1))]
    for recipe, n in (("cone_RP2", 3), ("S_RP2", 3), ("SS_RP2", 4), ("S_T2", 3)):
        plan += [("ih", recipe, v) for v in all_perversities(n)]
    plan += [("uct", s, p) for s in ("cone_RP2", "S_RP2", "SS_RP2", "S_T2") for p in (2, 3, 5)]
    plan += [("uct", "S(L3_1)", 3)]
    plan += [("tfc", s, None) for s in ("cone_RP2", "S_RP2", "SS_RP2", "S_T2", "S(L5_1)")]
    return plan


def integral_ops(lib, refs, spaces):
    ops = []
    for kind, recipe, arg in integral_plan():
        X = spaces[recipe]
        if kind == "ih":
            key, fn = _ih_op(lib, spaces, recipe, arg, "Z", "integral")
        elif kind == "uct":
            key = f"integral/uct/{recipe}/m/{arg}"

            def fn(X=X, p=arg):
                r = lib.ihcore.uct_violation_report(X, lib.lower_middle(X.n), p)
                return [list(v) for v in r.violations]
        else:
            key = f"integral/tfc/{recipe}/m"

            def fn(X=X):
                r = lib.ihcore.torsion_free_check(X, lib.lower_middle(X.n))
                return {
                    "passes": r.passes,
                    "entries": [[d, deg, list(t)] for d, _rep, deg, t in r.entries],
                }
        ops.append(_ref_op(refs, key, fn))
    return ops


def _integral_sj_table(X, conn):
    """Child-process body of the capped operation."""
    from ihcalc.exactalg import INTEGERS
    from ihcalc.ihcore import Perversity, ih_homology

    t = ih_homology(X, Perversity.lower_middle(X.n), INTEGERS)
    conn.send(table_answer(t))


def run_capped(target, args, cap_s):
    """Run target(*args, conn) in a child process for at most cap_s
    seconds.  Returns ("ok", value), ("timeout", None) or ("error", text).
    The child is always stopped and waited for.  It is forked: the
    benchmark runs no threads, the child needs the space already built,
    and a spawned child would leave a resource-tracker process behind."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=tuple(args) + (send,), daemon=True)
    proc.start()
    send.close()
    try:
        if recv.poll(cap_s):
            try:
                return "ok", recv.recv()
            except EOFError:
                return "error", f"child exited with code {proc.exitcode}"
        return "timeout", None
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
        recv.close()


def capped_sj_l3_z(lib):
    """The SJ_L3 lower-middle table over Z under INTEGRAL_CAP_S.  Returns
    (status, seconds, correct): an answer is correct when its free ranks
    are the rational table; a timeout is reported, not judged."""
    X = lib.build("SJ_L3")
    t0 = time.perf_counter()
    status, value = run_capped(_integral_sj_table, (X,), INTEGRAL_CAP_S)
    seconds = time.perf_counter() - t0
    correct = status == "timeout" or (
        status == "ok" and value["free"] == SJ_L3_FREE_RANKS
    )
    return status, seconds, correct


# --- witt ---------------------------------------------------------------------

WITT_SMALL = ("T2", "RP2", "Klein", "genus2", "S_RP2", "SS_RP2", "S_T2")
WITT_SPACES = WITT_SMALL + ("SS(L5_1)", "SJ_L3", "S2", "S1")
FORM_FIELDS = ("Z3", "Z5", "Z7", "F9", "F25")
# Gram matrix dimensions (form, second summand) of the two rounds of form
# operations per field.  They are fixed so that the seed changes entries
# but not the cost of an operation.
FORM_DIMS = ((3, 2), (4, 1))
REDUCTION_CHECKS = (("S_RP2", 3, 2), ("SS_RP2", 2, 2), ("S_T2", 3, 2))


def witt_plan():
    plan = [("check", s, r) for s in WITT_SMALL + ("SS(L5_1)",) for r in SIX_RINGS]
    plan += [("check", "SJ_L3", "Z3")]
    plan += [("reduction", s, (p, m)) for s, p, m in REDUCTION_CHECKS]
    return plan


def witt_ops(lib, refs, rng, spaces):
    ops = []
    for kind, recipe, arg in witt_plan():
        X = spaces[recipe]
        if kind == "check":
            key = f"witt/check/{recipe}/{arg}"

            def fn(X=X, ring=arg):
                return witt_report_answer(
                    lib.witt.witt_condition_check(X, lib.ring(ring))
                )
        else:
            key = f"witt/reduction/{recipe}/{arg[0]}^{arg[1]}"

            def fn(X=X, pm=arg):
                return lib.witt.characteristic_reduction_check(X, *pm)
        ops.append(_ref_op(refs, key, fn))
    ops += form_ops(lib, rng)
    ops += bordism_ops(lib, spaces)
    return ops


class FormOracle:
    """Closed-form Witt invariants over an odd finite field F_q.

    Gram matrices are built as P^T D P with D diagonal and P unit upper
    triangular, so the determinant is prod(D).  D takes its entries from
    {1, s} with s a nonsquare, so the square class of the signed
    determinant (-1)^(n(n-1)/2) det is a parity count."""

    def __init__(self, lib, label):
        self.lib = lib
        self.field = lib.ring(label)
        f = self.field
        self.q = f.p ** getattr(f, "m", 1)
        self.s = next(a for a in range(2, self.q) if not self._is_square(a))
        self.minus_one_square = self.q % 4 == 1

    def _is_square(self, a):
        f, e, acc = self.field, (self.q - 1) // 2, self.field.one
        while e:
            if e & 1:
                acc = f.mul(acc, a)
            a = f.mul(a, a)
            e >>= 1
        return acc == f.one

    def random_form(self, rng, n):
        """(Gram rows, number of s entries in D)."""
        f = self.field
        d = [rng.choice((f.one, self.s)) for _ in range(n)]
        D = [[d[i] if i == j else f.zero for j in range(n)] for i in range(n)]
        P = [[f.one if i == j else (rng.randrange(self.q) if j > i else f.zero)
              for j in range(n)] for i in range(n)]
        return self.congruent(D, P), d.count(self.s)

    def congruent(self, G, P):
        """P^T G P."""
        f, n = self.field, len(P)
        GP = [[_dot(f, G[i], [P[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]
        return [[_dot(f, [P[k][i] for k in range(n)], [GP[k][j] for k in range(n)])
                 for j in range(n)] for i in range(n)]

    def random_transform(self, rng, n):
        f = self.field
        return [[f.one if i == j else (rng.randrange(self.q) if j < i else f.zero)
                 for j in range(n)] for i in range(n)]

    def expected(self, n, nonsquares):
        flips = nonsquares + (0 if self.minus_one_square else (n * (n - 1) // 2) % 2)
        return (n % 2, "square" if flips % 2 == 0 else "nonsquare")

    def form(self, rows):
        return self.lib.witt.BilinearForm(rows, self.field, lift=False)


def _dot(f, u, v):
    acc = f.zero
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


def _class(c):
    return (c.dim0, c.dpm)


def form_ops(lib, rng):
    """Seeded Witt-form operations; each checks itself against FormOracle."""
    ops = []
    for label in FORM_FIELDS:
        orc = FormOracle(lib, label)
        w = lib.witt
        for k, (n, n2) in enumerate(FORM_DIMS):
            rows, ns = orc.random_form(rng, n)
            P = orc.random_transform(rng, n)
            want = orc.expected(n, ns)

            def inv_fn(rows=rows, P=P, orc=orc):
                a = w.witt_invariants(orc.form(rows))
                b = w.witt_invariants(orc.form(orc.congruent(rows, P)))
                return [list(_class(a)), list(_class(b))]
            ops.append(Op(f"witt/forms/invariants/{label}/{k}", inv_fn,
                          lambda ans, want=want: ans == [list(want)] * 2))

            rows2, ns2 = orc.random_form(rng, n2)
            want_sum = orc.expected(n + n2, ns + ns2)

            def add_fn(rows=rows, rows2=rows2, orc=orc):
                a = w.witt_invariants(orc.form(rows))
                b = w.witt_invariants(orc.form(rows2))
                m = len(rows) + len(rows2)
                block = [[orc.field.zero] * m for _ in range(m)]
                for i, row in enumerate(rows):
                    block[i][:len(row)] = row
                for i, row in enumerate(rows2):
                    block[len(rows) + i][len(rows):] = row
                s = w.witt_invariants(orc.form(block))
                return [list(_class(w.witt_class_add(a, b))), list(_class(s))]
            ops.append(Op(f"witt/forms/add/{label}/{k}", add_fn,
                          lambda ans, want=want_sum: ans == [list(want)] * 2))

            rows_iso, ns_iso = orc.random_form(rng, 2)
            trivial = orc.expected(2, ns_iso) == (0, "square")

            def iso_fn(rows=rows_iso, orc=orc):
                form = orc.form(rows)
                v = w.isotropic_vector(form)
                if v is None:
                    return None
                return {"nonzero": any(x != orc.field.zero for x in v),
                        "isotropic": form.evaluate(v, v) == orc.field.zero}
            ops.append(Op(
                f"witt/forms/isotropic/{label}/{k}", iso_fn,
                lambda ans, trivial=trivial: ans == ({"nonzero": True, "isotropic": True}
                                                     if trivial else None)))
        if label.startswith("Z"):
            n = 3
            rows, _ = orc.random_form(rng, n)
            p = orc.field.p

            def res_fn(rows=rows, orc=orc):
                r = w.restriction_map(w.witt_invariants(orc.form(rows)), 2)
                return [r.field_label, r.dim0, r.dpm]
            ops.append(Op(f"witt/forms/restriction/{label}", res_fn,
                          lambda ans, n=n, p=p: ans == [f"F{p}^2", n % 2, "square"]))
    return ops


def expected_bordism(n, p):
    """Witt bordism of a point over Z_p: (free rank, torsion)."""
    if n == 0:
        return (1, [])
    if n < 0 or n % 4:
        return (0, [])
    return (0, [4] if p % 4 == 3 else ([2, 2] if p % 4 == 1 else [2]))


def bordism_ops(lib, spaces):
    """bordism_group and the splitting formula of spaces with free
    homology, checked by the direct sum over degrees."""
    ops = []
    for p in (2, 3, 5, 7):
        def point_fn(p=p):
            return [[g.free_rank, list(g.torsion)]
                    for g in (lib.witt.bordism_group(n, p) for n in range(13))]
        want = [list(expected_bordism(n, p)) for n in range(13)]
        ops.append(Op(f"witt/bordism/point/{p}", point_fn,
                      lambda ans, want=want: ans == want))
    for name in ("S1", "S2", "T2"):
        h = lib.ihcore.ordinary_homology(spaces[name].complex, lib.ring("Z"))
        betti = list(h.free_ranks)
        for p in (3, 5):
            def split_fn(h=h, p=p):
                out = []
                for n in range(9):
                    g = lib.formulas.omega_splitting(h, n, p)
                    out.append([g.free_rank, list(g.torsion)])
                return out
            want = []
            for n in range(9):
                free, tors = 0, []
                for r, b in enumerate(betti):
                    f, t = expected_bordism(n - r, p)
                    free += b * f
                    tors += t * b
                want.append([free, sorted(tors)])
            ops.append(Op(f"witt/bordism/{name}/{p}", split_fn,
                          lambda ans, want=want: ans == want))
    return ops


# --- prebuilt -----------------------------------------------------------------
# The `tables`, `witt` and `integral` operation lists over one set-up,
# which builds J_L3 and L5_1 once for all three.


def prebuilt_ops(lib, refs, rng):
    recipes = dict.fromkeys(TABLES_SPACES + WITT_SPACES + INTEGRAL_SPACES)
    spaces = {r: build_space(lib, r) for r in recipes}
    return (tables_ops(lib, refs, spaces) + witt_ops(lib, refs, rng, spaces)
            + integral_ops(lib, refs, spaces))


# --- common -------------------------------------------------------------------


def load_references(path=REFERENCES):
    with open(path) as fh:
        return json.load(fh)


def _ref_op(refs, key, fn):
    """An operation checked against its recorded reference answer.  With
    refs None (while recording references) every answer passes."""
    if refs is None:
        return Op(key, fn, lambda ans: True)
    if key not in refs:
        raise KeyError(f"no reference answer for {key}")
    want = refs[key]
    return Op(key, fn, lambda ans: plain(ans) == want)


BUILDERS = {
    "cli-cold": cli_cold_ops,
    "prebuilt": prebuilt_ops,
}
WORKLOADS = tuple(BUILDERS)


def setup(workload, refs, seed, before_build=None):
    """Import ihcalc afresh and build the workload's inputs; returns the
    library and the operation list.  `before_build(lib)` runs between
    the import and the builds (the tracer installs itself there)."""
    lib = Library()
    if before_build is not None:
        before_build(lib)
    rng = random.Random(seed)
    ops = BUILDERS[workload](lib, refs, rng)
    return lib, ops
