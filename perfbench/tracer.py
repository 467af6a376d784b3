"""Span tracer that wraps the public functions of the ihcalc modules.

The benchmark records spans from its own files: `Tracer.install` replaces
each target function by a wrapper, in every ihcalc module namespace that
holds it (so `from .simplicial import quotient` bindings are caught too),
and `Tracer.uninstall` puts the originals back.  Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.  Counts
(matrix shapes, nonzeros, ranks, distinct inputs) are recorded by
per-target hooks at the same boundaries.
"""

import inspect
import sys
import time
from collections import defaultdict


def _coeff_kind(coeff):
    return {
        "Rationals": "Q",
        "Integers": "Z",
        "PrimeField": "Zp",
        "FiniteField": "Fq",
    }.get(type(coeff).__name__, type(coeff).__name__)


def _characteristic(coeff):
    return getattr(coeff, "p", 0)


def _matrix_key(A):
    return (A.nrows, A.ncols, frozenset(A.entries.items()))


def _nnz(A):
    return len(getattr(A, "entries", ()))


# --- count hooks: (tracer, args, kwargs, result) -> None ----------------------


def _count_rank(tr, args, kwargs, result):
    A, coeff = args[0], args[1]
    kind = _coeff_kind(coeff)
    tr.add(f"exactalg.rank.{kind}.nnz", _nnz(A))
    tr.add(f"exactalg.rank.{kind}.rows", A.nrows)
    tr.add(f"exactalg.rank.{kind}.result", result)
    tr.distinct("exactalg.rank", (_matrix_key(A), _characteristic(coeff)))


def _count_matrix(prefix):
    def hook(tr, args, kwargs, result):
        A = args[0]
        tr.add(f"{prefix}.nnz", _nnz(A))
        tr.add(f"{prefix}.rows", A.nrows)
        tr.add(f"{prefix}.cols", A.ncols)
    return hook


def _count_kernel(tr, args, kwargs, result):
    _count_matrix("exactalg.integer_kernel_basis")(tr, args, kwargs, result)
    tr.add("exactalg.integer_kernel_basis.vectors", len(result))
    tr.add(
        "exactalg.integer_kernel_basis.result_nnz",
        sum(1 for v in result for c in v if c),
    )


def _count_snf(tr, args, kwargs, result):
    _count_matrix("exactalg.smith_normal_form")(tr, args, kwargs, result)
    tr.add("exactalg.smith_normal_form.result", result.rank)


def _count_solve(tr, args, kwargs, result):
    tr.add("exactalg.solve_columns.basis", len(args[0]))
    tr.add("exactalg.solve_columns.targets", len(args[1]))


def _count_ih(tr, args, kwargs, result):
    X, pbar, coeff = args[0], args[1], args[2]
    tr.add("ihcore.chain_dims.sum", sum(result.chain_dims or ()))
    if tr.parent_name() == "witt.witt_condition_check":
        tr.add("witt.link_tables", 1)
        tr.distinct(
            "witt.link",
            (hash(X.complex), X.n, tuple(pbar.values), _characteristic(coeff)),
        )


def _rank_name(args, kwargs):
    return f"exactalg.rank.{_coeff_kind(args[1])}"


# Targets: (module, attribute path, span name or name function, count hook).
TARGETS = [
    ("simplicial", "SimplicialComplex.facets", "simplicial.facets", None),
    ("simplicial", "SimplicialComplex.from_maximal", "simplicial.from_maximal", None),
    ("simplicial", "quotient", "simplicial.quotient", None),
    ("simplicial", "contract_edges", "simplicial.contract_edges", None),
    ("simplicial", "barycentric_subdivision", "simplicial.barycentric_subdivision", None),
    ("simplicial", "product_complex", "simplicial.product_complex", None),
    ("simplicial", "suspension", "simplicial.suspension", None),
    ("simplicial", "cone", "simplicial.cone", None),
    ("simplicial", "relabel_canonical", "simplicial.relabel_canonical", None),
    ("simplicial", "verify_pseudomanifold", "simplicial.verify_pseudomanifold", None),
    ("simplicial", "simplicial_link", "simplicial.simplicial_link", None),
    ("simplicial", "stratum_components", "simplicial.stratum_components", None),
    ("catalog", "catalog_build", "catalog.catalog_build", None),
    ("catalog", "catalog_table", "catalog.catalog_table", None),
    ("catalog", "_check_homology", "catalog.certificates", None),
    ("catalog", "_check_manifold", "catalog.certificates", None),
    ("ihcore", "ih_homology", "ihcore.ih_homology", _count_ih),
    ("ihcore", "ordinary_homology", "ihcore.ordinary_homology", None),
    ("ihcore", "uct_violation_report", "ihcore.uct_violation_report", None),
    ("ihcore", "torsion_free_check", "ihcore.torsion_free_check", None),
    ("exactalg", "rank", _rank_name, _count_rank),
    ("exactalg", "kernel_basis", "exactalg.kernel_basis", None),
    ("exactalg", "integer_kernel_basis", "exactalg.integer_kernel_basis", _count_kernel),
    ("exactalg", "solve_columns", "exactalg.solve_columns", _count_solve),
    ("exactalg", "smith_normal_form", "exactalg.smith_normal_form", _count_snf),
    ("witt", "witt_condition_check", "witt.witt_condition_check", None),
    ("witt", "characteristic_reduction_check", "witt.characteristic_reduction_check", None),
    ("witt", "witt_invariants", "witt.forms", None),
    ("witt", "witt_class_add", "witt.forms", None),
    ("witt", "restriction_map", "witt.forms", None),
    ("witt", "isotropic_vector", "witt.forms", None),
    ("witt", "bordism_group", "witt.forms", None),
    ("formulas", "cone_formula", "formulas", None),
    ("formulas", "suspension_formula", "formulas", None),
    ("formulas", "compactified_bundle_formula", "formulas", None),
    ("formulas", "kunneth", "formulas", None),
    ("formulas", "omega_splitting", "formulas", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder.  Not thread safe: the benchmark is one
    client in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, phase]
        self.stack = []
        self.counts = defaultdict(int)
        self.distinct_keys = defaultdict(set)
        self.distinct_calls = defaultdict(int)
        self.phase = "setup"
        self.absent = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def add(self, name, value):
        self.counts[name] += value

    def distinct(self, name, key):
        self.distinct_calls[name] += 1
        self.distinct_keys[name].add(key)

    def parent_name(self):
        """Inside a count hook: the name of the span enclosing the call
        that the hook is counting."""
        if len(self.stack) < 2:
            return None
        return self.spans[self.stack[-2]][0]

    def call(self, name, fn, hook, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.phase])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = self.clock()
        if hook is not None:
            # counting runs in a span of its own, so that its cost is
            # tracing overhead and not self time of the enclosing layer
            self.call("trace.hooks", hook, None, (self, args, kwargs, result), {})
        return result

    def wrap(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, fn, hook, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package="ihcalc", targets=TARGETS):
        """Wrap every target that exists; record the ones that do not."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        for modname, path, name, hook in targets:
            mod = sys.modules.get(f"{package}.{modname}")
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{modname}.{path}")
                continue
            if inspect.isclass(owner):
                self._wrap_method(owner, attr, name, hook)
            else:
                self._wrap_function(modules, owner, attr, name, hook)

    def _wrap_method(self, cls, attr, name, hook):
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, hook))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, raw, hook)
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def _wrap_function(self, modules, mod, attr, name, hook):
        orig = getattr(mod, attr)
        wrapper = self.wrap(name, orig, hook)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)
                    self._restore.append((m, k, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- analysis ---------------------------------------------------------

    def summary(self, phases=None):
        """Per-name totals: calls, inclusive seconds of the outermost spans
        of that name (so recursion is not counted twice) and self seconds
        (duration minus the time covered by child spans)."""
        return summarize(self.spans, phases)

    def ratio(self, name):
        calls = self.distinct_calls.get(name, 0)
        return len(self.distinct_keys[name]) / calls if calls else 0.0


def summarize(spans, phases=None):
    """Aggregate a span list [name, start, end, parent, phase] by name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, phase) in enumerate(spans):
        if phases is not None and phase not in phases:
            continue
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row["s"] += dur
    return out
