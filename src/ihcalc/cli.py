"""Command-line front end.

Exit codes: 0 success, 2 input parse failure, 3 invalid perversity,
4 non-pseudomanifold input with --strict, 5 degenerate matrix.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from .catalog import (
    CatalogError,
    catalog_build,
    catalog_entries,
    catalog_entry,
    catalog_table,
)
from .exactalg import (
    CoefficientError,
    INTEGERS,
    Rationals,
    coeff_from_label,
    is_prime,
)
from .formulas import omega_splitting
from .ihcore import (
    Perversity,
    PerversityError,
    ih_homology,
    ordinary_homology,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialError,
    StratifiedComplex,
    barycentric_subdivision,
    build_complex,
    verify_pseudomanifold,
)
from .witt import (
    BilinearForm,
    WittError,
    bordism_group,
    witt_condition_checks,
    witt_invariants,
)

EXIT_PARSE = 2
EXIT_PERVERSITY = 3
EXIT_NOT_PSEUDOMANIFOLD = 4
EXIT_DEGENERATE = 5

# One barycentric subdivision turns a d-simplex into (d+1)! simplices;
# --normalize-triangulation refuses to build more top simplices than this.
_MAX_SUBDIVISION_SIMPLICES = 200_000
# A space file declares at most this dimension; a simplex of it has
# 2^13 faces.
_MAX_DIMENSION = 12
# The largest identity form that `witt-class --matrix I<n>` builds: the
# Gram matrix is a dense n by n list.
_MAX_IDENTITY = 1000


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# The coefficient label that each spec shape names, keyed by the spec's
# prefix and its number of integer arguments.
_COEFF_LABELS = {("Q", 0): "Q", ("Z", 0): "Z", ("Zp", 1): "Z{}", ("Fq", 2): "F{}^{}"}


def parse_coefficients(spec):
    """Q | Z | Zp:<p> | Fq:<p>:<m>, read by `coeff_from_label` as the
    label Q, Z, Z<p> or F<p>^<m>."""
    spec = spec.strip()
    kind, *args = spec.split(":")
    label = _COEFF_LABELS.get((kind, len(args)))
    try:
        numbers = [int(a) for a in args]
    except ValueError:
        label = None
    if label is None:
        raise CliError(f"bad coefficient spec {spec!r}", EXIT_PARSE)
    return coeff_from_label(label.format(*numbers))


def parse_perversity(spec, n):
    """0 | m | n | t | p:v2,v3,...; an invalid perversity raises
    PerversityError, which `main` maps to exit code 3."""
    spec = spec.strip()
    named = {"0": Perversity.zero, "m": Perversity.lower_middle,
             "n": Perversity.upper_middle, "t": Perversity.top}
    if spec in named:
        return named[spec](n)
    try:
        if not spec.startswith("p:"):
            raise ValueError
        values = tuple(int(v) for v in spec[2:].split(",") if v.strip())
    except ValueError:
        raise CliError(f"bad perversity spec {spec!r}", EXIT_PARSE)
    return Perversity(values, n)


def _json_int(v):
    """An integer from a JSON value: an int or a numeral string.  Floats
    and booleans are rejected rather than truncated."""
    if isinstance(v, (bool, float)):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _json_list(v, what):
    """A JSON array; a string or an object is refused, not iterated."""
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON array")
    return v


def _simplices(gens, i):
    """Vertex sets from JSON lists, each of dimension at most i."""
    out = [frozenset(_json_int(v) for v in _json_list(s, "a simplex"))
           for s in _json_list(gens, "a list of simplices")]
    if any(len(s) > i + 1 for s in out):
        raise ValueError(f"a simplex has dimension above {i}")
    return out


def _read_json(path, what):
    """The JSON document in `path`; exits 2 if it cannot be read or decoded."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise CliError(f"cannot read {what} file {path}: {e}", EXIT_PARSE)


def load_space_file(path):
    """JSON document with dimension, maximal_simplices, and optional
    skeleta (map from skeleton index to generating simplices).  Every
    simplex is checked against the dimension it is given for, and the
    dimension against _MAX_DIMENSION, before any face is listed."""
    doc = _read_json(path, "space")
    try:
        n = _json_int(doc["dimension"])
        if n > _MAX_DIMENSION:
            raise ValueError(f"dimension {n} is above {_MAX_DIMENSION}")
        maximal = _simplices(doc["maximal_simplices"], n)
        skeleta = doc.get("skeleta")
        if not isinstance(skeleta, (dict, type(None))):
            raise ValueError("skeleta must be an object")
        skel_map = {}
        for key, gens in (skeleta or {}).items():
            i = int(key)
            if not 0 <= i <= n:
                raise ValueError(f"skeleton key {key!r} is outside 0..{n}")
            skel_map[i] = SimplicialComplex.from_maximal(_simplices([] if gens is None else gens, i))
        return StratifiedComplex.from_skeleton_map(build_complex(maximal), skel_map, n)
    except (KeyError, TypeError, ValueError, SimplicialError) as e:
        raise CliError(f"bad space file {path}: {e}", EXIT_PARSE)


def _resolve_space(args):
    """The space the arguments name, and under --strict its
    `verify_pseudomanifold` report (else None), which must pass."""
    X = catalog_build(args.catalog) if args.catalog else load_space_file(args.space)
    if args.normalize_triangulation:
        size = sum(factorial(len(s)) for s in X.complex.facets())
        if size > _MAX_SUBDIVISION_SIMPLICES:
            raise CliError(
                f"subdivision would have {size} top simplices, more than "
                f"{_MAX_SUBDIVISION_SIMPLICES}",
                EXIT_PARSE,
            )
        X = barycentric_subdivision(X)
    rep = verify_pseudomanifold(X) if args.strict else None
    if rep and not rep.is_pseudomanifold:
        raise CliError(rep.failure_message(), EXIT_NOT_PSEUDOMANIFOLD)
    return X, rep


def _emit(args, doc, lines):
    """The one output path: `doc`, tagged with the subcommand, as JSON
    under --json, else the text `lines`; returns exit code 0."""
    print(json.dumps({"command": args.command, **doc}, sort_keys=True, indent=2)
          if args.json else "\n".join(lines))
    return 0


def cmd_compute(args):
    coeff = parse_coefficients(args.coeff)
    entry = catalog_entry(args.catalog) if args.catalog else None
    if entry and entry.kind == "formula":
        flags = [flag for flag, on in (("--strict", args.strict),
                                       ("--normalize-triangulation", args.normalize_triangulation)) if on]
        if flags:
            raise CliError(f"{' and '.join(flags)} need a triangulated space; "
                           f"{args.catalog} is a formula entry", EXIT_PARSE)
        pbar = parse_perversity(args.perversity, entry.dimension)
        table = catalog_table(args.catalog, pbar, coeff.label)
        source = f"catalog:{args.catalog} (formula)"
    else:
        X, _ = _resolve_space(args)
        pbar = parse_perversity(args.perversity, X.n)
        table = ih_homology(X, pbar, coeff)
        source = f"catalog:{args.catalog}" if args.catalog else f"file:{args.space}"
    doc = {"space": args.catalog or args.space, "perversity": args.perversity,
           "table": table.as_dict()}
    lines = [f"intersection homology of {source}, perversity {args.perversity}, "
             f"coefficients {table.coeff_label}"]
    lines += [f"  H_{i} = {table.group_description(i)}" for i in range(table.n + 1)]
    return _emit(args, doc, lines)


def cmd_witt_check(args):
    X, rep = _resolve_space(args)
    coeffs = [parse_coefficients(c) for c in args.coeff.split(",")]
    if INTEGERS in coeffs:
        raise CliError("the Witt condition is tested over fields", EXIT_PARSE)
    try:
        reports = witt_condition_checks(X, coeffs, args.check_all_links, rep)
    except WittError as e:
        raise CliError(str(e), EXIT_NOT_PSEUDOMANIFOLD)
    name = args.catalog or args.space
    doc = {"space": name, "results": [
        {
            "coefficients": r.coeff_label,
            "passes": r.passes,
            "oriented": r.oriented,
            "irreducible": r.irreducible,
            "checks": [
                {
                    "stratum_dim": c.stratum_dim,
                    "middle_degree": c.middle_degree,
                    "link_dim": c.link_dim_checked,
                    "passes": c.passes,
                    "all_links_agree": c.all_links_agree,
                }
                for c in r.checks
            ],
        }
        for r in reports
    ]}
    r0 = reports[0]
    lines = [f"Witt condition for {name} "
             f"(oriented={r0.oriented}, irreducible={r0.irreducible})"]
    for r in reports:
        detail = "; ".join(
            f"stratum dim {c.stratum_dim}: middle IH dim {c.link_dim_checked}"
            for c in r.checks
        ) or "no odd-codimension strata"
        lines.append(f"  {r.coeff_label}: {'pass' if r.passes else 'fail'} ({detail})")
    return _emit(args, doc, lines)


def _parse_gram_entry(text, field):
    if isinstance(text, str) and text.startswith("poly:"):
        coeffs = [int(c) for c in text[5:].split(",")]
        if not hasattr(field, "from_coeffs"):
            raise CliError("poly entries need Fq coefficients", EXIT_PARSE)
        return field.from_coeffs(coeffs)
    if isinstance(text, str) and "/" in text:
        if not isinstance(field, Rationals):
            raise ValueError(f"fraction entry {text!r} needs Q coefficients")
        num, den = (int(x) for x in text.split("/"))
        if den == 0:
            raise ValueError(f"fraction entry {text!r} has a zero denominator")
        return Fraction(num, den)
    if isinstance(field, Rationals):
        return Fraction(_json_int(text))
    return field.from_int(_json_int(text))


def load_gram_matrix(path_or_spec, field):
    digits = path_or_spec[1:]
    if path_or_spec.startswith("I") and digits.isdecimal():
        # lengths are compared before int(), which refuses numerals of
        # more than 4300 digits
        if len(digits.lstrip("0")) > len(str(_MAX_IDENTITY)) or int(digits) > _MAX_IDENTITY:
            raise CliError(f"identity forms are limited to I{_MAX_IDENTITY}", EXIT_PARSE)
        n = int(digits)
        return BilinearForm(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], field
        )
    doc = _read_json(path_or_spec, "matrix")
    try:
        n = _json_int(doc["dimension"])
        if n < 0:
            raise ValueError(f"dimension {n} is negative")
        flat = [_parse_gram_entry(e, field) for e in _json_list(doc["entries"], "entries")]
        if len(flat) != n * n:
            raise ValueError(f"need {n * n} entries, got {len(flat)}")
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        return BilinearForm(rows, field, lift=False)
    except (KeyError, TypeError, ValueError, WittError) as e:
        raise CliError(f"bad matrix file {path_or_spec}: {e}", EXIT_PARSE)


def cmd_witt_class(args):
    field = parse_coefficients(args.field)
    if field is INTEGERS:
        raise CliError("Witt classes live over fields", EXIT_PARSE)
    form = load_gram_matrix(args.matrix, field)
    try:
        cls = witt_invariants(form)
    except WittError as e:
        raise CliError(str(e), EXIT_DEGENERATE)
    doc = {"matrix": args.matrix, "field": args.field, "class": {
        "description": cls.describe(),
        "identity": cls.is_identity,
        "dim0": cls.dim0,
        "dpm": cls.dpm,
        "signature": cls.signature,
    }}
    tag = " (trivial class)" if cls.is_identity else ""
    return _emit(args, doc, [f"Witt class over {cls.field_label}: {cls.describe()}{tag}"])


def cmd_bordism(args):
    if not is_prime(args.p):
        raise CliError(f"{args.p} is not prime", EXIT_PARSE)
    if args.space:
        X = load_space_file(args.space)
        h = ordinary_homology(X.complex, INTEGERS)
        group = omega_splitting(h, args.n, args.p)
        subject = f"space {args.space}"
    else:
        group = bordism_group(args.n, args.p)
        subject = "a point"
    doc = {"n": args.n, "p": args.p, "space": args.space, "group": {
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
        "description": group.describe(),
    }}
    return _emit(args, doc, [f"Witt bordism in degree {args.n} over Z_{args.p} "
                             f"of {subject}: {group.describe()}"])


def cmd_catalog(args):
    entries = catalog_entries()
    doc = {"entries": [
        {
            "name": e.name,
            "dimension": e.dimension,
            "kind": e.kind,
            "cost_class": e.cost_class,
            "description": e.description,
        }
        for e in entries
    ]}
    width = max(len(e.name) for e in entries)
    return _emit(args, doc, [f"{e.name:<{width}}  dim {e.dimension}  {e.kind:<12} "
                             f"{e.cost_class:<8} {e.description}" for e in entries])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ihcalc",
        description="intersection homology and Witt condition calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--catalog", help="built-in space name")
        group.add_argument("--space", help="space file (JSON)")
        p.add_argument("--strict", action="store_true",
                       help="fail on non-pseudomanifold input")
        p.add_argument("--normalize-triangulation", action="store_true",
                       help="apply one barycentric subdivision before computing")

    p = sub.add_parser("compute", help="intersection homology table")
    add_space_args(p)
    p.add_argument("--perversity", default="m",
                   help="0 | m | n | t | p:v2,v3,...")
    p.add_argument("--coeff", default="Q", help="Q | Z | Zp:<p> | Fq:<p>:<m>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("witt-check", help="Witt condition verdicts")
    add_space_args(p)
    p.add_argument("--coeff", default="Q", help="comma-separated field specs")
    p.add_argument("--check-all-links", action="store_true",
                   help="check every link in each stratum component")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_witt_check)

    p = sub.add_parser("witt-class", help="classify a symmetric form")
    p.add_argument("--matrix", required=True,
                   help=f"matrix file (JSON) or I<n> for the identity, n at most {_MAX_IDENTITY}")
    p.add_argument("--field", required=True, help="Q | Zp:<p> | Fq:<p>:<m>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_witt_class)

    p = sub.add_parser("bordism", help="Witt bordism groups")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--space", help="space file for the splitting formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bordism)

    p = sub.add_parser("catalog", help="list built-in spaces")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (CoefficientError, SimplicialError, CatalogError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PerversityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PERVERSITY


if __name__ == "__main__":
    sys.exit(main())
