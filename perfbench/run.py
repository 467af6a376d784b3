"""ihcalc benchmark: closed-loop workloads over the library's public API.

    python3 perfbench/run.py --workload prebuilt --seed 1 --seconds 40 --trace 0

One client in one process issues one operation at a time.  A run sets
the workload up SETUP_REPS times, or until SETUP_MIN_S have gone by
(fresh import of `src/ihcalc` plus the catalog builds it needs), and
reports the median as `setup_s`; then it runs passes over the workload's
operation list, each in an order drawn from the seed, until `--seconds`
have gone by (at least one whole pass; see `run_ops`).  Every answer is checked; an exception, a wrong answer or a
non-zero CLI exit counts as a failed operation.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, taken from each operation's median latency over
the run.  With `--trace 1` the run first measures the untraced loop,
then sets up again with every public function of the package wrapped in
a span, runs one traced pass, and reports per-layer metrics instead; the
spans go to `.bench_out/` at the root of the checkout.  The `prebuilt`
workload's traced run also runs the capped SJ_L3-over-Z operation.

The program under test is imported from `src/` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
SETUP_MIN_S = 1.0  # a cheap set-up repeats until it has taken this long
SETUP_MAX_REPS = 50
TAIL_BEYOND = 10  # operations that must lie beyond the tail percentile

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


# --- measurement --------------------------------------------------------------


def tail_index(n):
    """Index into the sorted latencies of the highest percentile with at
    least TAIL_BEYOND operations beyond it, and that percentile."""
    k = max(n - TAIL_BEYOND, 1)
    return k - 1, 100.0 * k / n


def run_op(op):
    """(latency seconds, ok, error text or None).  The operation's
    `prepare` and a garbage collection run untimed first, so that every
    operation starts from the same collector state whatever ran before."""
    if op.prepare is not None:
        op.prepare()
    gc.collect()
    t0 = time.perf_counter()
    try:
        answer = op.fn()
    except Exception:
        return time.perf_counter() - t0, False, traceback.format_exc(limit=4)
    latency = time.perf_counter() - t0
    try:
        ok = bool(op.check(answer))
    except Exception:
        return latency, False, traceback.format_exc(limit=4)
    return latency, ok, None if ok else f"wrong answer: {json.dumps(answer)[:500]}"


def run_ops(ops, rng, seconds=None, passes=None, tracer=None):
    """Closed loop over the operation list, pass after pass, each pass in
    an order drawn from `rng`.  Stops after `passes` whole passes, or at
    the first operation boundary after `seconds` have gone by once a
    whole pass is done.  Every operation is sampled amid the whole list,
    never in a run of cheap operations alone, so that a sample does not
    depend on how much time the run had left.  Returns every latency by
    operation key, the failures and the number of whole passes."""
    loop = {"samples": {op.key: [] for op in ops}, "failures": [], "passes": 0}
    start = time.perf_counter()
    while passes is None or loop["passes"] < passes:
        for op in rng.sample(ops, len(ops)):
            if (passes is None and loop["passes"]
                    and time.perf_counter() - start >= seconds):
                return loop
            if tracer is not None:
                tracer.phase = op.key
            latency, ok, error = run_op(op)
            loop["samples"][op.key].append(latency)
            if not ok:
                loop["failures"].append({"op": op.key, "error": error})
        loop["passes"] += 1
    return loop


def op_metrics(samples):
    """End-to-end figures from each operation's median latency over the
    run: their sum (one pass of the list), their median and their tail."""
    medians = sorted(statistics.median(v) for v in samples.values())
    idx, pct = tail_index(len(medians))
    return {
        "wall_s": sum(medians),
        "latency_p50_s": statistics.median(medians),
        "latency_tail_s": medians[idx],
    }, {
        "tail_percentile": pct,
        "operations": len(medians),
        "samples": sum(len(v) for v in samples.values()),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """SHA-256 over the program's sources, which names the code under
    test also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer, overhead):
    """Per-layer metrics of a traced run (set-up and operations)."""
    summ = tracer.summary()
    counts = tracer.counts

    def get(name, field):
        return summ.get(name, {}).get(field, 0)

    m = {}
    for name in ("simplicial.facets", "simplicial.verify_pseudomanifold",
                 "catalog.catalog_build", "ihcore.ih_homology"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("simplicial.quotient", "simplicial.contract_edges"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("simplicial.simplicial_link", "simplicial.stratum_components",
                 "ihcore.uct_violation_report", "ihcore.torsion_free_check",
                 "exactalg.solve_columns", "witt.witt_condition_check",
                 "witt.forms", "formulas", "cli.main"):
        m[f"{name}.calls"] = get(name, "calls")
    m["catalog.certificates.s"] = get("catalog.certificates", "s")
    m["ihcore.ih_homology.s"] = get("ihcore.ih_homology", "s")
    m["ihcore.chain_dims.sum"] = counts.get("ihcore.chain_dims.sum", 0)
    for kind in ("Q", "Zp", "Fq"):
        m[f"exactalg.rank.{kind}.calls"] = get(f"exactalg.rank.{kind}", "calls")
        m[f"exactalg.rank.{kind}.nnz"] = counts.get(f"exactalg.rank.{kind}.nnz", 0)
    m["exactalg.rank.Zp.s"] = get("exactalg.rank.Zp", "s")
    m["exactalg.rank.s"] = sum(
        row["s"] for k, row in summ.items() if k.startswith("exactalg.rank.")
    )
    m["exactalg.rank.distinct_ratio"] = tracer.ratio("exactalg.rank")
    for name in ("exactalg.integer_kernel_basis", "exactalg.smith_normal_form"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.nnz"] = counts.get(f"{name}.nnz", 0)
    m["exactalg.smith_normal_form.s"] = get("exactalg.smith_normal_form", "s")
    m["witt.link_tables"] = counts.get("witt.link_tables", 0)
    m["witt.link_distinct_ratio"] = tracer.ratio("witt.link")
    m["cap.timeouts"] = counts.get("cap.timeouts", 0)
    m["trace.overhead"] = overhead
    return m


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def attribution(tracer):
    """The profile facts the benchmark is expected to reproduce, read off
    the traced run's spans."""
    spans = tracer.spans
    out = {}
    by_phase = {}
    for i, s in enumerate(spans):
        by_phase.setdefault(s[4], []).append(i)

    def phase_summary(prefix):
        keys = [k for k in by_phase if k.startswith(prefix)]
        return tracing.summarize(spans, set(keys)) if keys else None

    cli = phase_summary("cli/compute --catalog L5_1")
    if cli:
        build = cli.get("catalog.catalog_build", {})
        facets = cli.get("simplicial.facets", {})
        if build.get("s"):
            out["cli-cold: facets share of the L5_1 build"] = facets.get("self_s", 0) / build["s"]
    op = phase_summary("integral/ih/S(L5_1)/0,0,1/Z")
    if op:
        total = op.get("ihcore.ih_homology", {}).get("s", 0)
        solve = op.get("exactalg.solve_columns", {}).get("s", 0)
        if total:
            out["prebuilt: solve_columns share of S(L5_1) p=(0,0,1) over Z"] = solve / total
    fq = phase_summary("tables/ih/J_L3/m/F9")
    zp = phase_summary("tables/ih/J_L3/m/Z3")
    if fq and zp:
        a = fq.get("exactalg.rank.Fq", {})
        b = zp.get("exactalg.rank.Zp", {})
        if a.get("calls") and b.get("calls") and b.get("s"):
            out["prebuilt: J_L3 rank.Fq s per call over rank.Zp s per call"] = (
                (a["s"] / a["calls"]) / (b["s"] / b["calls"])
            )
    return out


# --- main ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def use_checkout_sources():
    """Put this checkout's src/ first on the path; refuse to run without
    it (against any other copy of ihcalc)."""
    if not (SRC / "ihcalc" / "__init__.py").is_file():
        print(f"error: no ihcalc sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_origin(lib):
    origin = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: ihcalc imported from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None):
    args = parse_args(argv)
    use_checkout_sources()
    refs = workloads.load_references()
    meta = metadata(args)

    setup_times = []
    reps = 1 if args.trace else SETUP_REPS
    while len(setup_times) < reps or (
        not args.trace and sum(setup_times) < SETUP_MIN_S
        and len(setup_times) < SETUP_MAX_REPS
    ):
        gc.collect()
        t0 = time.perf_counter()
        lib, ops = workloads.setup(args.workload, refs, args.seed)
        setup_times.append(time.perf_counter() - t0)
    check_origin(lib)
    gc.collect()
    gc.freeze()

    rng = random.Random(args.seed)
    loop = run_ops(ops, rng, seconds=args.seconds)
    e2e, info = op_metrics(loop["samples"])
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = peak_rss_mb()
    meta.update(info)
    meta["tail_percentile"] = round(info["tail_percentile"], 2)
    meta["passes"] = loop["passes"]
    meta["setup_reps"] = len(setup_times)

    failures = list(loop["failures"])
    attempted = info["samples"]
    correct = not failures
    record = {"meta": meta, "end_to_end": e2e, "failures": failures,
              "setup_times": setup_times, "latencies": loop["samples"]}

    if args.trace:
        tr = tracing.Tracer()
        del ops, lib
        gc.collect()
        lib, ops = workloads.setup(args.workload, refs, args.seed,
                                   before_build=lambda lib: tr.install())
        gc.collect()
        gc.freeze()
        traced = run_ops(ops, random.Random(args.seed), passes=1, tracer=tr)
        tr.uninstall()
        traced_e2e, traced_info = op_metrics(traced["samples"])
        overhead = traced_e2e["wall_s"] / e2e["wall_s"]
        record["traced_end_to_end"] = traced_e2e
        record["traced_latencies"] = traced["samples"]
        failures += traced["failures"]
        attempted += traced_info["samples"]
        correct = correct and not traced["failures"]
        if args.workload == "prebuilt":
            status, seconds, ok = workloads.capped_sj_l3_z(lib)
            tr.add("cap.timeouts", status == "timeout")
            record["capped"] = {"op": "integral/ih/SJ_L3/m/Z", "status": status,
                                "seconds": seconds, "cap_s": workloads.INTEGRAL_CAP_S}
            print(f"capped integral/ih/SJ_L3/m/Z: {status} after {seconds:.2f} s "
                  f"(cap {workloads.INTEGRAL_CAP_S:.0f} s)")
            correct = correct and ok
        layers = layer_metrics(tr, overhead)
        record["per_layer"] = layers
        record["absent_targets"] = tr.absent
        record["attribution"] = attribution(tr)
        record["layers"] = {
            phase: tracing.summarize(tr.spans, phases)
            for phase, phases in (("setup", {"setup"}), ("all", None))
        }
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        trace_doc = {"meta": meta, "spans": tr.spans, "counts": dict(tr.counts)}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        trace_doc = None

    for k, v in sorted(metrics.items()):
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for k, v in record.get("attribution", {}).items():
        print(f"attribution {k}: {v:.3f}")
    if record.get("absent_targets"):
        print("absent trace targets: " + ", ".join(record["absent_targets"]))
    for f in failures[:10]:
        print(f"FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")
    print("meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if trace_doc is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(trace_doc, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
