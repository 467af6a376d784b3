"""Tests of the benchmark's own machinery: span arithmetic, failure
accounting and the time cap.  They use planted functions only, so they
do not re-import ihcalc (the benchmark's set-up does, which would swap
the package under the other test modules)."""

import json
import random
import sys
import time
import types
from pathlib import Path

import run
import tracer
import workloads


def _slow(seconds, conn):
    time.sleep(seconds)
    conn.send("done")


# --- self time ----------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [
        ["root", 0.0, 10.0, None, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["b", 5.0, 9.0, 0, "op"],
        ["c", 6.0, 7.0, 2, "op"],
    ]
    s = tracer.summarize(spans)
    assert s["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert s["a"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert s["b"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert s["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    total_self = sum(row["self_s"] for row in s.values())
    assert total_self == 10.0


def test_recursive_span_counts_inclusive_time_once():
    spans = [
        ["f", 0.0, 6.0, None, "op"],
        ["f", 1.0, 3.0, 0, "op"],
        ["g", 4.0, 5.0, 0, "setup"],
    ]
    s = tracer.summarize(spans)
    assert s["f"] == {"calls": 2, "s": 6.0, "self_s": 5.0}
    assert tracer.summarize(spans, {"setup"}) == {"g": {"calls": 1, "s": 1.0, "self_s": 1.0}}


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return layer.inner(x) * 2

    layer.inner, layer.outer = inner, outer
    user.inner = inner  # a from-import binding in another module
    return {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}


def test_tracer_wraps_every_binding_and_reports_absent_targets(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    tr.install("fakepkg", [
        ("layer", "outer", "layer.outer", None),
        ("layer", "inner", "layer.inner", None),
        ("layer", "gone", "layer.gone", None),
        ("nomodule", "f", "nomodule.f", None),
    ])
    assert tr.absent == ["layer.gone", "nomodule.f"]
    assert mods["fakepkg.layer"].outer(1) == 4
    assert mods["fakepkg.user"].inner(1) == 2
    tr.uninstall()
    assert not hasattr(mods["fakepkg.user"].inner, "__wrapped__")
    # outer [0, 3] holds inner [1, 2]; then the from-imported inner [4, 5]
    s = tr.summary()
    assert s["layer.outer"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert s["layer.inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_distinct_ratio():
    tr = tracer.Tracer()
    for key in ("a", "b", "a", "a"):
        tr.distinct("m", key)
    assert tr.ratio("m") == 0.5
    assert tr.ratio("never") == 0.0


# --- failures -------------------------------------------------------------------


def test_planted_wrong_answer_counts_as_failed_operation():
    refs = {"good": [1, 0, 1], "bad": [1, 0, 1]}
    ops = [
        workloads._ref_op(refs, "good", lambda: (1, 0, 1)),
        workloads._ref_op(refs, "bad", lambda: (1, 1, 1)),
        workloads.Op("raises", lambda: 1 // 0, lambda ans: True),
    ]
    result = run.run_ops(ops, random.Random(0), passes=2)
    failed = sorted(f["op"] for f in result["failures"])
    assert failed == ["bad", "bad", "raises", "raises"]
    assert result["passes"] == 2
    assert all(len(v) == 2 for v in result["samples"].values())


def test_timed_run_finishes_one_whole_pass_first():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda ans: True) for i in range(5)]
    result = run.run_ops(ops, random.Random(0), seconds=0)
    assert result["passes"] == 1
    assert all(len(v) == 1 for v in result["samples"].values())


def test_nonzero_cli_exit_counts_as_failed_operation():
    def main(argv):
        print("error: unknown catalog space", file=sys.stderr)
        return 2

    lib = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    refs = {"cli/compute": {"code": 0, "doc": {}}}
    op = workloads._ref_op(refs, "cli/compute", lambda: workloads.run_cli(lib, ["compute"]))
    latency, ok, error = run.run_op(op)
    assert not ok and "wrong answer" in error
    assert workloads.run_cli(lib, ["compute"])["code"] == 2


def test_missing_reference_is_an_error():
    try:
        workloads._ref_op({}, "unknown", lambda: 0)
    except KeyError:
        return
    raise AssertionError("an operation without a reference was accepted")


# --- time cap --------------------------------------------------------------------


def test_planted_slow_operation_trips_the_cap():
    t0 = time.perf_counter()
    status, value = workloads.run_capped(_slow, (60,), 1.0)
    assert (status, value) == ("timeout", None)
    assert time.perf_counter() - t0 < 30


def test_fast_operation_finishes_under_the_cap():
    assert workloads.run_capped(_slow, (0,), 30.0) == ("ok", "done")


# --- metrics ----------------------------------------------------------------------


def test_tail_percentile_leaves_ten_operations_beyond_it():
    idx, pct = run.tail_index(34)
    assert idx == 23 and round(pct, 2) == 70.59
    lat = list(range(34))
    assert sum(1 for x in lat if x > sorted(lat)[idx]) == 10


def test_metrics_take_each_operations_median():
    # operation k took k, 3k and 2k seconds in three passes
    samples = {f"op{k}": [k * 1.0, k * 3.0, k * 2.0] for k in range(1, 21)}
    e2e, info = run.op_metrics(samples)
    assert e2e["wall_s"] == 2.0 * sum(range(1, 21))
    assert e2e["latency_p50_s"] == 2.0 * 10.5
    assert e2e["latency_tail_s"] == 2.0 * 10
    assert info == {"tail_percentile": 50.0, "operations": 20, "samples": 60}


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = run.layer_metrics(tracer.Tracer(), 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layers
    }
