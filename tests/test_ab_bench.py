"""tools/ab_bench.py on two stub checkouts whose run.py prints fixed
metrics."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

STUB = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
seconds = float(sys.argv[sys.argv.index("--seconds") + 1])
wall = {wall} + seed / 100 * {spread}
print("noise line")
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": {failed},
                  "metrics": {{"wall_s": {{"value": wall, "unit": "s"}},
                              "peak_rss_mb": {{"value": 50.0, "unit": "MB"}},
                              "seconds": {{"value": seconds, "unit": "s"}}}}}}))
"""


def stub_checkout(root, wall, failed=0, correct=True, run_seconds=40, spread=1, bounds=None):
    """A checkout whose run.py reports wall_s = wall + seed / 100 * spread;
    `bounds` maps end-to-end metric names to the bound BENCHMARK.json
    gives them."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB.format(wall=wall, failed=failed, correct=correct, spread=spread))
    bench = {"run_seconds": run_seconds}
    if bounds is not None:
        bench["end_to_end"] = [
            {"name": name, "bound": bound} for name, bound in bounds.items()
        ]
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    return str(root)


def test_pairs_and_summary(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0)
    b = stub_checkout(tmp_path / "b", 2.0)
    assert ab_bench.main([a, b, "--workload", "prebuilt", "--pairs", "3",
                          "--seed", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1/3 (seed 5): wall_s A 3.050 B 2.050"
    assert "workload prebuilt, 3 pairs, 40 s per run" in out
    wall = next(line for line in out if line.startswith("wall_s"))
    assert "A       3.06 [3.055, 3.065]" in wall
    assert "B       2.06 [2.055, 2.065]" in wall
    assert wall.endswith("B lower in 3/3")
    rss = next(line for line in out if line.startswith("peak_rss_mb"))
    assert rss.endswith("B lower in 0/3")


def test_failed_operations_stop_the_script(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0)
    b = stub_checkout(tmp_path / "b", 2.0, failed=1)
    assert ab_bench.main([a, b, "--workload", "cli-cold", "--pairs", "2"]) == 1
    assert "1 failed operations" in capsys.readouterr().err


def test_wrong_answer_stops_the_script(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0, correct=False)
    b = stub_checkout(tmp_path / "b", 2.0)
    assert ab_bench.main([a, b, "--workload", "cli-cold", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert "wrong answer" in err and "failed operations" not in err


def test_runs_take_the_benchmark_length_of_checkout_a(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0, run_seconds=7)
    b = stub_checkout(tmp_path / "b", 2.0, run_seconds=40)
    assert ab_bench.main([a, b, "--workload", "prebuilt", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    seconds = next(line for line in out if line.startswith("seconds"))
    assert "A          7 [7, 7]  B          7 [7, 7]" in seconds


def test_same_checkout_on_both_sides(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0)
    assert ab_bench.main([a, a, "--workload", "prebuilt", "--pairs", "4",
                          "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len([line for line in out if line.startswith("pair ")]) == 4
    wall = next(line for line in out if line.startswith("wall_s"))
    assert "A      3.025 [3.018, 3.032]" in wall
    assert "B      3.025 [3.018, 3.032]" in wall
    assert wall.endswith("B lower in 0/4")


def test_summary_of_one_pair():
    lines = ab_bench.summarize([{"wall_s": 2.0}], [{"wall_s": 1.5}])
    assert lines == [
        "wall_s           A          2 [2, 2]  B        1.5 [1.5, 1.5]   -25.0%  B lower in 1/1"
    ]
    bounded = ab_bench.summarize([{"wall_s": 2.0}], [{"wall_s": 1.5}],
                                 [{"name": "wall_s", "bound": 0.25}])
    assert bounded == [lines[0] + "  ok"]


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_pairs_below_one_is_a_usage_error(tmp_path, capsys, pairs):
    a = stub_checkout(tmp_path / "a", 3.0)
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main([a, a, "--workload", "prebuilt", "--pairs", pairs])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--pairs must be at least 1" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def summary_line(out, name):
    return next(line for line in out if line.startswith(name + " "))


@pytest.mark.parametrize(
    "a_wall,a_spread,b_wall,b_spread,want",
    [
        (3.0, 1, 2.0, 1, "ok"),  # B better, A tight
        (3.0, 1, 3.0, 1, "ok"),  # equal medians, A tight
        (2.0, 1, 3.0, 1, "worse"),  # B's median 50% above A's
        (2.0, 1, 2.05, 1, "ok"),  # +2.4%, inside the 5% bound
        (3.0, 20, 3.0, 20, "unresolved"),  # A's quartiles 8.6% apart
        (3.0, 20, 1.0, 1, "ok"),  # A spread wide, but every B run is lower
    ],
)
def test_verdict_against_the_bound(tmp_path, capsys, a_wall, a_spread, b_wall, b_spread, want):
    bounds = {"wall_s": 0.05, "peak_rss_mb": 0.1}
    a = stub_checkout(tmp_path / "a", a_wall, spread=a_spread, bounds=bounds)
    b = stub_checkout(tmp_path / "b", b_wall, spread=b_spread, bounds={})
    assert ab_bench.main([a, b, "--workload", "prebuilt", "--pairs", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert summary_line(out, "wall_s").endswith(f"  {want}")
    # equal on both sides: no change
    assert summary_line(out, "peak_rss_mb").endswith("  +0.0%  B lower in 0/4  ok")
    # a metric that BENCHMARK.json does not bound gets no verdict
    assert summary_line(out, "seconds").endswith("B lower in 0/4")


def test_relative_change_of_the_medians(tmp_path, capsys):
    a = stub_checkout(tmp_path / "a", 3.0, bounds={"wall_s": 0.25})
    b = stub_checkout(tmp_path / "b", 2.0)
    assert ab_bench.main([a, b, "--workload", "prebuilt", "--pairs", "3", "--seed", "5"]) == 0
    wall = summary_line(capsys.readouterr().out.splitlines(), "wall_s")
    # medians 3.06 and 2.06
    assert "  -32.7%  B lower in 3/3  ok" in wall


ENV_STUB = """import json, os
caches = [d for d, _, _ in os.walk("src") if os.path.basename(d) == "__pycache__"]
with open("env.log", "a") as fh:
    fh.write(json.dumps([os.environ.get("PYTHONDONTWRITEBYTECODE"),
                         os.environ.get("PYTHONPYCACHEPREFIX"), caches]) + "\\n")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_runs_use_no_bytecode_cache(tmp_path, capsys, monkeypatch):
    a = stub_checkout(tmp_path / "a", 3.0)
    (tmp_path / "a" / "perfbench" / "run.py").write_text(ENV_STUB)
    for d in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__"):
        (tmp_path / "a" / d).mkdir(parents=True)
        (tmp_path / "a" / d / "mod.cpython-311.pyc").write_bytes(b"stale")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    assert ab_bench.main([a, a, "--workload", "cli-cold", "--pairs", "2"]) == 0
    assert "removed 2 __pycache__ directories" in capsys.readouterr().out
    runs = [json.loads(line) for line in (tmp_path / "a" / "env.log").read_text().splitlines()]
    assert len(runs) == 4
    # no bytecode is written, no cache prefix hides the standard
    # library's cache, and src/ holds no cache when each run starts
    assert runs == [["1", None, []]] * 4


@pytest.mark.parametrize("last_line, why", [
    ('print("not json")', "JSONDecodeError"),
    ('print(json.dumps({"attempted": 1, "metrics": {}}))', "KeyError"),
    ('print(json.dumps([1, 2]))', "TypeError"),
])
def test_a_malformed_result_is_an_error_line(tmp_path, capsys, last_line, why):
    # run.py exits 0, but its last line is not a result object
    a = stub_checkout(tmp_path / "a", 3.0)
    b = stub_checkout(tmp_path / "b", 2.0)
    (tmp_path / "b" / "perfbench" / "run.py").write_text(f"import json\n{last_line}\n")
    assert ab_bench.main([a, b, "--workload", "prebuilt", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {b}: the last line is not a result")
    assert why in err and "Traceback" not in err
