"""Tests of scripts/bench_record.py on a recorded benchmark result.

The benchmark itself never runs here: the writer is fed the last output
line and result file of one recorded ``study`` run, and the subprocess path
runs a stand-in ``perfbench/run.py`` that replays them.
"""
from __future__ import annotations

import copy
import importlib.util
import json
import statistics
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RECORDED = json.loads((HERE / "data" / "bench_result_study.json").read_text())


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_record", HERE.parent / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_script()


def recorded_run(seed, steps_per_s, faults, failed=0, setups=None, filter_runs=None, probe_us=None):
    """The recorded run with its seed, ``steps_per_s`` value, fault count,
    failure count and (if given) set-up and filter-run series and probe
    time replaced."""
    result, record = copy.deepcopy(RECORDED["last_line"]), copy.deepcopy(RECORDED["result_trace0"])
    record["metrics"]["steps_per_s"]["value"] = steps_per_s
    if probe_us is not None:
        record["metrics"]["probe.mean_us"]["value"] = probe_us
    if setups is not None:
        record["series"]["setup_s"] = setups
    if filter_runs is not None:
        record["series"]["filter_run_s"] = filter_runs
    result["failed"], result["correct"] = failed, failed == 0
    return {"workload": "study", "seed": seed, "result": result, "record": record, "faults": faults}


def test_document_holds_each_metric_s_spread_and_each_run():
    runs = [recorded_run(1, 2400.0, 4784), recorded_run(2, 2500.0, 9568), recorded_run(3, 2300.0, 0, failed=2)]
    doc = bench_record.bench_document(runs, "abc123", dirty=True, src_sha256="f00d")
    assert (doc["commit"], doc["dirty"], doc["src_sha256"]) == ("abc123", True, "f00d")
    assert doc["machine"] == RECORDED["result_trace0"]["machine"] and doc["machines_agree"]
    study = doc["workloads"]["study"]
    assert study["runs"] == [
        {"seed": 1, "correct": True, "failed": 0, "attempted": RECORDED["last_line"]["attempted"]},
        {"seed": 2, "correct": True, "failed": 0, "attempted": RECORDED["last_line"]["attempted"]},
        {"seed": 3, "correct": False, "failed": 2, "attempted": RECORDED["last_line"]["attempted"]},
    ]
    steps = study["metrics"]["steps_per_s"]
    assert steps == {"unit": "1/ref_s", "median": 2400.0, "iqr": 100.0, "n": 3, "values": [2400.0, 2500.0, 2300.0]}
    # Faults per timed step: the recorded run timed 4784 steps.
    assert RECORDED["result_trace0"]["metrics"]["steps_per_s"]["samples"] == 4784
    assert study["metrics"]["faults_per_step"]["values"] == [1.0, 2.0, 0.0]
    # Every metric of the result file is kept, raw and host-scaled.
    assert set(study["metrics"]) == set(RECORDED["result_trace0"]["metrics"]) | {"faults_per_step"}
    setup = RECORDED["result_trace0"]["metrics"]["setup_s"]["value"]
    assert study["metrics"]["setup_s"] == {
        "unit": "s", "median": setup, "iqr": 0.0, "n": 3, "values": [setup] * 3,
    }


def test_document_holds_the_median_of_every_filter_run_pooled():
    # The recorded run's 16 filter runs, and two runs of 3 and 2 whose
    # pooled median (0.3) is the median of neither run's own (0.2, 0.45).
    recorded = RECORDED["result_trace0"]["series"]["filter_run_s"]
    doc = bench_record.bench_document([recorded_run(1, 2400.0, 0)], "c", False)
    assert doc["workloads"]["study"]["filter_run_s_pooled_median"] == statistics.median(recorded)
    runs = [recorded_run(1, 2400.0, 0, filter_runs=[0.1, 0.2, 0.3]), recorded_run(2, 2400.0, 0, filter_runs=[0.4, 0.5])]
    doc = bench_record.bench_document(runs, "c", False)
    assert doc["workloads"]["study"]["filter_run_s_pooled_median"] == 0.3


def test_one_run_has_no_spread():
    doc = bench_record.bench_document([recorded_run(1, 2400.0, 10)], "abc", dirty=False)
    assert doc["workloads"]["study"]["metrics"]["steps_per_s"]["iqr"] == 0.0


def test_compare_prints_each_change_and_warns_on_another_machine():
    old = bench_record.bench_document([recorded_run(1, 2000.0, 0), recorded_run(2, 2000.0, 0)], "a", False)
    new = bench_record.bench_document([recorded_run(1, 2200.0, 0), recorded_run(2, 2200.0, 0)], "b", False)
    lines = bench_record.compare(old, new)
    assert not any(line.startswith("warning") for line in lines)
    (steps,) = [line for line in lines if " steps_per_s " in line]
    assert "+10.00%" in steps
    new["machine"] = {**new["machine"], "cpu_model": "another"}
    lines = bench_record.compare(old, new)
    assert lines[0] == "warning: machine records differ in cpu_model"


def test_runs_read_the_last_line_and_the_result_file(tmp_path):
    # A stand-in benchmark that prints a header and the recorded last
    # line, and writes the recorded result file where run.py writes it.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "recorded.json").write_text(json.dumps(RECORDED))
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent("""
        import json, sys
        from pathlib import Path
        args = sys.argv[1:]
        assert args[args.index("--trace") + 1] == "0"
        assert args[args.index("--seconds") + 1] == "8.0"
        workload = args[args.index("--workload") + 1]
        recorded = json.loads(Path("perfbench/recorded.json").read_text())
        out = Path(".perfbench_runs") / workload
        out.mkdir(parents=True, exist_ok=True)
        (out / "result_trace0.json").write_text(json.dumps(recorded["result_trace0"]))
        print("# workload", workload, "seed", args[args.index("--seed") + 1])
        print(json.dumps(recorded["last_line"]))
    """))
    run = bench_record.run_benchmark(tmp_path, "study", 7)
    assert (run["workload"], run["seed"]) == ("study", 7)
    assert run["result"] == RECORDED["last_line"]
    assert run["record"] == RECORDED["result_trace0"]
    assert run["faults"] >= 0
    doc = bench_record.bench_document([run], "c", False)
    assert doc["workloads"]["study"]["runs"][0]["correct"] is RECORDED["last_line"]["correct"]


@pytest.mark.parametrize(
    "values, median, iqr", [([1.0, 2.0, 3.0, 4.0], 2.5, 1.5), ([5.0, 1.0, 3.0], 3.0, 2.0)]
)
def test_spread_is_the_inclusive_quartile_range(values, median, iqr):
    assert bench_record._spread(values) == {"median": median, "iqr": iqr, "n": len(values), "values": values}


END_TO_END = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]


def paired(
    parent_steps, change_steps, parent_setups=None, change_setups=None, parent_runs=None, change_runs=None,
    parent_probes=None, change_probes=None,
):
    """The printed lines of two series of recorded runs, one per
    ``steps_per_s`` value, the set-up and filter-run series and the probe
    times of each tree given or recorded."""
    def document(values, setups, filter_runs, probes):
        runs = [
            recorded_run(
                i + 1, v, 0, setups=setups and setups[i], filter_runs=filter_runs and filter_runs[i],
                probe_us=probes and probes[i],
            )
            for i, v in enumerate(values)
        ]
        return bench_record.bench_document(runs, "c", False)
    return bench_record.paired_lines(
        document(parent_steps, parent_setups, parent_runs, parent_probes),
        document(change_steps, change_setups, change_runs, change_probes),
        END_TO_END,
    )


def metric_line(lines, name):
    """The verdict line of the metric ``name``."""
    (line,) = [line for line in lines if line.split()[1] == name and "(bound " in line]
    return line


def steps_line(lines):
    (line,) = [line for line in lines if " steps_per_s " in line]
    return line


PARENT = [2000.0, 2010.0, 1990.0, 2005.0, 1995.0, 2000.0, 2002.0, 1998.0, 2001.0, 1999.0]


@pytest.mark.parametrize(
    "change, verdict, wins",
    [
        # 10% more steps per second in every pair: better.
        ([v * 1.1 for v in PARENT], "better", 10),
        # Better in 8 of 10 pairs only: not a claim, within the bound.
        ([v * 1.1 for v in PARENT[:8]] + [v * 0.9 for v in PARENT[8:]], "within bound", 8),
        # 30% fewer in every pair: the 24% bound is exceeded.
        ([v * 0.7 for v in PARENT], "worse", 0),
        ([v * 0.9 for v in PARENT], "within bound", 0),
    ],
)
def test_a_paired_metric_gets_one_verdict(change, verdict, wins):
    line = steps_line(paired(PARENT, change))
    assert line.endswith(f"{verdict} (bound 24%)")
    assert f"won {wins}/10" in line
    assert "2000 -> " in line and "(parent IQR 0.2%)" in line


def test_a_parent_spread_past_the_bound_is_unresolved():
    wide = [1000.0, 3000.0] * 5
    line = steps_line(paired(wide, [v * 0.7 for v in wide]))
    assert "(parent IQR 100.0%)" in line and line.endswith("unresolved (bound 24%)")


def test_unchanged_metrics_are_within_bound_and_each_tree_s_setup_and_filter_runs_are_printed():
    lines = paired(
        PARENT[:2], PARENT[:2], [[0.3, 0.2], [0.25, 0.4]], [[0.5, 0.6], [0.15, 0.7]],
        [[0.1, 0.2, 0.3], [0.4, 0.5]], [[0.2, 0.3], [0.4]],
    )
    names = ["probe.mean_us"] + [m["name"] for m in END_TO_END] + ["setup_s", "filter_run_s"]
    assert [line.split()[1] for line in lines] == names
    assert lines[0].endswith("us  calibration held")
    assert all(line.endswith(f"within bound (bound {m['bound'] * 100:g}%)") for line, m in zip(lines[1:], END_TO_END))
    assert lines[-2].split() == ["study", "setup_s", "minimum", "0.2", "->", "0.15", "s"]
    assert lines[-1].split() == [
        "study", "filter_run_s", "pooled", "median", "0.3", "->", "0.3", "s", "+0.0%",
        "(probe-free", "clock,", "not", "ref_s)",
    ]


def test_pairs_alternate_between_the_checkouts(tmp_path, monkeypatch):
    # Two stand-in checkouts that log each run: pair i runs seed i on
    # both, the parent first in the even pairs.
    calls = tmp_path / "calls.txt"
    roots = []
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "recorded.json").write_text(json.dumps(RECORDED))
        (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
            import json, sys
            from pathlib import Path
            args = sys.argv[1:]
            workload, seed = args[args.index("--workload") + 1], args[args.index("--seed") + 1]
            with open({str(calls)!r}, "a") as fh:
                fh.write(f"{name} {{workload}} {{seed}}\\n")
            recorded = json.loads(Path("perfbench/recorded.json").read_text())
            out = Path(".perfbench_runs") / workload
            out.mkdir(parents=True, exist_ok=True)
            (out / "result_trace0.json").write_text(json.dumps(recorded["result_trace0"]))
            print(json.dumps(recorded["last_line"]))
        """))
        roots.append(root)
    monkeypatch.setattr(bench_record, "PAIRS", 3)
    monkeypatch.setattr(bench_record, "WORKLOADS", ("study",))
    parent_runs, change_runs = bench_record.pair_runs(*roots)
    assert calls.read_text().split("\n")[:-1] == [
        "parent study 1", "change study 1", "change study 2", "parent study 2", "parent study 3", "change study 3",
    ]
    assert [run["seed"] for run in parent_runs] == [run["seed"] for run in change_runs] == [1, 2, 3]


@pytest.mark.parametrize("bare", ["root", "pair"])
def test_a_checkout_without_git_exits_before_any_run(tmp_path, monkeypatch, bare):
    # The change's checkout (a stand-in with .git) is read, then the
    # parent's; the one without .git stops the script before any run,
    # naming its root, and no BENCH file is written.
    ran = []
    monkeypatch.setattr(bench_record, "run_benchmark", lambda *args: ran.append(args))
    monkeypatch.setattr(bench_record, "_git", lambda root, *args: "abc123\n" if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_record, "source_digest", lambda root: "f00d")
    roots = {name: tmp_path / name for name in ("root", "pair")}
    for name, root in roots.items():
        root.mkdir()
        if name != bare:
            (root / ".git").mkdir()
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--out", str(out), "--root", str(roots["root"]), "--pair", str(roots["pair"])])
    assert exc.value.code == f"error: {roots[bare]}: not a git checkout (no .git)"
    assert not ran and not out.exists()


PROBES = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0, 1002.0, 998.0, 1001.0, 999.0]  # IQR 3.5 us


def test_a_moved_calibration_leaves_the_reference_scaled_metrics_unresolved():
    # 30% fewer steps per second would be worse, but the probe got 38%
    # faster in every pair, which alone moves every metric on the
    # reference scale: those read unresolved, with their raw medians, and
    # the set-up and memory keep their verdicts.
    faster = [p * 0.62 for p in PROBES]
    lines = paired(PARENT, [v * 0.7 for v in PARENT], parent_probes=PROBES, change_probes=faster)
    assert lines[0].split() == [
        "study", "probe.mean_us", "1000", "->", "620", "(parent", "IQR", "3.5)", "us", "calibration", "moved",
    ]
    raw = RECORDED["result_trace0"]["metrics"]
    for metric in END_TO_END:
        line = metric_line(lines, metric["name"])
        if "raw." + metric["name"] in raw:
            value, unit = raw["raw." + metric["name"]]["value"], raw["raw." + metric["name"]]["unit"]
            beside = f"raw {value:.5g} -> {value:.5g} {unit} +0.0%"
            assert line.endswith(f"unresolved (calibration moved) (bound 24%)  {beside}")
        else:
            assert metric["name"] in ("setup_s", "peak_rss_mb")
            assert line.endswith(f"within bound (bound {metric['bound'] * 100:g}%)")
    assert "won 0/10" in metric_line(lines, "steps_per_s")


def test_a_probe_within_the_parent_s_spread_keeps_the_verdicts():
    # The change's probe median moves 3 us, less than the parent's IQR.
    slower = [p + 3.0 for p in PROBES]
    lines = paired(PARENT, [v * 0.7 for v in PARENT], parent_probes=PROBES, change_probes=slower)
    assert lines[0].endswith("calibration held")
    assert metric_line(lines, "steps_per_s").endswith("worse (bound 24%)")
    assert not any("calibration moved" in line for line in lines)
