"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

Each workload runs shrunk to a single slot.  Slot seeds are independent of
the slot count, so a single-slot run must reproduce slot 0 of the
committed reference exactly.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

SELFTEST = run.WORK / "selftest"


def _single_slot(name):
    """Shrunk workload config at its default seed, written to disk, and
    the slot-0 part of its committed reference."""
    config = run.workload_config(name)
    config["experiment"]["n_slots"] = 1
    seed = config["system"]["seed"]
    with open(run.BENCH / "refs" / f"{name}.json") as f:
        refs = json.load(f)["seeds"]
    run_dir = SELFTEST / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    path = run_dir / "config.json"
    with open(path, "w") as f:
        json.dump(config, f)
    ref = {csv_name: {"sha256": None,
                      "rows": [r for r in out["rows"] if r[1] == 0]}
           for csv_name, out in refs[str(seed)].items()}
    return config, path, run_dir, ref


def _invoke(name, traced=False):
    config, path, run_dir, ref = _single_slot(name)
    subcommand = run.WORKLOADS[name]
    sample, out_dir = run.invoke(run_dir, name, subcommand, path, traced,
                                 150.0)
    assert sample["exit_code"] == 0, sample.get("log_tail")
    outputs = run.read_outputs(out_dir, subcommand,
                               config["experiment"]["algorithms"])
    return config, sample, outputs, ref


@pytest.fixture(scope="module")
def desk_run():
    return _invoke("desk")


@pytest.mark.parametrize("name", ["paper-mc", "massive"])
def test_single_slot_matches_reference(name):
    config, sample, outputs, ref = _invoke(name)
    check = run.check_outputs(outputs, config, run.WORKLOADS[name], ref)
    assert check["problems"] == []
    assert check["rate_rel_err_max"] == 0.0
    assert check["failed_slot_ratio"] == 0.0


def test_desk_single_slot_matches_reference(desk_run):
    config, sample, outputs, ref = desk_run
    check = run.check_outputs(outputs, config, "sweep", ref)
    assert check["problems"] == []
    assert check["rate_rel_err_max"] == 0.0
    assert sample["setup_s"] > 0 and sample["wall_s"] > sample["setup_s"]


def test_perturbed_rate_fails_the_check(desk_run):
    config, _, outputs, ref = desk_run
    bad = json.loads(json.dumps(outputs))
    bad["sweep_alg1.csv"]["rows"][0][3] *= 1.0 + 1e-6
    check = run.check_outputs(bad, config, "sweep", ref)
    assert check["rate_rel_err_max"] == pytest.approx(1e-6, rel=1e-3)
    assert any("deviates" in p for p in check["problems"])


def test_dropped_row_fails_the_check(desk_run):
    config, _, outputs, ref = desk_run
    dropped = json.loads(json.dumps(outputs))
    del dropped["sweep_rzf.csv"]["rows"][-1]
    check = run.check_outputs(dropped, config, "sweep", ref)
    assert check["failed_slot_ratio"] == 1.0
    assert check["problems"]
    # and without a reference the missing slot is still caught
    assert run.check_outputs(dropped, config, "sweep", None)["problems"]


def test_traced_counts_repeat_exactly():
    counted = [n for n, u in run.layer_units().items()
               if u in ("count", "bytes")]
    runs = [run.layer_metrics(_invoke("desk", traced=True)[1], "desk")
            for _ in range(2)]
    assert [runs[0][n] for n in counted] == [runs[1][n] for n in counted]
    assert runs[0]["det_equiv.sweeps"] > 0
    assert runs[0]["mm_precoder.updates"] > 0
    assert runs[0]["evaluation.mc_samples"] == 8 * 500 * 2 * 3


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_reported_time_is_nonzero(name):
    config, sample, outputs, ref = _invoke(name, traced=True)
    values = run.layer_metrics(sample, name)
    check = run.check_outputs(outputs, config, run.WORKLOADS[name], ref)
    assert check["problems"] == []  # tracing leaves the rates unchanged
    for metric, unit in run.per_layer_units().items():
        if unit == "s" and metric != "trace.overhead_s":
            assert values[metric] > 0, metric


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.per_layer_units()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_fails_without_a_source_tree():
    bare = SELFTEST / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "desk", "--seed", "7", "--seconds", "1",
                           "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
