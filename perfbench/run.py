"""robustprec benchmark runner.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 30 --trace 0

Runs one workload (a robustprec CLI config under perfbench/workloads/) through
the real `robustprec` CLI, one fresh child process at a time (closed loop,
one client), for about --seconds seconds.  The workload's config seed is
--seed; nothing else changes with it.  Every CLI run's CSVs are checked:
all slots present, finite non-negative rates, bytes identical across the
runs of one invocation, and, where perfbench/refs/ holds the seed, every
sum_rate within 1e-9 relative of the committed reference.

--trace 0 reports the end-to-end metrics (medians over the CLI runs);
--trace 1 alternates traced and untraced CLI runs and reports the per-layer
metrics of the traced ones (see tracer.py).  A human-readable table goes
to stderr, a full record (environment, samples, digests, rates) to
.perfbench/<workload>-seed<seed>-trace<t>/result.json, and the last line of
stdout is the JSON result.  Exit code 0 on a completed run (check
"correct"), 2 when the run cannot start (no source tree, bad arguments).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = {"desk": "sweep", "paper-mc": "mismatch", "massive": "sweep"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RATE_TOL = 1e-9
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run.  (layer.function, stat) pairs read the
# span summary; the rest are counters, layer totals or derived values.
_FUNCTION_STATS = {
    "det_equiv.solve_fixed_point": ("calls", "self_s", "total_s"),
    "det_equiv.de_weighted_sum_rate": ("calls", "total_s"),
    "det_equiv.de_rate_form1": ("total_s",),
    "operators.hermitize": ("calls", "self_s"),
    "operators.mean_quadratic_tx": ("calls", "self_s", "total_s"),
    "operators.mean_quadratic_rx": ("calls", "self_s", "total_s"),
    "operators.interference_covariance": ("calls", "total_s"),
    "operators.expected_gram": ("total_s",),
    "mm_precoder.mm_full": ("calls", "total_s"),
    "mm_precoder.mm_shared": ("calls", "total_s"),
    "mm_precoder.mu_bisection": ("calls", "self_s"),
    "mm_precoder.signal_gain": ("total_s",),
    "mm_precoder.self_penalty": ("total_s",),
    "mm_precoder.self_penalty_lowrank": ("total_s",),
    "mm_precoder.leakage_penalty": ("total_s",),
    "posterior.PosteriorModel.sample": ("calls", "self_s"),
    "posterior.build_posterior": ("total_s",),
    "evaluation.monte_carlo_rate": ("calls", "self_s", "total_s"),
    "evaluation.prepare_slot": ("total_s",),
    "beam_domain.beam_power_allocation": ("calls", "total_s"),
    "beam_domain.beam_fixed_point": ("calls",),
    "baselines.rzf": ("total_s",),
    "baselines.robust_rzf": ("total_s",),
    "baselines.slnr": ("total_s",),
    "baselines.wmmse": ("total_s",),
    "channel.draw_slot": ("calls", "total_s"),
    "channel.generate_synthetic_stats": ("total_s",),
    "cli.main": ("total_s",),
}
_COUNTERS = ("det_equiv.sweeps", "det_equiv.fixed_point_errors",
             "mm_precoder.updates", "mm_precoder.bisection_errors",
             "evaluation.mc_samples", "evaluation.failed_slots",
             "beam_domain.sweeps", "trace.numerical_errors")
_LAYERS = ("config", "channel", "posterior", "operators", "det_equiv",
           "mm_precoder", "beam_domain", "baselines", "evaluation", "matio",
           "cli")
# Times of functions or layers that some workload never reaches read 0 there
# on every run, so they are kept in the record and the stderr table but not
# reported as metrics; the sums below stand in for them on every workload.
RECORD_ONLY = frozenset((
    "mm_precoder.mm_full.total_s", "mm_precoder.mm_shared.total_s",
    "mm_precoder.self_penalty.total_s",
    "mm_precoder.self_penalty_lowrank.total_s",
    "beam_domain.beam_power_allocation.total_s", "baselines.rzf.total_s",
    "baselines.robust_rzf.total_s", "baselines.slnr.total_s",
    "baselines.wmmse.total_s", "baselines.self_s", "config.self_s",
    "matio.self_s"))
_SUMS = {
    "mm_precoder.mm_ascent.total_s": ("mm_precoder.mm_full.total_s",
                                      "mm_precoder.mm_shared.total_s"),
    "mm_precoder.self_penalties.total_s": (
        "mm_precoder.self_penalty.total_s",
        "mm_precoder.self_penalty_lowrank.total_s"),
}
# Self-time share of cli.main that each workload is meant to be dominated by.
TARGET_SHARE = {
    "desk": (("det_equiv.self_s", "operators.self_s"), 0.40),
    "paper-mc": (("posterior.PosteriorModel.sample.self_s",
                  "evaluation.monte_carlo_rate.self_s"), 0.40),
    "massive": (("operators.mean_quadratic_tx.self_s",
                 "operators.mean_quadratic_rx.self_s"), 0.25),
}


def layer_units():
    """Every per-layer value with its unit, reported metrics and record-only."""
    units = {}
    for fn, stats in _FUNCTION_STATS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = "count" if stat == "calls" else "s"
    units.update(dict.fromkeys(_SUMS, "s"))
    units.update(dict.fromkeys(_COUNTERS, "count"))
    units.update({"det_equiv.sweeps_per_solve": "count",
                  "mm_precoder.converged_ratio": "ratio",
                  "cli.output_bytes": "bytes"})
    units.update((f"{layer}.self_s", "s") for layer in _LAYERS)
    units.update({"trace.overhead_s": "s", "trace.spans": "count",
                  "trace.target_self_share": "ratio"})
    return units


def per_layer_units():
    """The per-layer metrics a traced run reports, in report order."""
    return {k: u for k, u in layer_units().items() if k not in RECORD_ONLY}


class Abort(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def workload_config(name, seed=None):
    """The workload's CLI config; seed=None keeps its default seed."""
    with open(BENCH / "workloads" / f"{name}.json") as f:
        config = json.load(f)
    if seed is not None:
        config["system"]["seed"] = seed
    return config


def reference(name, seed):
    path = BENCH / "refs" / f"{name}.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)["seeds"].get(str(seed))


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except Exception as exc:  # older numpy: no dict mode
        blas = {"error": repr(exc)}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "threads": {v: "1" for v in THREAD_VARS},
            "loadavg_start": os.getloadavg()}


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv, log_path, timeout):
    """Run argv to completion; returns (exit code, wall s, rusage, launch).

    The child is killed (exit code None) if it outlives `timeout`.
    """
    launch = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - launch
        proc.returncode = os.waitstatus_to_exitcode(status)
    except _Timeout:
        proc.kill()
        _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = None
        wall = time.monotonic() - launch
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return proc.returncode, wall, usage, launch


def read_outputs(out_dir, subcommand, algorithms):
    """{csv name: {"sha256", "rows": [[point, slot, block, rate], ...]}}."""
    outputs = {}
    for alg in algorithms:
        name = f"{subcommand}_{alg.replace('-', '_')}.csv"
        path = out_dir / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        rows = []
        reader = csv.reader(data.decode().splitlines())
        next(reader, None)
        for row in reader:
            point, algorithm, slot, block, rate, err, seed = row
            rows.append([point, int(slot), int(block), float(rate),
                         float(err), algorithm, int(seed)])
        outputs[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                         "rows": rows}
    return outputs


def check_outputs(outputs, config, subcommand, ref):
    """Correctness of one CLI run's CSVs; returns a dict with `problems`."""
    system, plan = config["system"], config["experiment"]
    values = plan["assumed_alphas"] if subcommand == "mismatch" \
        else system["snr_db"]
    points = [repr(float(v)) for v in values]
    slots = range(plan["n_slots"])
    blocks = range(2, system["n_b"] + 1)
    problems = []
    missing_slots = set()
    worst = 0.0
    for alg in plan["algorithms"]:
        name = f"{subcommand}_{alg.replace('-', '_')}.csv"
        rows = outputs.get(name, {"rows": []})["rows"]
        if name not in outputs:
            problems.append(f"{name} missing")
        seen = {}
        for point, slot, block, rate, err, algorithm, seed in rows:
            seen[(point, slot, block)] = rate
            if algorithm != alg or seed != system["seed"]:
                problems.append(f"{name}: row labelled {algorithm}/{seed}")
            if not (math.isfinite(rate) and rate >= 0
                    and math.isfinite(err) and err >= 0):
                problems.append(f"{name}: bad rate {rate} stderr {err}")
        for p in points:
            for s in slots:
                if any((p, s, b) not in seen for b in blocks):
                    missing_slots.add((p, s))
        if ref is not None and name in ref:
            for point, slot, block, rate in ref[name]["rows"]:
                got = seen.get((point, slot, block))
                if got is not None:
                    worst = max(worst, abs(got - rate) / max(abs(rate), 1e-300))
            if len(ref[name]["rows"]) != len(rows):
                problems.append(f"{name}: {len(rows)} rows, reference has "
                                f"{len(ref[name]['rows'])}")
    if missing_slots:
        problems.append(f"{len(missing_slots)} slot(s) missing")
    if worst > RATE_TOL:
        problems.append(f"sum_rate deviates {worst:.3e} > {RATE_TOL:.0e} "
                        "from the reference")
    return {"failed_slot_ratio": len(missing_slots) / (len(points) * len(slots)),
            "rate_rel_err_max": worst if ref is not None else None,
            "bytes_identical": (None if ref is None else all(
                outputs.get(n, {}).get("sha256") == r["sha256"]
                for n, r in ref.items())),
            "problems": problems}


def output_bytes(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def invoke(run_dir, workload, subcommand, config_path, traced, timeout):
    """One CLI run in a fresh child; returns its sample dict and outputs."""
    out_dir = run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    stamp_path = run_dir / "stamp.json"
    stamp_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(stamp_path)]
    if traced:
        argv += ["--trace", str(run_dir / "spans.json")]
    argv += ["--", subcommand, "-c", str(config_path), "--out-dir",
             str(out_dir)]
    code, wall, usage, launch = run_child(argv, run_dir / "child.log", timeout)
    sample = {"exit_code": code, "traced": traced, "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if code == 0 and stamp_path.is_file():
        with open(stamp_path) as f:
            stamp = json.load(f)
        sample["setup_s"] = stamp["setup_done"] - launch
        sample["main_s"] = stamp["main_s"]
        sample["output_bytes"] = output_bytes(out_dir)
        if traced:
            sample["trace"] = stamp["trace"]
    else:
        log = (run_dir / "child.log").read_text(errors="replace")
        sample["log_tail"] = log[-2000:]
    return sample, out_dir


def layer_metrics(sample, workload):
    """Per-layer metric values of one traced CLI run."""
    trace = sample["trace"]
    funcs, counters = trace["functions"], trace["counters"]
    values = {}
    for fn, stats in _FUNCTION_STATS.items():
        for stat in stats:
            values[f"{fn}.{stat}"] = funcs[fn][stat]
    for name in _COUNTERS:
        values[name] = counters.get(name, 0)
    solves = funcs["det_equiv.solve_fixed_point"]["calls"]
    values["det_equiv.sweeps_per_solve"] = (
        counters.get("det_equiv.sweeps", 0) / solves if solves else 0.0)
    reports = counters.get("mm_precoder.reports", 0)
    values["mm_precoder.converged_ratio"] = (
        counters.get("mm_precoder.converged", 0) / reports if reports else 0.0)
    values["cli.output_bytes"] = sample["output_bytes"]
    for name, parts in _SUMS.items():
        values[name] = sum(values[p] for p in parts)
    for layer in _LAYERS:
        values[f"{layer}.self_s"] = trace["layer_self_s"][layer]
    values["trace.spans"] = trace["n_spans"]
    parts, _ = TARGET_SHARE[workload]
    values["trace.target_self_share"] = (
        sum(values[p] for p in parts) / values["cli.main.total_s"])
    return values


def measure(args, subcommand, config, config_path, run_dir, start):
    """The measuring loop; returns (samples, per-run output records)."""
    samples, outputs = [], []
    while True:
        elapsed = time.monotonic() - start
        runs = [s for s in samples if not s["traced"]]
        # stop where the next CLI run would end closer past --seconds than
        # this point is short of it
        typical = median([s["wall_s"] for s in samples]) if samples else 0.0
        if len(runs) >= MIN_RUNS and elapsed + 0.5 * typical >= args.seconds:
            break
        traced = bool(args.trace) and len(runs) > len(samples) - len(runs)
        sample, out_dir = invoke(run_dir, args.workload, subcommand,
                                 config_path, traced,
                                 DEADLINE_S - elapsed)
        samples.append(sample)
        outputs.append(read_outputs(out_dir, subcommand,
                                    config["experiment"]["algorithms"]))
        if sample["exit_code"] is None:  # killed at the deadline
            break
    return samples, outputs


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "robustprec" / "cli.py").is_file():
        raise Abort(f"no robustprec source tree at {SRC}")
    if args.seed < 0:
        raise Abort("--seed must be >= 0")

    subcommand = WORKLOADS[args.workload]
    config = workload_config(args.workload, args.seed)
    ref = reference(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    with open(config_path, "w") as f:
        json.dump(config, f, indent=2)
    env = environment()

    # fill the bytecode and file caches, which every later CLI run reuses
    code, *_ = run_child([sys.executable, "-c", "import robustprec.cli"],
                         run_dir / "child.log", 60.0)
    if code != 0:
        raise Abort("cannot import robustprec.cli: "
                    + (run_dir / "child.log").read_text(errors="replace"))

    samples, outputs = measure(args, subcommand, config, config_path,
                               run_dir, start)
    checks = [check_outputs(o, config, subcommand, ref) for o in outputs]
    digests = [{n: o[n]["sha256"] for n in sorted(o)} for o in outputs]
    deterministic = all(d == digests[0] for d in digests)
    failed = sum(s["exit_code"] != 0 or bool(c["problems"])
                 for s, c in zip(samples, checks))
    untraced = [s for s in samples if s["exit_code"] == 0 and not s["traced"]]
    traced = [s for s in samples if s["exit_code"] == 0 and s["traced"]]

    if args.trace:
        per_run = [layer_metrics(s, args.workload) for s in traced]
        everything = layer_units()
        counts = [{k: v[k] for k, u in everything.items()
                   if u in ("count", "bytes")} for v in per_run]
        counts_repeat = all(c == counts[0] for c in counts)
        values = {k: median([v[k] for v in per_run]) if u in ("s", "ratio")
                  else (per_run[0][k] if per_run else float("nan"))
                  for k, u in everything.items() if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            values["cli.main.total_s"] - median([s["main_s"] for s in untraced]))
        units = per_layer_units()
    else:
        counts_repeat = True
        everything = units = END_TO_END
        values = {k: median([s[k] for s in untraced]) for k in units}

    correct = (failed == 0 and deterministic and counts_repeat
               and bool(untraced) and (bool(traced) or not args.trace))
    # a value with no sample behind it (only on a failed run) becomes null,
    # which keeps the result line valid JSON
    metrics = {k: {"value": values[k] if math.isfinite(values[k]) else None,
                   "unit": units[k]} for k in units}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "subcommand": subcommand, "config": config,
        "environment": env, "reference_seed": ref is not None,
        "correct": correct, "deterministic": deterministic,
        "counts_repeat": counts_repeat, "failed": failed,
        "rate_rel_err_max": max((c["rate_rel_err_max"] for c in checks
                                 if c["rate_rel_err_max"] is not None),
                                default=None),
        "failed_slot_ratio": max((c["failed_slot_ratio"] for c in checks),
                                 default=None),
        "bytes_identical": [c["bytes_identical"] for c in checks],
        "problems": sorted({p for c in checks for p in c["problems"]}),
        "outputs": outputs[0] if outputs else {},
        "metrics": metrics,
        "record_only": {k: {"value": values[k], "unit": everything[k]}
                        for k in everything if k not in units},
        "samples": samples,
        "elapsed_s": time.monotonic() - start,
    }
    record["environment"]["loadavg_end"] = os.getloadavg()
    if args.trace:
        parts, floor = TARGET_SHARE[args.workload]
        record["target_share"] = {"parts": parts, "floor": floor,
                                  "value": values["trace.target_self_share"]}
    with open(run_dir / "result.json", "w") as f:
        json.dump(record, f, indent=1)

    report(record, run_dir)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record, run_dir):
    """Human-readable summary on stderr."""
    err = sys.stderr
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {len(record['samples'])} CLI run(s), "
          f"{record['failed']} failed, correct={record['correct']}", file=err)
    print(f"  python {env['python']} numpy {env['numpy']} scipy "
          f"{env['scipy']} blas {env['blas'].get('name')} "
          f"{env['blas'].get('version')}; nproc {env['nproc']}; "
          f"{env['cpu_model']}; threads pinned to 1", file=err)
    print(f"  rate_rel_err_max {record['rate_rel_err_max']} "
          f"(reference {'yes' if record['reference_seed'] else 'no'}), "
          f"failed_slot_ratio {record['failed_slot_ratio']}, "
          f"deterministic {record['deterministic']}", file=err)
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=err)
    for sample in record["samples"]:
        if "log_tail" in sample:
            print(f"  child failed (exit {sample['exit_code']}):\n"
                  f"{sample['log_tail']}", file=err)
    if "target_share" in record:
        t = record["target_share"]
        print(f"  target self share {t['value']:.3f} (floor {t['floor']}) "
              f"from {' + '.join(t['parts'])}", file=err)
    for name, m in record["metrics"].items():
        value = float("nan") if m["value"] is None else m["value"]
        print(f"  {name:<44} {value:>14.6g} {m['unit']}", file=err)
    if record["record_only"]:
        print("  record only (0 on workloads that never reach them):",
              file=err)
    for name, m in record["record_only"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}", file=err)
    print(f"  record: {run_dir / 'result.json'}", file=err)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
