"""Regenerate the committed reference rates under perfbench/refs/.

    python3 perfbench/make_refs.py [--seeds 0-31] [--workload desk ...]

Runs each workload once per seed through the CLI (same child and thread
pinning as run.py) and stores every CSV's SHA-256 and its parsed
(point, slot, block, sum_rate) rows.  Only regenerate on a commit whose
rates are known to be right: run.py fails any CLI run whose sum_rate
deviates from these by more than 1e-9 relative.
"""
import argparse
import json
import shutil

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    parser.add_argument("--workload", nargs="*", default=sorted(run.WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        subcommand = run.WORKLOADS[name]
        run_dir = run.WORK / f"refs-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        seeds = {}
        for seed in args.seeds:
            config = run.workload_config(name, seed)
            config_path = run_dir / "config.json"
            with open(config_path, "w") as f:
                json.dump(config, f)
            sample, out_dir = run.invoke(run_dir, name, subcommand,
                                         config_path, False, 600.0)
            if sample["exit_code"] != 0:
                raise SystemExit(f"{name} seed {seed} failed:\n"
                                 f"{sample['log_tail']}")
            outputs = run.read_outputs(out_dir, subcommand,
                                       config["experiment"]["algorithms"])
            check = run.check_outputs(outputs, config, subcommand, None)
            if check["problems"]:
                raise SystemExit(f"{name} seed {seed}: {check['problems']}")
            seeds[str(seed)] = {
                csv_name: {"sha256": out["sha256"],
                           "rows": [row[:4] for row in out["rows"]]}
                for csv_name, out in sorted(outputs.items())}
            print(f"{name} seed {seed}: {sample['wall_s']:.2f} s", flush=True)
        env = run.environment()
        del env["loadavg_start"]
        write_refs(run.BENCH / "refs" / f"{name}.json",
                   {"workload": name, "subcommand": subcommand,
                    "environment": env, "seeds": seeds})


def write_refs(path, refs):
    """JSON with one line per seed, so a diff shows which seeds changed."""
    head = json.dumps({k: v for k, v in refs.items() if k != "seeds"})
    body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                       for seed, entry in refs["seeds"].items())
    with open(path, "w") as f:
        f.write(f'{head[:-1]}, "seeds": {{\n{body}\n}}}}\n')


if __name__ == "__main__":
    main()
