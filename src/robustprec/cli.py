"""Batch front end: config parsing, experiment dispatch, result emission.

Subcommands: sweep (rate vs SNR), converge (per-iteration optimizer trace),
mismatch (design under an assumed aging coefficient, score under the truth),
validate-config.  The CLI parses, dispatches, builds rows and maps errors
to exit codes: every number in an output file comes from a library call,
floats are written as repr(), and every file is written by `matio`, so
reruns are byte-identical.

Config file: JSON with sections "system" (SystemConfig fields), "profile"
(BeamProfile fields) and "experiment" (ExperimentPlan fields).  A previously
written run_manifest.json is also accepted; its resolved config is reused.
Exit codes: 0 success, 2 config error (an output file that cannot be
written is one), 3 numerical failure (an error.json is left in the output
directory when one is known and it can be written).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import BeamProfile
from .config import SystemConfig
from .errors import ConfigError, NumericalError
from .evaluation import (
    ALGORITHMS,
    ExperimentPlan,
    alpha_mismatch_study,
    convergence_study,
    experiment_statistics,
    sweep_points,
    sweep_snr,
)
from .matio import write_complex_csv, write_csv, write_json


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in config")
        out[key] = value
    return out


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    except ConfigError:
        raise
    except (RecursionError, ValueError) as e:  # deep nesting, a huge int
        raise ConfigError(f"config file {path} cannot be parsed: {e}")


def _check_keys(section, data, allowed, required=()):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in section {section!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing key {key!r} in section {section!r}")


def _section(name, data, cls, lead=""):
    """cls built from the config section data; its keys are cls's fields,
    and a field without a default is required."""
    if not isinstance(data, dict):
        raise ConfigError(f"{lead}section {name!r} must be an object")
    fields = dataclasses.fields(cls)
    _check_keys(name, data, [f.name for f in fields],
                [f.name for f in fields if f.default is dataclasses.MISSING])
    return cls(**data)


def parse_config(path):
    """Read and validate a config (or manifest) file.

    Returns (SystemConfig, BeamProfile, ExperimentPlan).
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # a run manifest wraps the resolved config
    _check_keys("<root>", data, ("system", "profile", "experiment"),
                required=("system",))
    cfg = _section("system", data["system"], SystemConfig)
    plan = _section("experiment", data.get("experiment", {}), ExperimentPlan)
    # read last, so an error in another section is the one reported
    profile = _section("profile", data.get("profile"), BeamProfile,
                       lead="a beam profile is required: ")
    profile.resolve(cfg)  # the fields; an overflow shows only in a draw
    return cfg, profile, plan


def _resolved_config(cfg, profile, plan):
    return {"system": dataclasses.asdict(cfg),
            "profile": dataclasses.asdict(profile),
            "experiment": dataclasses.asdict(plan)}


def _fmt(x):
    return repr(float(x))


def _environment():
    """What the output bytes depend on beside the config: numpy, the BLAS
    it was built with, and the BLAS thread counts as set (None if unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _write_manifest(out_dir, subcommand, cfg, profile, plan, outputs):
    path = out_dir / "run_manifest.json"
    write_json(path, {
        "tool": "robustprec",
        "version": __version__,
        "subcommand": subcommand,
        "seed": cfg.seed,
        "algorithms": list(plan.algorithms),
        "config": _resolved_config(cfg, profile, plan),
        "outputs": sorted(outputs),
        "environment": _environment(),
    })
    return path


def _run_study(cfg, profile, plan, out_dir, args):
    """sweep (rate vs SNR) or mismatch (rate vs assumed aging): one CSV per
    algorithm, one row per (point, slot, block)."""
    if args.subcommand == "sweep":
        column = "snr_db"
        results = sweep_snr(cfg, profile, plan)
    else:
        column = "assumed_alpha"
        results = alpha_mismatch_study(cfg, profile, plan)
    per_alg = {a: [] for a in plan.algorithms}
    for point, result in results:
        for rec in result.records:
            per_alg[rec.algorithm].append(
                [_fmt(point), rec.algorithm, rec.slot, rec.block,
                 _fmt(rec.rate), _fmt(rec.stderr), cfg.seed])
    if not any(per_alg.values()):
        cause = next(r.first_error for _, r in results if r.first_error)
        raise NumericalError("every slot failed; no rates were produced; "
                             f"first failure: {type(cause).__name__}: "
                             f"{cause}") from cause
    for alg in plan.algorithms:
        if not per_alg[alg]:
            print(f"warning: {alg} produced no rates (every slot failed)",
                  file=sys.stderr)
    header = [column, "algorithm", "slot", "block", "sum_rate", "stderr",
              "seed"]
    outputs = []
    for alg in plan.algorithms:
        name = f"{args.subcommand}_{alg.replace('-', '_')}.csv"
        write_csv(out_dir / name, header, per_alg[alg])
        outputs.append(name)
    return outputs


def _run_converge(cfg, profile, plan, out_dir, args):
    """converge: per MM ascent, its objective trace, its precoders, its
    beam allocation if it has one, and with --trace its DE diagnostics."""
    outputs = []

    def emit(name, header, rows):
        write_csv(out_dir / name, header, rows)
        outputs.append(name)

    for alg, alloc, report in convergence_study(cfg, profile, plan):
        rows = [[0, _fmt(report.objective[0]), "", ""]]
        for i in range(report.updates):
            rows.append([i + 1, _fmt(report.objective[i + 1]),
                         _fmt(report.mu_trace[i]), _fmt(report.power_trace[i])])
        emit(f"converge_{alg}.csv", ["iteration", "de_objective", "mu",
                                     "power"], rows)
        name = f"precoders_{alg}.csv"
        write_complex_csv(out_dir / name, {f"user{k}": p for k, p in
                                           enumerate(report.precoders)})
        outputs.append(name)
        if alloc is not None:
            emit(f"allocation_{alg}.csv", ["user", "beam", "power"],
                 [[k, int(b), _fmt(g * g)] for k in range(len(alloc.gains))
                  for b, g in zip(alloc.active_beams(k), alloc.gains[k])])
        if plan.trace:
            emit(f"de_trace_{alg}.csv", ["update", "user", "sweeps",
                                         "residual"],
                 [[u, k, s, _fmt(r)] for u, k, s, r in report.de_trace])
    return outputs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="robustprec",
        description="Robust downlink precoding experiments (batch runner).")
    parser.add_argument("--version", action="version",
                        version=f"robustprec {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_out=True):
        p.add_argument("-c", "--config", required=True,
                       help="JSON config or run_manifest.json")
        if needs_out:
            p.add_argument("--out-dir", required=True,
                           help="directory for CSVs and run_manifest.json")
            p.add_argument("--seed", type=int, default=None,
                           help="override system.seed")
            p.add_argument("--algorithms", default=None,
                           help="comma list: " + ",".join(ALGORITHMS))

    sweep = sub.add_parser("sweep", help="rate vs SNR")
    common(sweep)
    converge = sub.add_parser("converge",
                              help="per-iteration optimizer trace")
    common(converge)
    converge.add_argument("--trace", action="store_true",
                          help="also write per-solve DE diagnostics")
    mismatch = sub.add_parser("mismatch",
                              help="design under assumed aging, score under truth")
    common(mismatch)
    validate = sub.add_parser("validate-config", help="parse and echo a config")
    common(validate, needs_out=False)
    return parser


_RUNNERS = {"sweep": _run_study, "converge": _run_converge,
            "mismatch": _run_study}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = None
    try:
        if getattr(args, "out_dir", None) is not None:
            out_dir = Path(args.out_dir)
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"--out-dir {out_dir} cannot be created: "
                                  f"{e.strerror or e}")
        cfg, profile, plan = parse_config(args.config)
        if getattr(args, "algorithms", None) is not None:
            plan = dataclasses.replace(plan, algorithms=tuple(
                a.strip() for a in args.algorithms.split(",") if a.strip()))
        plan.check(cfg)
        if args.subcommand == "validate-config":
            sweep_points(cfg, plan)
            experiment_statistics(cfg, profile)
            json.dump(_resolved_config(cfg, profile, plan), sys.stdout,
                      indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if getattr(args, "trace", False):
            plan = dataclasses.replace(plan, trace=True)
        outputs = _RUNNERS[args.subcommand](cfg, profile, plan, out_dir, args)
        manifest = _write_manifest(out_dir, args.subcommand, cfg, profile,
                                   plan, outputs)
        print(f"wrote {len(outputs)} file(s) + {manifest.name} to {out_dir}")
        return 0
    except ConfigError as e:
        _report_error(out_dir, "ConfigError", e)
        return 2
    except NumericalError as e:
        _report_error(out_dir, type(e).__name__, e)
        return 3


def _report_error(out_dir, kind, exc):
    print(f"error: {exc}", file=sys.stderr)
    if out_dir is not None and out_dir.is_dir():
        try:
            write_json(out_dir / "error.json",
                       {"error": kind, "message": str(exc)})
        except ConfigError:
            pass  # the message is on stderr already


if __name__ == "__main__":
    sys.exit(main())
