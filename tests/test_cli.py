"""CLI tests: config validation, file contracts, determinism, exit codes."""
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import robustprec
from robustprec import cli, det_equiv, errors, evaluation, mm_precoder
from robustprec.beam_domain import canonical_allocation
from robustprec.errors import ConfigError, NumericalError
from robustprec.evaluation import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ExperimentPlan,
    convergence_study,
)
from robustprec.matio import read_complex_csv
from robustprec.operators import interference_covariance

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

BASE = {
    "system": {"m_t": 8, "m_k": [2, 2], "n_b": 2, "sigma2_z": 0.1,
               "seed": 3, "snr_db": [0.0, 10.0]},
    "profile": {"band_width": 4, "lognorm_sigma": 0.4, "alphas": 0.9},
    "experiment": {"algorithms": ["alg3", "rzf"], "n_slots": 1, "n_mc": 40,
                   "mm_iters": 3},
}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_validate_config_echoes_resolution(tmp_path, capsys):
    cfgfile = _write_config(tmp_path, BASE)
    assert cli.main(["validate-config", "-c", cfgfile]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["system"]["m_t"] == 8
    assert echoed["system"]["d_k"] == [2, 2]  # defaults resolved
    assert echoed["experiment"]["algorithms"] == ["alg3", "rzf"]


@pytest.mark.parametrize("workload", sorted(p.name for p in
                                             WORKLOADS.glob("*.json")))
def test_benchmark_workloads_validate(workload, capsys):
    assert cli.main(["validate-config", "-c", str(WORKLOADS / workload)]) == 0
    assert json.loads(capsys.readouterr().out)["system"]


def test_validate_config_applies_the_full_rank_rule(tmp_path, capsys):
    bad = dict(BASE, system=dict(BASE["system"], d_k=[1, 1]),
               experiment=dict(BASE["experiment"], algorithms=["rzf"]))
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "rzf requires d_k == m_k" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, message", [
    ("sweep", "no SNR points given (set snr_db)"),
    ("mismatch", "mismatch needs experiment.assumed_alphas"),
    ("converge", "converge supports alg1, alg2, alg3; got 'rzf'"),
])
def test_per_subcommand_rules_are_not_checked_by_validate_config(
        tmp_path, capsys, subcommand, message):
    # validate-config takes no subcommand, so it cannot apply these rules
    data = {"system": {"m_t": 8, "m_k": [2, 2], "n_b": 2},
            "profile": {"band_width": 4},
            "experiment": {"algorithms": ["rzf"], "n_slots": 1, "n_mc": 10}}
    cfgfile = _write_config(tmp_path, data)
    assert cli.main(["validate-config", "-c", cfgfile]) == 0
    out = tmp_path / "out"
    assert cli.main([subcommand, "-c", cfgfile, "--out-dir", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"] == message
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_duplicate_key_is_rejected_by_name(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"system": {"m_t": 8, "m_t": 16, "m_k": [2]}}')
    assert cli.main(["validate-config", "-c", str(path)]) == 2
    assert "duplicate key 'm_t'" in capsys.readouterr().err


def test_unknown_key_is_rejected_by_name(tmp_path, capsys):
    bad = {"system": dict(BASE["system"], bogus=1), "profile": BASE["profile"]}
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "'bogus'" in capsys.readouterr().err


# a section's keys are its dataclass's fields, and a field without a
# default is required
@pytest.mark.parametrize("section, value, message", [
    ("system", [8], "section 'system' must be an object"),
    ("experiment", 3, "section 'experiment' must be an object"),
    ("profile", [4], "a beam profile is required: section 'profile' must "
                     "be an object"),
    ("system", {"m_k": [2, 2]}, "missing key 'm_t' in section 'system'"),
    ("system", {"m_t": 8}, "missing key 'm_k' in section 'system'"),
    ("profile", {"alphas": 0.9},
     "missing key 'band_width' in section 'profile'"),
    ("profile", dict(BASE["profile"], m_t=8),
     "unknown key 'm_t' in section 'profile'"),
    ("experiment", dict(BASE["experiment"], seed=1),
     "unknown key 'seed' in section 'experiment'"),
])
def test_section_keys_follow_its_fields(tmp_path, capsys, section, value,
                                        message):
    data = dict(BASE, **{section: value})
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pilot_capacity_error(tmp_path, capsys):
    bad = {"system": dict(BASE["system"], block_len=3)}
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "pilot capacity exceeded" in capsys.readouterr().err


def test_plan_field_validation(tmp_path, capsys):
    bad = dict(BASE, experiment=dict(BASE["experiment"], load_scale=-0.5))
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "load_scale" in capsys.readouterr().err
    bad = dict(BASE, experiment=dict(BASE["experiment"], trace="yes"))
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "trace" in capsys.readouterr().err


# values of the wrong type for their key
@pytest.mark.parametrize("section, key, value, subcommand", [
    ("system", "m_t", "x", "sweep"),
    ("system", "m_k", 2, "sweep"),
    ("system", "snr_db", ["x"], "sweep"),
    ("system", "p_total", "x", "sweep"),
    ("system", "sigma2_bs", "a", "sweep"),
    ("profile", "band_width", "x", "sweep"),
    ("profile", "alphas", "x", "sweep"),
    ("profile", "lognorm_sigma", "x", "sweep"),
    ("experiment", "snr_db", ["x"], "sweep"),
    ("experiment", "snr_db", [None], "sweep"),
    ("experiment", "assumed_alphas", 0.9, "mismatch"),
    ("experiment", "assumed_alphas", [[1.0, 0.8]], "mismatch"),
    ("experiment", "assumed_alphas", ["x"], "mismatch"),
    ("experiment", "algorithms", 5, "sweep"),
    ("experiment", "algorithms", [["alg1"]], "sweep"),
    ("experiment", "algorithms", "alg1", "sweep"),
    ("experiment", "algorithms", [], "sweep"),
    ("experiment", "algorithms", ["rzf", "rzf"], "sweep"),
])
def test_malformed_value_is_a_config_error_naming_the_key(
        tmp_path, capsys, section, key, value, subcommand):
    data = dict(BASE, **{section: dict(BASE[section], **{key: value})})
    cfgfile = _write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([subcommand, "-c", cfgfile, "--out-dir", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert key in record["message"]
    capsys.readouterr()
    assert cli.main(["validate-config", "-c", cfgfile]) == 2
    assert key in capsys.readouterr().err


# booleans, non-finite numbers, fractional counts and profile values that
# do not fit the system
@pytest.mark.parametrize("section, key, value", [
    ("system", "m_t", 8.7),
    ("system", "m_k", [2, 2.9]),
    ("system", "seed", True),
    ("system", "sigma2_bs", float("nan")),
    ("system", "weights", [float("nan"), 1.0]),
    ("system", "p_total", float("inf")),
    ("profile", "band_width", "x"),
    ("profile", "band_width", [4, 4, 4]),
    ("profile", "alphas", 1.5),
    ("profile", "decay", float("nan")),
    ("experiment", "n_slots", True),
    ("experiment", "load_scale", float("nan")),
    ("experiment", "snr_db", [float("-inf")]),
    ("system", "n_b", 1),
    ("system", "snr_db", [-1e6]),
    ("experiment", "snr_db", [1e6]),
])
def test_strict_value_is_a_config_error_naming_the_key(
        tmp_path, capsys, section, key, value):
    data = dict(BASE, **{section: dict(BASE[section], **{key: value})})
    cfgfile = _write_config(tmp_path, data)
    assert cli.main(["validate-config", "-c", cfgfile]) == 2
    assert key in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert key in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("section", ["system", "experiment"])
@pytest.mark.parametrize("subcommand", ["converge", "mismatch"])
def test_snr_points_are_read_only_by_sweep(tmp_path, section, subcommand):
    # converge and mismatch run at system.sigma2_z, so an SNR point with no
    # usable noise variance leaves their CSVs as they are
    csvs = []
    for snr in (10, 1e6):
        data = dict(BASE, **{section: dict(BASE[section], snr_db=[snr])})
        data["experiment"] = dict(data["experiment"], algorithms=["alg1"],
                                  assumed_alphas=[1.0, 0.8])
        out = tmp_path / f"out{snr}"
        assert cli.main([subcommand, "-c", _write_config(
            tmp_path, data, f"config{snr}.json"), "--out-dir", str(out)]) == 0
        csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert csvs[0] and csvs[0] == csvs[1]


def test_config_without_a_profile_is_a_config_error(tmp_path, capsys):
    data = {key: val for key, val in BASE.items() if key != "profile"}
    cfgfile = _write_config(tmp_path, data)
    assert cli.main(["validate-config", "-c", cfgfile]) == 2
    assert "'profile'" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "'profile'" in record["message"]


def test_config_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    assert cli.main(["validate-config", "-c", str(tmp_path)]) == 2
    assert "cannot be read" in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a chmod 000 file stays readable to root, so open itself refuses
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    cfgfile = _write_config(tmp_path, BASE)
    assert cli.main(["validate-config", "-c", cfgfile]) == 2
    assert "cannot be read: Permission denied" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"system": {"m_t": 8, "m_k": [2]}, "note": "\u00e9"}'
                     .encode("latin-1"))
    assert cli.main(["validate-config", "-c", str(path)]) == 2
    assert "is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # past the decoder's recursion limit
    '{"system": {"m_t": ' + "9" * 4301 + "}}",  # past int's 4300 digits
], ids=["100000-deep", "4301-digit-int"])
def test_config_the_json_decoder_cannot_parse_is_a_config_error(
        tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", str(path), "--out-dir", str(out)]) == 2
    assert "cannot be parsed" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and str(path) in record["message"]


def test_out_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfgfile = _write_config(tmp_path, BASE)
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(taken)]) == 2
    assert "--out-dir" in capsys.readouterr().err
    assert taken.read_text() == ""


@pytest.mark.parametrize("subcommand, algorithm, taken", [
    ("sweep", "rzf", "sweep_rzf.csv"),
    ("sweep", "rzf", "run_manifest.json"),
    ("converge", "alg3", "converge_alg3.csv"),
    ("converge", "alg3", "precoders_alg3.csv"),
])
def test_unwritable_output_file_is_a_config_error_naming_it(
        tmp_path, capsys, subcommand, algorithm, taken):
    # a directory where an output file goes cannot be opened for writing
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    assert cli.main([subcommand, "-c", _write_config(tmp_path, BASE),
                     "--out-dir", str(out), "--algorithms", algorithm]) == 2
    assert f"output file {out / taken} cannot be written" in (
        capsys.readouterr().err)
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert taken in record["message"]


def test_unwritable_error_record_leaves_the_message_on_stderr(tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    (out / "sweep_rzf.csv").mkdir(parents=True)
    (out / "error.json").mkdir()
    assert cli.main(["sweep", "-c", _write_config(tmp_path, BASE),
                     "--out-dir", str(out), "--algorithms", "rzf"]) == 2
    assert "sweep_rzf.csv cannot be written" in capsys.readouterr().err


def test_seed_above_2_53_keeps_its_value(tmp_path, capsys):
    seed = 2 ** 53 + 1
    data = dict(BASE, system=dict(BASE["system"], seed=seed))
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, data)]) == 0
    assert json.loads(capsys.readouterr().out)["system"]["seed"] == seed


def test_sweep_writes_per_algorithm_csvs_and_manifest(tmp_path):
    cfgfile = _write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out)]) == 0
    header, rows = _read_rows(out / "sweep_alg3.csv")
    assert header == ["snr_db", "algorithm", "slot", "block", "sum_rate",
                      "stderr", "seed"]
    # 2 SNR points x 1 slot x 1 data block
    assert len(rows) == 2
    assert all(r[1] == "alg3" and r[6] == "3" for r in rows)
    assert (out / "sweep_rzf.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["tool"] == "robustprec"
    assert manifest["subcommand"] == "sweep"
    assert sorted(manifest["outputs"]) == ["sweep_alg3.csv", "sweep_rzf.csv"]
    assert manifest["config"]["system"]["m_t"] == 8


def _run_listing_modules(package, *argv):
    """cli.main(argv) in a fresh interpreter that then prints the names of
    the modules of package (dotted, e.g. numpy.fft) it holds."""
    src = str(Path(robustprec.__file__).resolve().parents[1])
    code = ("import sys, robustprec.cli as c; p = sys.argv[1]; "
            "c.main(sys.argv[2:]); print([m for m in sys.modules "
            "if m == p or m.startswith(p + '.')])")
    return subprocess.run([sys.executable, "-c", code, package, *argv],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_manifest_records_the_numeric_environment(tmp_path, monkeypatch):
    # the bytes depend on numpy, its BLAS and the BLAS thread count; no
    # wall-clock value goes into --out-dir
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, BASE),
                     "--algorithms", "rzf", "--out-dir", str(out)]) == 0
    env = json.loads((out / "run_manifest.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["numpy"] == np.__version__
    assert "scipy" not in env
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["threads"]["OMP_NUM_THREADS"] == "1"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    # the package runs on numpy alone: slnr's eigenvectors load no scipy
    run = _run_listing_modules(
        "scipy", "sweep", "-c", _write_config(tmp_path, BASE),
        "--algorithms", "slnr", "--out-dir", str(tmp_path / "slnr"))
    assert run.stdout.splitlines()[-1] == "[]"


def test_manifest_rerun_is_byte_identical(tmp_path):
    cfgfile = _write_config(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(a)]) == 0
    assert cli.main(["sweep", "-c", str(a / "run_manifest.json"),
                     "--out-dir", str(b)]) == 0
    for name in ("sweep_alg3.csv", "sweep_rzf.csv", "run_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_converge_traces_are_nondecreasing_and_complete(tmp_path):
    data = dict(BASE)
    data["experiment"] = {"algorithms": ["alg1", "alg3"], "mm_iters": 6}
    cfgfile = _write_config(tmp_path, data)
    out = tmp_path / "conv"
    assert cli.main(["converge", "-c", cfgfile, "--out-dir", str(out),
                     "--trace"]) == 0
    for alg in ("alg1", "alg3"):
        header, rows = _read_rows(out / f"converge_{alg}.csv")
        assert header == ["iteration", "de_objective", "mu", "power"]
        obj = [float(r[1]) for r in rows]
        assert all(b - a >= -1e-8 * (1 + abs(b))
                   for a, b in zip(obj, obj[1:]))
        assert rows[0][2] == ""  # no update happened yet at iteration 0
        pre = read_complex_csv(out / f"precoders_{alg}.csv")
        assert pre["user0"].shape == (8, 2)
    # DE diagnostics: one row per user for every evaluation of each run
    header, rows = _read_rows(out / "de_trace_alg1.csv")
    assert header == ["update", "user", "sweeps", "residual"]
    assert rows and all(float(r[3]) <= 1e-9 for r in rows)
    _, conv = _read_rows(out / "converge_alg3.csv")
    header, rows = _read_rows(out / "de_trace_alg3.csv")
    assert header == ["update", "user", "sweeps", "residual"]
    assert len(rows) == len(conv) * 2  # (updates + 1) x K
    assert all(float(r[3]) <= 1e-9 for r in rows)
    header, arows = _read_rows(out / "allocation_alg3.csv")
    assert header == ["user", "beam", "power"]
    total = sum(float(r[2]) for r in arows)
    assert abs(total - 1.0) <= 1e-6


def test_converge_rejects_one_shot_designs(tmp_path, capsys):
    data = dict(BASE)
    data["experiment"] = {"algorithms": ["rzf"]}
    cfgfile = _write_config(tmp_path, data)
    code = cli.main(["converge", "-c", cfgfile, "--out-dir",
                     str(tmp_path / "x")])
    assert code == 2
    assert "converge supports" in capsys.readouterr().err


def test_convergence_study_is_what_converge_writes(tmp_path):
    data = dict(BASE, experiment={"algorithms": ["alg1", "alg2", "alg3"],
                                  "mm_iters": 4})
    cfgfile = _write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["converge", "-c", cfgfile, "--out-dir", str(out)]) == 0
    cfg, profile, plan = cli.parse_config(cfgfile)
    study = convergence_study(cfg, profile, plan)
    assert [alg for alg, _, _ in study] == ["alg1", "alg2", "alg3"]
    for alg, alloc, report in study:
        _, rows = _read_rows(out / f"converge_{alg}.csv")
        assert len(rows) == report.updates + 1
        assert [float(r[1]) for r in rows] == list(report.objective)
        assert [float(r[2]) for r in rows[1:]] == list(report.mu_trace)
        assert [float(r[3]) for r in rows[1:]] == list(report.power_trace)
        written = read_complex_csv(out / f"precoders_{alg}.csv")
        assert list(written) == [f"user{k}" for k in
                                 range(len(report.precoders))]
        for k, p in enumerate(report.precoders):
            assert np.array_equal(written[f"user{k}"], p)
        assert (alloc is not None) == (alg == "alg3")
    alloc = study[2][1]
    _, rows = _read_rows(out / "allocation_alg3.csv")
    assert [(int(k), int(b), float(p)) for k, b, p in rows] == [
        (k, int(b), g * g) for k in range(len(alloc.gains))
        for b, g in zip(alloc.active_beams(k), alloc.gains[k])]
    with pytest.raises(ConfigError, match=r"^converge supports alg1, alg2, "
                                          r"alg3; got 'rzf'$"):
        convergence_study(cfg, profile,
                          ExperimentPlan(algorithms=("alg1", "rzf")))


def test_converge_whose_later_ascent_fails_writes_only_the_error_record(
        tmp_path, monkeypatch):
    # every ascent runs before any file is written, as in sweep and mismatch
    def stall(*a, **k):
        raise errors.FixedPointError("synthetic stall")

    monkeypatch.setattr(evaluation, "beam_power_allocation", stall)
    out = tmp_path / "out"
    assert cli.main(["converge", "-c", _write_config(tmp_path, BASE),
                     "--out-dir", str(out), "--algorithms", "alg1,alg3"]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert "synthetic stall" in (out / "error.json").read_text()


def test_mismatch_needs_and_uses_assumed_alphas(tmp_path, capsys):
    cfgfile = _write_config(tmp_path, BASE)
    out = tmp_path / "mm"
    assert cli.main(["mismatch", "-c", cfgfile, "--out-dir", str(out)]) == 2
    assert "assumed_alphas" in capsys.readouterr().err
    data = dict(BASE)
    data["experiment"] = dict(BASE["experiment"],
                              algorithms=["robust-rzf"],
                              assumed_alphas=[1.0, 0.9])
    cfgfile = _write_config(tmp_path, data, "mm.json")
    assert cli.main(["mismatch", "-c", cfgfile, "--out-dir", str(out)]) == 0
    header, rows = _read_rows(out / "mismatch_robust_rzf.csv")
    assert header[0] == "assumed_alpha"
    assert {r[0] for r in rows} == {"1.0", "0.9"}


def test_seven_algorithm_mismatch_writes_every_csv(tmp_path):
    # the designs that do not read the assumed aging coefficient score the
    # same at every point
    data = {"system": {"m_t": 8, "m_k": [2, 2], "n_b": 3, "seed": 0},
            "profile": {"band_width": 4},
            "experiment": {"algorithms": list(ALGORITHMS), "n_slots": 1,
                           "n_mc": 32, "mm_iters": 4,
                           "assumed_alphas": [1.0, 0.5]}}
    out = tmp_path / "mm"
    assert cli.main(["mismatch", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 0
    assert len(list(out.glob("mismatch_*.csv"))) == 7
    for alg in ("alg3", "rzf", "slnr", "wmmse"):
        _, rows = _read_rows(out / f"mismatch_{alg}.csv")
        at = {point: [r[2:6] for r in rows if r[0] == point]
              for point in ("1.0", "0.5")}
        assert at["1.0"] and at["1.0"] == at["0.5"], alg


def test_zero_mean_inversion_baseline_exits_3_with_error_record(tmp_path):
    data = dict(BASE, profile=dict(BASE["profile"], alphas=0.0),
                experiment=dict(BASE["experiment"], algorithms=["robust-rzf"]))
    out = tmp_path / "zero"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert ("NumericalError: cannot normalize an all-zero precoder set"
            in record["message"])


def test_slnr_at_300_db_exits_3_with_error_record(tmp_path):
    # a config that validates must end in a typed result, not a traceback
    data = {"system": {"m_t": 8, "m_k": [2, 2], "n_b": 2, "seed": 0,
                       "snr_db": [300]},
            "profile": {"band_width": 4},
            "experiment": {"algorithms": ["slnr"], "n_slots": 1, "n_mc": 32}}
    out = tmp_path / "slnr"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert ("NumericalError: slnr: user 0's leakage matrix is not positive "
            "definite" in record["message"])
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_unscalable_power_exits_3_and_keeps_the_other_rows(tmp_path):
    # at p_total 1e200 the uplink noise tracks the budget, the estimated
    # means are about 1e-99, and robust-rzf's power before scaling
    # (~4e-199) cannot be scaled to the budget: an error, not NaN rates
    data = {"system": {"m_t": 8, "m_k": [2, 2], "n_b": 2, "seed": 0,
                       "snr_db": [10], "p_total": 1e200},
            "profile": {"band_width": 4},
            "experiment": {"algorithms": ["robust-rzf"], "n_slots": 1,
                           "n_mc": 32}}
    cfgfile = _write_config(tmp_path, data)
    out = tmp_path / "alone"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert "NumericalError: cannot scale precoder power" in record["message"]
    both = tmp_path / "both"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(both),
                     "--algorithms", "robust-rzf,rzf"]) == 0
    assert _read_rows(both / "sweep_robust_rzf.csv")[1] == []
    _, rows = _read_rows(both / "sweep_rzf.csv")
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0][4:6])


def test_failing_baseline_keeps_the_mm_design_rows(tmp_path):
    # robust-rzf fails on a zero-mean posterior; alg1 must still be written
    data = dict(BASE, profile=dict(BASE["profile"], alphas=0.0))
    cfgfile = _write_config(tmp_path, data)
    both, solo = tmp_path / "both", tmp_path / "solo"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(both),
                     "--algorithms", "alg1,robust-rzf"]) == 0
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(solo),
                     "--algorithms", "alg1"]) == 0
    _, rows = _read_rows(both / "sweep_alg1.csv")
    assert len(rows) == 2
    assert ((both / "sweep_alg1.csv").read_bytes()
            == (solo / "sweep_alg1.csv").read_bytes())
    _, rows = _read_rows(both / "sweep_robust_rzf.csv")
    assert rows == []


def test_cli_overrides_for_seed_and_algorithms(tmp_path):
    cfgfile = _write_config(tmp_path, BASE)
    out = tmp_path / "ovr"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out),
                     "--seed", "11", "--algorithms", "rzf"]) == 0
    assert not (out / "sweep_alg3.csv").exists()
    _, rows = _read_rows(out / "sweep_rzf.csv")
    assert all(r[6] == "11" for r in rows)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["algorithms"] == ["rzf"]


def test_repeated_algorithm_override_is_a_config_error(tmp_path, capsys):
    # the override is checked like the config's list; a repeated name would
    # write every row of its CSV twice and list the file twice
    out = tmp_path / "twice"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, BASE), "--out-dir",
                     str(out), "--algorithms", "rzf,rzf"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "algorithms" in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert "algorithms" in capsys.readouterr().err


def test_numerical_failure_exits_3_with_error_record(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli, "sweep_snr", boom)
    cfgfile = _write_config(tmp_path, BASE)
    out = tmp_path / "err"
    assert cli.main(["sweep", "-c", cfgfile, "--out-dir", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert "synthetic breakdown" in record["message"]


def test_a_sweep_of_every_algorithm_leaves_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: no design, slnr included, and
    # no score imports scipy
    data = dict(BASE, experiment=dict(BASE["experiment"],
                                      algorithms=list(ALGORITHMS)))
    run = _run_listing_modules(
        "scipy", "sweep", "-c", _write_config(tmp_path, data), "--out-dir",
        str(tmp_path / "out"))
    assert run.stdout.splitlines()[-1] == "[]"


def test_an_mm_sweep_at_64_antennas_leaves_numpy_fft_unloaded(tmp_path):
    # alg1 and alg2 update in beam coordinates and form no V diag(g) V^H,
    # which from m_t = 64 on was built by FFT: numpy.fft is never imported
    data = {"system": {"m_t": 64, "m_k": [2, 2], "n_b": 2, "snr_db": [10]},
            "profile": {"band_width": 8},
            "experiment": {"algorithms": ["alg1", "alg2"], "n_slots": 1,
                           "n_mc": 4, "mm_iters": 1}}
    out = tmp_path / "out"
    run = _run_listing_modules("numpy.fft", "sweep", "-c",
                               _write_config(tmp_path, data), "--out-dir",
                               str(out))
    assert run.stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in out.iterdir()) == [
        "run_manifest.json", "sweep_alg1.csv", "sweep_alg2.csv"]


# 150 dB with m_k > d_k: at p_total 38 the Monte Carlo score as a difference
# of two log-determinants lost its precision (it wrote -inf and garbage
# rates at exit 0, then exit 3 once the loss was detected); with m_k [2, 2],
# seed 4877 and the default p_total 1 an MM design meets a singular matrix
# in a DE sweep (it was a LinAlgError traceback, exit 1)
LOST_PRECISION = {
    "system": {"m_t": 6, "m_k": [3, 1], "d_k": [1, 1], "n_b": 3, "seed": 468,
               "snr_db": [150], "p_total": 38, "weights": [1, 3]},
    "profile": {"band_width": 2, "lognorm_sigma": 3.0, "alphas": 0.99},
    "experiment": {"algorithms": ["alg1", "alg2"], "n_slots": 1, "n_mc": 8,
                   "mm_iters": 3},
}
SINGULAR_SWEEP = dict(LOST_PRECISION, system=dict(
    {k: v for k, v in LOST_PRECISION["system"].items() if k != "p_total"},
    m_k=[2, 2], seed=4877))


@pytest.mark.parametrize("data, cause", [
    (SINGULAR_SWEEP, "FixedPointError: DE fixed point: sweep"),
], ids=["singular-sweep"])
def test_150_db_with_fewer_streams_than_antennas_exits_3(tmp_path, data,
                                                         cause):
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert cause in record["message"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_150_db_with_fewer_streams_than_antennas_ends_in_rates(tmp_path,
                                                               capsys):
    # the Sylvester form logdet(I + W^H W) keeps its precision at 150 dB
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, LOST_PRECISION),
                     "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "run_manifest.json", "sweep_alg1.csv", "sweep_alg2.csv"]
    for alg in ("alg1", "alg2"):
        _, rows = _read_rows(out / f"sweep_{alg}.csv")
        assert [(r[1], int(r[3])) for r in rows] == [(alg, 2), (alg, 3)]
        assert all(math.isfinite(float(r[4])) and math.isfinite(float(r[5]))
                   for r in rows)


# alg1 and alg2 begin from one shared cold DE evaluation of the canonical
# start, which is held for alg2 only if it did not raise.  Whether a later
# evaluation fails (seed 2413 of SINGULAR_SWEEP, after 500 sweeps, for
# alg1 and then alg2) or the start itself does (seed 20, after 500 sweeps),
# both designs go, and the failed slots, the first error and the bytes of
# error.json are those of two unshared ascents.
LATER_FAILURE = dict(SINGULAR_SWEEP, system=dict(SINGULAR_SWEEP["system"],
                                                 seed=2413))
SINGULAR_START = dict(LOST_PRECISION, system=dict(LOST_PRECISION["system"],
                                                  seed=20, n_b=2))


@pytest.mark.parametrize("data, cause, colds", [
    # alg1: the start and update 1 at block 2, then block 3's cold
    # evaluation of its block-2 design fails; alg2: the held start and
    # update 1, then its own block-3 cold evaluation fails likewise
    (LATER_FAILURE, "DE fixed point: residual 1.851e-06 > tol 1.0e-09 "
                    "after 500 sweeps", [True, False, True, False, True]),
    # the start raises for alg1, is not held, and raises again for alg2
    (SINGULAR_START, "DE fixed point: residual 2.550e-07 > tol 1.0e-09 "
                     "after 500 sweeps", [True, True]),
], ids=["later-evaluation", "cold-start"])
def test_a_failed_mm_ascent_drops_both_designs_as_before(
        tmp_path, monkeypatch, data, cause, colds):
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert (out / "error.json").read_text() == (
        '{\n  "error": "NumericalError",\n  "message": "every slot failed; '
        'no rates were produced; first failure: FixedPointError: '
        f'{cause}"\n}}\n')
    cfg, profile, plan = cli.parse_config(_write_config(tmp_path, data))
    real, seen = mm_precoder.de_weighted_sum_rate, []

    def record(*args, init_states=None, **kwargs):
        seen.append(init_states is None)
        return real(*args, init_states=init_states, **kwargs)

    monkeypatch.setattr(mm_precoder, "de_weighted_sum_rate", record)
    (_, result), = evaluation.sweep_snr(cfg, profile, plan)
    assert (result.records, result.failed_slots) == ([], [0])
    assert isinstance(result.first_error, errors.FixedPointError)
    assert str(result.first_error) == cause
    assert seen == colds


# 300 dB at m_t = 64: the noise (1e-30) sits far below the interference.
# The covariances are sums of PSD terms, so none has a negative eigenvalue
# (with m_k 1 each is its one entry); an m_t x m_t interference sum read
# back through the operators gave traces down to -1.8e-16 here, and alg1
# then scored below its 150 dB rate
def test_every_covariance_at_300_db_is_psd_and_the_rates_grow(tmp_path,
                                                              monkeypatch):
    data = {
        "system": {"m_t": 64, "m_k": [1, 1], "d_k": [1, 1], "n_b": 2,
                   "seed": 7, "snr_db": [150]},
        "profile": {"band_width": 2, "lognorm_sigma": 0.4, "alphas": 0.9},
        "experiment": {"algorithms": ["alg1", "alg2"], "n_slots": 1,
                       "n_mc": 8, "mm_iters": 3},
    }
    low = []

    def record(*args):
        r = interference_covariance(*args)
        low.append(np.linalg.eigvalsh(r).min())
        return r

    monkeypatch.setattr(det_equiv, "interference_covariance", record)
    monkeypatch.setattr(evaluation, "interference_covariance", record)
    rates = {}
    for snr in (150, 300):
        data["system"]["snr_db"] = [snr]
        out = tmp_path / str(snr)
        del low[:]
        assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                         "--out-dir", str(out)]) == 0
        assert low and min(low) >= 0
        for alg in ("alg1", "alg2"):
            (row,) = _read_rows(out / f"sweep_{alg}.csv")[1]
            rates[alg, snr] = float(row[4])
    for alg in ("alg1", "alg2"):
        assert rates[alg, 300] > rates[alg, 150]


# The failure paths that the 150 dB configs above reach only at the edge of
# today's round-off, each reached here by construction on a well-conditioned
# config, so that those tests can be re-pinned when the round-off moves
# without losing what they cover.
WELL_POSED = {
    "system": {"m_t": 8, "m_k": [2, 2], "n_b": 2, "seed": 3,
               "snr_db": [10.0]},
    "profile": {"band_width": 4, "lognorm_sigma": 0.4, "alphas": 0.9},
    "experiment": {"algorithms": ["alg1", "alg2"], "n_slots": 2, "n_mc": 16,
                   "mm_iters": 3},
}


def _well_posed(tmp_path, *algorithms):
    cfg, profile, plan = cli.parse_config(_write_config(tmp_path, WELL_POSED))
    return cfg, profile, replace(plan, algorithms=algorithms)


def _inject(monkeypatch, fails):
    """Record each DE evaluation of the MM ascents in seen (True: cold), and
    raise a FixedPointError from those where fails(seen) holds."""
    real, seen = mm_precoder.de_weighted_sum_rate, []

    def flaky(*args, init_states=None, **kwargs):
        seen.append(init_states is None)
        if fails(seen):
            raise errors.FixedPointError(f"injected at evaluation {len(seen)}")
        return real(*args, init_states=init_states, **kwargs)

    monkeypatch.setattr(mm_precoder, "de_weighted_sum_rate", flaky)
    return seen


@pytest.mark.parametrize("sweep", [1, 4])
def test_a_singular_matrix_in_a_de_sweep_is_a_typed_fixed_point_error(
        tmp_path, monkeypatch, sweep):
    # the singular-sweep pin's cause: a LinAlgError inside sweep N
    real, calls = det_equiv.tx_gain_diag, []

    def singular_at_sweep(*args):  # one call per sweep
        calls.append(None)
        if len(calls) == sweep:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(*args)

    cfg, profile, _ = _well_posed(tmp_path, "alg1")
    stats = evaluation.experiment_statistics(cfg, profile)
    post = evaluation.prepare_slot(cfg, stats, 0)[1]
    precoders = canonical_allocation(stats, cfg).precoders
    r = interference_covariance(post, precoders, 0, 2, cfg.sigma2_z)
    monkeypatch.setattr(det_equiv, "tx_gain_diag", singular_at_sweep)
    cause = f"DE fixed point: sweep {sweep} failed: Singular matrix"
    with pytest.raises(errors.FixedPointError) as info:
        det_equiv.solve_fixed_point(post, precoders[0], r, 0, 2)
    assert str(info.value) == cause
    # through the CLI, alg1's cold start meets it: exit 3 naming the cause
    calls.clear()
    data = dict(WELL_POSED, experiment=dict(WELL_POSED["experiment"],
                                            algorithms=["alg1"], n_slots=1))
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    assert json.loads((out / "error.json").read_text())["message"] == (
        f"every slot failed; no rates were produced; first failure: "
        f"FixedPointError: {cause}")


def test_a_cold_start_that_raises_is_not_held(tmp_path, monkeypatch):
    # alg1's cold evaluation of the canonical start raises; alg2 makes its
    # own, which raises too, so both drop every slot as when run apart
    cold_fails = lambda seen: seen[-1]
    alone = []
    for alg in ("alg1", "alg2"):
        seen = _inject(monkeypatch, cold_fails)
        (_, res), = evaluation.sweep_snr(*_well_posed(tmp_path, alg))
        assert seen == [True, True]
        alone.append(res)
    seen = _inject(monkeypatch, cold_fails)
    (_, res), = evaluation.sweep_snr(*_well_posed(tmp_path, "alg1", "alg2"))
    assert seen == [True, True] * 2
    assert (res.records, res.failed_slots) == ([], [0, 1])
    assert all(a.failed_slots == [0, 1] for a in alone)
    first = alone[0].first_error
    assert type(res.first_error) is type(first) is errors.FixedPointError
    assert str(res.first_error) == str(first) == "injected at evaluation 1"


def test_a_later_failure_of_alg1_leaves_alg2_on_the_held_start(
        tmp_path, monkeypatch):
    # alg1's first update is scored warm and raises; alg2 starts from the
    # cold start alg1 made, with no second cold evaluation
    (_, alone), = evaluation.sweep_snr(*_well_posed(tmp_path, "alg2"))
    seen = _inject(monkeypatch,
                   lambda seen: seen[-2:] == [True, False])
    (_, res), = evaluation.sweep_snr(*_well_posed(tmp_path, "alg1", "alg2"))
    # per slot: the cold start, alg1's failed update 1, alg2's updates 1, 2
    assert seen == [True, False, False, False] * 2
    assert (res.failed_slots, str(res.first_error)) == (
        [0, 1], "injected at evaluation 2")
    assert res.records == alone.records and alone.records


# a singular matrix in alg1's first MM update, outside any solver, was a
# LinAlgError traceback (exit 1) and an empty out-dir.  No 150 dB seed of
# the configs above reaches one since the self penalty solves only a d x d
# system, so the update's first leakage penalty is handed a singular (zero)
# interference covariance here, as the singular-sweep cause is reached by
# construction above
def test_a_singular_mm_update_exits_3_naming_the_algorithm(tmp_path,
                                                           monkeypatch):
    real, calls = mm_precoder.leakage_penalty, []

    def singular_at_first(posterior, state, r, k, n):
        calls.append(None)
        return real(posterior, state, 0 * r if len(calls) == 1 else r, k, n)

    monkeypatch.setattr(mm_precoder, "leakage_penalty", singular_at_first)
    data = dict(WELL_POSED, experiment=dict(WELL_POSED["experiment"],
                                            algorithms=["alg1"], n_slots=1))
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "NumericalError"
    assert ("first failure: NumericalError: alg1, block 2: linear algebra "
            "failed: Singular matrix" in record["message"])


# exp(lognorm_sigma * z) overflows, and the normalized profile is NaN: slnr
# ended in an untyped ValueError from eigh (exit 1, no error.json), alg1
# and alg3 in a NumericalError after 500 sweeps with residual nan
OVERFLOWING_PROFILE = {
    "system": {"m_t": 8, "m_k": [2, 2], "n_b": 2, "snr_db": [10], "seed": 1},
    "profile": {"band_width": 4, "lognorm_sigma": 1000.0},
    "experiment": {"algorithms": ["slnr"], "n_slots": 1, "n_mc": 8,
                   "mm_iters": 3},
}


@pytest.mark.parametrize("alg", ["slnr", "alg1", "alg3", None],
                         ids=["slnr", "alg1", "alg3", "validate-config"])
def test_a_profile_that_overflows_exits_2_naming_lognorm_sigma(
        tmp_path, capsys, alg):
    # sweep with each algorithm, and validate-config, which draws the
    # statistics too
    message = ("lognorm_sigma = 1000.0 draws a power profile for user 1 "
               "that is not finite")
    if alg is None:
        assert cli.main(["validate-config", "-c", _write_config(
            tmp_path, OVERFLOWING_PROFILE)]) == 2
    else:
        data = dict(OVERFLOWING_PROFILE, experiment=dict(
            OVERFLOWING_PROFILE["experiment"], algorithms=[alg]))
        out = tmp_path / "out"
        assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                         "--out-dir", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        record = json.loads((out / "error.json").read_text())
        assert record == {"error": "ConfigError", "message": message}
    assert capsys.readouterr() == ("", f"error: {message}\n")


# a budget of 1e-160 or 1e160 overflows the DE residual and the power
# probe of the multiplier search: numpy printed RuntimeWarnings before the
# typed error, or before rzf's rows, and under -W error::RuntimeWarning
# either run ended in a traceback (exit 1).  At 1e-160 the multiplier is
# about 1e146, within the bracket's bound sqrt(sum ||rhs||^2 / p_total),
# so alg1 and wmmse end in rates.  alg3's beam-domain self term squared
# its beam gains (about 1e161) past the largest double, and its CSV was
# left without rows
TINY_BUDGET = {
    "system": {"m_t": 4, "m_k": [1, 1], "n_b": 2, "snr_db": [10],
               "p_total": 1e-160},
    "profile": {"band_width": 1},
    "experiment": {"algorithms": ["alg1", "alg3", "wmmse"], "n_slots": 1,
                   "n_mc": 4, "mm_iters": 2},
}
HUGE_BUDGET = dict(
    TINY_BUDGET, system=dict(TINY_BUDGET["system"], p_total=1e160),
    experiment=dict(TINY_BUDGET["experiment"], algorithms=["alg1", "rzf"]))
# converge runs at sigma2_z, not at the snr_db points: at 1e-161 the MM
# shapings' eigenvalues square past the largest double, the power probe read
# 0 for those rows, and alg1 and alg2 wrote precoders spending 2.84 times
# the 1e-160 budget at exit 0
TINY_CONVERGE = dict(
    TINY_BUDGET, system=dict(TINY_BUDGET["system"], sigma2_z=1e-161),
    experiment=dict(TINY_BUDGET["experiment"], algorithms=["alg1", "alg2"]))
# 300 dB overflowed the row weights of alg2's multiplier search, and weights
# of 1e200 overflow them too and the Monte Carlo score's weighted sums: a
# warning came before the BisectionError, or rzf wrote an infinite stderr
# at exit 0.  With PSD interference covariances and the bracket's bound
# from the data, the 300 dB run ends in alg2's rates
HOT_SNR = {
    "system": {"m_t": 8, "m_k": [2, 1], "d_k": [2, 1], "n_b": 2,
               "snr_db": [300]},
    "profile": {"band_width": 4},
    "experiment": {"algorithms": ["alg2"], "n_slots": 1, "n_mc": 16,
                   "mm_iters": 3},
}
HEAVY_WEIGHTS = dict(
    HOT_SNR, system={"m_t": 8, "m_k": [2, 2], "n_b": 2, "snr_db": [10],
                     "weights": [1e200, 1e200]},
    experiment=dict(HOT_SNR["experiment"], algorithms=["rzf"]))
# weights of 1e308 overflow the designs' own weighted totals: the DE sum
# rate of alg1 and alg2 and wmmse's known-channel rate warned, or ended in
# a traceback under error::RuntimeWarning; alg3's beam-domain total ran its
# fixed point on NaN for 500 sweeps, or failed converge's power bisection,
# and neither message named the overflow


def _heaviest_weights(alg):
    return dict(HEAVY_WEIGHTS,
                system=dict(HEAVY_WEIGHTS["system"], weights=[1e308, 1e308]),
                experiment=dict(HEAVY_WEIGHTS["experiment"], algorithms=[alg]))


_DE_OVERFLOW = ("error: every slot failed; no rates were produced; first "
                "failure: NumericalError: the DE weighted sum rate at block 2 "
                "is not finite (a weighted sum overflowed)\n")

_BEAM_OVERFLOW = ("the beam-domain weighted sum rate is not finite (a "
                  "weighted sum overflowed)")

_NO_RATES = "warning: {} produced no rates (every slot failed)\n"


@pytest.mark.parametrize("data, code, err, files", [
    # every design ends in rates at 1e-160; at 1e160 alg1's DE residual
    # fails and leaves its CSV without rows, which a warning names
    (TINY_BUDGET, 0, "",
     ["run_manifest.json", "sweep_alg1.csv", "sweep_alg3.csv",
      "sweep_wmmse.csv"]),
    (HUGE_BUDGET, 0, _NO_RATES.format("alg1"),
     ["run_manifest.json", "sweep_alg1.csv", "sweep_rzf.csv"]),
    (HOT_SNR, 0, "", ["run_manifest.json", "sweep_alg2.csv"]),
    (HEAVY_WEIGHTS, 3, "error: every slot failed; no rates were produced; "
                       "first failure: NumericalError: rzf: the Monte Carlo "
                       "score of slot 0 is not valid (a weighted sum "
                       "overflowed)\n", ["error.json"]),
    (_heaviest_weights("alg1"), 3, _DE_OVERFLOW, ["error.json"]),
    (_heaviest_weights("alg2"), 3, _DE_OVERFLOW, ["error.json"]),
    (_heaviest_weights("wmmse"), 3, "error: every slot failed; no rates were "
                                    "produced; first failure: NumericalError: "
                                    "the known-channel weighted sum rate is "
                                    "not finite (a weighted sum overflowed)\n",
     ["error.json"]),
    (_heaviest_weights("alg3"), 3, "error: every slot failed; no rates were "
                                   "produced; first failure: NumericalError: "
                                   f"{_BEAM_OVERFLOW}\n", ["error.json"]),
], ids=["1e-160", "1e160", "300dB", "1e200-weights", "1e308-weights-alg1",
        "1e308-weights-alg2", "1e308-weights-wmmse", "1e308-weights-alg3"])
def test_an_extreme_budget_prints_only_the_outcome(tmp_path, capsys, data,
                                                   code, err, files):
    out = tmp_path / "out"
    assert cli.main(["sweep", "-c", _write_config(tmp_path, data),
                     "--out-dir", str(out)]) == code
    assert capsys.readouterr().err == err
    assert sorted(p.name for p in out.iterdir()) == files


@pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3"])
def test_converge_at_a_tiny_budget_is_the_unit_budget_design_scaled(
        tmp_path, capsys, alg):
    # at 1e-160 alg3's squared beam gains overflowed and its multiplier
    # search failed to bracket (exit 3), and alg1 and alg2 spent more than
    # the budget; each design is now the unit-budget one scaled, to the
    # bisection's tolerance (alg1 1.4e-7, alg2 2.0e-7), within the budget.
    # The uplink noise is pinned: tracking sigma2_z, it would change the
    # posteriors, and the objectives were 13.8% apart
    designs, alloc = {}, {}
    for p_total in (1e-160, 1.0):
        data = dict(TINY_CONVERGE, system=dict(
            TINY_CONVERGE["system"], p_total=p_total, sigma2_z=p_total / 10,
            sigma2_bs=0.1),
            experiment=dict(TINY_CONVERGE["experiment"], algorithms=[alg]))
        out = tmp_path / str(p_total)
        assert cli.main(["converge", "-c", _write_config(tmp_path, data),
                         "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if alg == "alg3":
            _, rows = _read_rows(out / "allocation_alg3.csv")
            alloc[p_total] = np.array([float(r[2]) for r in rows]) / p_total
            assert alloc[p_total].sum() <= 1 + 1e-9
        else:
            pre = read_complex_csv(out / f"precoders_{alg}.csv")
            assert sum(np.sum(np.abs(p) ** 2) for p in pre.values()) <= p_total
            designs[p_total] = np.concatenate(
                [pre[u].ravel() for u in sorted(pre)]) / math.sqrt(p_total)
    if alg == "alg3":
        assert np.allclose(alloc[1e-160], alloc[1.0], rtol=1e-6, atol=0)
    else:
        gap = designs[1e-160] - designs[1.0]
        assert np.linalg.norm(gap) <= 1e-6 * np.linalg.norm(designs[1.0])


def test_converge_whose_beam_domain_total_overflows_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["converge", "-c", _write_config(
        tmp_path, _heaviest_weights("alg3")), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {_BEAM_OVERFLOW}\n"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert json.loads((out / "error.json").read_text()) == {
        "error": "NumericalError", "message": _BEAM_OVERFLOW}


_ALPHAS = [0.0, 0.5, 0.99, 1.0]


@st.composite
def _cli_runs(draw):
    """(subcommand, config) over the validated config space."""
    m_t = draw(st.integers(1, 8))
    m_k = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    d_k = [draw(st.integers(1, min(m, m_t))) for m in m_k]
    subcommand = draw(st.sampled_from(["sweep", "mismatch", "converge"]))
    offered = [a for a in ALGORITHMS
               if (d_k == m_k or not ALGORITHM_TABLE[a].full_rank)
               and (subcommand != "converge" or ALGORITHM_TABLE[a].ascent)]
    system = {
        "m_t": m_t, "m_k": m_k, "d_k": d_k, "n_b": draw(st.integers(2, 3)),
        "seed": draw(st.integers(0, 999)),
        "snr_db": [draw(st.sampled_from([-30, 0, 10, 40, 80, 150]))],
        "p_total": draw(st.sampled_from([1e-3, 1.0, 38.0, 1e3])),
        "weights": draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]),
                                 min_size=len(m_k), max_size=len(m_k))),
    }
    sigma2_bs = draw(st.sampled_from([None, 0.0, 1e-6]))
    if sigma2_bs is not None:
        system["sigma2_bs"] = sigma2_bs
    profile = {"band_width": draw(st.integers(1, m_t)),
               "lognorm_sigma": draw(st.sampled_from([0.0, 3.0])),
               "decay": draw(st.sampled_from([0.0, 5.0])),
               "alphas": draw(st.sampled_from(_ALPHAS))}
    experiment = {"algorithms": draw(st.lists(st.sampled_from(offered),
                                              min_size=1, max_size=3,
                                              unique=True)),
                  "n_slots": 1, "n_mc": 8, "mm_iters": 3}
    if subcommand == "mismatch":
        experiment["assumed_alphas"] = draw(st.lists(
            st.sampled_from(_ALPHAS), min_size=1, max_size=2, unique=True))
    return subcommand, {"system": system, "profile": profile,
                        "experiment": experiment}


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(run=_cli_runs())
@example(run=("sweep", SINGULAR_SWEEP))
@example(run=("sweep", LOST_PRECISION))
@example(run=("sweep", dict(LOST_PRECISION, system=dict(
    LOST_PRECISION["system"], seed=128, n_b=2))))
@example(run=("sweep", OVERFLOWING_PROFILE))
@example(run=("sweep", TINY_BUDGET))
@example(run=("converge", TINY_CONVERGE))
@example(run=("sweep", HUGE_BUDGET))
@example(run=("sweep", HOT_SNR))
@example(run=("sweep", dict(HEAVY_WEIGHTS, experiment=dict(
    HEAVY_WEIGHTS["experiment"], algorithms=["alg2", "rzf"]))))
def test_every_validated_config_ends_in_rates_or_a_typed_error(run):
    # exit 0 with finite, budget-feasible numbers, or exit 2/3 with an
    # error.json naming a ConfigError or NumericalError type
    subcommand, data = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        code = cli.main([subcommand, "-c", _write_config(tmp, data),
                         "--out-dir", str(out)])
        assert code in (0, 2, 3)
        if code:
            kind = json.loads((out / "error.json").read_text())["error"]
            assert issubclass(getattr(errors, kind),
                              ConfigError if code == 2 else NumericalError)
            return
        for csv in out.glob("*.csv"):
            for line in csv.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a name or an empty cell
                    assert math.isfinite(value), (csv.name, line)
        # the resolved config: data may leave p_total to its default
        manifest = json.loads((out / "run_manifest.json").read_text())
        budget = manifest["config"]["system"]["p_total"] * (1 + 1e-9)
        for csv in out.glob("precoders_*.csv"):
            power = sum(np.linalg.norm(p) ** 2
                        for p in read_complex_csv(csv).values())
            assert power <= budget, csv.name
