"""CLI tests: config validation, file contracts, determinism, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustprec
from robustprec import cli
from robustprec.errors import NumericalError
from robustprec.matio import read_complex_csv

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


def test_validate_config_applies_the_full_rank_rule(tmp_path, capsys):
    bad = dict(BASE, system=dict(BASE["system"], d_k=[1, 1]),
               experiment=dict(BASE["experiment"], algorithms=["rzf"]))
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "rzf requires d_k == m_k" in capsys.readouterr().err


def test_duplicate_key_is_rejected_by_name(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"system": {"m_t": 8, "m_t": 16, "m_k": [2]}}')
    assert cli.main(["validate-config", "-c", str(path)]) == 2
    assert "duplicate key 'm_t'" in capsys.readouterr().err


def test_unknown_key_is_rejected_by_name(tmp_path, capsys):
    bad = {"system": dict(BASE["system"], bogus=1), "profile": BASE["profile"]}
    assert cli.main(["validate-config", "-c", _write_config(tmp_path, bad)]) == 2
    assert "'bogus'" in capsys.readouterr().err


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


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.linalg and scipy.special load only inside slnr and
    # jakes_correlation, so a run that needs neither never pays for them
    src = str(Path(robustprec.__file__).resolve().parents[1])
    code = ("import sys, robustprec.cli; print([m for m in "
            "('scipy.linalg', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
