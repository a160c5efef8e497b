"""The output writers and the complex-matrix CSV format: round trip,
determinism, and the typed error of an unwritable file."""
import re

import numpy as np
import pytest
from numpy.random import default_rng

from robustprec.errors import ConfigError
from robustprec.matio import (
    read_complex_csv,
    write_complex_csv,
    write_csv,
    write_json,
)

from helpers import same_bits


def test_round_trip_is_exact(tmp_path):
    rng = default_rng(0)
    data = {
        "user0": rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        "user1": np.array([[1e-300 + 0j, -0.0 + 1j * 7], [np.pi, -1e17 + 1j]]),
    }
    path = tmp_path / "mats.csv"
    write_complex_csv(path, data)
    back = read_complex_csv(path)
    assert list(back) == ["user0", "user1"]
    for name in data:
        assert back[name].shape == data[name].shape
        assert np.array_equal(back[name], np.asarray(data[name], complex))


def test_round_trip_keeps_signed_zeros_and_infinities_bit_for_bit(tmp_path):
    # re + 1j * im would read -0.0 back as +0.0 and (1, inf) as nan + inf j
    parts = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, 5e-324]
    data = {"p": np.array([[complex(re, im) for im in parts] for re in parts])}
    path = tmp_path / "mats.csv"
    write_complex_csv(path, data)
    back = read_complex_csv(path)["p"]
    assert same_bits(back, data["p"])


def test_file_that_is_not_utf8_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("name,row,col,re,im\n\u00e9,0,0,1.0,2.0\n"
                     .encode("latin-1"))
    with pytest.raises(ConfigError, match=r"latin1\.csv is not UTF-8"):
        read_complex_csv(path)


def test_field_past_the_csv_size_limit_is_a_config_error_naming_file_and_line(
        tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("name,row,col,re,im\np,0,0,1.0,2.0\np,0,1,"
                    + "1" * 200_000 + ",0.0\n")
    with pytest.raises(ConfigError,
                       match=r"huge\.csv line 3: field larger than field limit"):
        read_complex_csv(path)


def test_rewrite_is_byte_identical(tmp_path):
    rng = default_rng(1)
    data = {"p": rng.standard_normal((4, 3)) * 1j + rng.standard_normal((4, 3))}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_complex_csv(a, data)
    write_complex_csv(b, read_complex_csv(a))
    assert a.read_bytes() == b.read_bytes()
    assert b.read_bytes().startswith(b"name,row,col,re,im\n")
    assert b"\r" not in a.read_bytes()


@pytest.mark.parametrize("row", ["p,0,0,1.0", "p,0,0,1.0,2.0,3.0",
                                 "p,0,0,x,2.0", "p,zero,0,1.0,2.0",
                                 "p,-1,0,1.0,2.0"])
def test_bad_row_is_a_config_error_naming_file_and_line(tmp_path, row):
    path = tmp_path / "mats.csv"
    path.write_text("name,row,col,re,im\np,0,1,1.0,2.0\n" + row + "\n")
    with pytest.raises(ConfigError, match=r"mats\.csv line 3: bad row"):
        read_complex_csv(path)


def test_repeated_entry_is_a_config_error_naming_file_and_line(tmp_path):
    # the second row would overwrite the first without a word
    path = tmp_path / "mats.csv"
    path.write_text("name,row,col,re,im\np,0,0,1.0,2.0\nq,0,0,5.0,6.0\n"
                    "p,0,0,3.0,4.0\n")
    with pytest.raises(ConfigError, match=r"mats\.csv line 4: repeated entry"
                                          r".*first on line 2"):
        read_complex_csv(path)


def test_incomplete_matrix_is_a_config_error_naming_file_and_matrix(tmp_path):
    # the seven missing entries would read back as silent zeros
    path = tmp_path / "mats.csv"
    path.write_text("name,row,col,re,im\nq,0,0,5.0,6.0\np,0,0,1.0,2.0\n"
                    "p,2,2,3.0,4.0\n")
    with pytest.raises(ConfigError, match=r"mats\.csv: matrix 'p' fills 2 of "
                                          r"the 3 x 3 entries"):
        read_complex_csv(path)


def test_huge_index_is_a_config_error_before_any_allocation(tmp_path):
    # a 10^12-row grid would be a MemoryError of many TiB
    path = tmp_path / "mats.csv"
    path.write_text("name,row,col,re,im\np,1000000000000,0,1.0,0.0\n")
    with pytest.raises(ConfigError, match=r"mats\.csv: matrix 'p' fills 1 of "
                                          r"the 1000000000001 x 1 entries"):
        read_complex_csv(path)


def test_rejects_non_matrices_and_bad_header(tmp_path):
    with pytest.raises(ConfigError, match="not a matrix"):
        write_complex_csv(tmp_path / "x.csv", {"v": np.zeros(3)})
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    with pytest.raises(ConfigError, match="header"):
        read_complex_csv(bad)


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, ["a"], [[1]]),
    lambda path: write_json(path, {"a": 1}),
    lambda path: write_complex_csv(path, {"p": np.eye(2)}),
], ids=["csv", "json", "complex_csv"])
def test_unwritable_file_is_a_config_error_naming_it(tmp_path, write):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(ConfigError, match=re.escape(
            f"output file {path} cannot be written")):
        write(path)
