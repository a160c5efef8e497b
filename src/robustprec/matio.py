"""Byte-stable writers of every output file; the complex-matrix reader.

CSVs have a header row and LF line ends; JSON is indented, key-sorted and
ends in LF; an OSError while writing a file is a ConfigError naming it.
Complex matrices are a long CSV, one entry per line as name,row,col,re,im,
with repr floats (shortest exact decimal) in row-major order — so writing
the same data twice gives byte-identical files and reading recovers every
bit (complex(re, im), not re + 1j * im, keeps -0.0 and infinite parts).
"""
from __future__ import annotations

import contextlib
import csv
import json

import numpy as np

from .errors import ConfigError

_HEADER = ["name", "row", "col", "re", "im"]


@contextlib.contextmanager
def _writing(path):
    try:
        yield
    except OSError as e:
        raise ConfigError(f"output file {path} cannot be written: "
                          f"{e.strerror or e}") from None


def write_csv(path, header, rows):
    """Write the header row, then rows."""
    with _writing(path), open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(path, payload):
    """Write payload as indented JSON with sorted keys."""
    with _writing(path), open(path, "w", newline="") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _complex_rows(named):
    for name, mat in named.items():
        a = np.asarray(mat, dtype=complex)
        if a.ndim != 2:
            raise ConfigError(f"{name!r} is not a matrix (ndim={a.ndim})")
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                # builtin floats: repr is the shortest exact decimal
                yield [name, i, j, repr(float(a[i, j].real)),
                       repr(float(a[i, j].imag))]


def write_complex_csv(path, named):
    """Write {name: 2-D array} in insertion order."""
    write_csv(path, _HEADER, _complex_rows(named))


def read_complex_csv(path):
    """Read back {name: complex ndarray}; shapes come from the max indices.

    A malformed row (a field past the csv module's size limit included), a
    negative index or a repeated (name, row, col) entry is a ConfigError
    naming the file and line; a matrix whose entries do not fill its
    (1 + max row) x (1 + max col) grid is one naming the file and the
    matrix, raised before anything is allocated."""
    entries, first_line = {}, {}
    try:
        with open(path, newline="", encoding="utf-8") as f:
            r = csv.reader(f)
            header = next(r, None)
            if header != _HEADER:
                raise ConfigError(f"unexpected header {header!r} in {path}")
            for line in r:
                if not line:
                    continue
                try:
                    name, i, j, re_part, im_part = line
                    entry = (int(i), int(j),
                             complex(float(re_part), float(im_part)))
                    if min(entry[:2]) < 0:  # would wrap onto another entry
                        raise ValueError("negative index")
                except ValueError as e:
                    raise ConfigError(f"{path} line {r.line_num}: bad row "
                                      f"{line!r} ({e})") from None
                key = (name, *entry[:2])
                if key in first_line:
                    raise ConfigError(f"{path} line {r.line_num}: repeated "
                                      f"entry {line!r} (first on line "
                                      f"{first_line[key]})")
                first_line[key] = r.line_num
                entries.setdefault(name, []).append(entry)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8: {e}") from None
    except csv.Error as e:  # raised by the reader itself, e.g. a huge field
        raise ConfigError(f"{path} line {r.line_num}: {e}") from None
    out = {}
    for name, items in entries.items():
        i, j, z = zip(*items)
        rows, cols = 1 + max(i), 1 + max(j)
        if len(items) != rows * cols:
            raise ConfigError(f"{path}: matrix {name!r} fills {len(items)} "
                              f"of the {rows} x {cols} entries its indices "
                              f"span")
        out[name] = np.zeros((rows, cols), dtype=complex)
        out[name][i, j] = z
    return out
