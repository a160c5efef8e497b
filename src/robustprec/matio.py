"""Text round-trip for named complex matrices.

Long CSV: one entry per line as name,row,col,re,im with a fixed header.
Floats are written with repr (shortest exact decimal), line ends are LF,
and rows stream in row-major order — so writing the same data twice gives
byte-identical files and reading recovers the exact values.
"""
from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigError

_HEADER = ["name", "row", "col", "re", "im"]


def write_complex_csv(path, named):
    """Write {name: 2-D array} in insertion order."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_HEADER)
        for name, mat in named.items():
            a = np.asarray(mat, dtype=complex)
            if a.ndim != 2:
                raise ConfigError(f"{name!r} is not a matrix (ndim={a.ndim})")
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    # builtin floats: repr is the shortest exact decimal
                    w.writerow([name, i, j, repr(float(a[i, j].real)),
                                repr(float(a[i, j].imag))])


def read_complex_csv(path):
    """Read back {name: complex ndarray}; shapes come from the max indices.

    A malformed row, a negative index or a repeated (name, row, col) entry
    is a ConfigError naming the file and line."""
    entries, first_line = {}, {}
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != _HEADER:
            raise ConfigError(f"unexpected header {header!r} in {path}")
        for line in r:
            if not line:
                continue
            try:
                name, i, j, re_part, im_part = line
                entry = (int(i), int(j), float(re_part), float(im_part))
            except ValueError as e:
                raise ConfigError(f"{path} line {r.line_num}: bad row "
                                  f"{line!r} ({e})") from None
            if min(entry[:2]) < 0:  # would wrap onto another entry
                raise ConfigError(f"{path} line {r.line_num}: bad row "
                                  f"{line!r} (negative index)")
            key = (name, *entry[:2])
            if key in first_line:
                raise ConfigError(f"{path} line {r.line_num}: repeated entry "
                                  f"{line!r} (first on line "
                                  f"{first_line[key]})")
            first_line[key] = r.line_num
            entries.setdefault(name, []).append(entry)
    out = {}
    for name, items in entries.items():
        rows = 1 + max(i for i, _, _, _ in items)
        cols = 1 + max(j for _, j, _, _ in items)
        a = np.zeros((rows, cols), dtype=complex)
        for i, j, re_part, im_part in items:
            a[i, j] = re_part + 1j * im_part
        out[name] = a
    return out
