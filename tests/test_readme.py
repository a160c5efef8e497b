"""The names the README promises resolve in the installed package.

Every name a README Python block imports from robustprec, and every
backticked dotted name under robustprec (`robustprec.<module>.<name>`),
must exist.  The examples themselves are not run: they take seconds.
The star import binds exactly the package's export list.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import robustprec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _imported_names():
    names = []
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        for node in ast.walk(ast.parse(block)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "robustprec"):
                names += [f"{node.module}.{a.name}" for a in node.names]
    return names


def _backticked_names():
    return re.findall(r"`(robustprec(?:\.[A-Za-z_]\w*)+)`", README)


def _resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_names_were_found():
    assert len(_imported_names()) >= 10
    assert "robustprec.evaluation.ALGORITHM_TABLE" in _backticked_names()


@pytest.mark.parametrize("dotted", sorted(set(_imported_names()
                                              + _backticked_names())))
def test_readme_name_resolves(dotted):
    _resolve(dotted)


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from robustprec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(robustprec.__all__)
    assert len(set(robustprec.__all__)) == len(robustprec.__all__)
