"""The package root's public surface: every name it has exported stays, as
the same object as in its home module, and ``opgeom.__all__`` lists each
module's public names once."""

import importlib
import pathlib

import opgeom

# "<module> <name>" per line: the names the package root imported one by one
# before it re-exported its modules' __all__ lists
NAMES = pathlib.Path(__file__).with_name("data") / "public_names.txt"


def test_every_former_name_is_its_home_modules_object():
    rows = [line.split() for line in NAMES.read_text().splitlines()]
    assert len(rows) == 100
    for module, name in rows:
        home = importlib.import_module(f"opgeom.{module}")
        assert getattr(opgeom, name) is getattr(home, name), name
        assert name in opgeom.__all__, name


def test_all_lists_each_module_name_once():
    assert len(opgeom.__all__) == len(set(opgeom.__all__))
    for module in ("algebra", "errors", "projection", "uncertainty", "hypersurface", "transport"):
        assert set(importlib.import_module(f"opgeom.{module}").__all__) <= set(opgeom.__all__)
    assert opgeom.MARGIN_TOL == 1e-10 and opgeom.MAX_SERIES_ORDER == 6


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from opgeom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(opgeom.__all__)
