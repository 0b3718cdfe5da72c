"""The package root's public surface: every name it has exported stays, as
the same object as in its home module, ``opgeom.__all__`` lists each
module's public names once, and each public callable keeps the signature
recorded in ``data/public_signatures.txt``."""

import importlib
import inspect
import pathlib

import opgeom

# "<module> <name>" per line: the names the package root imported one by one
# before it re-exported its modules' __all__ lists
NAMES = pathlib.Path(__file__).with_name("data") / "public_names.txt"
# "<name><signature>" per line, regenerated by running this module as a script
SIGNATURES = pathlib.Path(__file__).with_name("data") / "public_signatures.txt"


def signatures() -> list:
    """str(inspect.signature(obj)) after its name for each callable in
    opgeom.__all__, in that order; the exception types have no signature."""
    lines = []
    for name in opgeom.__all__:
        obj = getattr(opgeom, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            lines.append(f"{name}{inspect.signature(obj)}")
    return lines


def test_every_former_name_is_its_home_modules_object():
    rows = [line.split() for line in NAMES.read_text().splitlines()]
    assert len(rows) == 93
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


def test_signatures_match_the_data_file():
    # a parameter added to or removed from a public callable shows as a diff of the file
    assert signatures() == SIGNATURES.read_text().splitlines()


if __name__ == "__main__":
    SIGNATURES.write_text("\n".join(signatures()) + "\n")
