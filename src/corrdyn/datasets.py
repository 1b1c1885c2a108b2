"""Bundled benchmark correspondence documents."""

from importlib import resources

from .correspondence import Correspondence, parse_correspondence

BUNDLED = ("mobius", "z2", "z3", "z2_plus_z3", "mobius_pair")


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled correspondence {name!r}; have {BUNDLED}")
    return resources.files("corrdyn.data").joinpath(f"{name}.corr").read_text()


def bundled_correspondence(name: str) -> Correspondence:
    return parse_correspondence(bundled_text(name))
