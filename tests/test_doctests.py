"""The doctest examples in the orbits modules run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import orbits

MODULES = ["orbits"] + sorted(
    m.name for m in pkgutil.iter_modules(orbits.__path__, "orbits.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_coxeter_has_doctests():
    from orbits import coxeter

    assert doctest.testmod(coxeter).attempted >= 8
