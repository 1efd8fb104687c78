"""The package's public names: each is loaded from its home module on
first use, and is the very object that module defines."""

import importlib

import pytest

import officesim


@pytest.mark.parametrize("name", officesim.__all__)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(officesim, name)
    assert name in dir(officesim)
    home = officesim._HOME_MODULES.get(name)
    if home is None:  # defined in the package itself
        assert name in vars(officesim)
        return
    module = importlib.import_module(f"officesim.{home}")
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_unknown_attribute_is_an_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        officesim.no_such_name  # noqa: B018
    assert not hasattr(officesim, "no_such_name")
