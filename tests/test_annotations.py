"""Every annotation in the package resolves, so typing tools can read it."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import exactspin

MODULES = sorted(info.name for info in pkgutil.iter_modules(exactspin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"exactspin.{name}")
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            typing.get_type_hints(obj)
        elif inspect.isclass(obj):
            typing.get_type_hints(obj)
            for method in vars(obj).values():
                if inspect.isfunction(method):
                    typing.get_type_hints(method)
