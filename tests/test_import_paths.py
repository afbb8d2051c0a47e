"""One import path per name: no package attribute shadows its submodule.

A package that re-exports a function under the name of the submodule
defining it hides that module: with ``repro.core.bconv2d`` the function,
``import repro.core.bconv2d as m`` binds the function and
``m.pack_filters`` raises ``AttributeError``.  This walks every package of
``repro`` and fails on such an attribute.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro

#: Package attributes allowed to hide a submodule: none.
KNOWN_SHADOWS: set[str] = set()


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_no_package_attribute_shadows_a_submodule():
    shadows = set()
    for package in _packages():
        for sub in pkgutil.iter_modules(package.__path__):
            if sub.name == "__main__":  # importing it runs the CLI
                continue
            name = f"{package.__name__}.{sub.name}"
            module = importlib.import_module(name)
            if getattr(package, sub.name) is not module:
                shadows.add(name)
    assert shadows == KNOWN_SHADOWS
