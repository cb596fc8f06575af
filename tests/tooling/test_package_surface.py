"""The package surface: what ``repro``'s docstring lists and what every
package's ``__all__`` exports both match the modules that exist."""

import importlib
import pkgutil
import re

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_the_top_level_docstring_lists_every_subpackage():
    listed = set(re.findall(r":mod:`repro\.(\w+)`", repro.__doc__))
    found = {info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg}
    assert listed == found


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"
