"""Every name a package exports through ``__all__`` resolves.

``import repro`` succeeding proves nothing about ``__all__``: a name
left there after its definition is deleted only fails on
``from repro import *`` or on first use.
"""

import importlib

import pytest

PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.mem",
            "repro.mmu", "repro.obs", "repro.service", "repro.sim",
            "repro.sim.backends", "repro.vm", "repro.workloads")


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
