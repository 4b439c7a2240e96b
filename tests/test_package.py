"""The package's public surface."""

import inspect

import qcc_lab


def test_all_names_every_public_binding_once():
    """Every name in `__all__` resolves, none is listed twice, and the list is
    exactly the public, non-module names that `qcc_lab/__init__.py` binds."""
    exported = qcc_lab.__all__
    for name in exported:
        getattr(qcc_lab, name)
    assert len(set(exported)) == len(exported)
    bound = {name for name, value in vars(qcc_lab).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(exported) == bound
