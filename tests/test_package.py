"""The package's top-level namespace."""
from types import ModuleType

import perimeterguard


def test_all_exports_public_names_not_submodules():
    assert perimeterguard.__all__
    for name in perimeterguard.__all__:
        assert not isinstance(getattr(perimeterguard, name), ModuleType), name
    assert {"solve_lr", "solve_mc", "validate_solution", "GuardingError"} <= set(
        perimeterguard.__all__
    )
