"""The public API surface: explicit ``__all__`` everywhere.

Every module under :mod:`repro` (except the ``__main__`` entry script)
must declare ``__all__``; every listed name must exist; and no public
non-module attribute may leak outside ``__all__``.
"""

import importlib
import pkgutil
import types

import repro

DOCUMENTED_SUBPACKAGES = {
    "topologies", "traffic", "throughput", "sim", "flowsim", "perf",
    "cost", "analysis", "harness", "obs", "registry", "resilience",
    "solvers", "design", "api",
}


def _all_modules():
    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        mods.append(importlib.import_module(info.name))
    return mods


class TestAllDeclarations:
    def test_every_module_declares_all(self):
        missing = [m.__name__ for m in _all_modules()
                   if not hasattr(m, "__all__")]
        assert missing == []

    def test_every_exported_name_exists(self):
        broken = [
            f"{m.__name__}.{name}"
            for m in _all_modules()
            for name in m.__all__
            if not hasattr(m, name)
        ]
        assert broken == []

    def test_no_public_locally_defined_attrs_outside_all(self):
        """Functions/classes a module defines are either private or exported.

        Imported names (typing helpers, sibling re-exports) are not this
        module's surface; only objects whose ``__module__`` is the module
        itself count.
        """
        leaks = []
        for mod in _all_modules():
            exported = set(mod.__all__)
            for name, value in vars(mod).items():
                if name.startswith("_") or name in exported:
                    continue
                if not isinstance(value, (type, types.FunctionType)):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                leaks.append(f"{mod.__name__}.{name}")
        assert leaks == []


class TestTopLevelSurface:
    def test_import_repro_exposes_documented_surface(self):
        assert (
            DOCUMENTED_SUBPACKAGES | {"__version__", "SPEC_HASH_VERSION"}
            == set(repro.__all__)
        )
        for name in DOCUMENTED_SUBPACKAGES:
            assert isinstance(getattr(repro, name), types.ModuleType)

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
