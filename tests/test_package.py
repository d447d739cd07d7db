import pkgutil
import subprocess
import sys
from importlib import import_module

import liftcalc


def test_exports_resolve_to_their_layer():
    for layer, names in liftcalc._EXPORTS.items():
        module = import_module(f"liftcalc.{layer}")
        for name in names:
            assert getattr(liftcalc, name) is getattr(module, name)
    assert set(liftcalc.__all__) == {*liftcalc._EXPORTS, *liftcalc._LAYER_OF}


def test_layer_import_loads_only_its_dependencies():
    code = ("import sys, liftcalc.heisenberg\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('liftcalc'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert out == ["liftcalc", "liftcalc.heisenberg", "liftcalc.intmat"]


def test_no_module_level_cache_dicts():
    # every cache is a functools cache, so cache_clear empties it; a module
    # dict would need clearing of its own
    for info in pkgutil.iter_modules(liftcalc.__path__):
        if info.name == "__main__":
            continue
        module = import_module(f"liftcalc.{info.name}")
        dicts = [name for name, value in vars(module).items()
                 if name.endswith("_CACHE") and isinstance(value, dict)]
        assert dicts == [], info.name
