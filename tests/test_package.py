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
