import ast
import dataclasses
import pkgutil
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import liftcalc
from liftcalc import rootdata


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


def _cli_modules(*argv):
    """(registered, executed) liftcalc modules once a fresh process imports the CLI
    and, if argv is given, runs main on it.

    A lazily registered layer is a subclass of ModuleType until its first
    attribute read runs it, so only an executed module is of type ModuleType.
    """
    code = ("import contextlib, io, sys, types\n"
            "from liftcalc.cli import main\n"
            f"argv = {list(argv)!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "mods = {n: m for n, m in sys.modules.items() if n.startswith('liftcalc')}\n"
            "print(' '.join(sorted(mods)))\n"
            "print(' '.join(sorted(n for n, m in mods.items() if type(m) is types.ModuleType)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    return set(out[0].split()), set(out[1].split())


def test_cli_executes_only_the_layers_a_subcommand_runs():
    layers = {f"liftcalc.{m}" for m in (*liftcalc._EXPORTS, "acceptance", "cli")}
    registered, executed = _cli_modules()
    assert registered == {"liftcalc", *layers}
    assert executed == {"liftcalc", "liftcalc.cli", "liftcalc.intmat"}
    _, executed = _cli_modules("dim", "--group", "C3.sc", "--weight", "2,1,0")
    assert not executed & {f"liftcalc.{m}" for m in
                           ("qforms", "heisenberg", "cmdata", "lifting", "acceptance")}
    _, executed = _cli_modules("heisenberg-demo", "--n", "5", "--alpha", "1", "--beta", "2")
    assert executed == {"liftcalc", "liftcalc.cli", "liftcalc.intmat", "liftcalc.heisenberg"}


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


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def _mentions(tree):
    """The code references in tree: names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_used_in_the_package():
    # a name only tests call belongs in the tests; a code reference outside
    # its own definition counts as a use, a word in a docstring does not
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(liftcalc.__file__).parent.glob("*.py"))]
    everywhere = Counter(m for tree in trees for m in _mentions(tree))
    unused = [node.name for tree in trees for node in _public_definitions(tree)
              if node.name not in liftcalc._LAYER_OF
              and everywhere[node.name] == Counter(_mentions(node))[node.name]]
    assert unused == []


def test_no_function_takes_a_smith_form():
    # each caller asks smith_normal_form for the form of its own matrix, so
    # the Smith cache is the one factor-once path; a form handed from one
    # function to another would be a second.  _check_smith is the check of
    # a form just built, and takes it for that.
    offenders = []
    for path in sorted(Path(liftcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            a = node.args
            params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            for p in params:
                annotated = p.annotation is not None and "SmithForm" in ast.unparse(p.annotation)
                if (p.arg == "form" or annotated) and name != "_check_smith":
                    offenders.append(f"{path.name}:{name}({p.arg})")
    assert offenders == []


def test_main_writes_every_report():
    # each cmd_* handler returns its report and main writes it, so a change to
    # every report (a stats object, say) has one site; a handler that took the
    # format or the seed could write or stamp a report of its own
    tree = ast.parse((Path(liftcalc.__file__).parent / "cli.py").read_text())

    def emit_calls(node):
        return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_emit" for n in ast.walk(node))

    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    main = next(f for f in functions if f.name == "main")
    assert emit_calls(tree) == emit_calls(main) == 1
    offenders = [f"{f.name}({a.arg})" for f in functions if f.name.startswith("cmd_")
                 for a in (*f.args.posonlyargs, *f.args.args, *f.args.kwonlyargs)
                 if a.arg in ("fmt", "seed")]
    assert offenders == []


def test_only_the_cli_reads_json():
    # each payload is read and its errors reported at one site, the CLI's
    # _payload; a layer takes values already parsed and checked
    offenders = []
    for path in sorted(Path(liftcalc.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                offenders += [f"{path.name}:import {a.name}" for a in node.names
                              if a.name.split(".")[0] == "json"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                offenders.append(f"{path.name}:from {node.module}")
            elif isinstance(node, ast.FunctionDef) and node.name == "from_json":
                offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


def test_no_private_name_is_imported_across_modules():
    # a private name belongs to its module; a second module that needs it
    # needs a public name
    offenders = [f"{path.name}:{a.name}"
                 for path in sorted(Path(liftcalc.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                 for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_only_rootdata_builds_a_root_datum():
    # a datum is its rank, simple roots and simple coroots, and the per-datum
    # caches key on it: every other module takes the data rootdata builds
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(liftcalc.__file__).parent.glob("*.py"))
                 if path.name != "rootdata.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and "BasedRootDatum" in ast.unparse(node.func).split(".")[-2:]]
    assert offenders == []
    fields = [f.name for f in dataclasses.fields(rootdata.BasedRootDatum)]
    assert fields == ["rank", "simple_roots", "simple_coroots"]


def test_intmat_imports_nothing_from_fractions():
    # intmat solves over the integers: a solution is read off the Smith form
    # as V (c_i / d_i) only when every d_i divides c_i
    tree = ast.parse((Path(liftcalc.__file__).parent / "intmat.py").read_text())
    offenders = [ast.unparse(node) for node in ast.walk(tree)
                 if (isinstance(node, ast.Import)
                     and any(a.name.split(".")[0] == "fractions" for a in node.names))
                 or (isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "fractions")]
    assert offenders == []


def test_intmat_defines_no_nested_function():
    # the Smith form eliminates one matrix whose rows and columns carry U and
    # V, so each row and column operation is written once, inline; a helper
    # defined inside a function would let the transforms grow their own again
    tree = ast.parse((Path(liftcalc.__file__).parent / "intmat.py").read_text())
    offenders = [f"{outer.name}:{getattr(inner, 'name', '<lambda>')}"
                 for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
                 for inner in ast.walk(outer)
                 if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.Lambda))]
    assert offenders == []


def _is_bareiss_update(node):
    """(a * b - c * d) // p: the fraction-free step of a Bareiss elimination."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and all(isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                    for t in (node.left.left, node.left.right)))


def test_intmat_has_one_determinant_kernel():
    # det, the unimodularity and minor routes and _check_smith measure plain
    # rows through _det, and __mul__ and _check_smith multiply through
    # _product; minor_gcd and _check_smith wrap no minor, product or
    # transform in an IntMatrix, by a constructor or by a matrix product
    tree = ast.parse((Path(liftcalc.__file__).parent / "intmat.py").read_text())
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    eliminating = [name for name, f in functions.items()
                   if any(_is_bareiss_update(n) for n in ast.walk(f))]
    assert eliminating == ["_det"]
    for name, kernel in (("det", "_det"), ("minor_gcd", "_det"),
                         ("__mul__", "_product"), ("_check_smith", "_product")):
        assert kernel in {n.func.id for n in ast.walk(functions[name])
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    offenders = [f"{name}:{ast.unparse(n)}" for name in ("minor_gcd", "_check_smith")
                 for n in ast.walk(functions[name])
                 if (isinstance(n, ast.Call) and "IntMatrix" in ast.unparse(n.func))
                 or (isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.MatMult)))]
    assert offenders == []
