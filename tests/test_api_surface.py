"""The public API is what the lab runs: every public function or class of
`mixfree` is used by another part of `src/` or by a demo, or is one of the
paper results in KEEP. A name only tests call belongs in tests/oracles.py."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mixfree

ROOT = Path(mixfree.__file__).resolve().parents[2]
MODULES = ("processgen", "blocking", "erm", "bounds", "harness", "cli")

# Paper results kept public for their own sake; tests check each against
# exact laws or closed forms.
KEEP = ("gamma_alpha_parametric", "parametric_log_covering", "bernstein_mgf_rhs",
        "odd_block_decoupling_gap_exact", "weak_variance_2q", "psi_product_bound",
        "quadratic_bound_rhs", "mixing_failure_term")


def _public_names():
    """(module, name) for every public function or class a module defines."""
    out = []
    for module in MODULES:
        mod = importlib.import_module(f"mixfree.{module}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__):
                out.append((module, name))
    return out


def _references():
    """Every name that code in src/ (less the package's re-exports) or in
    demos/ loads, as a bare name or as an attribute."""
    files = [p for p in (ROOT / "src" / "mixfree").glob("*.py")
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_sources_found():
    assert (ROOT / "demos").is_dir() and len(_public_names()) > 50


@pytest.mark.parametrize("name", KEEP)
def test_kept_results_are_public(name):
    assert name in {n for _, n in _public_names()}


def test_every_public_name_is_used_or_kept():
    refs = _references()
    unused = [f"{module}.{name}" for module, name in _public_names()
              if name not in refs and name not in KEEP]
    assert unused == [], (
        f"public names that nothing in src/ or demos/ uses: {unused}; delete "
        "them, make them private, or move them to tests/oracles.py")


def test_only_the_cli_knows_json():
    """The JSON document formats live in cli.py: it alone reads model
    documents and writes JSON artifacts."""
    importers = sorted(
        path.name for path in (ROOT / "src" / "mixfree").glob("*.py")
        if any(isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "json"
               for node in ast.walk(ast.parse(path.read_text()))))
    assert importers == ["cli.py"]


# Parameters with a default that no call in src/ or demos/ passes, with the
# reason each stays.
KEEP_PARAMETERS = {
    "processgen.stream_state_stats.block_len": "blocked-Bernstein coverage, its "
    "one caller in src/, now counts visits through processgen._state_sums, but "
    "the stream digests pin the k-wise surrogate's statistics with it",
}


def _sources():
    return (sorted((ROOT / "src" / "mixfree").glob("*.py"))
            + sorted((ROOT / "demos").glob("*.py")))


def _defaulted_parameters():
    """(qualified name, function name, positional index or None, parameter)
    for every parameter with a default of every function in src/mixfree,
    private ones and methods included; a method's index skips self or cls."""
    out = []
    for path in sorted((ROOT / "src" / "mixfree").glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = id(fn) in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(fn.args.defaults):
                    out.append((f"{module}.{fn.name}.{arg.arg}", fn.name,
                                i - bound, arg.arg))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    out.append((f"{module}.{fn.name}.{arg.arg}", fn.name, None,
                                arg.arg))
    return out


def _passed_parameters():
    """{function name: (largest positional count, keyword names)} over every
    call in src/ or demos/; a * or ** splat counts as passing every
    positional or every keyword parameter."""
    calls = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            npos, keys = calls.setdefault(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = float("inf")
            keys |= {k.arg for k in node.keywords}
            calls[name] = (max(npos, len(node.args)), keys)
    return calls


def test_every_defaulted_parameter_is_passed_or_kept():
    calls = _passed_parameters()
    unset = []
    for qualified, name, index, param in _defaulted_parameters():
        npos, keys = calls.get(name, (0, set()))
        if not (param in keys or None in keys
                or (index is not None and npos > index)):
            unset.append(qualified)
    assert sorted(set(unset) - set(KEEP_PARAMETERS)) == [], (
        "parameters with a default that no call in src/ or demos/ passes; "
        "delete them or make them module constants")
    assert sorted(set(KEEP_PARAMETERS) - set(unset)) == [], (
        "kept parameters that a call now passes; drop them from KEEP_PARAMETERS")
