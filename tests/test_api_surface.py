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
