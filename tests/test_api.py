"""Guards on the public surface: the exported names, the README's library
example and the absence of ``assert`` in the package (``python -O``
strips it, so it must not carry a check)."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib.util
import io
import re
import typing
from pathlib import Path

import stormrisk as sr

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sr.__file__).resolve().parent

# The entry of each command and the two file readers, by module.
ENTRIES = {
    "riskmodel": ["risk_summary", "table1_row"],
    "simulate": ["simulate_catalog"],
    "estimate": ["analyze_catalog"],
    "verify": ["verification_checks"],
    "io": ["parse_config", "read_events_csv"],
}
READER_ERRORS = ["CatalogFormatError", "ConfigError"]


def _derived_public() -> list[str]:
    """The top level's rule: the entries, the package types that their
    type hints name, followed through dataclass fields, the readers'
    errors and ``__version__``."""
    entries = [
        getattr(importlib.import_module(f"stormrisk.{module}"), name)
        for module, names in ENTRIES.items()
        for name in names
    ]
    todo = [h for f in entries for h in typing.get_type_hints(f).values()]
    types: set[type] = set()
    while todo:
        h = todo.pop()
        todo += typing.get_args(h)
        if isinstance(h, type) and h.__module__.startswith("stormrisk.") and h not in types:
            types.add(h)
            if dataclasses.is_dataclass(h):
                todo += typing.get_type_hints(h).values()
    names = [f.__name__ for f in entries] + [t.__name__ for t in types]
    return sorted(["__version__", *READER_ERRORS, *names])


# Steps and parts of the entries above, public in their modules only.
MODULE_ONLY = {
    "estimate": [
        "fisher_interval",
        "long_run_series",
        "nx_independence",
        "season_activity",
    ],
    "frequency": ["rate", "sample_count"],
    "riskmodel": ["j_squared_from_correlation"],
    "severity": ["Moments", "j_squared", "sample_intensity", "severity_moments"],
    "simulate": ["FixedYearSample", "replicate_fixed_year"],
}


def test_public_names_are_exactly_the_listed_ones():
    public = _derived_public()
    assert sorted(sr.__all__) == public
    assert len(public) == 18
    assert all(hasattr(sr, name) for name in public)


def test_module_only_names_import_from_their_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"stormrisk.{module}")
        for name in names:
            assert name in mod.__all__ and hasattr(mod, name)
            assert not hasattr(sr, name)


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_level_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def test_every_module_level_name_is_used():
    # a use is a read of the name or an attribute of that name, or an
    # entry of an __all__; an import alone is not a use
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
    unused = [
        f"{module}:{name}"
        for module, tree in sorted(trees.items())
        for name in _module_level_names(tree)
        if name not in used
    ]
    assert unused == []


def test_cli_imports_no_private_package_name():
    # the CLI maps flags and formats reports; what it calls of the
    # package is public, so a rule it needs lives in the library's API
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{'.' * node.level}{node.module or ''}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "stormrisk")
        for alias in node.names
        if any(
            part.startswith("_") and not part.startswith("__")
            for part in [*(node.module or "").split("."), alias.name]
        )
    ]
    assert private == []


def test_cli_calls_one_estimator_entry():
    # what `analyze` reports, and what a diagnostic that cannot be
    # computed becomes, is decided by `estimate.analyze_catalog`
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "estimate"
        for alias in node.names
    ]
    assert imported == ["analyze_catalog"]


def test_benchmark_hooks_resolve_in_the_package():
    # perfbench/spans.py wraps package functions by module and name; a hook
    # that no longer resolves records nothing, and its per-layer metric
    # silently reads 0.  The two window hooks and the removed
    # `mailier_index` are known stale; `estimate.diagnostics` still reads
    # `nx_independence` and `season_activity`.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, *_ in (*spans.SPANS, *spans.COUNTERS):
        owner, leaf = spans._resolve(module, attr)
        if owner is None or not hasattr(owner, leaf):
            missing.append(f"{module}.{attr}")
    assert missing == [
        "estimate.moving_window_correlation",
        "estimate.with_window_correlation",
        "estimate.mailier_index",
    ]
