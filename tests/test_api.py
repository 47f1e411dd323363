"""Guards on the public surface: the exported names, the README's library
example and the absence of ``assert`` in the package (``python -O``
strips it, so it must not carry a check)."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import stormrisk as sr

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sr.__file__).resolve().parent

PUBLIC = [
    "__version__",
    "EventCatalog",
    "LongRunSeries",
    "fisher_interval",
    "long_run_series",
    "mailier_index",
    "nx_independence",
    "season_activity",
    "FrequencyModel",
    "RateLink",
    "rate",
    "sample_count",
    "CatalogFormatError",
    "ConfigError",
    "parse_config",
    "read_events_csv",
    "RiskSummary",
    "j_squared_from_correlation",
    "risk_summary",
    "table1_row",
    "Family",
    "Moments",
    "SeverityModel",
    "j_squared",
    "sample_intensity",
    "severity_moments",
    "FixedYearSample",
    "SimulationConfig",
    "replicate_fixed_year",
    "simulate_catalog",
]


def test_public_names_are_exactly_the_listed_ones():
    assert sr.__all__ == PUBLIC
    assert len(sr.__all__) == 30
    assert all(hasattr(sr, name) for name in PUBLIC)


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
