"""Aggregate storm risk as a random sum, under time-varying models.

The yearly aggregate risk is the sum of the intensities of that year's
events.  With the count Poisson and the intensities i.i.d. within a
year (both possibly trending over the years), the package provides the
closed-form moment identities for the aggregate, seeded Monte Carlo
simulation of event catalogs, long-run empirical estimators over
catalogs, and a CLI tying them together.
"""

__version__ = "0.1.0"

from .catalog import EventCatalog
from .estimate import LongRunSeries, analyze_catalog
from .frequency import FrequencyModel, RateLink
from .io import (
    CatalogFormatError,
    ConfigError,
    parse_config,
    read_events_csv,
)
from .riskmodel import (
    RiskSummary,
    j_squared_from_correlation,
    risk_summary,
    table1_row,
)
from .severity import Family, SeverityModel, j_squared
from .simulate import (
    FixedYearSample,
    SimulationConfig,
    replicate_fixed_year,
    simulate_catalog,
)

__all__ = [
    "__version__",
    "EventCatalog",
    "LongRunSeries",
    "analyze_catalog",
    "FrequencyModel",
    "RateLink",
    "CatalogFormatError",
    "ConfigError",
    "parse_config",
    "read_events_csv",
    "RiskSummary",
    "j_squared_from_correlation",
    "risk_summary",
    "table1_row",
    "Family",
    "SeverityModel",
    "j_squared",
    "FixedYearSample",
    "SimulationConfig",
    "replicate_fixed_year",
    "simulate_catalog",
]
