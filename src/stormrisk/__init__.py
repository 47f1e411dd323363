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
from .estimate import (
    LongRunSeries,
    fisher_interval,
    long_run_series,
    mailier_index,
    nx_independence,
    season_activity,
)
from .frequency import (
    FrequencyModel,
    RateLink,
    rate,
    sample_count,
)
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
from .severity import (
    Family,
    Moments,
    SeverityModel,
    j_squared,
    sample_intensity,
    severity_moments,
)
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
