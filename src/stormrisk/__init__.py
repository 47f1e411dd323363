"""Aggregate storm risk as a random sum, under time-varying models.

The yearly aggregate risk is the sum of the intensities of that year's
events.  With the count Poisson and the intensities i.i.d. within a
year (both possibly trending over the years), the package provides the
closed-form moment identities for the aggregate, seeded Monte Carlo
simulation of event catalogs, long-run empirical estimators over
catalogs, and a CLI tying them together.

The top level holds the entry of each command (`risk_summary`,
`table1_row`, `simulate_catalog`, `analyze_catalog`,
`verification_checks`), the two file readers, the types that their
signatures name, the readers' two errors and ``__version__``.  Steps of
the entries stay public in their modules only.
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
from .riskmodel import RiskSummary, risk_summary, table1_row
from .severity import Family, SeverityModel
from .simulate import SimulationConfig, simulate_catalog
from .verify import verification_checks

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
    "risk_summary",
    "table1_row",
    "Family",
    "SeverityModel",
    "SimulationConfig",
    "simulate_catalog",
    "verification_checks",
]
