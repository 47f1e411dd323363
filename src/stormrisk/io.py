"""File formats: event-catalog CSV, long-run series CSV, JSON run config.

Event CSV schema: header ``year,intensity``, one event per row, year an
integer in the signed 64-bit range and intensity a positive decimal
with ``.`` separator.  Rows may come in any order; years missing between
the earliest and latest event are materialised with zero events.
UTF-8; read with LF, CRLF or CR line ends, written with CRLF as
``csv.writer`` does.

Series CSV schema: header
``t,e_n,e_s,e_x,phi,rho,rho_lo,rho_hi,j2phi``; undefined values are
written as empty fields.

Parse errors carry the offending location (line number or JSON field
path) and never escape as bare exceptions from deeper layers.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .catalog import EventCatalog
from .estimate import LongRunSeries
from .frequency import FrequencyModel, RateLink
from .severity import Family, SeverityModel, TrendParams

__all__ = [
    "CatalogFormatError",
    "ConfigError",
    "RunMode",
    "RunConfig",
    "read_events_csv",
    "write_events_csv",
    "write_events_stream",
    "write_series_csv",
    "write_series_stream",
    "read_series_csv",
    "parse_config",
]

SERIES_COLUMNS = ("t", "e_n", "e_s", "e_x", "phi", "rho", "rho_lo", "rho_hi", "j2phi")
EVENT_COLUMNS = ("year", "intensity")
_EVENT_DTYPE = np.dtype([("year", np.int64), ("intensity", np.float64)])
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# Written CSVs end lines as csv.writer does.  Rows are formatted and
# written in chunks of about this many cells (16384 event rows), which
# keeps memory flat.
_EOL = "\r\n"
_CHUNK_CELLS = 32768


class CatalogFormatError(ValueError):
    """Malformed event or series CSV; message names the line."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the field."""


class RunMode(str, Enum):
    THEORY = "theory"
    SIMULATE = "simulate"
    ANALYZE = "analyze"
    VERIFY = "verify"


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Validated run configuration.

    Models are constructed (and therefore validated) during parsing, so
    a returned config never violates a model invariant.
    """

    mode: RunMode
    freq: FrequencyModel | None = None
    sev: SeverityModel | None = None
    years: tuple[int, int] | None = None
    seed: int | None = None
    replicates: int = 1
    window: int | None = None
    ci_level: float = 0.95
    input: str | None = None
    output: str | None = None

    @property
    def n_years(self) -> int:
        if self.years is None:
            raise ConfigError("years: not configured")
        return self.years[1] - self.years[0] + 1


def read_events_csv(path) -> EventCatalog:
    """Parse an event CSV into a catalog.

    The body is parsed in one bulk pass; any input that pass does not
    accept cleanly goes through the line-by-line parser instead, so every
    file is accepted or rejected exactly as by :func:`_read_events_lines`.
    """
    path = Path(path)
    body = _load_events_body(path)
    if body is None:
        return _read_events_lines(path)
    return EventCatalog.from_events(body["year"], body["intensity"])


def _is_event_header(row: list[str]) -> bool:
    return [c.strip().lower() for c in row] == list(EVENT_COLUMNS)


def _load_events_body(path: Path) -> np.ndarray | None:
    """Event rows as a structured array, or None where the line parser
    must decide: an unreadable file, a bad header, any parse error or
    warning, no rows, or an intensity that is not positive and finite.

    ``np.loadtxt`` accepts a subset of what the line parser accepts (no
    quotes, underscores, non-ASCII digits or whitespace-only lines), and
    parses the same decimal strings to the same doubles.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with path.open("r", encoding="utf-8-sig", newline="") as fh:
                header = next(csv.reader(fh), None)
                if header is None or not _is_event_header(header):
                    return None
                body = np.loadtxt(
                    fh, delimiter=",", dtype=_EVENT_DTYPE, comments=None, ndmin=1
                )
    except (OSError, ValueError, csv.Error, Warning):
        return None
    x = body["intensity"]
    if len(body) == 0 or not np.all((x > 0) & (x < np.inf)):
        return None
    return body


def _read_events_lines(path: Path) -> EventCatalog:
    """Line-by-line event CSV parser; errors name the offending line."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CatalogFormatError(f"{path}: empty file") from None
        if not _is_event_header(header):
            raise CatalogFormatError(
                f"{path}: line 1: expected header 'year,intensity', got "
                f"{','.join(header)!r}"
            )
        years: list[int] = []
        intensities: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                raise CatalogFormatError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            year_s, x_s = (c.strip() for c in row)
            try:
                year = int(year_s)
            except ValueError:
                raise CatalogFormatError(
                    f"{path}: line {lineno}: year must be an integer, got {year_s!r}"
                ) from None
            if not _INT64_MIN <= year <= _INT64_MAX:
                raise CatalogFormatError(
                    f"{path}: line {lineno}: year must fit in a signed 64-bit "
                    f"integer, got {year_s}"
                )
            try:
                x = float(x_s)
            except ValueError:
                raise CatalogFormatError(
                    f"{path}: line {lineno}: intensity must be a decimal, got {x_s!r}"
                ) from None
            if not math.isfinite(x) or x <= 0:
                raise CatalogFormatError(
                    f"{path}: line {lineno}: intensity must be positive and "
                    f"finite, got {x_s}"
                )
            years.append(year)
            intensities.append(x)
    if not years:
        raise CatalogFormatError(f"{path}: no event rows")
    return EventCatalog.from_events(years, intensities)


def write_csv_rows(fh, header, columns, *, na_rep: str = "") -> None:
    """Write a header and aligned columns as CSV, one chunk of rows at a time.

    A float array column is written with ``repr``, the shortest string
    that reads back to the same double, and NaN as ``na_rep``; every other
    cell is written as ``str(cell)``.  Cells are written unquoted, so none
    may contain ``,``, ``"`` or a line break, and lines end in CRLF: the
    bytes are those ``csv.writer`` writes for the same cells.  Only about
    ``_CHUNK_CELLS`` cells are held as strings at once.
    """
    fh.write(",".join(header) + _EOL)
    step = max(1, _CHUNK_CELLS // len(columns))
    for lo in range(0, len(columns[0]), step):
        cells = [_format_cells(col[lo : lo + step], na_rep) for col in columns]
        fh.write(_EOL.join(map(",".join, zip(*cells))) + _EOL)


def _format_cells(part, na_rep: str) -> list[str]:
    if not isinstance(part, np.ndarray):
        return list(map(str, part))
    if part.dtype.kind != "f":
        return list(map(str, part.tolist()))
    cells = list(map(repr, part.tolist()))
    for i in np.flatnonzero(np.isnan(part)).tolist():
        cells[i] = na_rep
    return cells


def write_events_stream(catalog: EventCatalog, fh) -> None:
    """Write a catalog as event CSV rows to an open text stream."""
    write_csv_rows(fh, EVENT_COLUMNS, [catalog.event_years, catalog.intensities])


def write_events_csv(catalog: EventCatalog, path) -> None:
    """Write a catalog as an event CSV (inverse of :func:`read_events_csv`)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        write_events_stream(catalog, fh)


def write_series_stream(series: LongRunSeries, fh) -> None:
    """Write a long-run series as CSV rows to an open text stream."""
    write_csv_rows(
        fh,
        SERIES_COLUMNS,
        [getattr(series, name) for name in LongRunSeries.column_names()],
    )


def write_series_csv(series: LongRunSeries, path) -> None:
    """Write a long-run series; NaN becomes an empty field."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        write_series_stream(series, fh)


def read_series_csv(path) -> LongRunSeries:
    """Read back a series CSV; empty fields become NaN."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CatalogFormatError(f"{path}: empty file") from None
        if [c.strip().lower() for c in header] != list(SERIES_COLUMNS):
            raise CatalogFormatError(
                f"{path}: line 1: expected header {','.join(SERIES_COLUMNS)!r}"
            )
        rows: list[list[float]] = []
        years: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SERIES_COLUMNS):
                raise CatalogFormatError(
                    f"{path}: line {lineno}: expected {len(SERIES_COLUMNS)} fields, "
                    f"got {len(row)}"
                )
            try:
                years.append(int(row[0]))
                rows.append(
                    [float(c) if c.strip() else math.nan for c in row[1:]]
                )
            except ValueError as exc:
                raise CatalogFormatError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise CatalogFormatError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    names = LongRunSeries.column_names()[1:]
    return LongRunSeries(
        years=np.array(years, dtype=np.int64),
        **{name: data[:, i].copy() for i, name in enumerate(names)},
    )


# --- run configuration -------------------------------------------------

_TOP_FIELDS = {
    "mode",
    "frequency",
    "severity",
    "years",
    "seed",
    "replicates",
    "window",
    "ci_level",
    "input",
    "output",
}
_FREQ_FIELDS = {"link", "alpha0", "alpha1"}
_SEV_FIELDS = {"family", "beta0", "beta1", "shape"}

_MODEL_MODES = {RunMode.THEORY, RunMode.SIMULATE, RunMode.VERIFY}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: missing required field")
    return obj[key]


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v!r}")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def parse_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown fields are rejected.  Model parameters are validated by
    constructing the models against the configured year span, so for
    example a GPD shape of 0.6 is rejected here with the violated
    constraint ('shape must be < 0.5 for finite variance').
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_FIELDS, "config")

    mode_raw = _require(raw, "mode", "config")
    try:
        mode = RunMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"config.mode: expected one of {[m.value for m in RunMode]}, "
            f"got {mode_raw!r}"
        ) from None

    years: tuple[int, int] | None = None
    if "years" in raw:
        y = raw["years"]
        if not (isinstance(y, list) and len(y) == 2):
            raise ConfigError("config.years: expected [start, end]")
        start = _as_int(y[0], "config.years[0]")
        end = _as_int(y[1], "config.years[1]")
        if start > end:
            raise ConfigError(f"config.years: start {start} exceeds end {end}")
        years = (start, end)

    seed = None
    if "seed" in raw:
        seed = _as_int(raw["seed"], "config.seed")
        if not 0 <= seed < 2**64:
            raise ConfigError(f"config.seed: must fit in unsigned 64 bits, got {seed}")

    replicates = 1
    if "replicates" in raw:
        replicates = _as_int(raw["replicates"], "config.replicates")
        if replicates < 1:
            raise ConfigError(f"config.replicates: must be positive, got {replicates}")

    window = None
    if "window" in raw:
        window = _as_int(raw["window"], "config.window")
        if window < 3:
            raise ConfigError(f"config.window: must be at least 3, got {window}")

    ci_level = 0.95
    if "ci_level" in raw:
        ci_level = _as_number(raw["ci_level"], "config.ci_level")
        if not 0.0 < ci_level < 1.0:
            raise ConfigError(f"config.ci_level: must lie in (0, 1), got {ci_level}")

    for key in ("input", "output"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"config.{key}: expected a path string")

    freq = sev = None
    if mode in _MODEL_MODES:
        if years is None:
            raise ConfigError(f"config.years: required for mode {mode.value!r}")
        horizon = (1, years[1] - years[0] + 1)
        freq = _parse_frequency(_require(raw, "frequency", "config"), horizon)
        sev = _parse_severity(_require(raw, "severity", "config"), horizon)
    elif mode is RunMode.ANALYZE:
        if "input" not in raw:
            raise ConfigError("config.input: required for mode 'analyze'")

    return RunConfig(
        mode=mode,
        freq=freq,
        sev=sev,
        years=years,
        seed=seed,
        replicates=replicates,
        window=window,
        ci_level=ci_level,
        input=raw.get("input"),
        output=raw.get("output"),
    )


def _parse_frequency(obj, horizon: tuple[int, int]) -> FrequencyModel:
    if not isinstance(obj, dict):
        raise ConfigError("config.frequency: expected an object")
    _reject_unknown(obj, _FREQ_FIELDS, "config.frequency")
    link_raw = _require(obj, "link", "config.frequency")
    try:
        link = RateLink(link_raw)
    except ValueError:
        raise ConfigError(
            f"config.frequency.link: expected 'log' or 'identity', got {link_raw!r}"
        ) from None
    alpha0 = _as_number(_require(obj, "alpha0", "config.frequency"), "config.frequency.alpha0")
    alpha1 = _as_number(_require(obj, "alpha1", "config.frequency"), "config.frequency.alpha1")
    try:
        return FrequencyModel(alpha0=alpha0, alpha1=alpha1, link=link, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"config.frequency: {exc}") from None


def _parse_severity(obj, horizon: tuple[int, int]) -> SeverityModel:
    if not isinstance(obj, dict):
        raise ConfigError("config.severity: expected an object")
    _reject_unknown(obj, _SEV_FIELDS, "config.severity")
    family_raw = _require(obj, "family", "config.severity")
    try:
        family = Family(str(family_raw).lower())
    except ValueError:
        raise ConfigError(
            f"config.severity.family: expected one of "
            f"{[f.value for f in Family]}, got {family_raw!r}"
        ) from None
    beta0 = _as_number(_require(obj, "beta0", "config.severity"), "config.severity.beta0")
    beta1 = _as_number(_require(obj, "beta1", "config.severity"), "config.severity.beta1")
    shape = None
    if obj.get("shape") is not None:
        shape = _as_number(obj["shape"], "config.severity.shape")
    try:
        return SeverityModel(
            family=family,
            trend=TrendParams(beta0, beta1),
            horizon=horizon,
            shape=shape,
        )
    except ValueError as exc:
        raise ConfigError(f"config.severity: {exc}") from None
