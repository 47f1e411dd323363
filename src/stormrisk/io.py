"""File formats: event-catalog CSV, long-run series CSV, JSON run config.

Event CSV schema: header ``year,intensity``, one event per row, year an
integer in the signed 64-bit range and intensity a positive decimal
with ``.`` separator.  Rows may come in any order; years missing between
the earliest and latest event are materialised with zero events.
UTF-8; read with LF, CRLF or CR line ends, written with CRLF as
``csv.writer`` does.

Series CSV schema (written, never read): header
``t,e_n,e_s,e_x,phi,rho,rho_lo,rho_hi,j2phi``; undefined values are
written as empty fields.

JSON run config: the models, year span and seed of one run; ``simulate``
and ``verify`` take an omitted seed from ``RANDSUM_SEED``; ``theory`` uses none.

Parse errors carry the offending location (line number, JSON field path
or variable name) and never escape as bare exceptions from deeper layers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .catalog import _MAX_ROWS, EventCatalog
from .estimate import LongRunSeries
from .frequency import FrequencyModel, RateLink
from .severity import Family, SeverityModel
from .simulate import SimulationConfig

__all__ = [
    "CatalogFormatError",
    "ConfigError",
    "read_events_csv",
    "write_events_stream",
    "write_series_stream",
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
    """Malformed event CSV; message names the line."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the field."""


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


def _is_header(row: list[str], columns: tuple[str, ...]) -> bool:
    return [c.strip().lower() for c in row] == list(columns)


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
                if header is None or not _is_header(header, EVENT_COLUMNS):
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
    years: list[int] = []
    intensities: list[float] = []
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CatalogFormatError(f"{path}: empty file")
            if not _is_header(header, EVENT_COLUMNS):
                raise CatalogFormatError(
                    f"{path}: line 1: expected header {','.join(EVENT_COLUMNS)!r}, "
                    f"got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # blank line
                if len(row) != len(EVENT_COLUMNS):
                    raise CatalogFormatError(
                        f"{path}: line {lineno}: expected {len(EVENT_COLUMNS)} "
                        f"fields, got {len(row)}"
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
                        f"{path}: line {lineno}: intensity must be a decimal, "
                        f"got {x_s!r}"
                    ) from None
                if not math.isfinite(x) or x <= 0:
                    raise CatalogFormatError(
                        f"{path}: line {lineno}: intensity must be positive and "
                        f"finite, got {x_s}"
                    )
                years.append(year)
                intensities.append(x)
        except csv.Error as exc:
            raise CatalogFormatError(
                f"{path}: line {reader.line_num}: {exc}"
            ) from None
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


def write_series_stream(series: LongRunSeries, fh) -> None:
    """Write a long-run series as CSV rows to an open text stream."""
    write_csv_rows(
        fh,
        SERIES_COLUMNS,
        [getattr(series, name) for name in LongRunSeries.column_names()],
    )


# --- run configuration -------------------------------------------------

SEED_ENV_VAR = "RANDSUM_SEED"

_TOP_FIELDS = {"mode", "frequency", "severity", "years", "seed"}
_FREQ_FIELDS = {"link", "alpha0", "alpha1"}
_SEV_FIELDS = {"family", "beta0", "beta1", "shape"}


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


def _run_seed(raw: dict, mode: str) -> int | None:
    """The seed ``mode`` runs with, a checked unsigned 64-bit integer: the
    config's, else ``SEED_ENV_VAR``'s, and none for ``theory``."""
    if "seed" in raw:
        where, seed = "config.seed", _as_int(raw["seed"], "config.seed")
    elif mode == "theory":
        return None
    elif (text := os.environ.get(SEED_ENV_VAR)) is None:
        raise ConfigError(f"config.seed: required (or set {SEED_ENV_VAR}) for this mode")
    else:
        where = SEED_ENV_VAR
        try:
            seed = int(text)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer seed, got {text!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where}: must fit in unsigned 64 bits, got {seed}")
    return None if mode == "theory" else seed


def parse_config(path, mode: str) -> SimulationConfig:
    """Parse and validate the JSON run configuration of command ``mode``.

    The config's ``mode`` must name the command.  Unknown fields are
    rejected.  Model parameters are validated by constructing the models
    against the configured year span, so for example a GPD shape of 0.6
    is rejected here with the violated constraint ('shape must be < 0.5
    for finite variance').  The seed follows the mode's rule (`_run_seed`).
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
    if mode_raw != mode:
        raise ConfigError(f"config.mode: expected {mode!r}, got {mode_raw!r}")

    if "years" not in raw:
        raise ConfigError(f"config.years: required for mode {mode!r}")
    y = raw["years"]
    if not (isinstance(y, list) and len(y) == 2):
        raise ConfigError("config.years: expected [start, end]")
    start = _as_int(y[0], "config.years[0]")
    end = _as_int(y[1], "config.years[1]")
    if start > end:
        raise ConfigError(f"config.years: start {start} exceeds end {end}")
    if end - start + 1 > _MAX_ROWS:
        raise ConfigError(
            f"config.years: span {end - start + 1} years, more than the "
            f"{_MAX_ROWS} a run may hold"
        )

    seed = _run_seed(raw, mode)
    horizon = (1, end - start + 1)
    return SimulationConfig(
        freq=_parse_frequency(_require(raw, "frequency", "config"), horizon),
        sev=_parse_severity(_require(raw, "severity", "config"), horizon),
        years=(start, end),
        seed=seed,
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
            family=family, beta0=beta0, beta1=beta1, horizon=horizon, shape=shape
        )
    except ValueError as exc:
        raise ConfigError(f"config.severity: {exc}") from None
