"""File formats: event-catalog CSV, long-run series CSV, JSON run config.

Event CSV schema: header ``year,intensity``, one event per row, year an
integer in the signed 64-bit range and intensity a positive decimal
with ``.`` separator.  Rows may come in any order; years missing between
the earliest and latest event are materialised with zero events.
UTF-8; read with LF, CRLF or CR line ends, written with CRLF as
``csv.writer`` does and each double as ``repr`` writes it, a chunk of
rows at a time (``write_csv_rows``).  Chunks are sized by cells, about
8192 float cells to an encoder call, and a broadcast column is encoded
once per write.  A file of the rows ``write_events_stream`` writes is
decoded in integer arrays (``_decode.event_cells``); the line parser,
which names the offending line, reads every other file.

Series CSV schema (written, never read): header
``t,e_n,e_s,e_x,phi,rho,rho_lo,rho_hi,j2phi``; undefined values are
written as empty fields.

JSON run config: the models, year span and seed of one run; ``simulate``
and ``verify`` require the seed, and ``theory`` checks one given but uses none.
``parse_config`` reads it and ``config_dict`` writes its fields back
(all but ``mode``, which is optional), so this module alone knows the
field names.

Parse errors carry the offending location (line number or JSON field
path) and never escape as bare exceptions from deeper layers.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from pathlib import Path

import numpy as np

from .catalog import _INT64_MAX, _INT64_MIN, EventCatalog, _positive_finite
from .estimate import LongRunSeries
from .frequency import FrequencyModel, RateLink
from .severity import Family, SeverityModel
from .simulate import SimulationConfig, _check_seed, _check_years

__all__ = [
    "CatalogFormatError",
    "ConfigError",
    "read_events_csv",
    "write_events_stream",
    "write_series_stream",
    "parse_config",
    "config_dict",
]

EVENT_COLUMNS = ("year", "intensity")
_BLOCK_BYTES = 1 << 17  # an event CSV is read this many bytes at a time

# Written CSVs end lines as csv.writer does.  Rows are encoded and
# written a chunk at a time, which keeps memory flat: a chunk's words and
# temporaries take a few megabytes.  A chunk holds this many float cells,
# where the encoder's cost per cell is lowest, spread over its float
# columns.
_EOL = "\r\n"
_CHUNK_CELLS = 8192


class CatalogFormatError(ValueError):
    """Malformed event CSV; message names the line."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the field."""


def read_events_csv(path) -> EventCatalog:
    """Parse an event CSV into a catalog.

    A file of the rows `write_events_stream` writes, its header
    ``year,intensity`` (maybe after a UTF-8 BOM) and each line empty or
    a row ``[-]digits,digits[.digits][(e|E)[+-]digits]`` with a positive
    finite intensity, is read by the array decoder (see
    `_load_events_body`); each decimal becomes the double that ``float``
    gives.  The line-by-line parser, :func:`_read_events_lines`, reads
    every other file, padded or quoted fields, a ``+`` sign or an
    intensity of 0 for example, so every file is accepted or rejected
    exactly as by that parser.  Either parser's events make the catalog
    in one call, whose errors name the file.
    """
    path = Path(path)
    events = _load_events_body(path) or _read_events_lines(path)
    try:
        return EventCatalog.from_events(*events)
    except ValueError as exc:
        raise CatalogFormatError(f"{path}: {exc}") from None


def _load_events_body(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Event years and intensities read by the array decoder, or None
    where the line parser must decide: an unreadable file, a first line
    other than ``year,intensity`` after an optional UTF-8 BOM, a line
    not as `write_events_stream` writes it (see `_decode.event_cells`)
    or longer than ``_BLOCK_BYTES``, no rows, or an intensity that is
    not positive and finite.

    The file is read twice into one buffer of ``_BLOCK_BYTES``: once to
    count its commas, one to a row, which bounds the rows the outputs are
    allocated for, then in blocks cut after a line end.  The decoder is
    imported on first use, as `_row_words` imports the encoder.
    """
    from ._decode import event_cells

    block = bytearray(_BLOCK_BYTES)
    try:
        with path.open("rb") as fh:
            size = _commas(fh, block)
            fh.seek(0)
            head = block[: fh.readinto(block)]
            bom = len(codecs.BOM_UTF8) if head.startswith(codecs.BOM_UTF8) else 0
            header = ",".join(EVENT_COLUMNS).encode()
            if not head.startswith((header + b"\n", header + b"\r"), bom):
                return None
            fh.seek(bom + len(header))
            # one allocation: two of half the size left peak RSS about 0.3 MB higher
            out = np.empty((2, size), np.int64)
            years, intensities = out[0], out[1].view(np.float64)
            n = have = 0  # rows decoded, bytes of a line carried to the next block
            while True:
                if have == len(block):
                    return None  # a line longer than a block
                got = fh.readinto(memoryview(block)[have:])
                end = have + got
                cut = max(block.rfind(b"\n", 0, end), block.rfind(b"\r", 0, end)) + 1 if got else end
                cells = event_cells(memoryview(block)[:cut])
                if cells is None or n + len(cells[0]) > size:  # or the file grew
                    return None
                k = len(cells[0])
                years[n : n + k], intensities[n : n + k] = cells
                n, have = n + k, end - cut
                if not got:
                    break
                block[:have] = block[cut:end]
    except OSError:
        return None
    if n == 0 or not _positive_finite(intensities[:n]):
        return None
    return years[:n], intensities[:n]


def _commas(fh, block: bytearray) -> int:
    """The commas in the rest of binary file ``fh``, read into ``block``."""
    n = 0
    while got := fh.readinto(block):
        n += np.count_nonzero(np.frombuffer(block, np.uint8, got) == ord(","))
    return n


def _read_events_lines(path: Path) -> tuple[list[int], list[float]]:
    """Line-by-line event CSV parser: the years and intensities of the
    events; errors name the offending line."""
    years: list[int] = []
    intensities: list[float] = []
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CatalogFormatError(f"{path}: empty file")
            if [c.strip().lower() for c in header] != list(EVENT_COLUMNS):
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
        except UnicodeDecodeError:
            raise CatalogFormatError(_not_utf8(path, "utf-8-sig")) from None
    if not years:
        raise CatalogFormatError(f"{path}: no event rows")
    return years, intensities


def _not_utf8(path: Path, encoding: str) -> str:
    """The line and byte where ``path`` stops decoding as ``encoding``: a
    stream's decode error has an offset in its chunk, not in the file."""
    try:
        path.read_bytes().decode(encoding)
    except UnicodeDecodeError as exc:
        line = len(exc.object[: exc.start + 1].splitlines())  # LF, CRLF or CR
        return f"{path}: line {line}: not UTF-8, byte {exc.object[exc.start]:#04x}"
    return f"{path}: not UTF-8"  # the file changed after the failed read


def write_csv_rows(fh, header, columns, *, na_rep: str = "") -> None:
    """Write a header and aligned columns as CSV, a chunk of rows at a time.

    A float array column is written as ``repr`` writes each double, the
    shortest string that reads back to the same double, and NaN as
    ``na_rep``; an integer array as ``str`` of each value; any other
    column as ``str`` of each cell.  Cells are written unquoted, so none
    may contain ``,``, ``"`` or a line break, and lines end in CRLF: the
    bytes are those ``csv.writer`` writes for the same cells.

    No cell of an array becomes a Python string.  A column object passed
    more than once is encoded once.  A 1-d array of stride 0, as
    ``np.broadcast_to`` makes, holds one value: its words are encoded
    once per write and repeated in every chunk.  Chunks are sized by
    cells: with m other float arrays, a chunk has ``_CHUNK_CELLS // m``
    rows, and its m column slices go to the encoder in one call.  Every
    other column chunk is encoded on its own (see ``_cells``), and the
    chunk's rows are laid side by side, stripped of NULs and decoded in
    one piece.  The encoder is imported on first use: compiling it is
    about 5 ms of the start of every CLI call, and most calls write no CSV.
    """
    fh.write(",".join(header) + _EOL)
    n = len(columns[0])
    if not n:
        return
    from ._cells import column_words

    arrays = {id(col): col for col in columns if isinstance(col, np.ndarray)}
    once = {k: column_words(col[:1], na_rep) for k, col in arrays.items() if col.strides == (0,)}
    floats = [col for k, col in arrays.items() if k not in once and col.dtype.kind == "f"]
    rows = _CHUNK_CELLS // max(len(floats), 1)
    for lo in range(0, n, rows):
        words = _row_words(columns, slice(lo, min(lo + rows, n)), once, floats, na_rep).T
        fh.write(words.tobytes().translate(None, b"\0").decode())


def _row_words(columns, part: slice, once: dict, floats: list, na_rep: str) -> np.ndarray:
    """The words of the cells, commas and line ends of the rows ``part``,
    one row of words per word of a CSV row: ``once`` holds the words of
    each broadcast column by ``id``, and the slices of the ``floats``
    columns are encoded in one call and split per column.  The column
    words are freed on return, before the chunk's text is made, which
    keeps the peak memory of a write down."""
    from ._cells import column_words, float_words

    n = part.stop - part.start
    words = {k: np.broadcast_to(w, (len(w), n)) for k, w in once.items()}
    if floats:
        cells = float_words(np.concatenate([col[part] for col in floats]), na_rep)
        for i, col in enumerate(floats):
            w = cells[:, i * n : (i + 1) * n]
            words[id(col)] = w[w.any(axis=1)]
    for col in columns:
        if id(col) not in words:
            words[id(col)] = column_words(col[part], na_rep)
    comma = np.full((1, n), ord(","), np.uint32)
    parts = [p for col in columns for p in (words[id(col)], comma)]
    parts[-1] = np.full((1, n), int.from_bytes(_EOL.encode(), "little"), np.uint32)
    return np.concatenate(parts)


def write_events_stream(catalog: EventCatalog, fh) -> None:
    """Write a catalog as event CSV rows to an open text stream."""
    write_csv_rows(fh, EVENT_COLUMNS, [_EventYears(catalog), catalog.intensities])


class _EventYears:
    """A catalog's ``event_years`` as a column that yields a slice of
    events at a time, so a write holds the years of one chunk, not 8
    bytes for every event."""

    def __init__(self, catalog: EventCatalog):
        self.start, self.counts = catalog.start_year, catalog.counts
        self.ends = np.cumsum(catalog.counts)  # events up to each year's end

    def __len__(self) -> int:
        return int(self.ends[-1])

    def __getitem__(self, part: slice) -> np.ndarray:
        lo, hi, _ = part.indices(len(self))
        a, b = np.searchsorted(self.ends, [lo, hi - 1], side="right")  # years of lo and hi - 1
        counts = self.counts[a : b + 1].copy()
        counts[0] = self.ends[a] - lo
        counts[-1] -= self.ends[b] - hi
        return np.repeat(np.arange(a, b + 1), counts) + self.start


def write_series_stream(series: LongRunSeries, fh) -> None:
    """Write a long-run series as CSV rows to an open text stream; the
    header names its ``years`` column ``t``."""
    names = LongRunSeries.column_names()
    write_csv_rows(fh, ("t", *names[1:]), [getattr(series, name) for name in names])


# --- run configuration -------------------------------------------------

_TOP_FIELDS = {"mode", "frequency", "severity", "years", "seed"}
_FREQ_FIELDS = {"link", "alpha0", "alpha1"}
_SEV_FIELDS = {"family", "beta0", "beta1", "shape"}
# The config field of each `SimulationConfig` model argument; the CLI
# reports a library error that starts with the argument under it too.
MODEL_FIELDS = {"freq": "config.frequency", "sev": "config.severity"}


def _fields(obj, allowed: set[str], where: str) -> dict:
    """``obj``, checked to be a JSON object with no field outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")
    return obj


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: missing required field")
    return obj[key]


def _numbers(obj: dict, where: str, *keys: str) -> list[float]:
    """The required number fields ``keys`` of ``obj``."""
    return [_as_number(_require(obj, k, where), f"{where}.{k}") for k in keys]


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v!r}")
    return float(v)


def _run_seed(raw: dict, mode: str) -> int | None:
    """The seed ``mode`` runs with: the config's, a checked unsigned 64-bit
    integer, which ``simulate`` and ``verify`` require; none for ``theory``.
    A null seed, as `config_dict` writes an unseeded config's, is none."""
    if raw.get("seed") is None:
        if mode == "theory":
            return None
        raise ConfigError("config.seed: required for this mode")
    try:
        seed = _check_seed(raw["seed"])
    except ValueError as exc:
        raise ConfigError(f"config.{exc}") from None
    return None if mode == "theory" else seed


def parse_config(path, mode: str) -> SimulationConfig:
    """Parse and validate the JSON run configuration of command ``mode``.

    A config's ``mode``, if it has one, must name the command; one
    without, as `config_dict` writes it, is read as the command's.
    Unknown fields are rejected.  Model parameters are validated by
    constructing the models and then the config, whose span checks run
    over the configured years, so for example a GPD shape of 0.6 is
    rejected here with the violated constraint ('shape must be < 0.5 for
    finite variance').  The seed follows the mode's rule (`_run_seed`).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(_not_utf8(path, "utf-8")) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _fields(raw, _TOP_FIELDS, "config")

    if "mode" in raw and raw["mode"] != mode:
        raise ConfigError(f"config.mode: expected {mode!r}, got {raw['mode']!r}")

    if "years" not in raw:
        raise ConfigError(f"config.years: required for mode {mode!r}")
    y = raw["years"]
    if not (isinstance(y, list) and len(y) == 2):
        raise ConfigError("config.years: expected [start, end]")
    try:
        years = _check_years(*y)
    except ValueError as exc:
        raise ConfigError(f"config.{exc}") from None

    seed = _run_seed(raw, mode)
    freq = _parse_frequency(_require(raw, "frequency", "config"))
    sev = _parse_severity(_require(raw, "severity", "config"))
    try:  # the models' span checks, the one rule left that can fail
        return SimulationConfig(freq=freq, sev=sev, years=years, seed=seed)
    except ValueError as exc:
        name, _, rest = str(exc).partition(": ")
        raise ConfigError(f"{MODEL_FIELDS[name]}: {rest}") from None


def config_dict(config: SimulationConfig) -> dict:
    """The fields of ``config`` as `parse_config` reads them, ``mode`` aside."""
    freq, sev = config.freq, config.sev
    return {
        "frequency": {"link": freq.link.value, "alpha0": freq.alpha0, "alpha1": freq.alpha1},
        "severity": {
            "family": sev.family.value, "beta0": sev.beta0, "beta1": sev.beta1, "shape": sev.shape
        },
        "years": list(config.years),
        "seed": config.seed,
    }


def _parse_frequency(obj) -> FrequencyModel:
    where = "config.frequency"
    obj = _fields(obj, _FREQ_FIELDS, where)
    link_raw = _require(obj, "link", where)
    try:
        link = RateLink(link_raw)
    except ValueError:
        raise ConfigError(f"{where}.link: expected 'log' or 'identity', got {link_raw!r}") from None
    alpha0, alpha1 = _numbers(obj, where, "alpha0", "alpha1")
    return FrequencyModel(alpha0=alpha0, alpha1=alpha1, link=link)


def _parse_severity(obj) -> SeverityModel:
    where = "config.severity"
    obj = _fields(obj, _SEV_FIELDS, where)
    family_raw = _require(obj, "family", where)
    try:
        family = Family(str(family_raw).lower())
    except ValueError:
        known = [f.value for f in Family]
        raise ConfigError(f"{where}.family: expected one of {known}, got {family_raw!r}") from None
    beta0, beta1 = _numbers(obj, where, "beta0", "beta1")
    shape = None if obj.get("shape") is None else _as_number(obj["shape"], f"{where}.shape")
    try:
        return SeverityModel(family=family, beta0=beta0, beta1=beta1, shape=shape)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
