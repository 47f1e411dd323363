"""Command-line front end.

Subcommands:

* ``theory``   closed-form yearly summaries for a configured model, or
  the five-family reference table via ``--table1``
* ``simulate`` write a seeded event catalog as CSV
* ``analyze``  long-run series and diagnostics for an event CSV
* ``verify``   fixed-year Monte Carlo against the closed forms

Primary data (CSV) goes to ``--out`` when given, else to stdout.  Human
summaries go to stderr; a machine-readable JSON report (embedding the
effective configuration and seed) goes to stdout whenever stdout is not
already carrying CSV.  Exit codes: 0 ok, 1 verification failure,
2 input error.  A config holds the models, years and seed, with the seed
rule of `io.parse_config`; per-run values such as the ensemble size are flags.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import json
import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import _MAX_ROWS
from .estimate import long_run_series, mailier_index, nx_independence, season_activity
from .io import (
    CatalogFormatError,
    ConfigError,
    parse_config,
    read_events_csv,
    write_csv_rows,
    write_events_stream,
    write_series_stream,
)
from .riskmodel import RiskSummary, risk_summary, table1_row
from .severity import Family
from .simulate import replicate_fixed_year, simulate_catalog
from .verify import verification_checks

__all__ = ["ExitStatus", "ExitReport", "run", "main"]


class ExitStatus(Enum):
    OK = 0
    VERIFICATION_FAILURE = 1
    INPUT_ERROR = 2


@dataclass(frozen=True)
class ExitReport:
    """Outcome of one CLI run: status, human summary, machine payload."""

    status: ExitStatus
    summary: str
    payload: dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormrisk",
        description="Aggregate storm risk: closed forms, simulation, "
        "catalog analysis and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form yearly summaries")
    p_theory.add_argument("--config", help="JSON run configuration")
    p_theory.add_argument("--out", help="write CSV here instead of stdout")
    p_theory.add_argument(
        "--table1",
        action="store_true",
        help="print the five-family reference table at unit scale and rate",
    )
    p_theory.add_argument("--gamma-shape", type=float, default=2.0)
    p_theory.add_argument("--lognormal-sigma", type=float, default=1.0)
    p_theory.add_argument("--gpd-shape", type=float, default=0.25)

    p_sim = sub.add_parser("simulate", help="generate a seeded event catalog")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", help="write event CSV here instead of stdout")

    p_an = sub.add_parser("analyze", help="long-run series for an event CSV")
    p_an.add_argument("--input", required=True, help="event CSV")
    p_an.add_argument("--out", help="write series CSV here instead of stdout")
    p_an.add_argument(
        "--window",
        type=int,
        default=None,
        help="trailing-window years for the correlation columns "
        "(default: expanding)",
    )
    p_an.add_argument("--level", type=float, default=0.95, help="CI level")

    p_ver = sub.add_parser("verify", help="Monte Carlo check of the closed forms")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--replicates", type=int, required=True, help="ensemble size")
    p_ver.add_argument(
        "--sigma",
        type=float,
        default=4.0,
        help="tolerance in standard errors per check (default 4)",
    )
    p_ver.add_argument(
        "--year",
        type=int,
        default=None,
        help="year index to verify at (default: middle of the horizon)",
    )
    p_ver.add_argument("--out", help="write the JSON report here as well")
    return parser


def run(argv) -> ExitReport:
    """Execute one CLI invocation and report the outcome.

    Never raises for bad input; parse and validation problems come back
    as ``INPUT_ERROR`` reports.
    """
    parser = _build_parser()
    try:
        with contextlib.redirect_stderr(_stdio.StringIO()) as cap_err:
            with contextlib.redirect_stdout(_stdio.StringIO()) as cap_out:
                args = parser.parse_args(list(argv))
    except SystemExit as exc:
        text = cap_err.getvalue() or cap_out.getvalue() or parser.format_usage()
        if exc.code not in (0, None):
            return ExitReport(ExitStatus.INPUT_ERROR, text, {"error": text})
        return ExitReport(ExitStatus.OK, text, {"message": text})

    handler = {
        "theory": _cmd_theory,
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, CatalogFormatError, ValueError, OSError) as exc:
        return ExitReport(ExitStatus.INPUT_ERROR, str(exc), {"error": str(exc)})


def main(argv=None) -> int:
    report = run(sys.argv[1:] if argv is None else argv)
    if "message" in report.payload:  # help/version text
        sys.stdout.write(report.payload["message"])
        return report.status.value
    if report.summary:
        print(report.summary, file=sys.stderr)
    if not report.payload.get("csv_on_stdout"):
        print(json.dumps(report.payload, indent=None, sort_keys=True))
    return report.status.value


# --- helpers ------------------------------------------------------------


def _json_safe(v: float) -> float | None:
    return None if v is None or (isinstance(v, float) and math.isnan(v)) else v


def _emit(args, write, summary: str, payload: dict) -> ExitReport:
    """Run ``write(fh)`` on ``--out``, else on stdout, and return the OK
    report: ``payload`` plus ``mode``, ``output`` and ``csv_on_stdout``."""
    if args.out is None:
        write(sys.stdout)
    else:
        with Path(args.out).open("w", encoding="utf-8", newline="") as fh:
            write(fh)
    payload = {
        "mode": args.command,
        **payload,
        "output": args.out,
        "csv_on_stdout": args.out is None,
    }
    return ExitReport(ExitStatus.OK, summary, payload)


def _write_summaries(header, leading, summaries):
    """A writer of CSV: the ``leading`` columns, then one float column per
    remaining ``header`` name, that field of each summary.

    Every summary is evaluated here, before any output is opened, so an
    error leaves no file.
    """
    names = header[len(leading) :]
    rows = ([getattr(s, name) for name in names] for s in summaries)
    count = len(leading[0])
    values = np.fromiter(rows, dtype=(np.float64, len(names)), count=count).T
    return lambda fh: write_csv_rows(fh, header, [*leading, *values], na_rep="nan")


# --- subcommands --------------------------------------------------------

_SUMMARY_COLUMNS = ("year", *(f.name for f in fields(RiskSummary)))

_TABLE1_FAMILIES = tuple(f.value for f in Family)

# Only the shaped families can be out of range at unit scale and rate.
_TABLE1_SHAPE_FLAGS = {
    "gamma": "--gamma-shape",
    "lognormal": "--lognormal-sigma",
    "gpd": "--gpd-shape",
}

_TABLE1_COLUMNS = (
    "family",
    "shape",
    "e_x",
    "var_x",
    "e_s",
    "var_s",
    "cov_ns",
    "cor_ns",
    "j_squared",
)


def _cmd_theory(args) -> ExitReport:
    if args.table1:
        return _theory_table1(args)
    if not args.config:
        raise ConfigError("theory: --config is required unless --table1 is given")
    config = parse_config(args.config, "theory")
    start, end = config.years
    index = range(1, config.n_years + 1)
    return _emit(
        args,
        _write_summaries(
            _SUMMARY_COLUMNS,
            [range(start, end + 1), index],
            (risk_summary(config.freq, config.sev, t) for t in index),
        ),
        f"theory: wrote {len(index)} yearly summaries over {start}-{end}",
        {"config": config.to_dict(), "rows": len(index)},
    )


def _theory_table1(args) -> ExitReport:
    shapes = {
        "gamma": args.gamma_shape,
        "lognormal": args.lognormal_sigma,
        "gpd": args.gpd_shape,
    }
    shape_cells = [repr(shapes[f]) if f in shapes else "" for f in _TABLE1_FAMILIES]

    def rows():
        for f in _TABLE1_FAMILIES:
            try:
                yield table1_row(f, mu=1.0, lam=1.0, shape=shapes.get(f))
            except ValueError as exc:
                raise ConfigError(f"{_TABLE1_SHAPE_FLAGS[f]}: {exc}") from None

    return _emit(
        args,
        _write_summaries(_TABLE1_COLUMNS, [_TABLE1_FAMILIES, shape_cells], rows()),
        "theory: five-family reference table at unit scale and unit rate",
        {"table1": True, "shapes": shapes},
    )


def _cmd_simulate(args) -> ExitReport:
    config = parse_config(args.config, "simulate")
    catalog = simulate_catalog(config)
    return _emit(
        args,
        lambda fh: write_events_stream(catalog, fh),
        f"simulate: {catalog.n_events} events over {catalog.n_years} years "
        f"(seed {config.seed})",
        {
            "config": config.to_dict(),
            "n_events": catalog.n_events,
            "n_years": catalog.n_years,
        },
    )


def _cmd_analyze(args) -> ExitReport:
    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"--level: must lie in (0, 1), got {args.level}")
    if args.window is not None and args.window < 3:
        raise ConfigError(f"--window: must be at least 3 years, got {args.window}")
    catalog = read_events_csv(args.input)
    if args.window is not None and args.window > catalog.n_years:
        raise ConfigError(
            f"--window: exceeds the {catalog.n_years}-year catalog, got {args.window}"
        )
    series = long_run_series(catalog, ci_level=args.level, window=args.window)

    diagnostics: dict = {}
    for name, call in (
        ("nx_independence", lambda: _json_safe(nx_independence(catalog))),
        ("mailier_index", lambda: mailier_index(catalog.counts)),
        ("season_activity", lambda: season_activity(catalog.counts)),
    ):
        try:
            diagnostics[name] = call()
        except ValueError as exc:
            diagnostics[name] = None
            diagnostics[f"{name}_note"] = str(exc)

    return _emit(
        args,
        lambda fh: write_series_stream(series, fh),
        f"analyze: {catalog.n_events} events over {catalog.n_years} years "
        f"({'window ' + str(args.window) if args.window else 'expanding'} "
        f"correlation)",
        {
            "input": args.input,
            "window": args.window,
            "ci_level": args.level,
            "n_years": catalog.n_years,
            "n_events": catalog.n_events,
            "diagnostics": diagnostics,
        },
    )


def _cmd_verify(args) -> ExitReport:
    config = parse_config(args.config, "verify")
    replicates = args.replicates
    if replicates < 1000:
        raise ConfigError(
            "--replicates: need at least 1000 for stable standard errors, "
            f"got {replicates}"
        )
    if replicates > _MAX_ROWS:
        raise ConfigError(
            f"--replicates: at most {_MAX_ROWS} fit the row budget, got {replicates}"
        )
    if not 0 < args.sigma < math.inf:
        raise ConfigError(f"--sigma: must be positive and finite, got {args.sigma}")
    t = args.year if args.year is not None else (1 + config.n_years) // 2
    if not 1 <= t <= config.n_years:
        raise ConfigError(
            f"--year: must lie in [1, {config.n_years}], got {t}"
        )

    summary = risk_summary(config.freq, config.sev, t)
    ens = replicate_fixed_year(config, t, replicates)
    checks = verification_checks(ens, summary, args.sigma)

    failed = [c for c in checks if not c["passed"]]
    status = ExitStatus.VERIFICATION_FAILURE if failed else ExitStatus.OK
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
        f"estimate {c['estimate']:.6g}, target {c['target']:.6g}, "
        f"se {c['se']:.3g}"
        for c in checks
    ]
    lines.append(
        f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed at "
        f"{args.sigma} standard errors (replicates {replicates}, year index {t}; "
        f"per-check tolerance, no multiple-comparison adjustment)"
    )
    payload = {
        "mode": "verify",
        "config": config.to_dict(),
        "replicates": replicates,
        "year_index": t,
        "sigma": args.sigma,
        "checks": checks,
        "status": status.name.lower(),
        "note": "each check uses its own sigma-level tolerance; with k checks "
        "the family-wise false-alarm rate is about k times the per-check rate",
    }
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
    return ExitReport(status, "\n".join(lines), payload)


if __name__ == "__main__":
    sys.exit(main())
