"""Command-line front end.

Subcommands:

* ``theory``   closed-form yearly summaries for a configured model
  (``--config``), or the five-family reference table (``--table1``, the
  only mode the shape flags apply to)
* ``simulate`` write a seeded event catalog as CSV
* ``analyze``  long-run series and diagnostics for an event CSV
* ``verify``   fixed-year Monte Carlo against the closed forms

The library holds every rule and run (``analyze`` and ``verify`` are
one call each); this module maps flags to arguments, a library error's
argument to its flag (``_ARG_FLAGS``), and formats the reports.
Primary data (CSV) goes to ``--out`` when given, else to stdout.  Human summaries go to stderr; a
machine-readable JSON report (embedding the effective configuration and
seed) goes to stdout whenever stdout is not already carrying CSV.  Exit
codes: 0 ok, 1 verification failure, 2 input error, 3 internal error
(an exception of the program, reported as a JSON ``error``, never a
traceback).  A config holds the models, years and seed, which
``simulate`` and ``verify`` require (`io.parse_config`); per-run values
such as the ensemble size are flags.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import analyze_catalog
from .io import (
    MODEL_FIELDS,
    ConfigError,
    config_dict,
    parse_config,
    read_events_csv,
    write_csv_rows,
    write_events_stream,
    write_series_stream,
)
from .riskmodel import RiskSummary, risk_summary, table1_row
from .severity import Family
from .simulate import simulate_catalog
from .verify import verification_checks

__all__ = ["ExitStatus", "ExitReport", "run", "main"]


class ExitStatus(Enum):
    OK = 0
    VERIFICATION_FAILURE = 1
    INPUT_ERROR = 2
    INTERNAL_ERROR = 3


@dataclass(frozen=True)
class ExitReport:
    """Outcome of one CLI run: status, human summary, machine payload."""

    status: ExitStatus
    summary: str
    payload: dict


# A negative float literal as ``float`` reads it, such as ``-1e-3`` or ``-inf``.
_NEGATIVE_FLOAT = re.compile(
    r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)\Z", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """An `argparse.ArgumentParser`, and so each subcommand's, that takes
    any negative float literal as a value, not as an option (argparse
    takes only ``-1`` and ``-0.5`` forms), so a flag's range rule reports
    it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stormrisk",
        description="Aggregate storm risk: closed forms, simulation, "
        "catalog analysis and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form yearly summaries")
    source = p_theory.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON run configuration")
    source.add_argument(
        "--table1",
        action="store_true",
        help="print the five-family reference table at unit scale and rate",
    )
    p_theory.add_argument("--out", help="write CSV here instead of stdout")
    for flag, default in _TABLE1_SHAPES.values():
        p_theory.add_argument(flag, type=float, help=f"--table1 only (default {default})")

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
        help="trailing-window years for rho, rho_lo and rho_hi; the other "
        "columns stay expanding (default: expanding)",
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
        help="year index to verify at (default: middle of the years)",
    )
    p_ver.add_argument("--out", help="write the JSON report here as well")
    return parser


def run(argv) -> ExitReport:
    """Execute one CLI invocation and report the outcome.

    Never raises for bad input; parse and validation problems come back
    as ``INPUT_ERROR`` reports, and any other exception of a command as
    an ``INTERNAL_ERROR`` report.
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
    except (ValueError, OSError) as exc:
        text = str(exc)
        name, _, rest = text.partition(": ")
        if type(exc) is ValueError and name in _ARG_FLAGS:  # the others may start with a path
            text = f"{_ARG_FLAGS[name]}: {rest}"
        return ExitReport(ExitStatus.INPUT_ERROR, text, {"error": text})
    except Exception as exc:
        text = f"internal error: {type(exc).__name__}: {exc}"
        return ExitReport(ExitStatus.INTERNAL_ERROR, text, {"error": text})


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
    """``v``, or None for a non-finite float, which strict JSON cannot hold."""
    return None if v is None or (isinstance(v, float) and not math.isfinite(v)) else v


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


# --- subcommands --------------------------------------------------------

# The flag or config field of each argument whose name starts a library ValueError.
_ARG_FLAGS = {
    **MODEL_FIELDS,
    "ci_level": "--level",
    "window": "--window",
    "replicates": "--replicates",
    "t": "--year",
    "sigma": "--sigma",
}

_SUMMARY_COLUMNS = ("year", *(f.name for f in fields(RiskSummary)))

_TABLE1_FAMILIES = tuple(f.value for f in Family)

# Flag and default of each shape, the only parameter out of range at unit scale and rate.
_TABLE1_SHAPES = {
    "gamma": ("--gamma-shape", 2.0),
    "lognormal": ("--lognormal-sigma", 1.0),
    "gpd": ("--gpd-shape", 0.25),
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


def _shape_flags(args) -> dict:
    """The value of each family's shape flag, None where not given."""
    return {f: vars(args)[flag[2:].replace("-", "_")] for f, (flag, _) in _TABLE1_SHAPES.items()}


def _cmd_theory(args) -> ExitReport:
    if args.table1:
        return _theory_table1(args)
    for f, value in _shape_flags(args).items():
        if value is not None:  # a config's shape is its severity.shape
            raise ConfigError(f"{_TABLE1_SHAPES[f][0]}: applies only with --table1")
    config = parse_config(args.config, "theory")
    start, end = config.years
    # All years in one evaluation, before any output is opened, so an
    # error leaves no file.
    s = risk_summary(config.freq, config.sev, np.arange(1, config.n_years + 1))
    columns = [start + np.arange(config.n_years), *(getattr(s, f.name) for f in fields(s))]
    return _emit(
        args,
        lambda fh: write_csv_rows(fh, _SUMMARY_COLUMNS, columns, na_rep="nan"),
        f"theory: wrote {config.n_years} yearly summaries over {start}-{end}",
        {"config": config_dict(config), "rows": config.n_years},
    )


def _theory_table1(args) -> ExitReport:
    shapes = {f: _TABLE1_SHAPES[f][1] if v is None else v for f, v in _shape_flags(args).items()}
    shape_cells = [repr(shapes[f]) if f in shapes else "" for f in _TABLE1_FAMILIES]

    rows = []
    for f in _TABLE1_FAMILIES:
        try:
            rows.append(table1_row(f, mu=1.0, lam=1.0, shape=shapes.get(f)))
        except ValueError as exc:
            # the flag is the shape: a message that names it drops the name
            rest = str(exc).removeprefix("shape: ")
            raise ConfigError(f"{_TABLE1_SHAPES[f][0]}: {rest}") from None
    values = (np.array([getattr(r, name) for r in rows]) for name in _TABLE1_COLUMNS[2:])
    columns = [_TABLE1_FAMILIES, shape_cells, *values]
    return _emit(
        args,
        lambda fh: write_csv_rows(fh, _TABLE1_COLUMNS, columns, na_rep="nan"),
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
            "config": config_dict(config),
            "n_events": catalog.n_events,
            "n_years": catalog.n_years,
        },
    )


def _cmd_analyze(args) -> ExitReport:
    catalog = read_events_csv(args.input)
    series, diagnostics = analyze_catalog(catalog, ci_level=args.level, window=args.window)
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
            "diagnostics": {k: _json_safe(v) for k, v in diagnostics.items()},
        },
    )


def _cmd_verify(args) -> ExitReport:
    config = parse_config(args.config, "verify")
    t, checks = verification_checks(config, args.replicates, args.sigma, args.year)

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
        f"{args.sigma} standard errors (replicates {args.replicates}, year index {t}; "
        f"per-check tolerance, no multiple-comparison adjustment)"
    )
    payload = {
        "mode": "verify",
        "config": config_dict(config),
        "replicates": args.replicates,
        "year_index": t,
        "sigma": args.sigma,
        "checks": [
            {**c, **{k: _json_safe(c[k]) for k in ("estimate", "target", "se")}}
            for c in checks
        ],
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
