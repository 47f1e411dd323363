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
2 input error.  The environment variable ``RANDSUM_SEED`` supplies the
seed when the configuration omits it.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (
    long_run_series,
    mailier_index,
    moving_window_correlation,
    nx_independence,
    season_activity,
    with_window_correlation,
)
from .io import (
    CatalogFormatError,
    ConfigError,
    RunConfig,
    RunMode,
    parse_config,
    read_events_csv,
    write_csv_rows,
    write_events_stream,
    write_series_stream,
)
from .riskmodel import j_squared_from_correlation, risk_summary, table1_row
from .simulate import SimulationConfig, replicate_fixed_year, simulate_catalog

__all__ = ["ExitStatus", "ExitReport", "run", "main"]

SEED_ENV_VAR = "RANDSUM_SEED"

_TABLE1_DEFAULT_SHAPES = {"gamma": 2.0, "lognormal": 1.0, "gpd": 0.25}


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
    p_theory.add_argument("--gamma-shape", type=float, default=None)
    p_theory.add_argument("--lognormal-sigma", type=float, default=None)
    p_theory.add_argument("--gpd-shape", type=float, default=None)

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
    p_ver.add_argument("--replicates", type=int, default=None)
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


@contextlib.contextmanager
def _open_out(path):
    """Yield (writable text stream, wrote_to_stdout flag)."""
    if path is None:
        yield sys.stdout, True
    else:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            yield fh, False


def _resolve_seed(config: RunConfig) -> int:
    if config.seed is not None:
        return config.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR}: expected an integer seed, got {raw!r}"
            ) from None
    raise ConfigError(
        f"config.seed: required (or set {SEED_ENV_VAR}) for this mode"
    )


def _model_payload(config: RunConfig, seed=None) -> dict:
    freq = config.freq
    sev = config.sev
    return {
        "frequency": {
            "link": freq.link.value,
            "alpha0": freq.alpha0,
            "alpha1": freq.alpha1,
        },
        "severity": {
            "family": sev.family.value,
            "beta0": sev.trend.beta0,
            "beta1": sev.trend.beta1,
            "shape": sev.shape,
        },
        "years": list(config.years),
        "seed": seed,
    }


def _json_safe(v: float) -> float | None:
    return None if v is None or (isinstance(v, float) and math.isnan(v)) else v


def _summary_values(summaries, names, count: int) -> np.ndarray:
    """The float fields ``names`` of ``count`` summaries, one row per name."""
    rows = ([getattr(s, name) for name in names] for s in summaries)
    return np.fromiter(rows, dtype=(np.float64, len(names)), count=count).T


# --- subcommands --------------------------------------------------------

_SUMMARY_COLUMNS = (
    "year",
    "t",
    "e_n",
    "e_x",
    "e_s",
    "var_n",
    "var_x",
    "var_s",
    "cov_ns",
    "cor_ns",
    "phi",
    "j_squared",
)

_TABLE1_FAMILIES = ("uniform", "gamma", "exponential", "lognormal", "gpd")

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
    config = parse_config(args.config)
    if config.mode is not RunMode.THEORY:
        raise ConfigError(f"config.mode: expected 'theory', got {config.mode.value!r}")
    start, end = config.years
    index = range(1, config.n_years + 1)
    summaries = (risk_summary(config.freq, config.sev, t) for t in index)
    values = _summary_values(summaries, _SUMMARY_COLUMNS[2:], len(index))
    with _open_out(args.out) as (fh, on_stdout):
        write_csv_rows(
            fh,
            _SUMMARY_COLUMNS,
            [range(start, end + 1), index, *values],
            na_rep="nan",
        )
    payload = {
        "mode": "theory",
        "config": _model_payload(config),
        "output": args.out,
        "rows": len(index),
        "csv_on_stdout": on_stdout,
    }
    return ExitReport(
        ExitStatus.OK,
        f"theory: wrote {len(index)} yearly summaries over {start}-{end}",
        payload,
    )


def _theory_table1(args) -> ExitReport:
    shapes = dict(_TABLE1_DEFAULT_SHAPES)
    if args.gamma_shape is not None:
        shapes["gamma"] = args.gamma_shape
    if args.lognormal_sigma is not None:
        shapes["lognormal"] = args.lognormal_sigma
    if args.gpd_shape is not None:
        shapes["gpd"] = args.gpd_shape
    summaries = (
        table1_row(family, mu=1.0, lam=1.0, shape=shapes.get(family))
        for family in _TABLE1_FAMILIES
    )
    values = _summary_values(summaries, _TABLE1_COLUMNS[2:], len(_TABLE1_FAMILIES))
    shape_cells = [
        "" if shapes.get(family) is None else repr(shapes[family])
        for family in _TABLE1_FAMILIES
    ]
    with _open_out(args.out) as (fh, on_stdout):
        write_csv_rows(
            fh,
            _TABLE1_COLUMNS,
            [_TABLE1_FAMILIES, shape_cells, *values],
            na_rep="nan",
        )
    payload = {
        "mode": "theory",
        "table1": True,
        "shapes": shapes,
        "output": args.out,
        "csv_on_stdout": on_stdout,
    }
    return ExitReport(
        ExitStatus.OK,
        "theory: five-family reference table at unit scale and unit rate",
        payload,
    )


def _cmd_simulate(args) -> ExitReport:
    config = parse_config(args.config)
    if config.mode is not RunMode.SIMULATE:
        raise ConfigError(
            f"config.mode: expected 'simulate', got {config.mode.value!r}"
        )
    seed = _resolve_seed(config)
    sim = SimulationConfig(
        freq=config.freq, sev=config.sev, years=config.years, seed=seed
    )
    catalog = simulate_catalog(sim)
    with _open_out(args.out) as (fh, on_stdout):
        write_events_stream(catalog, fh)
    payload = {
        "mode": "simulate",
        "config": _model_payload(config, seed),
        "output": args.out,
        "n_events": catalog.n_events,
        "n_years": catalog.n_years,
        "csv_on_stdout": on_stdout,
    }
    return ExitReport(
        ExitStatus.OK,
        f"simulate: {catalog.n_events} events over {catalog.n_years} years "
        f"(seed {seed})",
        payload,
    )


def _cmd_analyze(args) -> ExitReport:
    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"--level: must lie in (0, 1), got {args.level}")
    catalog = read_events_csv(args.input)
    series = long_run_series(catalog, ci_level=args.level)
    if args.window is not None:
        windowed = moving_window_correlation(catalog, args.window, ci_level=args.level)
        series = with_window_correlation(series, windowed)

    diagnostics: dict = {}
    try:
        diagnostics["nx_independence"] = _json_safe(nx_independence(catalog))
    except ValueError as exc:
        diagnostics["nx_independence"] = None
        diagnostics["nx_independence_note"] = str(exc)
    try:
        diagnostics["mailier_index"] = mailier_index(catalog.counts)
    except ValueError as exc:
        diagnostics["mailier_index"] = None
        diagnostics["mailier_index_note"] = str(exc)
    try:
        diagnostics["season_activity"] = [
            a.value for a in season_activity(catalog.counts)
        ]
    except ValueError as exc:
        diagnostics["season_activity"] = None
        diagnostics["season_activity_note"] = str(exc)

    with _open_out(args.out) as (fh, on_stdout):
        write_series_stream(series, fh)
    payload = {
        "mode": "analyze",
        "input": args.input,
        "output": args.out,
        "window": args.window,
        "ci_level": args.level,
        "n_years": catalog.n_years,
        "n_events": catalog.n_events,
        "diagnostics": diagnostics,
        "csv_on_stdout": on_stdout,
    }
    return ExitReport(
        ExitStatus.OK,
        f"analyze: {catalog.n_events} events over {catalog.n_years} years "
        f"({'window ' + str(args.window) if args.window else 'expanding'} "
        f"correlation)",
        payload,
    )


def _batch_estimates(values_by_batch, statistic):
    vals = [statistic(b) for b in values_by_batch]
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return math.nan
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def _cmd_verify(args) -> ExitReport:
    config = parse_config(args.config)
    if config.mode is not RunMode.VERIFY:
        raise ConfigError(f"config.mode: expected 'verify', got {config.mode.value!r}")
    replicates = args.replicates if args.replicates is not None else config.replicates
    if replicates < 1000:
        raise ConfigError(
            f"--replicates: need at least 1000 for stable standard errors, "
            f"got {replicates}"
        )
    if args.sigma <= 0:
        raise ConfigError(f"--sigma: must be positive, got {args.sigma}")
    seed = _resolve_seed(config)
    t = args.year if args.year is not None else (1 + config.n_years) // 2
    if not 1 <= t <= config.n_years:
        raise ConfigError(
            f"--year: must lie in [1, {config.n_years}], got {t}"
        )

    sim = SimulationConfig(
        freq=config.freq,
        sev=config.sev,
        years=config.years,
        seed=seed,
        replicates=replicates,
    )
    summary = risk_summary(config.freq, config.sev, t)
    ens = replicate_fixed_year(sim, t)
    checks = _verification_checks(ens, summary, args.sigma)

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
        "config": _model_payload(config, seed),
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


def _verification_checks(ens, summary, sigma: float) -> list[dict]:
    """Compare ensemble statistics with closed-form targets.

    Standard errors come from batch means: the replicates are split into
    independent batches, the statistic is computed per batch, and the
    spread of the batch values estimates the sampling error of the
    pooled statistic.
    """
    n = ens.counts.astype(np.float64)
    s = ens.sums
    n_batches = min(100, len(n) // 10)
    idx = np.array_split(np.arange(len(n)), n_batches)
    batches = [(n[i], s[i], ens.first_marks[i]) for i in idx]

    def stat_mean_n(b):
        return float(np.mean(b[0]))

    def stat_var_n(b):
        return float(np.var(b[0]))

    def stat_mean_s(b):
        return float(np.mean(b[1]))

    def stat_var_s(b):
        return float(np.var(b[1]))

    def stat_cov_ns(b):
        return float(np.mean(b[0] * b[1]) - np.mean(b[0]) * np.mean(b[1]))

    def stat_cor_ns(b):
        vn, vs = np.var(b[0]), np.var(b[1])
        if vn <= 0 or vs <= 0:
            return math.nan
        return stat_cov_ns(b) / math.sqrt(vn * vs)

    def stat_cov_xs(b):
        mask = ~np.isnan(b[2])
        if mask.sum() < 2:
            return math.nan
        x1, ss = b[2][mask], b[1][mask]
        return float(np.mean(x1 * ss) - np.mean(x1) * np.mean(ss))

    def stat_j_round_trip(b):
        rho = stat_cor_ns(b)
        mean_n = np.mean(b[0])
        if math.isnan(rho) or not 0 < rho < 1 or mean_n <= 0:
            return math.nan
        phi = float(np.var(b[0]) / mean_n)
        return j_squared_from_correlation(rho, phi)

    full = (n, s, ens.first_marks)
    check_defs = [
        ("mean count", stat_mean_n, summary.e_n),
        ("count variance", stat_var_n, summary.var_n),
        ("mean aggregate (Wald)", stat_mean_s, summary.e_s),
        ("aggregate variance (Blackwell-Girshick)", stat_var_s, summary.var_s),
        ("count-aggregate covariance", stat_cov_ns, summary.cov_ns),
        ("count-aggregate correlation", stat_cor_ns, summary.cor_ns),
        ("intensity-aggregate covariance", stat_cov_xs, summary.var_x),
        ("correlation-dispersion round trip", stat_j_round_trip, summary.j_squared),
    ]
    checks = []
    for name, fn, target in check_defs:
        estimate = fn(full)
        se = _batch_estimates(batches, fn)
        if math.isnan(estimate) or math.isnan(se):
            passed = False
        elif se == 0.0:
            passed = estimate == target
        else:
            passed = abs(estimate - target) <= sigma * se
        checks.append(
            {
                "name": name,
                "estimate": estimate,
                "target": float(target),
                "se": se,
                "passed": bool(passed),
            }
        )
    return checks


if __name__ == "__main__":
    sys.exit(main())
