"""The benchmark's workloads: fixed stormrisk configs and the CLI command
sequence each pass runs.

The seed is the only input a workload varies; it becomes the ``seed``
field of every generated config, and nothing else depends on it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# Golden output digests are stored for this seed only (see golden.json).
DEFAULT_SEED = 0

# Sizes keep every command near 0.2-0.5 s on a 2-vCPU Xeon VM, so that
# the median over a run's many passes averages out the shared host's
# speed changes (see README.md).

_GPD = {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.2}
_GAMMA = {"family": "gamma", "beta0": 1.0, "beta1": 0.0, "shape": 2.0}
_LOGNORMAL = {"family": "lognormal", "beta0": 1.0, "beta1": 0.0, "shape": 1.0}

LONG_HORIZON = {
    "frequency": {"link": "identity", "alpha0": 2.0, "alpha1": 1e-5},
    "severity": _GPD,
    "years": [1, 10000],
}
DENSE_CATALOG = {
    "frequency": {"link": "identity", "alpha0": 300.0, "alpha1": 0.0},
    "severity": _GAMMA,
    "years": [1, 500],
}
ENSEMBLE_FREQUENCY = {"link": "identity", "alpha0": 20.0, "alpha1": 0.0}
ENSEMBLE_YEARS = [1, 60]
ENSEMBLE_REPLICATES = 250_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``config`` is written to ``config_path`` once before the first pass.
    ``output`` is the CSV whose bytes are digested after the command;
    commands without one (``verify``) are digested from their JSON report.
    """

    label: str
    argv: tuple[str, ...]
    config: dict | None = None
    config_path: Path | None = None
    output: Path | None = None


def _model_command(label, mode, model, seed, work: Path, extra=(), out=None):
    path = work / f"{label}.json"
    argv = (mode, "--config", str(path), *extra)
    if out is not None:
        argv += ("--out", str(work / out))
    return Command(
        label,
        argv,
        {"mode": mode, **model, "seed": seed},
        path,
        None if out is None else work / out,
    )


def pipeline(model: dict, seed: int, work: Path, *, theory: bool, window=None):
    """``theory`` (optional), ``simulate`` and ``analyze`` of one model."""
    commands = []
    if theory:
        commands.append(
            _model_command("theory", "theory", model, seed, work, out="theory.csv")
        )
    commands.append(
        _model_command("simulate", "simulate", model, seed, work, out="events.csv")
    )
    argv = ("analyze", "--input", str(work / "events.csv"))
    if window is not None:
        argv += ("--window", str(window))
    argv += ("--out", str(work / "series.csv"))
    commands.append(Command("analyze", argv, output=work / "series.csv"))
    return commands


def ensemble(severities, seed: int, work: Path, replicates: int):
    """One ``verify`` per severity family at a shared frequency model."""
    return [
        _model_command(
            f"verify_{sev['family']}",
            "verify",
            {"frequency": ENSEMBLE_FREQUENCY, "severity": sev, "years": ENSEMBLE_YEARS},
            seed,
            work,
            extra=("--replicates", str(replicates)),
        )
        for sev in severities
    ]


@dataclass(frozen=True)
class Workload:
    """A named command sequence; ``sizes`` go into each run's provenance.
    Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    sizes: dict
    commands: Callable[[int, Path], list[Command]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_horizon",
            {"years": 10000, "expected_events": 20500, "window": 30},
            lambda seed, work: pipeline(
                LONG_HORIZON, seed, work, theory=True, window=30
            ),
        ),
        Workload(
            "dense_catalog",
            {"years": 500, "expected_events": 150000, "window": None},
            lambda seed, work: pipeline(DENSE_CATALOG, seed, work, theory=False),
        ),
        Workload(
            "verify_ensemble",
            {"years": 60, "replicates": ENSEMBLE_REPLICATES, "families": 3},
            lambda seed, work: ensemble(
                (_GPD, _GAMMA, _LOGNORMAL), seed, work, ENSEMBLE_REPLICATES
            ),
        ),
    )
}


def write_configs(commands: list[Command]) -> None:
    for cmd in commands:
        if cmd.config is not None:
            cmd.config_path.write_text(json.dumps(cmd.config), encoding="utf-8")
