"""Golden sha256 digests: the bytes of every CSV the CLI writes and the
arrays of the seeded simulators, for one small model per severity family.

A change that alters a draw or a written byte fails here.  The digests
are only ever regenerated for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

prints the ``GOLDEN`` table for the checked-out code.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.cli import ExitStatus, run
from stormrisk.simulate import _BATCH

from helpers import FAMILIES

SEED = 20221115
YEARS = (2001, 2040)
FREQUENCY = {"link": "identity", "alpha0": 12.0, "alpha1": 0.1}
SEVERITIES = {
    "uniform": {"family": "uniform", "beta0": 3.0, "beta1": 0.02},
    "gamma": {"family": "gamma", "beta0": 2.0, "beta1": 0.0, "shape": 1.5},
    "exponential": {"family": "exponential", "beta0": 2.5, "beta1": -0.01},
    "lognormal": {"family": "lognormal", "beta0": 0.5, "beta1": 0.01, "shape": 0.8},
    "gpd": {"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.2},
}
# Straddles the first substream block boundary of replicate_fixed_year.
REPLICATES = _BATCH + 1234
REPLICATE_YEAR = 20
WINDOW = 7
# Enough events for several chunks of the event CSV writer.
LARGE_FREQUENCY = {"link": "identity", "alpha0": 1000.0, "alpha1": 0.0}
TABLE1_OVERRIDES = ("--gamma-shape", "3", "--lognormal-sigma", "0.5", "--gpd-shape", "0.1")

GOLDEN = {
    "catalog": {
        "uniform": "e69be1cd66f6f0f26cc2bfbeb88a755dce7374e2807839ba87bb4311a1b5f564",
        "gamma": "1cabd175ac5e84cea370765889e5b1df0b46df1e420c75097eb9843e152878e9",
        "exponential": "dff41c8b8f1231d5d18a5f2ec8b4b603d251e2e3a2c0d9bf417e54f0f39c3e34",
        "lognormal": "6978c05a9ad2ead0394cc45d7696b2fea580ea4b963e44556af34f3e97908a5c",
        "gpd": "fcb205f1445411f46b4424d76a695c196ed73bb843fd84f8bcadf952de7919f1",
    },
    "replicate": {
        "uniform": "3d2a466cd8fd39be99ed42120e30282891e1f8c4acb6275978d5cb8c64af6c65",
        "gamma": "a32028642fa9934bbcd45faf89dd63f2f4a91e53de9f17e94faa1d8b39cc9b1c",
        "exponential": "56e2b0b59d7e2959e1427cd7846c60a893f2c959a74d59c952f336219db90333",
        "lognormal": "b70f26c0e661418e06e5c7da95f21f2810cf234cda2ae3c66b8d10acb70b4a49",
        "gpd": "612c361015fa270bc311e9c32797274a2b6adb737fd52b0926404885db5a3538",
    },
    "events_csv": {
        "uniform": "bed815a53e482c637e07d7e900cf148d4241980832afa7010293731e77781cc8",
        "gamma": "66fd3d5a01bf0c04d6c9cdae405c452cd753b768305b2eb104864da790e853d6",
        "exponential": "417100c1314ec9fdd5feaea548e65d50b39590150d51047cb38b600fd5ab2ac4",
        "lognormal": "aac340aea4897de19d57e4ec6cd9b773633586fdad4882b61e3f247247db72b0",
        "gpd": "2062197d2cc854252c6655431340a24e0eedbf0a7d7ced326f967df22850cf97",
    },
    "series_csv": {
        "uniform": "48aec95e1d0740341895ca3e222b68b8d42b4ec08efc3574dd7cf34d95c331e7",
        "gamma": "e1361aeb358483c24e042d8819d9718e93996eed1ab55ea1b421158d4ae5e757",
        "exponential": "35daac0c7438fc3d8520e0c6b716f2bb99de828c9f7ad2a7eace8a12f8eaba02",
        "lognormal": "e6e07dd8fe0f038ec8d5d5e2a1733b42837754de864ca499f00945b74d8fc471",
        "gpd": "96fc7b843d72625ed440f40abbb11e0de4a215bb6eb79fcf5984703fbd4bcb57",
    },
    "series_window_csv": {
        "uniform": "fdebb1f0153140c75e0f8039eeb7ac1fcdfe85bf42325062fa0fa683abb2d9a0",
        "gamma": "1836e478a8defb246cac804463f8e72751de57ce29dc914b41393812e6df026f",
        "exponential": "f11e81c6c4fc80a520db4b42ba51a1f81bf44dfdbe194dc42de4e595bff5fd52",
        "lognormal": "a84fb152ec2d6e8977e054b32179e7493d7193b85ba455401496bb828d421d17",
        "gpd": "60519b16cdc69c9ff838985f4978d180780d97980d380e642afb9ccec5dc51ed",
    },
    "theory_csv": {
        "uniform": "dd89f12d1c03f780c8a7b5c783c066007dfbb9a2b04ba760bbe2f9a1cd7c0d6b",
        "gamma": "4511fdd6c3db6b70e62b8e1f320abe68e7c7c3f4d178c274d557c19e23a37db0",
        "exponential": "5d54879fc4f4a077fe1fe14c3afd026427977e7db0e0253ed064c1cab0431dd2",
        "lognormal": "54c41208d4ddb0a833acc6b672073d270469b184f0fd1af7276c876386736d6b",
        "gpd": "f451ca6f50bac87f0f6498c358d36334c15df73fb8c3a34c08ea5bae11c316a8",
    },
    "table1_csv": {
        "default": "fdaa6526fcddb9e6ba25b8fee57c6c7061d56a5bf050588a2a1718dcf87ce088",
        "overrides": "bc8f22af71bff3e02d4fab2fb47939b63a49bccd00cdb633d01b235e26c69ce5",
    },
    "large_events_csv": "3be2b8f832ee35434389335e886e707a4654318ba0f2c5ecccb50e96df7fa523",
}


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()


def _model(family: str) -> sr.SimulationConfig:
    sev = SEVERITIES[family]
    n = YEARS[1] - YEARS[0] + 1
    return sr.SimulationConfig(
        freq=sr.FrequencyModel(
            alpha0=FREQUENCY["alpha0"],
            alpha1=FREQUENCY["alpha1"],
            link=FREQUENCY["link"],
            horizon=(1, n),
        ),
        sev=sr.SeverityModel(
            family=family,
            trend=sr.TrendParams(sev["beta0"], sev["beta1"]),
            horizon=(1, n),
            shape=sev.get("shape"),
        ),
        years=YEARS,
        seed=SEED,
        replicates=REPLICATES,
    )


def catalog_digest(family: str) -> str:
    c = sr.simulate_catalog(_model(family))
    return _sha256(c.counts, c.sums, c.event_years, c.intensities)


def replicate_digest(family: str) -> str:
    e = sr.replicate_fixed_year(_model(family), REPLICATE_YEAR)
    return _sha256(e.counts, e.sums, e.first_marks)


def _run_csv(work: Path, name: str, argv: list[str]) -> str:
    out = work / name
    report = run([*argv, "--out", str(out)])
    assert report.status is ExitStatus.OK, report.summary
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _config(work: Path, family: str, mode: str, frequency=FREQUENCY) -> str:
    path = work / f"{mode}-{family}.json"
    cfg = {
        "mode": mode,
        "frequency": frequency,
        "severity": SEVERITIES[family],
        "years": list(YEARS),
        "seed": SEED,
    }
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def cli_digests(work: Path, family: str) -> dict[str, str]:
    """Digests of the event, series (expanding and windowed) and theory
    CSVs that the CLI writes for one family's model."""
    events = str(work / f"events-{family}.csv")
    return {
        "events_csv": _run_csv(
            work,
            f"events-{family}.csv",
            ["simulate", "--config", _config(work, family, "simulate")],
        ),
        "series_csv": _run_csv(work, "series.csv", ["analyze", "--input", events]),
        "series_window_csv": _run_csv(
            work,
            "series-window.csv",
            ["analyze", "--input", events, "--window", str(WINDOW)],
        ),
        "theory_csv": _run_csv(
            work, "theory.csv", ["theory", "--config", _config(work, family, "theory")]
        ),
    }


def table1_digests(work: Path) -> dict[str, str]:
    return {
        "default": _run_csv(work, "t1.csv", ["theory", "--table1"]),
        "overrides": _run_csv(work, "t1o.csv", ["theory", "--table1", *TABLE1_OVERRIDES]),
    }


def large_events_digest(work: Path) -> str:
    cfg = _config(work, "gpd", "simulate", LARGE_FREQUENCY)
    return _run_csv(work, "large.csv", ["simulate", "--config", cfg])


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays(family):
    assert catalog_digest(family) == GOLDEN["catalog"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_replicate_fixed_year_across_block_boundary(family):
    assert replicate_digest(family) == GOLDEN["replicate"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_cli_csv_bytes(tmp_path, family):
    digests = cli_digests(tmp_path, family)
    assert digests == {kind: GOLDEN[kind][family] for kind in digests}


def test_table1_csv_bytes(tmp_path):
    assert table1_digests(tmp_path) == GOLDEN["table1_csv"]


def test_large_event_csv_bytes(tmp_path):
    assert large_events_digest(tmp_path) == GOLDEN["large_events_csv"]


def _regenerate() -> dict:
    golden = {kind: {} for kind in GOLDEN}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for family in FAMILIES:
            golden["catalog"][family] = catalog_digest(family)
            golden["replicate"][family] = replicate_digest(family)
            for kind, digest in cli_digests(work, family).items():
                golden[kind][family] = digest
        golden["table1_csv"] = table1_digests(work)
        golden["large_events_csv"] = large_events_digest(work)
    return golden


if __name__ == "__main__":
    json.dump(_regenerate(), sys.stdout, indent=4)
    print()
