"""Golden sha256 digests: the bytes of every CSV the CLI writes, the JSON
report of every command and the arrays of the seeded simulators, for one
small model per severity family.

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
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import stormrisk as sr
from stormrisk.cli import ExitStatus, run
from stormrisk.simulate import _BATCH, replicate_fixed_year

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
# The theory CSV is also pinned under a log-link rate.
LOG_FREQUENCY = {"link": "log", "alpha0": 2.5, "alpha1": 0.01}
# Enough events for several chunks of the event CSV writer.
LARGE_FREQUENCY = {"link": "identity", "alpha0": 1000.0, "alpha1": 0.0}
TABLE1_OVERRIDES = ("--gamma-shape", "3", "--lognormal-sigma", "0.5", "--gpd-shape", "0.1")
# Catalogs are also pinned under the log-link rate, for trending GPD
# drivers with a positive, zero (the log1p branch) and negative shape,
# and at the largest seed, whose two entropy words make a catalog key
# four words long and a replicate key five.
GPD_TREND_SHAPES = {"positive": 0.2, "zero": 0.0, "negative": -0.3}
MAX_SEED = 2**64 - 1
# Every rate above is at least 10, where numpy's Poisson draw uses PTRS;
# below 10 it uses the multiplication method.  These catalogs pin that
# path: a stationary rate of 2, and a GPD rate that crosses 10 at t = 20.
LOW_FREQUENCY = {"link": "identity", "alpha0": 2.0, "alpha1": 0.0}
CROSSING_FREQUENCY = {"link": "identity", "alpha0": 8.0, "alpha1": 0.1}

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
    "catalog_log": {
        "uniform": "c85a4f59b0bad53bb1267b1689ca05a42b10ee0c500c859d9abbbe4ae481a091",
        "gamma": "32f7addbbd5909a7f0b6e8570f42d85a1d5b3f2f085d3cf1f727ca3e9cc651c7",
        "exponential": "3b57d54336616285d08995373d9f0018ec2445853d65e4b95f5886f8ae647747",
        "lognormal": "cb4d4ccf3707c0229845bde4b77c6edacd7d92deb12ef0b310bd4774f92aae23",
        "gpd": "2aaa07e6763e70297ddc25cc6527cc2ca14eb7a474158a0b51de4837474be1ad",
    },
    "catalog_gpd_trend": {
        "positive": "bcfec4ac610edf7f2a380f57da0edc19a2da087c59782a1f386d1008cdb48722",
        "zero": "9d124eba18a7369539477672166a15c732deace8ea3ab61f0861f4006f9271df",
        "negative": "571e3569ec7aca3a43ef4e57cf08a77625aa5b39b26576919c0192d2d755ca02",
    },
    "catalog_max_seed": {
        "uniform": "07d59ed6722afc715086b620460c194060ffbd55e663feb25c426e4ead476c82",
        "gamma": "c32b039a008ad382f952e76cf8bbf8905146f3de8feb1c44a279d0d8cded9d05",
        "exponential": "92c4c6a346a40c2a7c79f5177e33a70505c10908576e1a81d067a5103956b464",
        "lognormal": "9245d439e6a2af9633a1f6f653d4ed3a9b8e536494e17481f6eb801d09047d3b",
        "gpd": "c5b21bcaeeab2d1dff475c311e9daa40049fe29721f8f2d5f57eb45bc20443db",
    },
    "catalog_low_rate": {
        "uniform": "878d6ced403697f9489be44cc50c87269740f9c1be19c135c3a0403abc7a7c17",
        "gamma": "de89c352d38d4804f897a9ee2a0881fdc62cbdeac485931fe894958a5a68aba2",
        "exponential": "eb9e46d86961bb9d811fe67563bd95cbe3e452e324cbca27ee881e4d96834842",
        "lognormal": "ca416e9840c88b8ec1e2d19f2a07093d3f1e86a6e17fae9862a629d33f15b0e6",
        "gpd": "c665d3cd25b80f5291587b0f357636c42460e241bbe754100d8d5a042c6a46b0",
    },
    "catalog_low_rate_max_seed": {
        "uniform": "396a9fdc5f04705bce0090cb8a17a6178db340711e0f19c195d66f2bc21ebb91",
        "gamma": "e1e360dd7b8a24eded1bef03a710359d9f80ed6735af1b925e852b0246d3dcac",
        "exponential": "a65898337142ef7e3beb5549a859dfcb81cc7c9621b85cd40a300764348d4775",
        "lognormal": "4415c728975765078b561151cfe714093b2cd89fbddcebdb5e48e013aeeeb78b",
        "gpd": "0af1a2ee0dca0bbea2d281a15014dd5d7cbbef211883b372cde386677a1421de",
    },
    "catalog_rate_crossing": "dfb890f75758e651b316245ca3db78cc0c41e451de1b2ed6759e299e28ae8454",
    "replicate_max_seed": "cf3b5b23ee891cc3be5b26d4c3b42376d3890f5f6c7e79485b7e7bce1b1ead63",
    "events_csv": {
        "uniform": "bed815a53e482c637e07d7e900cf148d4241980832afa7010293731e77781cc8",
        "gamma": "66fd3d5a01bf0c04d6c9cdae405c452cd753b768305b2eb104864da790e853d6",
        "exponential": "417100c1314ec9fdd5feaea548e65d50b39590150d51047cb38b600fd5ab2ac4",
        "lognormal": "aac340aea4897de19d57e4ec6cd9b773633586fdad4882b61e3f247247db72b0",
        "gpd": "2062197d2cc854252c6655431340a24e0eedbf0a7d7ced326f967df22850cf97",
    },
    "simulate_json": {
        "uniform": "71a2dfdee892a7d21bab73c3802fe78053885a99b4cebcf3f7448cef0ecac485",
        "gamma": "6f11797dcfc9c9ca3bb2fe4d6c9da3c9c8ce0a68089a4691d9616d159803da99",
        "exponential": "04f217dae38426710acf9ad7122a02f35c8cbd2c03eb7bdd8ed9a883c750ae58",
        "lognormal": "d2b1366bd58f1db230ffcda222fe25a82407353586f92a9d0b9b0367db0c4fc3",
        "gpd": "1b33b2fa81e3ae533c84932e090895449ae835e9a37e656821c77886905d9e42",
    },
    "series_csv": {
        "uniform": "48aec95e1d0740341895ca3e222b68b8d42b4ec08efc3574dd7cf34d95c331e7",
        "gamma": "e1361aeb358483c24e042d8819d9718e93996eed1ab55ea1b421158d4ae5e757",
        "exponential": "35daac0c7438fc3d8520e0c6b716f2bb99de828c9f7ad2a7eace8a12f8eaba02",
        "lognormal": "e6e07dd8fe0f038ec8d5d5e2a1733b42837754de864ca499f00945b74d8fc471",
        "gpd": "96fc7b843d72625ed440f40abbb11e0de4a215bb6eb79fcf5984703fbd4bcb57",
    },
    "analyze_json": {
        "uniform": "1367944ef6ab7698e7bb4f8794f8ce2c87dc0d9b14a2ec3e4b5f54d798679817",
        "gamma": "5d83b6431fd8c79d955201c85dbe49ffbcc2be5d90f3922935742d635da4848a",
        "exponential": "916b66192068fc108ec77ba481e1187ae3d9218531022dc4a014c73d3397e861",
        "lognormal": "dadb64a6be61d6f4accfbd00602fd9e7b11e5c0d84218793ed4c699b0956f66b",
        "gpd": "ff1245fa93ef823da9246f1d17e9a9e0f918ac0ca56674fdf42852cc19b8344a",
    },
    "series_window_csv": {
        "uniform": "fdebb1f0153140c75e0f8039eeb7ac1fcdfe85bf42325062fa0fa683abb2d9a0",
        "gamma": "1836e478a8defb246cac804463f8e72751de57ce29dc914b41393812e6df026f",
        "exponential": "f11e81c6c4fc80a520db4b42ba51a1f81bf44dfdbe194dc42de4e595bff5fd52",
        "lognormal": "a84fb152ec2d6e8977e054b32179e7493d7193b85ba455401496bb828d421d17",
        "gpd": "60519b16cdc69c9ff838985f4978d180780d97980d380e642afb9ccec5dc51ed",
    },
    "analyze_window_json": {
        "uniform": "1ec4ad4de1eae195790a967f30f5eef814b862634ce1a6ed0dec69c34a64df30",
        "gamma": "8bef04e9c5910090b7638f49d75b513a899df70d4452129b37cb6168e0771019",
        "exponential": "7e14bdd84982496a0c69e1107acaa1495dbd0932570f1e4c1da067d22fab2ba3",
        "lognormal": "591459ba2cc4088451f7dcfdc400b37c1dc54fea16ec9a6471825f054ee9b047",
        "gpd": "09a969788c8f472a3d1a5545826918e1a625e090b9bf734ffbfb61fe1a330ac0",
    },
    "theory_csv": {
        "uniform": "dd89f12d1c03f780c8a7b5c783c066007dfbb9a2b04ba760bbe2f9a1cd7c0d6b",
        "gamma": "4511fdd6c3db6b70e62b8e1f320abe68e7c7c3f4d178c274d557c19e23a37db0",
        "exponential": "5d54879fc4f4a077fe1fe14c3afd026427977e7db0e0253ed064c1cab0431dd2",
        "lognormal": "54c41208d4ddb0a833acc6b672073d270469b184f0fd1af7276c876386736d6b",
        "gpd": "f451ca6f50bac87f0f6498c358d36334c15df73fb8c3a34c08ea5bae11c316a8",
    },
    "theory_json": {
        "uniform": "c3f8d3bd9a876057747e74d90dd754c4d0073a03574c34f3cf85967598b69f59",
        "gamma": "ec78418f83222d1d10a4d8e93998833d9ee01fefdc00500feadac162bdf03ab7",
        "exponential": "fff6db3ec6bfb3d11c50db794c39d0fddf1f73b90b9d60afd16abd23766ee0e1",
        "lognormal": "369576ad0b96dc047a95e7c88e546b5e85701af0d9c9854d845b40485259cb20",
        "gpd": "a0cb5421d4d1371b78a7a6975f13aabaadd4c328c33e2fc1f5bd989de96d385f",
    },
    "theory_log_csv": {
        "uniform": "7ad90d84c4771974b4df2ef5dfd8fe032046dee7fa1d3caef40f693bd587cbfa",
        "gamma": "40b60dfbe4487fcf0600a563e7d3b8c4bd9bd7021dfbe991a9edde1c0068a75b",
        "exponential": "1fa52033476945f83390a62e34b736fd4e45482719a73a170fcfb9cdeb0dd137",
        "lognormal": "396649c8f90aad280b63325f5c616971b7dc3e720ff852a8ca15b7587d9b2647",
        "gpd": "5e72ecfd06a5a7aa6a86a9090d65ef8ebb5e2a56d5c72d86bdc07aedc8be6d60",
    },
    "verify_json": {
        "uniform": "cb386f9f26d8135c08003902d196add0d9c4e64033e5fdd307341fc021fb9400",
        "gamma": "498dcc18e43c114b8407a41a9fb39c63d5217055896cdc1216a0869aa10862ca",
        "exponential": "9caf072c47ea82612ea19a93038394214504f70eff6db8e65a2f908b9a09af50",
        "lognormal": "21a99db6a512bf1121978ba14614d78fd900a0390f55b4ce960c8cc643f0e3d2",
        "gpd": "62aa2666c3b803c8bb67656cd3a3bce8f31928c14147c88da3d57297440cf17e",
    },
    "table1_csv": {
        "default": "fdaa6526fcddb9e6ba25b8fee57c6c7061d56a5bf050588a2a1718dcf87ce088",
        "overrides": "bc8f22af71bff3e02d4fab2fb47939b63a49bccd00cdb633d01b235e26c69ce5",
    },
    "table1_json": {
        "default": "57b95c679b2b6b062e7973f57b78f7323908549776481085c5b7ba6c5b543011",
        "overrides": "4aa947a442fec73f936e2400cacf6e4614f3f6fb074ea639b6710a5533af9a60",
    },
    "large_events_csv": "3be2b8f832ee35434389335e886e707a4654318ba0f2c5ecccb50e96df7fa523",
}


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()


def _model(
    family: str, *, frequency=FREQUENCY, severity=None, seed=SEED
) -> sr.SimulationConfig:
    sev = SEVERITIES[family] if severity is None else severity
    return sr.SimulationConfig(
        freq=sr.FrequencyModel(
            alpha0=frequency["alpha0"],
            alpha1=frequency["alpha1"],
            link=frequency["link"],
        ),
        sev=sr.SeverityModel(
            family=family,
            beta0=sev["beta0"],
            beta1=sev["beta1"],
            shape=sev.get("shape"),
        ),
        years=YEARS,
        seed=seed,
    )


def catalog_digest(family: str, **model) -> str:
    c = sr.simulate_catalog(_model(family, **model))
    return _sha256(c.counts, c.sums, c.event_years, c.intensities)


def replicate_digest(family: str, **model) -> str:
    e = replicate_fixed_year(_model(family, **model), REPLICATE_YEAR, REPLICATES)
    return _sha256(e.counts, e.sums, e.first_marks)


def gpd_trend_digest(shape: str) -> str:
    severity = {"beta0": 1.0, "beta1": 0.02, "shape": GPD_TREND_SHAPES[shape]}
    return catalog_digest("gpd", severity=severity)


def _report_digest(payload: dict) -> str:
    """sha256 of a JSON report, its file paths replaced by a placeholder."""
    payload = {k: "<path>" if k in ("input", "output") else v for k, v in payload.items()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run_csv(work: Path, name: str, argv: list[str]) -> tuple[str, str]:
    """Digests of the CSV one CLI run writes and of its JSON report."""
    out = work / name
    report = run([*argv, "--out", str(out)])
    assert report.status is ExitStatus.OK, report.summary
    return hashlib.sha256(out.read_bytes()).hexdigest(), _report_digest(report.payload)


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
    CSVs that the CLI writes for one family's model, and of the JSON
    reports of those runs."""
    events = str(work / f"events-{family}.csv")
    runs = {
        ("events_csv", "simulate_json"): (
            f"events-{family}.csv",
            ["simulate", "--config", _config(work, family, "simulate")],
        ),
        ("series_csv", "analyze_json"): ("series.csv", ["analyze", "--input", events]),
        ("series_window_csv", "analyze_window_json"): (
            "series-window.csv",
            ["analyze", "--input", events, "--window", str(WINDOW)],
        ),
        ("theory_csv", "theory_json"): (
            "theory.csv",
            ["theory", "--config", _config(work, family, "theory")],
        ),
    }
    digests = {}
    for kinds, (name, argv) in runs.items():
        digests.update(zip(kinds, _run_csv(work, name, argv)))
    return digests


def theory_log_digest(work: Path, family: str) -> str:
    cfg = _config(work, family, "theory", LOG_FREQUENCY)
    return _run_csv(work, "theory-log.csv", ["theory", "--config", cfg])[0]


def verify_digest(work: Path, family: str) -> str:
    """Digest of the full ``verify`` report: estimates, targets, standard
    errors and pass flags."""
    report = run(
        [
            "verify",
            "--config",
            _config(work, family, "verify"),
            "--replicates",
            str(REPLICATES),
            "--year",
            str(REPLICATE_YEAR),
        ]
    )
    assert report.status in (ExitStatus.OK, ExitStatus.VERIFICATION_FAILURE)
    return _report_digest(report.payload)


def table1_digests(work: Path) -> dict[str, dict[str, str]]:
    """``table1_csv`` and ``table1_json`` digests, default and overridden shapes."""
    digests = {"table1_csv": {}, "table1_json": {}}
    for case, extra in (("default", ()), ("overrides", TABLE1_OVERRIDES)):
        csv_digest, json_digest = _run_csv(
            work, f"t1-{case}.csv", ["theory", "--table1", *extra]
        )
        digests["table1_csv"][case] = csv_digest
        digests["table1_json"][case] = json_digest
    return digests


def large_events_digest(work: Path) -> str:
    cfg = _config(work, "gpd", "simulate", LARGE_FREQUENCY)
    return _run_csv(work, "large.csv", ["simulate", "--config", cfg])[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays(family):
    assert catalog_digest(family) == GOLDEN["catalog"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_replicate_fixed_year_across_block_boundary(family):
    assert replicate_digest(family) == GOLDEN["replicate"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays_log_link(family):
    assert catalog_digest(family, frequency=LOG_FREQUENCY) == GOLDEN["catalog_log"][family]


@pytest.mark.parametrize("shape", GPD_TREND_SHAPES)
def test_simulate_catalog_arrays_trending_gpd(shape):
    assert gpd_trend_digest(shape) == GOLDEN["catalog_gpd_trend"][shape]


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays_max_seed(family):
    assert catalog_digest(family, seed=MAX_SEED) == GOLDEN["catalog_max_seed"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays_low_rate(family):
    digest = catalog_digest(family, frequency=LOW_FREQUENCY)
    assert digest == GOLDEN["catalog_low_rate"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_simulate_catalog_arrays_low_rate_max_seed(family):
    digest = catalog_digest(family, frequency=LOW_FREQUENCY, seed=MAX_SEED)
    assert digest == GOLDEN["catalog_low_rate_max_seed"][family]


def test_simulate_catalog_arrays_rate_crossing_ten():
    digest = catalog_digest("gpd", frequency=CROSSING_FREQUENCY)
    assert digest == GOLDEN["catalog_rate_crossing"]


def test_replicate_fixed_year_max_seed_across_block_boundary():
    assert replicate_digest("gpd", seed=MAX_SEED) == GOLDEN["replicate_max_seed"]


@pytest.mark.parametrize("family", FAMILIES)
def test_cli_csv_bytes(tmp_path, family):
    digests = cli_digests(tmp_path, family)
    assert digests == {kind: GOLDEN[kind][family] for kind in digests}


@pytest.mark.parametrize("family", FAMILIES)
def test_theory_csv_bytes_log_link(tmp_path, family):
    assert theory_log_digest(tmp_path, family) == GOLDEN["theory_log_csv"][family]


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_report(tmp_path, family):
    assert verify_digest(tmp_path, family) == GOLDEN["verify_json"][family]


def test_table1_csv_bytes(tmp_path):
    digests = table1_digests(tmp_path)
    assert digests == {kind: GOLDEN[kind] for kind in digests}


def test_large_event_csv_bytes(tmp_path):
    assert large_events_digest(tmp_path) == GOLDEN["large_events_csv"]


def _regenerate() -> dict:
    golden: dict = defaultdict(dict)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for family in FAMILIES:
            golden["catalog"][family] = catalog_digest(family)
            golden["replicate"][family] = replicate_digest(family)
            golden["catalog_log"][family] = catalog_digest(family, frequency=LOG_FREQUENCY)
            golden["catalog_max_seed"][family] = catalog_digest(family, seed=MAX_SEED)
            golden["catalog_low_rate"][family] = catalog_digest(
                family, frequency=LOW_FREQUENCY
            )
            golden["catalog_low_rate_max_seed"][family] = catalog_digest(
                family, frequency=LOW_FREQUENCY, seed=MAX_SEED
            )
            for kind, digest in cli_digests(work, family).items():
                golden[kind][family] = digest
            golden["theory_log_csv"][family] = theory_log_digest(work, family)
            golden["verify_json"][family] = verify_digest(work, family)
        golden.update(table1_digests(work))
        golden["large_events_csv"] = large_events_digest(work)
    for shape in GPD_TREND_SHAPES:
        golden["catalog_gpd_trend"][shape] = gpd_trend_digest(shape)
    golden["catalog_rate_crossing"] = catalog_digest("gpd", frequency=CROSSING_FREQUENCY)
    golden["replicate_max_seed"] = replicate_digest("gpd", seed=MAX_SEED)
    return dict(golden)


if __name__ == "__main__":
    json.dump(_regenerate(), sys.stdout, indent=4)
    print()
