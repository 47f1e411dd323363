"""Fast tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import LONG_HORIZON, WORKLOADS, ensemble, pipeline, write_configs  # noqa: E402

SMALL = {**LONG_HORIZON, "years": [1, 40]}


@pytest.fixture(scope="module")
def cli():
    module = run._import_cli()
    assert module is not None
    return module


def small_commands(work: Path, seed: int = 5):
    commands = pipeline(SMALL, seed, work, theory=True, window=5)
    commands += ensemble(({"family": "gpd", "beta0": 1.0, "beta1": 0.0, "shape": 0.2},),
                         seed, work, replicates=2000)
    write_configs(commands)
    return commands


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),   # overlaps b: union of a and b is [1, 5]
        ("b", 2.0, 5.0, 0, 0),
        ("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
        ("a.x", 1.5, 2.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])


def test_flipped_byte_is_a_digest_failure(cli, tmp_path):
    commands = small_commands(tmp_path)
    checker = run.Checker()
    run.run_pass(cli, commands, checker)
    assert checker.failures == []
    events = next(c for c in commands if c.label == "simulate")
    data = bytearray(events.output.read_bytes())
    data[-3] ^= 0x01
    events.output.write_bytes(bytes(data))
    assert not checker.compare("simulate", run.output_digest(events, {}))
    assert checker.failed == 1 and "digest" in checker.failures[0]


def test_golden_digests_are_enforced(cli, tmp_path):
    commands = small_commands(tmp_path)
    reference = run.Checker()
    run.run_pass(cli, commands, reference)
    wrong = dict(reference.reference, theory="0" * 64)
    checker = run.Checker(wrong)
    run.run_pass(cli, commands, checker)
    assert [f.split(":")[0] for f in checker.failures] == ["theory"]


def test_exception_in_command_counts_as_failure(cli, tmp_path, monkeypatch):
    commands = small_commands(tmp_path)

    def boom(args):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "_cmd_analyze", boom)
    checker = run.Checker()
    run.run_pass(cli, commands, checker)
    assert checker.attempted == len(commands)
    assert checker.failed == 1
    assert checker.failures[0].startswith("analyze: raised")


def test_seed_changes_only_the_generated_configs(tmp_path):
    for workload in WORKLOADS.values():
        a = workload.commands(1, tmp_path)
        b = workload.commands(2, tmp_path)
        assert [c.argv for c in a] == [c.argv for c in b]
        assert [c.output for c in a] == [c.output for c in b]
        for ca, cb in zip(a, b):
            if ca.config is None:
                assert cb.config is None
                continue
            assert (ca.config["seed"], cb.config["seed"]) == (1, 2)
            assert {**ca.config, "seed": 0} == {**cb.config, "seed": 0}


def test_traced_pass_reports_every_per_layer_metric(cli, tmp_path):
    import stormrisk.simulate

    commands = small_commands(tmp_path)
    tracer = Tracer()
    tracer.begin_pass(0)
    tracer.install()
    try:
        checker = run.Checker()
        run.run_pass(cli, commands, checker)
    finally:
        tracer.uninstall()
    assert checker.failures == [] and tracer.missing == []
    assert cli.simulate_catalog is stormrisk.simulate.simulate_catalog
    metrics = layer_metrics(tracer.spans, self_times(tracer.spans), 0, tracer.counts[0])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in spec["per_layer"]}
    assert metrics["simulate.streams"] == 40 + 2
    assert metrics["riskmodel.risk_summary_calls"] == 40 + 1
    assert metrics["riskmodel.moments_per_summary"] > 0
    assert metrics["io.series_rows"] == 40
    assert metrics["io.event_rows"] == metrics["catalog.events"]  # written + read
    assert 0 < metrics["cli.self_s"] < sum(metrics[f"cli.{c}_s"] for c in
                                           ("theory", "simulate", "analyze", "verify"))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
