"""stormrisk benchmark: closed-loop passes of the CLI on generated configs.

Usage (from the repository root):

    python3 perfbench/run.py --workload long_horizon --seed 0 --seconds 30 --trace 0

One process, one caller, no threads: each pass runs the workload's
command sequence in-process through ``stormrisk.cli.main``, one command
after the previous one returns, on configs generated from ``--seed``.
The first pass warms up; timed passes follow until ``--seconds`` is
used.  Every command's output is checked (see ``Checker``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics (see spans.py) plus ``trace.overhead_frac``.

The last line of standard output is the result object; the line before
it carries provenance and sample quartiles, and both also go to
``.perfbench_out/`` under the repository root, with the spans of a
traced run.

    python3 perfbench/run.py --update-golden

rewrites golden.json from one pass of every workload at the default
seed; do so only when a change to the program's output is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_configs  # noqa: E402

SETUP_RUNS = 3
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts commands attempted and failed.

    A command fails if it raises, exits non-zero, prints no JSON report,
    fails a ``verify`` check, or produces output whose digest differs from
    the expected one: the golden digest at the default seed, else the
    digest of the same command in the first pass.
    """

    def __init__(self, expected: dict | None = None):
        self.expected = dict(expected) if expected is not None else None
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def compare(self, label: str, digest: str) -> bool:
        if self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                self.fail(label, "no golden digest")
                return False
        else:
            want = self.reference.setdefault(label, digest)
        if digest != want:
            self.fail(label, f"digest {digest[:12]} != expected {want[:12]}")
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)


def output_digest(cmd, payload: dict) -> str:
    """sha256 of the command's CSV, or of its ``verify`` estimates."""
    if cmd.output is not None:
        return _sha256(cmd.output.read_bytes())
    estimates = [c["estimate"] for c in payload["checks"]]
    return _sha256(json.dumps(estimates).encode())


def run_command(cli, cmd, checker: Checker, seen: dict):
    """Run one command; return (wall s, cpu s).  Never raises."""
    checker.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception:
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        checker.fail(cmd.label, "raised " + traceback.format_exc(limit=-3).strip())
        return wall, cpu
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    try:
        problem = _check_output(cmd, code, out.getvalue(), err.getvalue(), checker, seen)
    except Exception:
        problem = "check raised " + traceback.format_exc(limit=-3).strip()
    if problem:
        checker.fail(cmd.label, problem)
    return wall, cpu


def _check_output(cmd, code, stdout, stderr, checker, seen) -> str | None:
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON report on stdout"
    if payload.get("mode") == "verify":
        bad = [c["name"] for c in payload["checks"] if not c["passed"]]
        if bad or payload.get("status") != "ok":
            return f"verify checks failed: {bad}"
    if payload.get("mode") == "simulate":
        seen["n_events"] = payload["n_events"]
    if payload.get("mode") == "analyze" and payload["n_events"] != seen.get("n_events"):
        return f"analyze n_events {payload['n_events']} != simulate {seen.get('n_events')}"
    checker.compare(cmd.label, output_digest(cmd, payload))
    return None


def run_pass(cli, commands, checker: Checker):
    """One pass of the command sequence; return (wall s, cpu s)."""
    seen: dict = {}
    wall = cpu = 0.0
    for cmd in commands:
        w, c = run_command(cli, cmd, checker, seen)
        wall += w
        cpu += c
    return wall, cpu


def measure_setup(runs: int, checker: Checker) -> list[float]:
    """Wall times of fresh interpreters running ``python -m stormrisk
    --version`` on the sources of this checkout."""
    from stormrisk import __version__

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        checker.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stormrisk", "--version"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != __version__:
            checker.fail("setup", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times


def _stop(elapsed: float, durations: list[float], seconds: float, minimum: int) -> bool:
    """Closed loop: stop before a pass that would overrun ``seconds``,
    once ``minimum`` passes ran or twice the budget is spent."""
    if len(durations) < minimum and elapsed < 2 * seconds:
        return False
    return elapsed + statistics.fmean(durations) > seconds


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stormrisk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes,
        "loadavg_start": os.getloadavg(),
    }


def benchmark(cli, workload, seed: int, seconds: float, trace: bool, work: Path):
    """Warm up, run timed passes; return (info, result)."""
    commands = workload.commands(seed, work)
    write_configs(commands)
    golden = None
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    checker = Checker(golden)
    info = {"provenance": provenance(workload, seed)}
    setup = [] if trace else measure_setup(SETUP_RUNS, checker)

    run_pass(cli, commands, checker)  # warm-up, checked like every pass
    tracer = Tracer() if trace else None
    walls, cpus, traced_walls = [], [], []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_pass(len(traced_walls))
            tracer.install()
            try:
                traced_walls.append(run_pass(cli, commands, checker)[0])
            finally:
                tracer.uninstall()
        wall, cpu = run_pass(cli, commands, checker)
        walls.append(wall)
        cpus.append(cpu)
        durations.append(time.perf_counter() - t0)
        minimum = MIN_TRACED_PAIRS if trace else MIN_PASSES
        if _stop(time.perf_counter() - start, durations, seconds, minimum):
            break

    info["loadavg_end"] = os.getloadavg()
    info["samples"] = {"wall_s": _summary(walls), "cpu_s": _summary(cpus)}
    if setup:
        info["samples"]["setup_s"] = _summary(setup)
    info["failures"] = checker.failures[:20]
    if tracer is not None:
        info["samples"]["traced_wall_s"] = _summary(traced_walls)
        info["trace_missing"] = tracer.missing
        self_s = self_times(tracer.spans)
        per_pass = [
            layer_metrics(tracer.spans, self_s, p, tracer.counts[p])
            for p in range(len(traced_walls))
        ]
        metrics = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        tracer.write_csv(OUT / f"spans-{workload.name}-seed{seed}.csv", start)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - checker.failed / checker.attempted,
        }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return info, result


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _import_cli():
    """Import stormrisk from this checkout's sources, or return None."""
    if not (SRC / "stormrisk" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import stormrisk
    import stormrisk.cli

    if Path(stormrisk.__file__).resolve().parent != (SRC / "stormrisk").resolve():
        return None
    return stormrisk.cli


def update_golden(cli) -> dict:
    golden = {}
    for workload in WORKLOADS.values():
        work = OUT / f"work-golden-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            commands = workload.commands(DEFAULT_SEED, work)
            write_configs(commands)
            checker = Checker()
            run_pass(cli, commands, checker)
            if checker.failures:
                raise SystemExit(f"{workload.name}: {checker.failures}")
            golden[workload.name] = checker.reference
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.update_golden and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    cli = _import_cli()
    if cli is None:
        print(f"perfbench: no stormrisk package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.update_golden:
        golden = update_golden(cli)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return 0

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir()
    try:
        info, result = benchmark(
            cli, workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = _units()
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
