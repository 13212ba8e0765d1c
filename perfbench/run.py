"""sentaxis benchmark: file-in/file-out pipeline runs through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Load model: a closed loop with one client. Each run is a fresh process that
imports ``sentaxis.cli`` and calls ``main(argv)`` once on input files made
from ``--seed``; the next run starts when the previous one has ended and its
outputs have been checked. With ``--trace 1`` runs alternate between untraced
and traced, and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A per-run record (environment,
every sample, the spans' per-layer numbers) is written under ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference.json"

# Extra processes per run that only import sentaxis.cli, so setup_s is a
# median over enough samples; the first one also fills the bytecode cache.
SETUP_PROBES = 30
# A traced run fails when cli.main spends more than this outside every traced
# call: work has moved to a call no wrapper sees. Recorded at full size: 0.02 s
# (0.1%) on train-unsup-2k, 0.02 s (0.2%) on pretrained-semi-20k and 0.07 s
# (0.8%) on pmi-20k; at smoke size about 0.01 s of CLI start-up.
MAX_UNTRACED_S = 0.03
MAX_UNTRACED_SHARE = 0.02
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "sentaxis" / "__init__.py").is_file():
    _fail(f"no sentaxis sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: str(BLAS_THREADS) for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns one run's process at a time and collects what it reports."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = child_env()
        self.result_path = workdir / "child.json"

    def spawn(self, argv: list[str], trace: bool) -> dict:
        self.result_path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "child.py"), str(self.result_path),
                   "1" if trace else "0", *argv]
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        spawned = time.perf_counter()
        proc = subprocess.run(command, cwd=self.workdir, env=self.env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not self.result_path.is_file():
            raise workloads.CheckError(
                f"run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        result = json.loads(self.result_path.read_text(encoding="utf-8"))
        if result.get("exit_code", 0) != 0:
            raise workloads.CheckError(
                f"sentaxis exited {result['exit_code']}: {proc.stderr.strip()[-500:]}")
        result["setup_s"] = result["ready"] - spawned
        return result


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def coverage_errors(workload: str, spans: list, wall_s: float) -> list[str]:
    """Wrapped sites that fired or stayed silent against the workload's table,
    and time in cli.main that no wrapped call accounts for."""
    fired = set(tracing.site_calls(spans))
    expected = workloads.EXPECTED_SITES[workload]
    errors = [f"site {s} did not fire" for s in sorted(expected - fired)]
    errors += [f"site {s} fired but {workload} bypasses it" for s in sorted(fired - expected)]
    untraced = tracing.self_times(spans).get("cli", 0.0)
    if untraced > MAX_UNTRACED_S + MAX_UNTRACED_SHARE * wall_s:
        errors.append(f"cli.self_s is {untraced:.4f} s of {wall_s:.4f} s traced, over "
                      f"{MAX_UNTRACED_S} s + {MAX_UNTRACED_SHARE:.0%}: "
                      f"work runs outside every wrapped call")
    return errors


def measure(workload: str, sizes, seed: int, seconds: float, trace: bool,
            use_reference: bool) -> dict:
    """One benchmark run of one workload; returns the result and its record.

    After the set-up probes, pipeline runs repeat while the next one is
    expected to end within ``seconds`` of the first probe, at least twice (in
    a traced benchmark run, one untraced and one traced).
    """
    started = time.perf_counter()
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.prepare(workload, sizes, seed, workdir)
    prepare_s = time.perf_counter() - started
    runner = Runner(workdir, started)

    samples, traced, errors, observed, setup = [], [], [], [], []
    loop_start = time.perf_counter()
    try:
        setup = [runner.spawn([], False)["setup_s"] for _ in range(SETUP_PROBES + 1)][1:]
    except (workloads.CheckError, subprocess.TimeoutExpired) as exc:
        errors.append(f"set-up probe: {exc}")
    attempted = 0
    longest = 0.0
    while True:
        is_traced = trace and attempted % 2 == 1
        shutil.rmtree(inputs.out_dir, ignore_errors=True)
        inputs.out_dir.mkdir()
        attempted += 1
        begun = time.perf_counter()
        try:
            result = runner.spawn(inputs.argv, is_traced)
            outcome = workloads.check_outputs(inputs)
        except (workloads.CheckError, subprocess.TimeoutExpired) as exc:
            errors.append(str(exc))
        else:
            observed.append(outcome)
            setup.append(result["setup_s"])
            (traced if is_traced else samples).append(result)
        longest = max(longest, time.perf_counter() - begun)
        now = time.perf_counter()
        if now - started + longest > DEADLINE_S:
            break
        if attempted >= 2 and now - loop_start + longest > seconds:
            break

    # A run whose accuracy differs from the recorded reference, or from the
    # first run of this input when none is recorded, has failed.
    reference = load_reference(workload, seed) if use_reference else None
    expected = reference["accuracy"] if reference else observed[0]["accuracy"] if observed else None
    accuracies = sorted({o["accuracy"] for o in observed})
    mismatched = sum(o["accuracy"] != expected for o in observed)
    if mismatched:
        errors.append(f"accuracy {accuracies} in {mismatched} runs, expected {expected}"
                      f" ({'recorded reference' if reference else 'first run'})")
    failed = attempted - len(observed) + mismatched

    metrics: dict[str, float] = {}
    if samples:
        walls = [s["wall_s"] for s in samples]
        metrics["wall_s"] = statistics.median(walls)
        metrics["tokens_per_s"] = statistics.median(inputs.input_tokens / w for w in walls)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_kb"] / 1024 for s in samples)
    layers: dict[str, float] = {}
    if trace and traced and samples:
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        overhead = traced_wall - metrics["wall_s"]
        for t in traced:
            errors += coverage_errors(workload, t["trace"]["spans"], t["wall_s"])
        layers = tracing.median_metrics([
            tracing.layer_metrics(t["trace"], inputs.input_tokens, inputs.sgns_tokens)
            for t in traced])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = overhead
        layers["trace.spans"] = statistics.median(len(t["trace"]["spans"]) for t in traced)
    elif trace:
        errors.append("no successful untraced and traced run pair")

    correct = not errors and bool(samples)
    values = layers if trace else metrics
    record_data = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "prepare_s": prepare_s,
        "input_tokens": inputs.input_tokens, "argv": inputs.argv,
        "accuracy": accuracies, "digests": sorted({o["digest"] for o in observed}),
        "reference": reference, "errors": errors,
        "walls": [s["wall_s"] for s in samples], "traced_walls": [t["wall_s"] for t in traced],
        "setup": setup, "metrics": metrics, "layers": layers,
        "traces": [t["trace"] for t in traced],
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in declared_units(trace).items() if name in values},
        },
        "record": record_data,
    }


def write_record(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def summary_line(record: dict) -> str:
    env = record["environment"]
    return (f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
            f"accuracy={record['accuracy']} digest={record['digests']} "
            f"reference={'none' if record['reference'] is None else record['reference']['accuracy']} "
            f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
            f"numpy={env['numpy']} blas_threads={BLAS_THREADS}")


def check_against_benchmark_json(result: dict, trace: bool) -> list[str]:
    """The printed metrics are exactly those BENCHMARK.json declares, with valid
    names; units come from BENCHMARK.json itself."""
    declared = set(declared_units(trace))
    printed = set(result["metrics"])
    problems = [f"bad metric name {name!r}" for name in sorted(printed)
                if not NAME_RE.match(name)]
    if printed != declared:
        problems.append(f"printed metrics differ from BENCHMARK.json: "
                        f"{sorted(printed ^ declared)}")
    return problems


def smoke() -> int:
    """Tiny sizes, one run per workload and trace setting; checks the output format."""
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            run = measure(workload, workloads.SMOKE_SIZES[workload], seed=1, seconds=0,
                          trace=trace, use_reference=False)
            write_record(run["record"])
            print(summary_line(run["record"]))
            print(json.dumps(run["result"]))
            if not run["result"]["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {run['record']['errors']}")
            problems += [f"{workload}: {p}"
                         for p in check_against_benchmark_json(run["result"], trace)]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload once; checks the metric format")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    run = measure(args.workload, workloads.FULL_SIZES[args.workload], args.seed,
                  args.seconds, bool(args.trace), use_reference=True)
    write_record(run["record"])
    for error in run["record"]["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(summary_line(run["record"]))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
