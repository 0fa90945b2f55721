"""Benchmark of exact power reports through the `banzhaf` command path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each report is one call of
``banzhaf.cli.run(argv, out=StringIO())``, the path the `banzhaf` command
takes.  The benchmark generates its systems from the seed, computes every
answer with its own reference code (``reference.py``), writes the specs to
``.bench_work/`` and measures in fresh child interpreters (``worker.py``):

- ``--trace 0``: one untimed warm-up report and a closed loop with one
  client for S seconds of report time, with fifteen set-up probes (fresh
  interpreter to first report returned; the median is ``setup_s``), seven
  before the loop and eight after it.  Every time is also scaled to
  reference speed by a kernel timed around it (``speed.py``), a case faster
  than 5 ms runs a few times back to back, and each case's latency is the
  median of its scaled times; the end-to-end metrics come from those;
- ``--trace 1``: the same loop with each report run twice, untraced and
  traced, in alternating order; the per-layer totals of the traced runs are
  reported, and ``trace.overhead_ratio`` is traced over untraced report time
  of the same reports.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the reports
of the timed loop (both runs of each when traced) and the set-up probes;
``failed`` those that raised, returned non-zero or disagreed with the
reference.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from check import check_output  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from worker import MIN_CASES  # noqa: E402

END_TO_END = {
    "reports_per_s": "1/s",
    "report_p50_ms": "ms",
    "report_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Cycles drawn per second of --seconds: a little more than the program at
# the benchmark's first commit completes, so that every case of a run is a
# separate draw.  A faster program starts over from the first cycle when it
# runs out.
CYCLES_PER_SECOND = {
    "fixtures_cli": 1.2,
    "scalar_ladder": 2.0,
    "multichamber_pgi": 6.0,
    "weighted_dp": 1.0,
}
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 150


def generate(name: str, rng: random.Random, cycles: int) -> tuple[list[list[dict]], dict]:
    """The workload's cycles and its set-up probe case."""
    if name == "fixtures_cli":
        fixture_dir = SRC / "banzhaf" / "fixtures"
        return workloads.fixtures_cli(rng, cycles, fixture_dir), workloads.fixtures_probe(
            fixture_dir
        )
    cycles_out = getattr(workloads, name)(rng, cycles)
    return cycles_out, cycles_out[0][0]


def self_check_cases(name: str, rng: random.Random) -> list[dict]:
    """Small systems (n <= 10) from the workload's own generator."""
    if name == "fixtures_cli":
        fixture_dir = SRC / "banzhaf" / "fixtures"
        return [
            case
            for case in workloads.fixtures_cli(rng, 1, fixture_dir)[0]
            if case["argv"][1] in ("family", "scottish2007_reduced", "scottish2007")
            and "--check" not in case["argv"]
        ][:4]
    if name == "scalar_ladder":
        rungs = [(8, "majority"), (9, "two_thirds"), (10, "majority")]
        return workloads.scalar_ladder(rng, 1, rungs=rungs)[0]
    if name == "multichamber_pgi":
        slots = ((0, None), (1, None), (0, None), (1, None))
        return workloads.multichamber_pgi(rng, 1, slots=slots, max_voters=10)[0]
    rungs = [(5, "majority", False), (6, "two_thirds", True)]
    return workloads.weighted_dp(rng, 1, rungs=rungs, assembly_sizes=(3, 4))[0]


def self_check(name: str, seed: int, work: Path) -> list[str]:
    """The reference must agree with the program's oracle (brute-force TBP)
    and with whole-system enumeration of PGI/CPGI on small cases."""
    from banzhaf import cli

    problems = []
    rng = random.Random(f"self-check/{name}/{seed}")
    for i, case in enumerate(self_check_cases(name, rng)):
        argv = materialise(case, work / f"self-check-{i}.json")
        if "--check" in argv:
            at = argv.index("--check")
            del argv[at : at + 2]
        argv = [a for a in argv if a != "--swap-robust"] + ["--method", "oracle"]
        expect = dict(case["expect"], swap=None, check=None)
        out = io.StringIO()
        try:
            rc = cli.run(argv, out=out)
            problem = f"exit code {rc}" if rc else check_output(out.getvalue(), expect)
        except Exception as exc:  # reported, not raised: the run prints a result
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            problems.append(f"reference vs oracle, {' '.join(argv)}: {problem}")
        if "pgi" in case["expect"]:
            pgi_cpgi = (case["expect"]["pgi"], case["expect"]["cpgi"])
            if pgi_cpgi != ref.system_pgi_cpgi_enumerated(case["spec"]["chambers"]):
                problems.append(f"reference PGI/CPGI vs enumeration differ on {argv}")
    return problems


def materialise(case: dict, spec_path: Path) -> list[str]:
    """Write a generated spec and return the argv that names it."""
    if "{spec}" not in case["argv"]:
        return list(case["argv"])
    spec_path.write_text(json.dumps(case["spec"]), encoding="utf-8")
    rel = os.path.relpath(spec_path, ROOT)
    return [rel if a == "{spec}" else a for a in case["argv"]]


def write_plan(cycles: list[list[dict]], probe: dict, work: Path) -> tuple[Path, list[str]]:
    specs, expects = work / "specs", work / "expect"
    specs.mkdir(parents=True)
    expects.mkdir()
    plan_cases, plan_cycles = [], []
    for cycle in cycles:
        plan_cycles.append([])
        for case in cycle:
            i = len(plan_cases)
            expect_path = expects / f"{i}.json"
            expect_path.write_text(json.dumps(case["expect"]), encoding="utf-8")
            plan_cases.append(
                {"argv": materialise(case, specs / f"{i}.json"), "expect": str(expect_path)}
            )
            plan_cycles[-1].append(i)
    probe_argv = materialise(probe, specs / "probe.json")
    plan = work / "plan.json"
    plan.write_text(
        json.dumps({"cases": plan_cases, "cycles": plan_cycles, "warmup": probe_argv}),
        encoding="utf-8",
    )
    return plan, probe_argv


def run_child(args: list[str]) -> subprocess.Popen:
    # -S: the program needs only the standard library, so the host's
    # site-packages start-up hooks stay out of set-up time and peak RSS
    return subprocess.Popen(
        [sys.executable, "-S", str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


def setup_probe(argv: list[str], expect: dict) -> tuple[float, str | None]:
    """Seconds from spawning a fresh interpreter to its first report
    returning, at reference speed (``speed.at_reference``)."""
    kernel_before = speed.kernel_seconds()
    start = time.perf_counter()
    child = run_child(["probe", json.dumps(argv)])
    try:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = child.stdout.read()
        child.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    elapsed = speed.at_reference(elapsed, kernel_before, speed.kernel_seconds())
    if ready.strip() != "ready" or child.returncode != 0:
        return elapsed, f"set-up probe failed (exit {child.returncode})"
    result = json.loads(rest)
    if result["rc"] != 0:
        return elapsed, f"set-up probe exit code {result['rc']}"
    return elapsed, check_output(result["output"], expect)


def setup_probes(count: int, argv: list[str], probe: dict) -> tuple[list[float], list[str]]:
    """Times of ``count`` set-up probes, and a problem for each that failed."""
    times, problems = [], []
    speed.kernel_seconds()  # let the interpreter specialise the kernel's code
    for _ in range(count):
        seconds, problem = setup_probe(argv, probe["expect"])
        times.append(seconds)
        if problem:
            problems.append(f"set-up probe: {problem}")
    return times, problems


def timed_loop(plan: Path, seconds: float, trace: bool, spans_out: Path | None) -> dict:
    args = ["loop", str(plan), str(seconds), "1" if trace else "0"]
    if spans_out is not None:
        args.append(str(spans_out))
    child = run_child(args)
    try:
        out, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"timed loop worker exited with {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def case_latencies(loop: dict, key: str = "scaled") -> list[float]:
    """Each timed case's median latency, at reference speed (``key="scaled"``)
    or as measured (``key="latencies"``)."""
    return [statistics.median(times) for times in loop[key]]


def reports_per_s(loop: dict, key: str = "scaled") -> float:
    """Correct reports per second of one run of every case timed, each at its
    median latency; a case that failed in any of its runs is not counted."""
    lat = case_latencies(loop, key)
    return (len(lat) - loop["failed_cases"]) / sum(lat)


def end_to_end(loop: dict, setups: list[float]) -> dict:
    lat = case_latencies(loop)
    values = {
        "reports_per_s": reports_per_s(loop),
        "report_p50_ms": statistics.median(lat) * 1000,
        "report_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "banzhaf" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/banzhaf", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # spec paths are relative to the checkout, for this process and workers
    os.chdir(ROOT)

    name = args.workload
    work = ROOT / ".bench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = self_check(name, args.seed, work)
        rng = random.Random(f"{name}/{args.seed}")
        cycles, probe = generate(name, rng, math.ceil(args.seconds * CYCLES_PER_SECOND[name]))
        while sum(map(len, cycles)) < MIN_CASES:  # a short run still times 100 cases
            cycles += generate(name, rng, 1)[0]
        plan, probe_argv = write_plan(cycles, probe, work)

        # set-up probes (untraced runs only) before and after the timed loop,
        # so that their median spans the host's speed over the whole run
        first_probes = setup_probes(0 if args.trace else SETUP_PROBES // 2, probe_argv, probe)
        spans = ROOT / ".bench_work" / f"spans-{name}-seed{args.seed}.jsonl"
        loop = timed_loop(plan, args.seconds, bool(args.trace), spans if args.trace else None)
        last_probes = setup_probes(
            0 if args.trace else SETUP_PROBES - SETUP_PROBES // 2, probe_argv, probe
        )
        setups = first_probes[0] + last_probes[0]
        problems += loop["errors"] + first_probes[1] + last_probes[1]
        reports = sum(map(len, loop["latencies"]))
        attempted = reports * (1 + args.trace) + len(setups)
        failed = loop["failed"] + len(first_probes[1]) + len(last_probes[1])
        if args.trace:
            layers = loop["layers"]
            layers["trace.overhead_ratio"] = loop["traced_s"] / loop["timed_s"]
            metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
            for missing in loop["missing"]:
                print(f"not traced, the program has no {missing}: its metrics read 0",
                      file=sys.stderr)
        else:
            metrics = end_to_end(loop, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        f"workload {name}, seed {args.seed}: {len(loop['latencies'])} cases in "
        f"{loop['cycles']} cycles (the latency samples, each the median of its times), "
        f"{reports} timed reports, "
        f"{loop['timed_s']:.2f} s of untraced report time; "
        f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})"
    )
    for key, metric in metrics.items():
        print(f"  {key}: {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        raw = case_latencies(loop, "latencies")
        print(
            f"  as measured, not scaled to reference speed: reports_per_s "
            f"{reports_per_s(loop, 'latencies'):.6g} 1/s, report_p50_ms "
            f"{statistics.median(raw) * 1000:.6g} ms, report_p90_ms "
            f"{statistics.quantiles(raw, n=10)[8] * 1000:.6g} ms"
        )
    for missing in loop.get("missing", []):
        print(f"  not traced: {missing}")
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
