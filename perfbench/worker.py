"""Child process of the benchmark: one fresh interpreter per measurement.

    worker.py probe ARGV_JSON
        Import the program, run one report, print "ready" the moment it
        returns, then its exit code and output as one JSON line.  The parent
        times process start to "ready" as the set-up time.

    worker.py loop PLAN_JSON SECONDS TRACE [SPANS_OUT]
        Closed loop, one client: the plan's cycles in order (from the first
        again if they run out), each report timed around ``banzhaf.cli.run``
        alone and then checked against its reference answer, until at least
        SECONDS of report time (traced and untraced) and MIN_CASES cases are
        done, at the end of a cycle.  A case that takes less than GROUP_S
        runs several times back to back.
        With TRACE=1 each report runs twice, untraced and wrapped by
        ``tracing.Tracer``, and the spans go to SPANS_OUT.  Prints one JSON
        line with the untraced latencies of each case, as measured and at
        reference speed (``speed.at_reference``, from the kernel timed just
        before and just after each report), failures, peak RSS and, when
        traced, the traced report time and per-layer totals.

Both modes run from the root of the checkout, with ``src`` first on the path.
"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

# A run times at least this many distinct cases (the plan holds as many), so
# that ten or more lie above the 90th percentile of their latencies.
MIN_CASES = 100
# In an untraced run, a case faster than GROUP_S runs back to back about
# GROUP_S / its first time (at most MAX_REPEATS) times, between the same two
# kernel timings: its median then stands on several samples, at a small share
# of the loop's time.
GROUP_S = 0.005
MAX_REPEATS = 8


def _import_cli():
    from banzhaf import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the program under {SRC}")
    return cli


def probe(argv: list[str]) -> None:
    cli = _import_cli()
    out = io.StringIO()
    rc = cli.run(argv, out=out)
    print("ready", flush=True)
    print(json.dumps({"rc": rc, "output": out.getvalue()}), flush=True)


def loop(plan_path: str, seconds: float, trace: bool, spans_out: str | None) -> None:
    import resource
    import time

    from check import check_output
    from speed import at_reference, kernel_seconds

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli = _import_cli()
    tracer = None
    if trace:
        import banzhaf
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(banzhaf)
        traced_run = tracer.root(cli.run)
    # Let the lazy set-up that `setup_s` measures happen before timing.  The
    # traced loop traces it, so that binomial-table growth shows.
    (traced_run if trace else cli.run)(plan["warmup"], out=io.StringIO())
    kernel_seconds()  # and let the interpreter specialise the kernel's code

    clock = time.perf_counter
    cases = plan["cases"]
    errors: list[str] = []
    failed_cases: set[int] = set()
    failed = 0

    def report(i: int, run) -> float:
        """Run case i once; its time, with a failure recorded."""
        nonlocal failed
        out = io.StringIO()
        error = None
        start = clock()
        try:
            rc = run(cases[i]["argv"], out=out)
        except Exception as exc:  # a report that raises is a failed report
            rc = None
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None:
            # read per report, so that the answers stay out of peak RSS
            with open(cases[i]["expect"], encoding="utf-8") as fh:
                error = check_output(out.getvalue(), json.load(fh))
        if error is not None:
            failed += 1
            failed_cases.add(i)
            if len(errors) < 5:
                errors.append(f"{' '.join(cases[i]['argv'])}: {error}")
        return elapsed

    # latencies[i]: the untraced times of case i; scaled[i]: the same at
    # reference speed; traced_s: the traced report time
    latencies: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    traced_s = 0.0
    timed = 0.0
    cycles = plan["cycles"]
    c = 0
    min_cases = min(MIN_CASES, len(cases))
    while timed < seconds or len(latencies) < min_cases:
        for i in cycles[c % len(cycles)]:
            times = latencies.setdefault(i, [])
            if trace:
                # untraced and traced back to back, in alternating order, so
                # that both see the same report on the same host speed
                for traced in (False, True) if i % 2 == 0 else (True, False):
                    if traced:
                        tracer.enable()
                    else:
                        tracer.disable()
                    elapsed = report(i, traced_run if traced else cli.run)
                    timed += elapsed
                    if traced:
                        traced_s += elapsed
                    else:
                        times.append(elapsed)
                continue
            kernel_before = kernel_seconds()
            group = [report(i, cli.run)]
            repeats = max(1, min(MAX_REPEATS, round(GROUP_S / group[0])))
            group += [report(i, cli.run) for _ in range(repeats - 1)]
            kernel_after = kernel_seconds()
            timed += sum(group)
            times += group
            scaled.setdefault(i, []).extend(
                at_reference(t, kernel_before, kernel_after) for t in group
            )
        c += 1
    result = {
        "latencies": list(latencies.values()),
        "scaled": list(scaled.values()),
        "failed": failed,
        "failed_cases": len(failed_cases),
        "errors": errors,
        "cycles": c,
        "timed_s": sum(map(sum, latencies.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_s"] = traced_s
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        if spans_out:
            tracer.write(spans_out)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        probe(json.loads(sys.argv[2]))
    elif mode == "loop":
        loop(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1", (sys.argv[5:] or [None])[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
