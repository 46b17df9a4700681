"""gscohom benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload gs_ladder --seed 1 --seconds 20 --trace 0

Load comes from this one process, one job at a time (a closed loop, no
threads).  A run builds the workload's inputs from the seed, then repeats
passes over the workload's fixed job list until the next pass would end
after --seconds, and runs at least PASSES untraced passes (two passes when
traced).  Each job is timed on its own; its output is checked after its
timer stops, in every pass.

Every time the run reports is corrected for the host's speed while it was
taken (hostspeed.py): load from other tenants of a shared host can make a
vCPU up to twice as slow for seconds at a stretch, and the correction
divides that slowdown out.  The raw sums are printed on the human-readable lines.

With --trace 0 the run reports the end-to-end metrics.  Each job's time is
its best corrected time over the first PASSES untraced passes; passes after
those are checked but not timed into the result, so faster code gets no
more draws of the noise than slower code.  wall_s sums the jobs' best
times, job_max_s is the largest; set-up time is the fastest of SETUP_PROBES
fresh processes.  With --trace 1 passes alternate untraced and traced;
per-layer metrics come from the first traced pass and trace.overhead_ratio
compares the traced and untraced best-time sums over equally many passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  gscohom is single-threaded and has no
queues, so no waiting time is recorded.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# set-up probes per run; set-up time is the fastest of them
SETUP_PROBES = 11
# untraced passes whose best job times are reported: about as many as the
# slowest workload (gs_ladder) fits into run_seconds at full host speed; a
# fixed count, so that faster code does not get more draws of the noise
# than slower code
PASSES = 3
# interpreter start-up probes for cli.import_s
IMPORT_PROBES = 5

END_TO_END = {"wall_s": "s", "job_max_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PROBE = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "import workloads; workloads.probe_main()")


def run_pass(workload, traced):
    """Run every job of one pass; return (each job's (start, end) on the
    perf_counter clock, failure messages)."""
    workload.reset()
    spans, failures = [], []
    for job in workload.jobs(traced):
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:             # a job that raises has failed
            spans.append((start, time.perf_counter()))
            failures.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
            continue
        spans.append((start, time.perf_counter()))
        try:
            job.check(result)
        except Exception as exc:             # wrong output, or unreadable
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return spans, failures


def best_times(passes):
    """Each job's fastest time over the given passes."""
    return [min(times) for times in zip(*passes)]


def timed_subprocess(cmd, env, until_line=None):
    """(start, end) from spawning cmd to its exit, or to the first stdout
    line when until_line is given."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        if until_line is not None:
            line = proc.stdout.readline().strip()
            end = time.perf_counter()
            proc.stdout.read()
        else:
            proc.stdout.read()
        code = proc.wait(timeout=120)
        if until_line is None:
            end = time.perf_counter()
    if code != 0 or (until_line is not None and line != until_line):
        raise RuntimeError(f"{cmd[:3]} exited with {code}")
    return start, end


def setup_seconds(workloads, name, seed, probe):
    """Fastest over fresh processes of the corrected time from process start
    to the moment the workload's inputs are built (interpreter, import,
    inputs)."""
    cmd = [sys.executable, "-c", PROBE, str(BENCH), name, str(seed)]
    env = workloads.child_env()
    spans = [timed_subprocess(cmd, env, until_line="ready")
             for _ in range(SETUP_PROBES)]
    return min(probe.corrected(*span) for span in spans)


def import_seconds(workloads, probe):
    """Median `import gscohom.cli` process minus median bare interpreter,
    both corrected."""
    env = workloads.child_env()
    bare, cli = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(timed_subprocess([sys.executable, "-c", "pass"], env))
        cli.append(timed_subprocess(
            [sys.executable, "-c", "import gscohom.cli"], env))
    return (statistics.median(probe.corrected(*s) for s in cli)
            - statistics.median(probe.corrected(*s) for s in bare))


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def run(name, seed, seconds, trace, expected=None):
    """Run one workload; return (result dict, human-readable lines)."""
    hostspeed.pin_to_one_cpu()
    with hostspeed.SpeedProbe() as probe:
        return measure(name, seed, seconds, trace, expected, probe)


def measure(name, seed, seconds, trace, expected, probe):
    import workloads
    import tracer as tracing
    workload = workloads.build(name, seed, expected)
    loop_start = time.perf_counter()
    passes = []                 # (traced, job (start, end) spans, failures)
    durations = []              # each pass with its checks
    raw, missing = None, []
    while True:
        pass_start = time.perf_counter()
        traced = bool(trace) and len(passes) % 2 == 1
        tr = tracing.Tracer().install([workloads]) if traced else None
        try:
            spans, failures = run_pass(workload, traced)
        finally:
            if tr is not None:
                tr.uninstall()
        if tr is not None and raw is None:
            summaries = getattr(workload, "summaries", [])
            raw = tracing.merge([tr.summary()] + summaries)
            missing = tr.missing
        passes.append((traced, spans, failures))
        durations.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - loop_start
        untraced = sum(1 for traced, _, _ in passes if not traced)
        enough = len(passes) >= 2 if trace else untraced >= PASSES
        if enough and elapsed + max(durations[-2:]) > seconds:
            break

    attempted = sum(len(t) for _, t, _ in passes)
    failed = sum(len(f) for _, _, f in passes)
    plain = [[probe.corrected(*s) for s in spans]
             for traced, spans, _ in passes if not traced]
    raw_best = best_times([[e - s for s, e in spans]
                           for traced, spans, _ in passes if not traced]
                          [:PASSES])
    best = best_times(plain[:PASSES])
    lines = [f"workload {name}, seed {seed}: {len(passes)} passes of "
             f"{len(best)} jobs, {attempted} jobs attempted, {failed} failed "
             f"(failed_ratio {failed / attempted:.4f} fraction)",
             f"median job (best of passes) {statistics.median(best):.6g} s "
             f"over {len(best)} jobs",
             "closed loop, one process, one job at a time; gscohom is "
             "single-threaded with no queues, so no waiting time is recorded"]
    lines.append("pass walls (raw s, * traced): " + " ".join(
        f"{sum(e - s for s, e in t):.3f}{'*' if traced else ''}"
        for traced, t, _ in passes))
    span = (loop_start, time.perf_counter())
    lines.append(f"host slowdown over the run {probe.slowdown(*span):.3f} "
                 f"({len(probe.durations)} samples); best-time sum raw "
                 f"{sum(raw_best):.6g} s, corrected {sum(best):.6g} s")
    lines += [f"FAILED {msg}" for _, _, f in passes for msg in f][:20]
    if trace:
        traced = [[probe.corrected(*s) for s in spans]
                  for traced, spans, _ in passes if traced]
        k = min(len(plain), len(traced))
        overhead = (sum(best_times(traced[:k]))
                    / sum(best_times(plain[:k])) - 1)
        metrics = tracing.per_layer_metrics(
            raw, import_seconds(workloads, probe), overhead)
        if missing:
            lines.append("not found, so not traced: " + ", ".join(missing))
    else:
        values = {
            "wall_s": sum(best),
            "job_max_s": max(best),
            "peak_rss_mb": peak_rss_mb(name == "cli_demo"),
            "setup_s": setup_seconds(workloads, name, seed, probe),
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    for key, m in metrics.items():
        lines.append(f"{key:40} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gscohom").is_dir():
        print(f"no gscohom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload}; expected one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
