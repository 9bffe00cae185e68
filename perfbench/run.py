"""Run one benchmark workload of pointpair and print its metrics.

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 30 --trace 0

Run from the root of a pointpair checkout; the program is imported from its
`src/`.  The run sets up its inputs, then repeats whole rounds of the pipeline
(pairgen, pre-training, evaluation) until `--seconds` is spent, checks the
outputs against references computed here, and prints one JSON object as the
last line of standard output.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it runs the same rounds once untraced and once
traced, and reports per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

_T_TOP = perf_counter()

# One BLAS thread: the machine is shared, and single-threaded GEMMs keep the
# timings steady.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _since_process_start() -> float:
    """Seconds from this process's start to the top of this script (Linux;
    10 ms resolution), or 0 where /proc is not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    startup = uptime - start_ticks / os.sysconf("SC_CLK_TCK") - (perf_counter() - _T_TOP)
    return startup if 0.0 <= startup < 10.0 else 0.0


def _run_rounds(wl, budget_s: float, count: int | None = None) -> tuple[list, float]:
    """Whole rounds: `count` of them, or as many as are expected to end within
    `budget_s` (at least one).  Also returns the peak RSS in MB after the
    first round: set-up plus one round, which later rounds repeat."""
    rounds = []
    t0 = perf_counter()
    while True:
        r = wl.run_round()
        if rounds:
            r.outputs = None  # only the first round's outputs are checked
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(r)
        if count is not None:
            if len(rounds) == count:
                return rounds, peak_rss_mb
            continue
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(rounds) > budget_s:
            return rounds, peak_rss_mb


def _stage_totals(rounds) -> tuple[float, float, float]:
    return (
        sum(r.pairgen_s for r in rounds),
        sum(r.train_s for r in rounds),
        sum(r.eval_s for r in rounds),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("smoke", "fine_room", "cli_files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pointpair", "__init__.py")):
        print(f"error: no pointpair sources under {SRC}; run from a pointpair checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # the run is single-threaded; one CPU spares it migrations between cores
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, HERE]
    import shutil
    import tempfile

    import pointpair

    if os.path.dirname(os.path.abspath(pointpair.__file__)) != os.path.join(SRC, "pointpair"):
        print(f"error: imported pointpair from {pointpair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        tr = tracing.Tracer() if args.trace else None
        if tr:
            tr.install()
        wl.setup()
        setup_s = _since_process_start() + perf_counter() - _T_TOP
        if tr:
            tr.uninstall()
            setup_spans = tr.take()
        budget = args.seconds / 2 if tr else args.seconds
        rounds, peak_rss_mb = _run_rounds(wl, budget)
        traced = []
        if tr:
            tr.install()
            try:
                traced, _ = _run_rounds(wl, budget, count=len(rounds))
            finally:
                tr.uninstall()
        problems = wl.check(rounds[0])
        for k, r in enumerate(rounds[1:] + traced, start=1):
            if r.digest != rounds[0].digest:
                problems.append(f"round {k} outputs differ from round 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    every = rounds + traced
    if tr:
        plain, with_trace = _stage_totals(rounds), _stage_totals(traced)
        overhead = dict(zip(tracing.OVERHEAD, ((b - a) / len(traced) for a, b in zip(plain, with_trace))))
        metrics = tracing.per_layer_metrics(setup_spans, tr.take(), len(traced), overhead)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pairgen_s_per_scene": {"value": statistics.median([r.pairgen_s for r in rounds]), "unit": "s"},
            "train_ms_per_iter": {"value": statistics.median([1000 * r.train_s / r.steps for r in rounds]), "unit": "ms"},
            "eval_ms_per_pair": {"value": statistics.median([1000 * r.eval_s / r.scored for r in rounds]), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
