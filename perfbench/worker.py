"""One round of a workload, in the fresh interpreter that runs this file.

Set-up (importing poscert and building the round's operation list) is
timed from the first line; then the worker makes the workload's untimed
warm-up calls, every operation runs once, timed alone (cheap ones
several times, see ``workloads.REPEAT_BELOW_S``), and the worker reads
its own peak resident memory. Results go to standard output as a stream of pickles,
read by ``run.py``, which starts one worker per round, one at a time:
each operation's output as soon as it is timed, so that no output is
held while later operations run, then a summary.

Every timed execution starts right after a full garbage collection, so
that the collector's counters, and so the collections that fall inside
the call, do not depend on what ran before it: a 3 ms enumeration
otherwise took 1.3-2.1 ms in one run and 3.2 ms in another, as the
best of nine timings. The objects that set-up and warm-up leave (about
27,000: modules, numpy, the inputs) are frozen first (``gc.freeze``),
so a collection takes microseconds instead of 6 ms, and collections
inside poscert's calls do not rescan them.

Every time in the summary is calibrated: multiplied by
REFERENCE_SECONDS / (time of a fixed pure-Python reference loop in this
process), the median over the round. Other load on a shared machine
slows the reference as it slows poscert's pure-Python work, so
calibrated times read as seconds on the machine in its quiet state; the
raw times are kept too. Each operation against the reference timed just
before and after it alone was tried and spread more: one 1.3 ms timing
is too noisy, and it made a steady 1.1 s operation read 0.71-0.96 s.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace SPANS_FILE]
(with the poscert sources on PYTHONPATH)
"""

from time import perf_counter

start = perf_counter()

import argparse  # noqa: E402  (everything below is part of the timed set-up)
import gc  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

# The reference loop's time on the 2-vCPU machine the benchmark was
# written on, in its quiet state; any constant would do for comparisons.
REFERENCE_SECONDS = 1.3e-3


def reference_time() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", type=Path, help="record spans and write them to this file")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    setup_s = perf_counter() - start
    if tracer:
        tracer.phase = "warmup"
    for op in workloads.warmup_ops(args.workload):
        workloads.execute(op)
    gc.freeze()
    if tracer:
        tracer.phase = "run"
    repeat_below = workloads.REPEAT_BELOW_S.get(args.workload, 0.0)
    raw_times, errors, refs = [], [], []
    for op in ops:
        refs.append(reference_time())
        out = err = None
        gc.collect()
        t0 = perf_counter()
        try:
            out = workloads.execute(op)
        except Exception as exc:  # a failed operation is counted, and the round goes on
            err = f"{type(exc).__name__}: {exc}"
        raw = perf_counter() - t0
        if err is None and raw * REFERENCE_SECONDS / refs[-1] < repeat_below:
            if tracer:
                tracer.phase = "repeat"  # spans of one execution per operation count
            for _ in range(workloads.REPEATS - 1):
                gc.collect()
                t0 = perf_counter()
                workloads.execute(op)
                raw = min(raw, perf_counter() - t0)
            if tracer:
                tracer.phase = "run"
        raw_times.append(raw)
        errors.append(err)
        pickle.dump(None if err else workloads.compact(op, out), sys.stdout.buffer)
        del out
    scale = REFERENCE_SECONDS / statistics.median(refs)
    summary = {
        "setup_s": setup_s * scale,
        "raw_setup_s": setup_s,
        "times": [t * scale for t in raw_times],
        "raw_times": raw_times,
        "reference_s": statistics.median(refs),
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        factor = {"ms": scale, "1/s": 1 / scale}
        layers = tracer.layer_metrics()
        summary["layers"] = {k: (v * factor.get(u, 1), u) for k, (v, u) in layers.items()}
        tracer.write(args.trace)
    pickle.dump(summary, sys.stdout.buffer)


if __name__ == "__main__":
    main()
