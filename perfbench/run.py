"""Benchmark of poscert: four workloads, checked against independent oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload lp_coarse_grid --seed 1 --seconds 12 --trace 0

The seed fixes one round's operation list. The run executes
round(--seconds / SECONDS_PER_ROUND) rounds (``workloads.py``), each in a
fresh single-threaded worker process (``worker.py``), one after another;
no clock decides how much work a run does. Workers report calibrated
times (see ``worker.py``), and an operation's time is the best of its
rounds; both discount the slow-downs that other load on a shared machine
causes.
After the last round, every output of the first round is checked with
``oracles.py`` (scipy, sympy), and every later round must have produced
the same outputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The same object with per-operation detail, and
the spans of a traced run, are written to ``perfbench/out/``.

It exits with code 2 and prints no result when the poscert sources are
not in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def start_worker(workload: str, seed: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), *extra],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, timeout=170,
    )
    if proc.returncode:
        raise RuntimeError(f"worker failed:\n{proc.stderr.decode(errors='replace')}")
    # A stream of pickles written by worker.py (never outside input): the
    # outputs of the operations in order, then the summary.
    stream = io.BytesIO(proc.stdout)
    items = []
    while stream.tell() < len(proc.stdout):
        items.append(pickle.load(stream))
    summary = items.pop()
    summary["outputs"] = items
    return summary


def _same(a, b) -> bool:
    if hasattr(a, "shape") or hasattr(b, "shape"):
        return a is not None and b is not None and a.shape == b.shape and bool((a == b).all())
    return a == b


# ---------------------------------------------------------------------------
# checking outputs


def check_outputs(ops, outputs, errors):
    """Per operation: poscert's own failure report and the oracles' problems; plus the LP cert gap.

    An operation fails when poscert raised or gave no certificate, or when
    an oracle disagrees with its output.
    """
    import oracles

    checker = oracles.CertificateChecker()
    reported, problems = [], []
    gaps = []
    for op, out, err in zip(ops, outputs, errors):
        probs: list[str] = []
        failed = err is not None
        if not failed and op.kind == "lp_bound":
            n, s, d, grid = op.args
            float_bound, coeffs, bound, rejection = out
            if bound is None:
                failed, err = True, rejection
            else:
                opt = oracles.grid_lp_optimum(n, s, d, grid)
                if abs(float_bound - opt) > oracles.LP_RTOL * opt:
                    probs.append(f"float bound {float_bound} vs HiGHS {opt}")
                if bound < opt * (1 - oracles.HIGHS_RTOL):
                    probs.append(f"certified {float(bound)} below the grid optimum {opt}")
                code = oracles.known_code_size(n, s)
                if code is not None and bound < code:
                    probs.append(f"certified {float(bound)} below a known code of size {code}")
                exact, why = checker.bound(n, s, coeffs)
                probs += why
                if exact is not None and exact != bound:
                    probs.append(f"sympy gives bound {exact}, poscert {bound}")
                gaps.append((float(bound) - opt) / opt * 1e6)
        elif not failed and op.kind == "verify_certificate":
            n, s, poly = op.args
            coeffs, bound = out
            exact, why = checker.bound(n, s, coeffs)
            probs += why
            expected = oracles.KISSING_CODE_AT_HALF[n]
            if exact != expected or bound != expected:
                probs.append(f"bound {bound} (sympy {exact}), the kissing number is {expected}")
        elif not failed and op.kind == "short_vectors":
            lat, bound = op.args
            theta = {"E8": oracles.theta_e8, "E8-coords": oracles.theta_e8, "D4": oracles.theta_d4}.get(lat.name)
            series = theta(bound) if theta else oracles.theta_zk(lat.rank, bound)
            probs += oracles.check_short_vectors(lat.gram, Fraction(bound), out, series)
        elif not failed and op.kind == "lattice_invariants":
            (lat,) = op.args
            probs += oracles.check_invariants(lat.name, *out)
        elif not failed and op.kind == "schur":
            f, u, v, _cutoff = op.args
            probs += oracles.check_schur_identity(f, u, v, *out)
        reported.append(err if failed else None)
        problems.append(probs)
    return reported, problems, (max(gaps) if gaps else None)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "poscert" / "__init__.py").is_file():
        print(f"poscert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import poscert

    if Path(poscert.__file__).resolve().parent != (SRC / "poscert").resolve():
        print(f"imported poscert from {poscert.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rounds = max(1, round(args.seconds / workloads.SECONDS_PER_ROUND[args.workload]))
    OUT.mkdir(exist_ok=True)
    results = []
    for r in range(rounds):
        trace = ("--trace", str(OUT / f"{args.workload}-spans-round{r}.jsonl")) if args.trace else ()
        results.append(start_worker(args.workload, args.seed, *trace))
    setup_samples = [res["setup_s"] for res in results]

    # Everything below runs after the last worker has ended: no timing, no memory reading.
    ops = workloads.build(args.workload, args.seed)
    first = results[0]
    unstable = {i for res in results[1:] for i in range(len(ops))
                if res["errors"][i] != first["errors"][i] or not _same(res["outputs"][i], first["outputs"][i])}
    best = [min(res["times"][i] for res in results) for i in range(len(ops))]
    checks_start = time.perf_counter()
    reported, problems, cert_gap = check_outputs(ops, first["outputs"], first["errors"])
    print(f"oracle checks took {time.perf_counter() - checks_start:.1f} s", file=sys.stderr)
    failed_ops = {i for i in range(len(ops)) if reported[i] or problems[i]} | unstable
    wrong = {i for i in range(len(ops)) if problems[i]} | unstable
    for i in sorted(failed_ops):
        why = reported[i] or "; ".join(problems[i]) or "output differs between rounds"
        print(f"FAILED {ops[i].label}: {why}", file=sys.stderr)

    ops_per_s = len(ops) / sum(best)
    if args.trace:
        per_round = [res["layers"] for res in results]
        metrics = {k: (statistics.median(m[k][0] for m in per_round), u) for k, (_, u) in per_round[0].items()}
        metrics["delsarte.cert_gap_ppm"] = (cert_gap or 0.0, "ppm")
        print(f"traced ops_per_s {ops_per_s:.4f}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in results), "MB"),
        }

    result = {
        "correct": not wrong,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=rounds, ops_per_s=ops_per_s,
                  setup_samples_s=setup_samples, reference_ms=[res["reference_s"] * 1e3 for res in results],
                  operations=[{"label": op.label, "ms": [res["times"][i] * 1e3 for res in results],
                               "raw_ms": [res["raw_times"][i] * 1e3 for res in results],
                               "failed": i in failed_ops} for i, op in enumerate(ops)])
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
