"""Pipeline benchmark for knnmt: build -> merge -> align -> analyze -> translate.

Usage, from the repository root:

    python3 pipebench/run.py --workload small-6lang --seed 1 --seconds 40 --trace 0

It generates its inputs from ``--seed``, repeats whole rounds of the
pipeline for about ``--seconds`` seconds (at least one round), checks every
output against computations made apart from the program, and prints one JSON
object as the last line of standard output: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _cap_blas_threads() -> None:
    """BLAS threads at most the CPUs this process may run on."""
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ncpu))
        except ValueError:
            current = ncpu
        os.environ[var] = str(max(1, min(current, ncpu or 1)))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(pipe, peak_rss_mb: float) -> dict:
    """Work of one repetition over its time, robust to the host's speed swings.

    The time of a repetition (a round's store building, an align pass, one
    sentence set's decoding) is the sum over its operations of each
    operation's median time over the run's repetitions of it.
    """
    seconds = pipe.robust_seconds
    build_entries = 4 * sum(pipe.entries.values())  # per-language, cell-probe, two merges
    return {
        "setup_s": (statistics.median(pipe.setup_s), "s"),
        "build_entries_per_s": (build_entries / seconds(("build:", "build-cp:", "merge")),
                                "entries/s"),
        "align_s": (seconds(("map-fit:", "map-apply:")), "s"),
        "analyze_s": (seconds(("analyze",)), "s"),
        "load_s": (seconds(("load",)), "s"),
        "translate_tok_per_s": (pipe.tokens("greedy") / seconds(("greedy:",)), "tok/s"),
        "cellprobe_tok_per_s": (pipe.tokens("cellprobe") / seconds(("cellprobe:",)), "tok/s"),
        "beam_tok_per_s": (pipe.tokens("beam") / seconds(("beam:",)), "tok/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _metric(value, unit: str, missing: str | None = None) -> dict:
    """A metric entry; one the workload does not exercise carries the reason."""
    if value is None:
        return {"value": None, "unit": unit, "missing": missing}
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "knnmt" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    import checks
    from pipeline import Pipeline
    from tracer import Tracer

    work_root = HERE / "work"
    work = work_root / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        pipe = Pipeline(wl, args.seed)
        pipe.setup()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
            pipe.on_round = tracer.begin_round
        started = time.perf_counter()
        while True:
            pipe.run_round()
            elapsed = time.perf_counter() - started
            # start another round only if it should end within the budget
            if elapsed * (len(pipe.rounds) + 1) / len(pipe.rounds) > args.seconds:
                break
        measured_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        ops = checks.check_run(pipe)
        e2e = end_to_end(pipe, peak_rss_mb)
        if tracer is not None:
            metrics = tracer.layer_metrics(pipe, measured_s)
            spans_path = work_root / f"spans-{wl.name}-s{args.seed}.npz"
            tracer.write_spans(spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
            print("end-to-end figures of this traced run: "
                  + json.dumps({k: round(v, 6) for k, (v, _) in e2e.items()}))
        else:
            metrics = e2e
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failures = [op for op in ops if op.error is not None]
    for op in failures[:20]:
        print(f"FAILED round {op.round} {op.name}: {op.error}")
    print(f"rounds={len(pipe.rounds)} measured_s={measured_s:.2f} "
          f"bleu={pipe.rounds[-1].bleu} output_digest={checks.run_digest(pipe)}")
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: _metric(*entry) for name, entry in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
