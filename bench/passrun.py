"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/passrun.py --workload gap-sweep --seed 0 --jobs 1 \
        [--trace] [--size tiny] [--spawned-at T] [--out-dir DIR]

The parent passes its time.monotonic() just before starting this process as
--spawned-at; set-up time is from then until the inputs are generated, so it
covers interpreter start, imports and input generation.  The timed region is
the workload's execution only; the checks run after it.  CPU time and peak
resident set cover this process and its pool workers, read after the pool
has shut down.  With --trace the execution runs under the tracer and the
spans go to DIR/spans-<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, workloads.SIZES[args.size], args.jobs)
    setup_s = time.monotonic() - spawned_at

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.out_dir) as clock_dir:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        if tracer is None:
            results, item_s = workload.execute(inputs, clock_dir)
        else:
            with tracer:
                results, item_s = workload.execute(inputs, None)
        wall_s = time.perf_counter() - started
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (
        usage1.ru_utime - usage0.ru_utime + usage1.ru_stime - usage0.ru_stime
        + children.ru_utime + children.ru_stime
    )
    out = workload.check(inputs, results)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": args.jobs,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": max(usage1.ru_maxrss, children.ru_maxrss) / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "counts": out.counts,
        "digest": out.digest,
        "problems": out.problems[:20],
        "item_s": item_s,
        "module": os.path.dirname(workloads.harness.__file__),
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
        if args.out_dir is not None:
            tracer.write(
                os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            )
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
