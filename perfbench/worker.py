"""One workload in one single-threaded process: set up, measure, check.

Run from the root of a plumbsw checkout; run.py starts it.  The last line
of standard output is a JSON object with the run's figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def run_round(h, ops):
    """Every operation once, on a fresh round context.  Returns the
    latencies, the outputs (None where the operation failed) and the
    failures as (message, the program contradicted itself)."""
    tracer = h.tracer
    ctx = {}
    lat, outs, errors = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = op.run(ctx)
        except wl.Failed as exc:
            out = None
            errors.append(("%s op %d: %s" % (op.kind, i, exc), exc.wrong))
        except h.error as exc:
            out = None
            errors.append(("%s op %d: %s: %s" % (op.kind, i, type(exc).__name__, exc),
                           type(exc).__name__ in wl.DISAGREEMENTS))
        lat.append(clock() - t0)
        outs.append(out)
    return lat, outs, errors


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--index", type=int, default=0,
                   help="which of the run's timed processes; seeds the oracle sample")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "plumbsw", "__init__.py")):
        print("no plumbsw sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import plumbsw

    build, check = wl.WORKLOADS[args.workload]
    graph_dir = os.path.join(args.out, "graphs")
    os.makedirs(graph_dir, exist_ok=True)
    h = wl.Harness(plumbsw, graph_dir)
    t_import = time.perf_counter()
    ops = build(h, random.Random("%s:%d" % (args.workload, args.seed)))
    t_end = time.perf_counter()
    setup_s = t_end - T_START
    # set-up in parts: plumbsw's import, the benchmark's own input generation
    # and the writing of the graph files
    parts = {"import_s": t_import - T_START, "write_s": h.write_s,
             "generate_s": t_end - t_import - h.write_s}
    if args.setup_only:
        shutil.rmtree(graph_dir)
        print(json.dumps({"setup_s": setup_s, "setup_parts": parts}))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_parts": parts, "ops_per_round": len(ops)}
    latencies, errors, round_walls = [], [], []
    mismatched = 0
    t_loop = time.perf_counter()
    first = None
    rounds = 0
    while True:
        t_round = time.perf_counter()
        lat, outs, errs = run_round(h, ops)
        round_walls.append(time.perf_counter() - t_round)
        rounds += 1
        latencies.append(lat)
        errors += errs
        if first is None:
            first = outs
        else:
            mismatched += sum(a != b for a, b in zip(first, outs))
        elapsed = time.perf_counter() - t_loop
        # whole rounds only: stop before a round that would end past --seconds
        if args.trace or elapsed + elapsed / rounds > args.seconds:
            break
    wall = time.perf_counter() - t_loop
    attempted = rounds * len(ops)

    if args.trace:
        # untraced, traced, untraced: the overhead is stated against the mean
        # of the two untraced rounds around the traced one
        tracer = spans.Tracer()
        tracer.install(plumbsw)
        h.tracer = tracer
        t0 = time.perf_counter()
        try:
            _lat, outs, errs = run_round(h, ops)
        finally:
            traced_wall = time.perf_counter() - t0
            tracer.uninstall()
            h.tracer = None
        errors += errs
        mismatched += sum(a != b for a, b in zip(first, outs))
        t1 = time.perf_counter()
        _lat, outs, errs = run_round(h, ops)
        round_walls.append(time.perf_counter() - t1)
        errors += errs
        mismatched += sum(a != b for a, b in zip(first, outs))
        attempted += 2 * len(ops)
        untraced = statistics.mean(round_walls)
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced - 1.0), "%")
        tracer.write(os.path.join(args.out, "spans.jsonl"), t0)
        result["traced_wall_s"] = traced_wall
        result["untraced_wall_s"] = round_walls
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        # run.py turns the latencies of all its timed processes into metrics
        result["latencies_s"] = latencies
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t_check = time.perf_counter()
    ck = wl.Checker(random.Random("check:%s:%d:%d" % (args.workload, args.seed, args.index)))
    check(ops, first, ck)
    ck.expect(mismatched == 0, "%d outputs differ between rounds" % mismatched)
    ck.expect(not any(wrong for _msg, wrong in errors),
              "the program reported its own routes disagreeing")
    shutil.rmtree(graph_dir)
    result.update({
        "correct": not ck.errors,
        "attempted": attempted,
        "failed": len(errors),
        "rounds": rounds,
        "wall_s": wall,
        "check_s": time.perf_counter() - t_check,
        # the outputs of the first round, so that run.py can compare processes
        "digest": hashlib.sha256(repr(first).encode()).hexdigest(),
        "property_checks": ck.properties,
        "oracle_checks": ck.oracle,
        "check_errors": ck.errors[:20],
        "op_errors": [msg for msg, _wrong in errors[:20]],
    })
    with open(os.path.join(args.out, "process-%d.json" % args.index), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
