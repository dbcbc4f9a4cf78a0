"""Benchmark of plumbsw: four exact-arithmetic workloads.

Usage, from the root of a plumbsw checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A run of a workload starts PROCESSES single-threaded worker processes
(worker.py) one after the other, each loading plumbsw from ./src, setting
up and timing whole rounds of the workload's operations for its share of
--seconds.  Each operation's latency is its median over all their rounds,
so that neither a slow phase of the machine nor a slow process moves it.
Set-up is the median over the timed processes and a set-up-only process
before and after them.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (the end-to-end metrics
with --trace 0, the per-layer metrics of one traced process with --trace 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sw_tables", "counting_surgery", "cube_oracle", "pc_surgery")
# timed worker processes per run, each with an equal share of --seconds,
# and set-up-only processes before and after them
PROCESSES = 2
SETUPS_AROUND = 2
WORKER_TIMEOUT_S = 170


def _worker(args, out_dir, seconds, index=0, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--out", out_dir,
           "--index", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("worker for %s exited with %d" % (args.workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(procs, setups):
    """The end-to-end metrics of the timed processes' rounds: each
    operation's latency is its median over every round of every process."""
    rounds = [lat for res in procs for lat in res["latencies_s"]]
    typical = [statistics.median(col) for col in zip(*rounds)]
    pct = statistics.quantiles(typical, n=10, method="inclusive")
    return {
        "ops_per_s": {"value": len(typical) / sum(typical), "unit": "op/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(typical), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * pct[8], "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in procs),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def run_one(args):
    """One workload: PROCESSES timed processes between set-up-only ones, or
    one traced process."""
    out_dir = os.path.join(HERE, "out", "%s-seed%d-trace%d-%d"
                           % (args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        procs = [_worker(args, out_dir, args.seconds)]
        metrics = procs[0]["metrics"]
    else:
        setups = [_worker(args, out_dir, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUPS_AROUND)]
        procs = [_worker(args, out_dir, args.seconds / PROCESSES, index=i)
                 for i in range(PROCESSES)]
        setups += [_worker(args, out_dir, 0, setup_only=True)["setup_s"]
                   for _ in range(SETUPS_AROUND)]
        setups += [r["setup_s"] for r in procs]
        metrics = end_to_end(procs, setups)
    errors = [e for r in procs for e in r["check_errors"] + r["op_errors"]]
    same = len({r["digest"] for r in procs}) == 1
    if not same:
        errors.append("the outputs differ between the timed processes")
    for err in errors:
        print("%s: %s" % (args.workload, err), file=sys.stderr)
    out = {"correct": same and all(r["correct"] for r in procs),
           "attempted": sum(r["attempted"] for r in procs),
           "failed": sum(r["failed"] for r in procs), "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(out, processes=procs), fh, indent=1)
    return out, procs


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "plumbsw", "__init__.py")):
        print("run from the root of a plumbsw checkout (no src/plumbsw here)",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        out, _procs = run_one(args)
        print(json.dumps(out))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        out, procs = run_one(args)
        print("%s: %d attempted, %d failed, %s, %d rounds of %d ops, %d oracle checks"
              % (name, out["attempted"], out["failed"],
                 "correct" if out["correct"] else "INCORRECT",
                 sum(r["rounds"] for r in procs), procs[0]["ops_per_round"],
                 sum(r["oracle_checks"] for r in procs)))
        for metric, m in sorted(out["metrics"].items()):
            print("  %-36s %14.6g %s" % (metric, m["value"], m["unit"]))
            total["metrics"]["%s/%s" % (name, metric)] = m
        total["correct"] = total["correct"] and out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
