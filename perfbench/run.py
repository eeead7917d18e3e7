"""The birat benchmark: one workload per run, timed from outside the program.

    python3 perfbench/run.py --workload deform-corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; birat is imported from ./src.  The run
makes the workload's inputs from the seed (inputs.py, which never calls
birat), measures set-up in fresh interpreters, runs the operations in one
more fresh single-threaded interpreter (worker.py) for --seconds, checks
every distinct output against sympy (check.py) and prints a report.  The
last line of standard output is one JSON object: the end-to-end metrics, or
with --trace 1 the per-layer metrics of a traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_inputs  # noqa: E402

# Set-ups measured before the timed run and again after it: the machine's
# speed drifts over seconds, and samples taken on both sides of the run keep
# one slow stretch from setting the median.
SETUP_SAMPLES = 5
# The timed worker must end by then, leaving time for the later set-ups and
# the checks within the run's 180 s.
WORKER_DEADLINE_S = 140.0


def _launch(args, timeout):
    """Run a worker to its end and return its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--launched", repr(time.monotonic())] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def _import_time():
    """Seconds to import birat.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import birat.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def end_to_end(result, setup_samples):
    """The end-to-end metrics of an untraced run.

    An operation's latency is the median of its timings over the run's
    rounds (a capped timing counts at the cap); p50 and p90 are taken over
    the operations of one round.
    """
    rounds = result["latencies_s"]
    per_op = [statistics.median(times) for times in zip(*rounds)]
    attempted = sum(len(r) for r in rounds)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (attempted / result["busy_s"], "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, import_s):
    units = {"calls": "count", "terms_out": "count", "nontrivial": "count",
             "max_coeff_bits": "bits", "hit_ratio": "ratio"}
    out = {}
    for name, value in result["layers"].items():
        out[name] = (value, units.get(name.rsplit(".", 1)[1], "s"))
    out["cli.import_s"] = (import_s, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one birat benchmark workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "birat", "__init__.py")):
        print("error: run from the root of a birat checkout (src/birat is missing)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}-trace{args.trace}")
    doc = make_inputs(args.workload, args.seed)
    inputs_path = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}.json")
    with open(inputs_path, "w") as fh:
        json.dump(doc, fh)

    common = ["--workload", args.workload, "--inputs", inputs_path]

    def setup_samples():
        return [json.loads(_launch(common + ["--setup-only"], 30))["setup_s"] for _ in range(SETUP_SAMPLES)]

    setups = setup_samples()
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--result", stem + ".result.json"]
    if args.trace:
        run_args += ["--spans", stem + ".spans.json"]
    _launch(run_args, WORKER_DEADLINE_S - (time.monotonic() - started))
    with open(stem + ".result.json") as fh:
        result = json.load(fh)
    setups += [result["setup_s"]] + setup_samples()

    import check  # loads sympy, only now that the worker is gone

    problems = check.check_run(args.workload, doc["ops"], result)
    attempted = sum(len(r) for r in result["latencies_s"])
    rounds = len(result["latencies_s"])
    e2e = end_to_end(result, setups)
    metrics = per_layer(result, statistics.median(_import_time() for _ in range(3))) if args.trace else e2e

    nproc = len(os.sched_getaffinity(0))
    print(f"python {result['python']}, birat.kernel_backend {result['kernel_backend']}, nproc {nproc}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} rounds, "
          f"{attempted} attempted, {len(result['failed'])} failed, {attempted // rounds} per round")
    if args.trace:
        print("traced run: its end-to-end figures show the tracing overhead only")
    for name, (value, unit) in (e2e | metrics).items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
