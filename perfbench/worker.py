"""Run one workload's operations in a fresh interpreter, timed from outside birat.

run.py starts this file from the root of a checkout.  It imports birat from
./src, reads the workload's input document, and reports its set-up time: the
time from the launch stamp run.py passes in to the first timed operation.
With --setup-only it stops there.  Otherwise it runs whole rounds of the
operations, at least MIN_ROUNDS and until --seconds have passed, each
operation under a time cap (CAP_S, or TRACED_CAP_S with --trace 1), and
writes latencies, outputs and peak memory to --result.

Only birat's public functions are called.  Nothing here checks outputs; that
happens in run.py, in another process, after this one has exited.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time


class Capped(BaseException):
    """Raised by the alarm when an operation reaches its cap.

    A BaseException so that no handler inside the program can swallow it.
    """


# Per-operation caps, about four times the slowest operation that finishes
# (0.54 s untraced on a 2-CPU machine; tracing makes operations 2.3 to 3.8
# times slower), so that every run caps the same operations.
CAP_S = 2.0
TRACED_CAP_S = 8.0

# Rounds every untraced run makes at least, so that each operation's latency
# can be the median of three timings and a burst of machine noise drops out.
MIN_ROUNDS = 3


def _alarm(signum, frame):
    raise Capped()


def deform_op(birat, op):
    field = birat.parse_field(op["field"])
    f = birat.parse_map(op["map"], field)
    fam = birat.build_family(f)
    doc = {"family": str(fam)}
    doc.update(birat.extendability(fam).to_dict())
    if op["class"] == "positive":
        doc["limit_vs_jacobian"] = birat.limit_vs_jacobian(f)
    return json.dumps(doc, sort_keys=True)


def compose_op(birat, op):
    field = birat.parse_field(op["field"])
    f = birat.parse_map(op["f"], field)
    g = birat.parse_map(op["g"], field)
    return birat.map_str(f.compose(g))


def verify_op(birat, op):
    from birat.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(op["argv"])
    return json.dumps({"exit": code, "stdout": buf.getvalue()})


OPS = {"deform-corpus": deform_op, "compose-p3p4": compose_op, "verify-suites": verify_op}


def import_birat(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import birat
    import birat.cli  # noqa: F401  (set-up covers it, and the tracer wraps it)

    if not os.path.abspath(birat.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"birat imported from {birat.__file__}, not from {src}")
    return birat


def run_rounds(birat, run_op, ops, seconds, cap, tracer):
    """Whole rounds of ops until `seconds` have passed and, untraced, MIN_ROUNDS are done."""
    rounds = []
    outputs = {}
    failed = []
    mismatched = []
    busy = 0.0
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    min_rounds = 1 if tracer is not None else MIN_ROUNDS
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        latencies = []
        for op in ops:
            # each operation starts from a collected heap, so the collector's
            # work inside it depends on that operation alone
            gc.collect()
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                out = run_op(birat, op)
            except Capped:
                out = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            busy += dt
            if out is None:
                latencies.append(cap)
                failed.append(op["id"])
                if tracer is not None:
                    tracer.reset_stack()
                continue
            latencies.append(dt)
            if not rounds:
                outputs[op["id"]] = out
            elif outputs.get(op["id"]) != out:
                mismatched.append(op["id"])
        rounds.append(latencies)
    return {
        "latencies_s": rounds,
        "busy_s": busy,
        "failed": failed,
        "outputs": outputs,
        "mismatched": mismatched,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--inputs", required=True, help="input document from inputs.py")
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, help="run rounds for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", help="result JSON file")
    ap.add_argument("--spans", help="span file of a traced run")
    args = ap.parse_args(argv)

    birat = import_birat(os.getcwd())
    with open(args.inputs) as fh:
        ops = json.load(fh)["ops"]
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cap = TRACED_CAP_S if args.trace else CAP_S
    run = run_rounds(birat, OPS[args.workload], ops, args.seconds, cap, tracer)
    # peak memory of the program's work, before anything else runs here
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        run["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    if args.workload == "verify-suites":
        # an untimed second run of every suite, for the byte-identity check
        run["reruns"] = {op["id"]: verify_op(birat, op) for op in ops}
    run.update(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
        python=sys.version.split()[0],
        kernel_backend=birat.kernel_backend,
    )
    with open(args.result, "w") as fh:
        json.dump(run, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
