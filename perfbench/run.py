"""Benchmark of exitflow: one workload per run, untraced or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

The workloads are ``anneal``, ``oracle`` and ``sweeps`` (see README.md).
A body repeats whole rounds of the workload's operations, in a closed loop
of one caller, while another round of the last round's length fits in its
time.  Every call is timed against the probe, a fixed computation of the
benchmark's own timed just before it, and the times are reported in seconds
of the reference machine (see ``round_time``).  The first completed run of
each operation is checked against computations made apart from the program;
a later run that reproduces it bit for bit inherits its verdict, any other
is checked again.

``--trace 0`` splits ``--seconds`` among WORKERS fresh processes, started
one after another.  Each imports exitflow, builds the inputs, warms up, says
READY (the set-up time is taken from its start to that word, against the
probe run just before the start) and runs its share of the body.
SETUP_ONLY more processes stop at READY and only add set-up samples.  The
end-to-end metrics combine them.

``--trace 1`` works in one process.  It measures the body untraced for half
of ``--seconds``, then wraps the public functions of exitflow's layers,
builds the inputs again and measures the body traced for the other half.
It prints the per-layer metrics for one set-up plus one round, and the
tracing overhead.

Every line of output is a JSON object; the last line is the result.
"""

import os

# one BLAS thread, pinned before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
WORKERS = 5
SETUP_ONLY = 4
WORKER_TIMEOUT_S = 170.0
WORK_UNITS = {"anneal": "rk4_steps_per_s", "oracle": "mc_path_steps_per_s",
              "sweeps": "ops_per_s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORK_UNITS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true",
                   help="run as one of the processes of an untraced run")
    p.add_argument("--setup-only", action="store_true",
                   help="as --worker, but stop after set-up")
    return p.parse_args(argv)


def import_program():
    """Import exitflow from ./src of the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "exitflow", "__init__.py")):
        raise SystemExit("perfbench: no src/exitflow here; run from the root "
                         "of an exitflow checkout")
    sys.path.insert(0, SRC)
    import exitflow
    if not os.path.abspath(exitflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported exitflow from "
                         f"{exitflow.__file__}, not from {SRC}")
    return exitflow


# The probe: a fixed computation of the benchmark's own (Python loops and
# small numpy arrays, as in the program's inner loops, but no exitflow code),
# timed before the operations.  Other tenants of the machine slow everything
# by up to 1.8 times in spells that last from seconds to minutes; the ratio
# of a call's time to the probe's just before it follows the program's cost
# and hardly the spell (see README.md, "Why probe ratios").
PROBE_ARRAY = np.random.default_rng(0).standard_normal(1000)
# time the probe again once the calls since the last probe took this long
PROBE_EVERY_S = 0.1
# the probe's time on the reference machine of README.md, which turns
# ratios back into seconds
PROBE_REF_S = 0.0045


def probe():
    """Run the probe; return its time."""
    t0 = time.perf_counter()
    s = 0.0
    for _ in range(600):
        s += float(np.dot(PROBE_ARRAY, PROBE_ARRAY))
        s += float(np.sqrt(np.abs(PROBE_ARRAY))[3])
        for k in range(60):
            s += k * 0.5
    return time.perf_counter() - t0


class Body:
    """Outcome of one timed body: the time of each operation in each round
    in which it returned, and its ratio to the probe's time before it; the
    work completed, operation counts, and the first checked output of each
    operation.  ``failed`` counts operations that raised or whose output
    failed its check or could not be read; ``wrong`` counts only the latter
    two."""

    def __init__(self, n_ops):
        self.times = [[] for _ in range(n_ops)]
        self.ratios = [[] for _ in range(n_ops)]
        self.rounds = 0
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.first = [None] * n_ops

    @property
    def best(self):
        """The best time of each operation across the rounds, None for one
        that never returned."""
        return [min(t) if t else None for t in self.times]

    @property
    def wall_s(self):
        return round_time(self.ratios)


def round_time(ratios):
    """One round's time in seconds of the reference machine: PROBE_REF_S
    times the sum, over the operations that returned, of the median ratio
    of a call's time to the probe's.  An operation that raises every time
    adds nothing, rather than the time it took to fail; it shows in
    ``failed``."""
    return PROBE_REF_S * sum(statistics.median(r) for r in ratios if r)


def _same(a, b):
    """Bit-for-bit equality of two collected outputs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))


def run_body(ops, seconds):
    body = Body(len(ops))
    clock = time.perf_counter
    probe()  # warm
    since_probe = PROBE_EVERY_S
    start = clock()
    last_round = 0.0
    while not body.rounds or clock() - start + last_round <= seconds:
        round_start = clock()
        for i, op in enumerate(ops):
            if since_probe >= PROBE_EVERY_S:
                probe_s = probe()
                since_probe = 0.0
            body.attempted += 1
            t0 = clock()
            try:
                raw = op.call()
            except Exception as exc:
                since_probe += clock() - t0
                body.failed += 1
                body.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            took = clock() - t0
            since_probe += took
            body.times[i].append(took)
            body.ratios[i].append(took / probe_s)
            try:
                out = op.collect(raw)
                first = body.first[i]
                if first is not None and _same(out, first[0]):
                    ok = first[1]
                else:
                    found = op.check(out)
                    ok = not found
                    body.problems += [f"{op.name}: {p}" for p in found]
                    if first is None:
                        body.first[i] = (out, ok)
            except Exception as exc:
                ok = False
                body.problems.append(f"{op.name}: output unreadable: "
                                     f"{type(exc).__name__}: {exc}")
            if ok:
                body.work += op.work(out)
            else:
                body.failed += 1
                body.wrong += 1
        body.rounds += 1
        last_round = clock() - round_start
    return body


def reference_values(workload, ops, body):
    """group -> (values of the first checked outputs, seeded?)"""
    groups = {}
    for op, first in zip(ops, body.first):
        if first is not None and op.group is not None:
            groups.setdefault(op.group, ([], op.seeded))[0].append(
                np.ravel(op.values(first[0])))
    out = {g: (np.concatenate(v), seeded) for g, (v, seeded) in groups.items()}
    extra = getattr(workload, "reference_extra", None)
    if extra is not None:
        out.update({g: (v, False) for g, v in extra().items()})
    return out


def reference_path(name):
    return os.path.join(HERE, "reference", f"{name}.npz")


def reference_deviation(workload, ops, body, seed):
    """Largest deviation of this run's outputs from the stored reference.

    Seed-dependent outputs are compared only when the run uses the seed
    the reference was made with.  For information: correctness is decided
    by the checks.
    """
    path = reference_path(workload.name)
    if not os.path.exists(path):
        return {"reference": None}
    with np.load(path) as ref:
        ref_seed = int(ref["__seed__"])
        worst, worst_group, compared, unmatched = 0.0, None, [], []
        for group, (vals, seeded) in sorted(
                reference_values(workload, ops, body).items()):
            if seeded and seed != ref_seed:
                continue
            if group not in ref.files or ref[group].shape != vals.shape:
                unmatched.append(group)
                continue
            dev = float(np.max(np.abs(vals - ref[group]))) if vals.size else 0.0
            compared.append(group)
            if worst_group is None or dev > worst:
                worst, worst_group = dev, group
    return {"reference_seed": ref_seed, "groups_compared": len(compared),
            "groups_unmatched": unmatched, "max_abs_deviation": worst,
            "worst_group": worst_group}


def worker(args, make):
    """Body of one process of an untraced run; prints READY after set-up
    and its results as the last line."""
    wl = make(ROOT, args.seed)
    wl.build()
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    ops = wl.ops()
    body = run_body(ops, args.seconds)
    emit({"best": body.best, "ratios": body.ratios, "rounds": body.rounds,
          "work_per_round": body.work / body.rounds,
          "attempted": body.attempted, "failed": body.failed,
          "wrong": body.wrong, "problems": body.problems[:20],
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
          "reference": reference_deviation(wl, ops, body, args.seed)})
    return 0


def run_worker(args, seconds, setup_only=False):
    """Start one worker process; return (set-up time over the probe's time
    just before, its results or None if it stops after set-up).

    The set-up time runs from starting the process to its READY line.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--setup-only" if setup_only else "--worker"]
    probe()  # warm
    probe_s = probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup = (time.perf_counter() - t0) / probe_s
        if line.strip() != b"READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup, None
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def environment(exitflow):
    import scipy
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "exitflow_use_numba": getattr(exitflow, "USE_NUMBA", None),
            "blas_threads": int(BLAS_THREADS)}


def emit(obj):
    print(json.dumps(obj), flush=True)


def untraced(args):
    """Run the workers one after another and combine their results."""
    runs = [run_worker(args, args.seconds / WORKERS) for _ in range(WORKERS)]
    setups = [setup for setup, _ in runs] + \
        [run_worker(args, 0.0, setup_only=True)[0] for _ in range(SETUP_ONLY)]
    results = [r for _, r in runs]
    best = [min((t for t in times if t is not None), default=None)
            for times in zip(*(r["best"] for r in results))]
    wall = round_time([sum(op, []) for op in
                       zip(*(r["ratios"] for r in results))])
    if not wall:
        raise SystemExit("perfbench: no operation returned")
    work_per_round = statistics.median(r["work_per_round"] for r in results)
    emit({"run": {"workload": args.workload, "seed": args.seed,
                  "rounds": [r["rounds"] for r in results],
                  "ops_per_round": len(best),
                  WORK_UNITS[args.workload]: work_per_round / wall,
                  "worker_wall_s": [round_time(r["ratios"]) for r in results],
                  "sum_of_best_times_s": sum(t for t in best if t is not None),
                  "setup_samples_ref_s": [PROBE_REF_S * s for s in setups]}})
    emit({"reference": results[0]["reference"]})
    metrics = {
        "setup_s": (PROBE_REF_S * statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "work_per_s": (work_per_round / wall, "1/s"),
    }
    return (metrics, sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
            sum(r["wrong"] for r in results),
            [p for r in results for p in r["problems"]])


def traced(args, make):
    """Untraced body, then the traced set-up and body, in this process."""
    wl = make(ROOT, args.seed)
    wl.build()
    wl.warm_up()
    plain = run_body(wl.ops(), args.seconds / 2.0)
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    wl = make(ROOT, args.seed)
    wl.build()
    setup_stats = tracer.take()
    body_start = len(tracer.span_name)
    body = run_body(wl.ops(), args.seconds / 2.0)
    per_round = setup_stats.plus(tracer.take(), 1.0 / body.rounds)
    metrics = {name: (fn(per_round), unit)
               for name, unit, _, fn in tracing.PER_LAYER}
    overhead = body.wall_s - plain.wall_s
    metrics["trace.overhead_s"] = (overhead, "s")
    import workloads
    spans = os.path.join(ROOT, workloads.OUT_DIR,
                         f"spans-{args.workload}-seed{args.seed}.npz")
    tracer.write_spans(spans, body_start)
    emit({"trace": {"rounds": [plain.rounds, body.rounds],
                    "untraced_wall_s": plain.wall_s,
                    "traced_wall_s": body.wall_s,
                    "overhead_share": overhead / plain.wall_s,
                    "spans": len(tracer.span_name),
                    "spans_file": os.path.relpath(spans, ROOT)}})
    return (metrics, plain.attempted + body.attempted,
            plain.failed + body.failed, plain.wrong + body.wrong,
            plain.problems + body.problems)


def main(argv=None):
    args = parse_args(argv)
    exitflow = import_program()
    import workloads
    make = workloads.WORKLOADS[args.workload]
    if args.worker or args.setup_only:
        return worker(args, make)
    emit({"environment": environment(exitflow)})
    if args.trace:
        metrics, attempted, failed, wrong, problems = traced(args, make)
    else:
        metrics, attempted, failed, wrong, problems = untraced(args)
    if problems:
        emit({"problems": problems[:20], "problem_count": len(problems)})
    emit({"correct": wrong == 0, "attempted": attempted, "failed": failed,
          "metrics": {k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
