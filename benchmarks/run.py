"""kqreg benchmark: one workload per process, every metric by name and unit.

    python3 benchmarks/run.py --workload {rate_experiment|csv_roundtrip|verify_suites}
                              --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (importing kqreg, writing the workload's input files) is
timed from the start of this script.  Whole rounds then run while the next
one is expected to end within ``--seconds``; at least one round always runs.
With ``--trace 0`` the last stdout line holds the end-to-end metrics (each
call at its best time over the rounds), with ``--trace 1`` the per-layer
metrics, per round, of a run whose calls into kqreg are wrapped by timing
spans.  In an untraced run, before each round, this script also runs itself
with ``--setup-only`` in a fresh interpreter, which makes one more cold set-up
and prints its time; ``setup_s`` is the best of these and the run's own.
Work files live under ``.bench_out/`` and are removed at exit; result records
and span files stay there.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the program runs on one CPU that each round picks (see
# pin_to_fastest_cpu).  Two OpenBLAS threads spin on both CPUs of this machine
# and were not faster: 80.6 and 73.7 s against 72.8 and 80.1 s with one, for
# the full acceptance experiment.  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
CPUS = os.sched_getaffinity(0)  # before any pinning

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "model_bytes": "bytes",
}

VERIFY_SUITES = ("lemma2", "capacity", "approx", "example1", "solver")

# name -> unit; figures for layers a workload never reaches read 0
PER_LAYER = {
    "solver.fit.self_s": "s",
    "solver.fit.calls": "count",
    "solver.fit.additive.s": "s",
    "solver.fit.product.s": "s",
    "loss.pinball.calls": "count",
    "kernels.gram.s": "s",
    "kernels.gram.entries": "count",
    "kernels.cross_gram.s": "s",
    "kernels.cross_gram.entries": "count",
    "solver.Model.predict.s": "s",
    "solver.Model.predict.rows": "count",
    "solver.Model.norm_sq.s": "s",
    "solver.DataSet.from_csv.s": "s",
    "solver.DataSet.from_csv.rows": "count",
    "solver.Model.save.s": "s",
    "solver.Model.load.s": "s",
    "cli.self_s": "s",
    "solver.duality_gap.s": "s",
    "solver.objective.s": "s",
    "experiments.rate_experiment.self_s": "s",
    "experiments.generate.s": "s",
    "experiments.target_values.s": "s",
    "experiments.conditional_excess.s": "s",
    **{f"verification.{suite}.s": "s" for suite in VERIFY_SUITES},
    "verification.dual_grid_oracle.s": "s",
    "spectral.decompose.s": "s",
    "spectral.approx_error.self_s": "s",
    "capacity.cover_ball.s": "s",
    "capacity.sample_additive_ball.s": "s",
    "capacity.additive_net.s": "s",
}


def machine_facts() -> dict:
    """What changes the answer: CPUs, BLAS and its threads, numba, versions."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(CPUS),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "numba": numba_version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
    }


def _probe_seconds() -> float:
    start = time.perf_counter()
    sum(i * i for i in range(20000))
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus: set[int]) -> int:
    """Move this (single-threaded) process to the allowed CPU that runs a fixed
    loop fastest right now, and return it.  Each CPU of this machine runs up to
    2x slower for stretches of seconds when its host neighbour is busy, and the
    two CPUs do so at different times."""
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_probe_seconds() for _ in range(5))
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


def cold_setup_seconds(args) -> float:
    """Time of one cold set-up of this workload in a fresh interpreter, which
    inherits this process's CPU and environment."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True)
    return float(child.stdout.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["rate_experiment", "csv_roundtrip", "verify_suites"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the set-up, print its seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kqreg" / "__init__.py").is_file():
        print(f"error: no kqreg sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import kqreg

    if Path(kqreg.__file__).resolve().parent != (src / "kqreg").resolve():
        print(f"error: imported kqreg from {kqreg.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / run_id
    work.mkdir(parents=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        probe = workloads.Probe() if cls.needs_probe and not args.trace else None
        workload = cls(work, args.seed, probe)
        setup_samples = [time.perf_counter() - T_START]
        if args.setup_only:
            print(repr(setup_samples[0]))
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)

        rounds, durations, round_cpus, iterations = [], [], [], []
        loop_start = time.perf_counter()
        while True:
            iteration_start = time.perf_counter()
            round_cpus.append(pin_to_fastest_cpu(CPUS))
            if not args.trace:
                setup_samples.append(cold_setup_seconds(args))
            round_start = time.perf_counter()
            rounds.append(workload.run_round(len(rounds)))
            durations.append(time.perf_counter() - round_start)
            iterations.append(time.perf_counter() - iteration_start)
            if time.perf_counter() - loop_start + max(iterations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        figures = tracer.metrics()
        figures["loss.pinball.calls"] = tracer.count_under("loss.pinball", "solver.fit")
        # per round, so that runs with different round counts compare
        metrics = {name: {"value": float(figures.get(name, 0.0)) / len(rounds), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = workload.summary(rounds)
        values.update(setup_s=min(setup_samples), peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "round_seconds": durations,
        "round_cpus": round_cpus,
        "setup_seconds": setup_samples,
        "cpu_s": {"user": os.times().user, "system": os.times().system},
        "round_metrics": [r.metrics for r in rounds],
        "round_calls": [r.calls for r in rounds],
        "machine": machine_facts(),
        "problems": problems,
        "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "traces" / f"{run_id}.json")
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
