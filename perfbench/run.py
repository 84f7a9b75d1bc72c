"""Critical-sphere benchmark of hawkfol: time to solution on three workloads.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process
    python3 perfbench/run.py --smoke                      # self-check on a 16x32 grid

Workloads: solve, surface_scan, rescaled (see workloads.py and
README.md).  Each run is one single-threaded process: the BLAS and OpenMP
thread counts are pinned to 1 before numpy is imported.  The run prints
every metric with its unit, each oracle's verdict and the accuracy fields,
writes the full record (ops, machine, spans of a traced run) to
perfbench/out/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, in
reference seconds (pace.py), with --trace 1 the per-layer ones, taken from
spans recorded around hawkfol's public functions (spans.py).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import pace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve", "surface_scan", "rescaled")
SETUP_REPEATS = 5
SMOKE_GRID = (16, 32)
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import hawkfol; "
                 "print(time.perf_counter() - t)")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _require_source() -> None:
    if not (SRC / "hawkfol" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hawkfol source at {SRC / 'hawkfol'}; "
                 "run from the root of a hawkfol checkout")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# machine record
# ----------------------------------------------------------------------

def _blas_threads():
    """Thread count in effect in numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads(),
            "pinned_env": {v: os.environ[v] for v in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model()}


# ----------------------------------------------------------------------
# set-up: import, presets and every lazily cached grid table
# ----------------------------------------------------------------------

def _import_probe() -> tuple:
    """(wall, scaled) import time of hawkfol in a fresh interpreter."""
    before = pace.sample()
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_child_env(),
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    wall = float(out.stdout.strip().splitlines()[-1])
    return wall, pace.scaled(wall, before, pace.sample())


def _build_tables(grid):
    for table in ("basis", "basis_dtheta", "basis_dphi", "basis_dtheta2",
                  "basis_dtheta_dphi", "basis_dphi2", "analysis_matrix",
                  "embedding_derivatives"):
        getattr(grid, table)


def set_up(workload, grid_shape):
    """Median set-up over repeats, run one after another; returns (grid, presets, record).

    set-up = import (fresh interpreter) + presets + grid tables, each repeat
    timed between pace samples; `setup_s` is in reference seconds.
    """
    from hawkfol.grid import SphereGrid

    imports = [_import_probe() for _ in range(SETUP_REPEATS)]
    builds, tables_s = [], []
    grid = data = None
    for _ in range(SETUP_REPEATS):
        grid = data = None  # free the previous tables before the next build
        before = pace.sample()
        start = perf_counter()
        data = workload.presets()
        grid = SphereGrid(*grid_shape)
        tables_start = perf_counter()
        _build_tables(grid)
        end = perf_counter()
        builds.append((end - start, pace.scaled(end - start, before, pace.sample())))
        tables_s.append(end - tables_start)
    tables_mb = 7 * grid.n_nodes * grid.n_coeffs * 8 / 1e6
    record = {"import_s": [w for w, _ in imports], "build_s": [w for w, _ in builds],
              "tables_s": tables_s,
              "setup_wall_s": (statistics.median(w for w, _ in imports)
                               + statistics.median(w for w, _ in builds)),
              "setup_s": (statistics.median(s for _, s in imports)
                          + statistics.median(s for _, s in builds)),
              "grid": repr(grid), "tables_mb": tables_mb}
    return grid, data, record


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

def _tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 2), "value": sorted(times)[k - 1],
            "samples": n}


def _summarize_accuracy(ops):
    out = {}
    for op in ops:
        for key, value in op.accuracy.items():
            if key == "lambda":
                out.setdefault(key, value)   # the first op's solution
            else:
                out[key] = max(out.get(key, value), value)
    return {f"accuracy.{k}": v for k, v in out.items()}


def run_workload(name, seed, seconds, trace, smoke=False):
    """One run; with `smoke`, a single round on the 16x32 grid."""
    import numpy as np
    import hawkfol

    import spans
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name]
    grid, data, setup = set_up(workload, SMOKE_GRID if smoke else workload.grid_shape)
    rng = np.random.default_rng(seed)

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install(hawkfol)
    run = Run(tracer)
    rounds = round0_ops = 0
    try:
        while True:
            workload.run_round(run, rounds, rng, grid, data)
            if rounds == 0:
                round0_ops = len(run.ops)
            rounds += 1
            if run.measured_s >= seconds or smoke:
                break
    finally:
        if tracer:
            tracer.uninstall()

    ok = [op for op in run.ops if op.ok]
    timed_ops = ok or run.ops
    times = [op.timing.scaled_s for op in timed_ops]
    end_to_end = {
        "setup_s": setup["setup_s"],
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(ok) / run.scaled_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {"setup_s": setup["setup_wall_s"],
            "op_s_p50": statistics.median(op.timing.wall_s for op in timed_ops),
            "ops_per_s": len(ok) / run.measured_s}
    if tracer:
        metrics = spans.layer_metrics(
            tracer.spans, round0_ops, len(run.ops), run.measured_s, tracer.overhead_s,
            {"seconds": statistics.median(setup["tables_s"]), "mb": setup["tables_mb"]})
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    failed = len(run.ops) - len(ok)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine_record(), "setup": setup, "rounds": rounds,
        "measured_s": run.measured_s, "scaled_s": run.scaled_s,
        "end_to_end": end_to_end, "wall": wall,
        "op_s_tail": _tail(times), "failed_frac": failed / len(run.ops),
        "accuracy": _summarize_accuracy(run.ops),
        "ops": [{"seconds": op.timing.scaled_s, "wall_s": op.timing.wall_s, "ok": op.ok,
                 "error": op.error, **op.accuracy} for op in run.ops],
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    result = {"correct": failed == 0, "attempted": len(run.ops), "failed": failed,
              "metrics": metrics}
    return record, result


def report(record) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"{record['setup']['grid']} rounds={record['rounds']} ops={len(record['ops'])}")
    print(f"# python {m['python']}, numpy {m['numpy']}, {m['blas']}, "
          f"blas_threads={m['blas_threads']}, nproc={m['nproc']}, cpu={m['cpu']}")
    for name, metric in record["metrics"].items():
        print(f"{name:38s} {metric['value']:.6g} {metric['unit']}")
    tail = record["op_s_tail"]
    if tail:
        print(f"{'op_s_tail':38s} {tail['value']:.6g} s "
              f"(p{tail['percentile']:g} of {tail['samples']} ops)")
    print(f"{'failed_frac':38s} {record['failed_frac']:.6g} 1")
    for name, value in record["wall"].items():
        print(f"{'wall.' + name:38s} {value:.6g} {END_TO_END_UNITS[name]} (wall clock)")
    for name, value in record["accuracy"].items():
        print(f"{name:38s} {value:.6g}")
    for i, op in enumerate(record["ops"]):
        verdict = "pass" if op["ok"] else f"FAIL ({op['error']})"
        print(f"oracle op {i:3d} {op['seconds']:9.4f} s ({op['wall_s']:.4f} s wall)  {verdict}")


def write_record(record) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / (f"{record['workload']}-seed{record['seed']}"
                  f"-trace{int(record['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


# ----------------------------------------------------------------------
# several workloads, each in a child process
# ----------------------------------------------------------------------

def _child(args_list) -> dict:
    """Run this script in a fresh process; echo its report and return its result."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args_list],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    sys.stdout.write(out.stdout)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"workload run {args_list} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def smoke() -> int:
    """One round of every workload on a 16x32 grid, traced and untraced; checks
    that every metric BENCHMARK.json names is emitted."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result = _child(["--smoke", "--workload", workload["name"], "--seed", "0",
                             "--trace", str(trace)])
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(f"{workload['name']} trace={trace}: missing "
                                f"{sorted(expected[trace] - got)}, extra "
                                f"{sorted(got - expected[trace])}")
            if result["failed"]:
                # the oracle tolerances are set for the workloads' own grids
                print(f"smoke: note: {workload['name']} trace={trace}: {result['failed']} "
                      f"of {result['attempted']} ops fail their oracle on 16x32")
    for line in problems:
        print(f"smoke: {line}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check: one round per workload on a 16x32 grid, "
                             "checking that every metric of BENCHMARK.json is emitted")
    args = parser.parse_args(argv)

    _require_source()
    if args.smoke and args.workload == "all":
        return smoke()
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        results = {name: _child(["--workload", name, *common]) for name in WORKLOAD_NAMES}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    record, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  smoke=args.smoke)
    write_record(record)
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
