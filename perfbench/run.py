"""The ktcy benchmark: seeded solve workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/ktcy`` there and nowhere else.  Workloads (see ``bench_workloads``):

    smooth-48     ktcy solve --field --renormalize, then ktcy verify, at 48^3
    large-amp-32  library solve at 32^3 with amplitude 3.0, then re-audit
    rotated-24    solve_rotated for angles (1,1) and (2,1) from a 24^3 datum

Each run is a closed loop with one client for about ``--seconds`` seconds.
Every operation passes a correctness gate; a gate miss or a typed
``SolverError`` counts as failed and the run goes on.  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced cycles on the same datum and prints the per-layer metrics, taking
counts from the first traced cycle and times as medians over traced cycles.
Times are wall times at a reference machine speed (see
``bench_workloads.SpeedProbe``); the unscaled medians are printed too.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

BLAS runs on one thread (a second OpenBLAS thread added 0.4-1.0 s of GMRES
self time per large-amp-32 solve on a 2-CPU machine and widened its spread),
so counts repeat exactly for a given seed.
"""
import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "field.fft.calls": "count",
    "field.fft.self_s": "s",
    "field.fft.bytes_computed": "B",
    "field.derivative.calls": "count",
    "field.derivative.self_s": "s",
    "field.scalarfield.built": "count",
    "field.scalarfield.s": "s",
    "field.evaluate.points": "count",
    "field.evaluate.s": "s",
    "field.io.write_s": "s",
    "field.io.read_s": "s",
    "field.io.bytes": "B",
    "pde.ma_lhs.calls": "count",
    "pde.residual.calls": "count",
    "pde.linearize.calls": "count",
    "pde.apply_linearized.calls": "count",
    "pde.apply_linearized.self_s": "s",
    "pde.apply_linearized.fft_calls": "count",
    "pde.apply_linearized.fft_bytes_computed": "B",
    "pde.apply_linearized.plain_call_s": "s",
    "pde.apply_linearized.plain_fft_gbps_computed": "GB/s",
    "pde.ellipticity_report.calls": "count",
    "pde.ellipticity_report.s": "s",
    "solver.solve_linearized.calls": "count",
    "solver.solve_linearized.self_s": "s",
    "solver.matvecs": "count",
    "solver.precond_applies": "count",
    "solver.krylov_per_newton.max": "count",
    "solver.newton_iters": "count",
    "solver.tau_attempts": "count",
    "solver.tau_accept_ratio": "ratio",
    "solver.newton_wasted_ratio": "ratio",
    "solver.line_search_trials": "count",
    "estimates.verify.calls": "count",
    "estimates.verify.s": "s",
    "rotation.pullback.s": "s",
    "rotation.cell_unknowns_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def import_program():
    """Import ktcy from this checkout's ``src``; exit non-zero if it is absent."""
    src = ROOT / "src"
    if not (src / "ktcy" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ktcy package under {src}")
    sys.path.insert(0, str(src))
    import ktcy

    if Path(ktcy.__file__).resolve().parent != (src / "ktcy").resolve():
        raise SystemExit(f"perfbench: imported ktcy from {ktcy.__file__}, not from {src}")
    return ktcy


def setup(ktcy, workload, seed, workdir):
    """Everything before the first timed operation, after the import."""
    data = wl.datum_stream(ktcy, workload.n, workload.amplitude, seed)
    return data, workload.setup(ktcy, next(data), workdir)


def setup_seconds(workload, seed, probe) -> list:
    """Wall times of fresh processes that import ktcy and set up the workload,
    at the probe's reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(dir=WORK, prefix="setup-")
        try:
            before = probe()
            start = perf_counter()
            # no timeout: Popen.wait(timeout) polls in 50 ms steps, which
            # would quantise the measured time
            subprocess.run(
                [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
                 "--setup-only", workdir],
                check=True, stdout=subprocess.DEVNULL,
            )
            seconds = perf_counter() - start
            times.append(seconds / ((before + probe()) / 2.0))
        finally:
            shutil.rmtree(workdir)
    return times


def measure(ktcy, workload, seed, seconds, trace, workdir, probe):
    """Closed loop of cycles; returns the cycle records and the first traced spans."""
    data, inputs = setup(ktcy, workload, seed, workdir)
    run_plain = wl.make_runner(ktcy.SolverError, probe)
    if trace:
        tracer = bench_trace.Tracer(ktcy)
        run_traced = wl.make_runner(ktcy.SolverError, probe, tracer)

    cycles, first_spans, plain_call_s = [], None, 0.0
    start = perf_counter()
    while True:
        began = perf_counter()
        for traced in ((False, True) if trace else (False,)):
            ops, state, records = workload.cycle(ktcy, inputs, workdir, run_traced if traced else run_plain)
            cycle = {"traced": traced, "ops": ops}
            if traced:
                spans = tracer.take()
                cycle["layers"] = {**bench_trace.layer_metrics(spans), **wl.solver_counts(records)}
                if first_spans is None:
                    first_spans = spans
                    if state is not None:
                        plain_call_s = wl.plain_apply_seconds(ktcy, state())
            cycles.append(cycle)
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - began) > seconds:
            break
        inputs = workload.setup(ktcy, next(data), workdir)
    return cycles, first_spans, plain_call_s


def _median(values):
    return statistics.median(values) if values else 0.0


def _wall(cycle, attr="scaled"):
    return sum(getattr(op, attr) for op in cycle["ops"] if op.seconds is not None)


def _per_cycle_mean(cycle, kind, attr):
    times = [getattr(op, attr) for op in cycle["ops"] if op.kind == kind and op.seconds is not None]
    return sum(times) / len(times) if times else None


def _cycle_samples(cycles, attr):
    """Per-cycle samples of the untraced cycles; attr is "scaled" or "seconds"."""
    plain = [c for c in cycles if not c["traced"]]
    return {
        "solve_s": [t for t in (_per_cycle_mean(c, "solve", attr) for c in plain) if t is not None],
        "verify_s": [t for t in (_per_cycle_mean(c, "verify", attr) for c in plain) if t is not None],
        "wall_s": [_wall(c, attr) for c in plain],
    }


def end_to_end(cycles, setup_times):
    """Medians per cycle at reference speed, with the samples behind them."""
    samples = {**_cycle_samples(cycles, "scaled"), "setup_s": setup_times}
    values = {name: _median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, samples


def per_layer(workload, cycles, plain_call_s):
    traced = [c["layers"] for c in cycles if c["traced"]]
    values = {}
    for name, unit in PER_LAYER.items():
        if name in traced[0]:
            values[name] = _median([t[name] for t in traced]) if unit == "s" else traced[0][name]
    first = traced[0]
    per_call_bytes = first["pde.apply_linearized.fft_bytes_computed"] / max(1, first["pde.apply_linearized.calls"])
    values["pde.apply_linearized.plain_call_s"] = plain_call_s
    values["pde.apply_linearized.plain_fft_gbps_computed"] = (
        per_call_bytes / plain_call_s / 1e9 if plain_call_s else 0.0
    )
    values["rotation.cell_unknowns_ratio"] = getattr(workload, "cell_unknowns_ratio", lambda: 1.0)()
    # cycles alternate untraced, traced on the same datum: compare each pair
    values["trace.overhead_s"] = _median([_wall(t) - _wall(u) for u, t in zip(cycles[::2], cycles[1::2])])
    return values


def highest_percentile(samples):
    """(p, value) of the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (1.0 - 10.0 / n)
    return p, float(np.percentile(samples, p))


def describe(name, unit, samples):
    line = f"{name}: median {_median(samples):.6g} {unit}, n={len(samples)}"
    hi = highest_percentile(samples)
    if hi is None:
        line += f", max {max(samples):.6g} {unit} (too few samples for a percentile)" if samples else ""
    else:
        line += f", p{hi[0]:.0f} {hi[1]:.6g} {unit}"
    return line + "; samples " + " ".join(f"{s:.4g}" for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    ktcy = import_program()
    if args.setup_only:
        setup(ktcy, workload, args.seed, args.setup_only)
        return 0

    WORK.mkdir(exist_ok=True)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g} "
          "(closed loop, 1 client)")
    print(f"env python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
          f"nproc {os.cpu_count()} blas_threads {BLAS_THREADS}")
    probe = wl.SpeedProbe()
    setup_times = setup_seconds(workload, args.seed, probe)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{workload.name}-")
    try:
        cycles, spans, plain_call_s = measure(
            ktcy, workload, args.seed, args.seconds, bool(args.trace), workdir, probe
        )
    finally:
        shutil.rmtree(workdir)

    ops = [op for c in cycles for op in c["ops"]]
    for op in ops:
        if op.failed:
            print(f"failed {op.kind}: {op.miss or op.error}", file=sys.stderr)
    failed = sum(op.failed for op in ops)
    values, samples = end_to_end(cycles, setup_times)
    print(f"times below are at reference speed: wall time / slowdown, where slowdown is the time of "
          f"fixed numpy kernels over {wl.PROBE_REF_S} s, taken just before and after each operation; "
          f"median slowdown {_median([op.slowdown for op in ops if op.seconds is not None]):.4g}")
    for name, unit in END_TO_END.items():
        print(describe(name, unit, samples[name]) if name in samples else f"{name}: {values[name]:.6g} {unit}")
    for name, raw in _cycle_samples(cycles, "seconds").items():
        print(f"{name} unscaled wall time: median {_median(raw):.6g} s")
    print("rotate_s: " + (f"{values['solve_s']:.6g} s (the solve_s of this workload)"
                          if isinstance(workload, wl.RotatedSolve) else "n/a (no rotated solve in this workload)"))
    print(f"failed_frac: {failed / len(ops):.6g} ({failed} failed of {len(ops)} attempted)")

    if args.trace:
        spans_path = WORK / f"trace-{workload.name}-seed{args.seed}.tsv"
        bench_trace.write_spans(spans, spans_path)
        print(f"spans of the first traced cycle written to {spans_path.relative_to(ROOT)}")
        values = per_layer(workload, cycles, plain_call_s)
        units = PER_LAYER
        for name, unit in units.items():
            print(f"{name}: {values[name]:.6g} {unit}")
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": not any(op.miss for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
