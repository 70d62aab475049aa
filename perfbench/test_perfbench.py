"""Self-checks of the benchmark: gates, oracle, counts and metric names.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys

import numpy as np
import pytest

import bench_oracle as oracle
import bench_trace
import bench_workloads as wl
import run

ktcy = run.import_program()
_run = wl.make_runner(ktcy.SolverError)


def _datum(n, amplitude, seed=1):
    return next(wl.datum_stream(ktcy, n, amplitude, seed))


def test_corrupted_solution_dump_trips_gate(tmp_path):
    workload = wl.CliSolveVerify("smooth-16", n=16, amplitude=0.3)
    path = workload.setup(ktcy, _datum(16, 0.3), str(tmp_path))
    solved = workload.solve(ktcy, path, str(tmp_path), _run)
    assert not solved.failed, solved.miss or solved.error
    assert not workload.verify(ktcy, solved, str(tmp_path), _run).failed

    dump = tmp_path / "run" / "solution.field"
    lines = dump.read_text().splitlines()
    lines[100] = repr(float(lines[100]) + 1e-6)
    dump.write_text("\n".join(lines) + "\n")
    checked = workload.verify(ktcy, solved, str(tmp_path), _run)
    assert checked.miss is not None


def test_oracle_agrees_with_program():
    F = ktcy.renormalize(_datum(16, 0.3))
    angle = ktcy.RationalAngle(2, 1)
    grid = ktcy.rotated_grid(angle, 36, 36, 16)
    G = oracle.pullback(F.values, 2, 1, grid.shape, wl.MAX_MODE)
    assert np.max(np.abs(G - ktcy.pullback_datum(F, angle, grid).values)) < 1e-12

    rng = np.random.default_rng(3)
    u = ktcy.random_band_limited(grid, rng, max_mode=4, amplitude=0.05)
    program = np.max(np.abs(ktcy.residual(u, ktcy.ScalarField(grid, G)).values))
    assert oracle.residual_sup(u.values, G, grid.periods) == pytest.approx(program, rel=1e-12, abs=1e-13)


def test_counts_repeat_for_a_seed():
    # amplitude 3.0 stalls at 16^3 on the rounding floor (a known solver limit)
    workload = wl.LibrarySolve("amp-16", n=16, amplitude=1.5)
    F = workload.setup(ktcy, _datum(16, 1.5, seed=7), None)
    tracer = bench_trace.Tracer(ktcy)
    traced = wl.make_runner(ktcy.SolverError, tracer=tracer)
    original = ktcy.solve
    counts = []
    for _ in range(2):
        ops, _, records = workload.cycle(ktcy, F, None, traced)
        assert not any(op.failed for op in ops)
        layers = {**bench_trace.layer_metrics(tracer.take()), **wl.solver_counts(records)}
        counts.append({k: v for k, v in layers.items() if not k.endswith("_s") and not k.endswith(".s")})
    assert counts[0] == counts[1]
    assert counts[0]["solver.matvecs"] > 0 and counts[0]["field.fft.calls"] > 0
    assert ktcy.solve is original


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert expected == (run.PER_LAYER if trace else run.END_TO_END)

    out = subprocess.run(
        [sys.executable, str(run.ROOT / spec["command"][1]), "--workload", "rotated-24",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
