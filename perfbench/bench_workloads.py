"""The benchmark's workloads: seeded data, timed operations, correctness gates.

Each workload is a closed loop with one client: a cycle of operations on one
datum, the next operation starting when the previous one returns.  Cycle i
uses the i-th datum drawn from the workload seed, so one run averages over
several data and the same seed always gives the same inputs.

A datum is ``a sin(2 pi x) sin(2 pi y) sin(2 pi t)`` plus
``random_band_limited(rng, max_mode=3, amplitude=0.1 a)`` with
``rng = default_rng(seed)``, renormalised (the CLI workload passes
``--renormalize`` and lets the program do it).
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import bench_oracle as oracle

MAX_MODE = 3
PROBE_REF_S = 0.03
# Audits per solve.  A smooth-48 verify takes about 0.13 s and varied by 20%
# within a run; three per cycle steady its median without changing a cycle's
# character (the solve still dominates its wall time).
AUDITS = 3


class SpeedProbe:
    """Machine slowdown factor, from two fixed numpy kernels timed on demand.

    On a shared 2-CPU machine the same solve ran from 2.8 s to 4.7 s within
    one process, and whole 30 s runs ran 20% slow, while the program's work
    counts stayed fixed.  Timing these kernels right before and right after
    each operation measures how fast the machine is running; the factor is
    their time over ``PROBE_REF_S``, their time on an idle 2-CPU x86-64
    machine (numpy 2.4, single-threaded pocketfft).  The probe pairs an FFT
    kernel that fits a core's 2 MiB L2 with a streaming kernel over 16 MiB
    that runs from the shared L3: alone, the first slowed by a factor f while
    solves slowed by about f^0.7, and the second by about f^1.5; together
    they tracked ``solve_rotated`` with exponent 1.0.
    """

    def __init__(self):
        self._cube = np.random.default_rng(0).standard_normal((48, 48, 48))
        self._stream = np.ones(1 << 20)
        self._out = np.empty_like(self._stream)

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(10):
            np.fft.irfftn(np.fft.rfftn(self._cube), s=self._cube.shape, axes=(0, 1, 2))
        for _ in range(10):
            np.multiply(self._stream, 1.0, out=self._out)
            np.add(self._out, self._stream, out=self._out)
        return (perf_counter() - start) / PROBE_REF_S


@dataclass
class Op:
    """One timed call into the program and what its gate found."""

    kind: str                   # "solve" or "verify"
    seconds: float | None       # wall time; None when the call was skipped
    result: object = None
    error: str | None = None    # typed SolverError or a non-zero exit code
    miss: str | None = None     # why the correctness gate rejected the output
    slowdown: float = 1.0       # SpeedProbe factor around the call

    @property
    def failed(self) -> bool:
        return self.error is not None or self.miss is not None

    @property
    def scaled(self) -> float | None:
        """Wall time at the probe's reference speed."""
        return None if self.seconds is None else self.seconds / self.slowdown


def skipped(kind: str, why: str) -> Op:
    return Op(kind, None, error=f"skipped: {why}")


def datum_stream(ktcy, n: int, amplitude: float, seed: int):
    """Raw (not yet renormalised) data on the n^3 unit grid, drawn from seed."""
    grid = ktcy.GridSpec(n, n, n)
    X, Y, T = grid.meshgrid()
    base = amplitude * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) * np.sin(2 * np.pi * T)
    rng = np.random.default_rng(seed)
    while True:
        noise = ktcy.random_band_limited(grid, rng, max_mode=MAX_MODE, amplitude=0.1 * amplitude)
        yield ktcy.ScalarField(grid, base) + noise


def _margins(estimates) -> dict:
    return {c.name: c.margin for c in estimates.checks}


def _gate_solution(rep, newton_tol, u, F, periods) -> str | None:
    """Shared gate of a library solve: residual, audit and an independent residual."""
    if not rep.final_residual_sup <= newton_tol:
        return f"final residual {rep.final_residual_sup:.3e} > newton_tol {newton_tol:.1e}"
    if not rep.estimates.passed or rep.estimates.informative:
        return "estimate audit did not pass on a converged solution"
    res = oracle.residual_sup(u, F, periods)
    if not res <= oracle.solution_tolerance(F):
        return f"independent residual {res:.3e} above tolerance"
    return None


def _gate_audit(est, expected: dict, exact: bool) -> str | None:
    """Re-audit of a solution: passes, and reproduces the in-run margins."""
    if not est.passed or est.informative:
        return "re-audit did not pass"
    got = _margins(est)
    if got.keys() != expected.keys():
        return "re-audit checks differ from the in-run audit"
    for name, margin in expected.items():
        ok = got[name] == margin if exact else abs(got[name] - margin) <= 1e-9 * (1.0 + abs(margin))
        if not ok:
            return f"re-audit margin {name} = {got[name]!r}, in-run {margin!r}"
    return None


def _audit(ktcy, run, rep, F, exact: bool) -> Op:
    """Timed ``ktcy.verify`` of a solve report's solution, gated against its audit."""
    checked = run("verify", lambda: ktcy.verify(rep.u, F))
    if not checked.error:
        checked.miss = _gate_audit(checked.result, _margins(rep.estimates), exact)
    return checked


# -- smooth-48: the documented command-line path ------------------------------


def read_report(path) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)


def trace_records(report: dict) -> list:
    """(newton_iters, accepted) of each tau attempt in a CLI report."""
    count = int(report.get("trace.records", 0))
    return [
        (int(report[f"trace.{i}.newton_iters"]), report[f"trace.{i}.accepted"] == "true")
        for i in range(1, count + 1)
    ]


def _estimate_margins(report: dict) -> dict:
    return {k: v for k, v in report.items() if k.startswith("estimate.") and k.endswith(".margin")}


class CliSolveVerify:
    """``ktcy solve --field F.field --renormalize`` then ``ktcy verify`` in-process."""

    def __init__(self, name, n, amplitude):
        self.name, self.n, self.amplitude = name, n, amplitude

    def setup(self, ktcy, F, workdir):
        path = os.path.join(workdir, "F.field")
        ktcy.write_field(F, path)
        return path

    def solve(self, ktcy, datum_path, workdir, run) -> Op:
        out = os.path.join(workdir, "run")
        op = run("solve", lambda: _cli(ktcy, ["solve", "--field", datum_path, "--renormalize", "--out", out]))
        if op.result != 0:
            op.error = f"ktcy solve exited {op.result}"
            return op
        report = read_report(os.path.join(out, "report.txt"))
        u, periods = oracle.read_dump(os.path.join(out, "solution.field"))
        F, _ = oracle.read_dump(os.path.join(out, "datum.field"))
        op.result = report
        newton_tol = ktcy.SolverConfig(grid=ktcy.GridSpec(*u.shape, *periods)).newton_tol
        if not float(report["residual.sup"]) <= newton_tol:
            op.miss = f"residual.sup {report['residual.sup']} > newton_tol"
        elif report["estimate.passed"] != "true" or report["estimate.informative"] != "false":
            op.miss = "estimate audit did not pass on a converged solution"
        elif not oracle.residual_sup(u, F, periods) <= oracle.solution_tolerance(F):
            op.miss = "independent residual above tolerance"
        return op

    def verify(self, ktcy, solved: Op, workdir, run) -> Op:
        out, checked = os.path.join(workdir, "run"), os.path.join(workdir, "verify")
        op = run("verify", lambda: _cli(ktcy, [
            "verify", "--solution", os.path.join(out, "solution.field"),
            "--field", os.path.join(out, "datum.field"), "--out", checked,
        ]))
        if op.result != 0:
            op.error = f"ktcy verify exited {op.result}"
            return op
        report = read_report(os.path.join(checked, "report.txt"))
        if report["estimate.passed"] != "true" or report["estimate.informative"] != "false":
            op.miss = "verify audit did not pass"
        elif _estimate_margins(report) != _estimate_margins(solved.result):
            op.miss = "verify margins differ from the in-run margins"
        return op

    def cycle(self, ktcy, datum_path, workdir, run):
        solved = self.solve(ktcy, datum_path, workdir, run)
        if solved.failed:
            return [solved] + [skipped("verify", "solve failed")] * AUDITS, None, []
        checks = [self.verify(ktcy, solved, workdir, run) for _ in range(AUDITS)]
        solution = os.path.join(workdir, "run", "solution.field")
        return [solved, *checks], lambda: ktcy.read_field(solution), trace_records(solved.result)


def _cli(ktcy, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ktcy.cli.main(argv)


# -- large-amp-32: the library solve ----------------------------------------


class LibrarySolve:
    """``ktcy.solve`` of a renormalised datum, then ``ktcy.verify`` of the result."""

    def __init__(self, name, n, amplitude):
        self.name, self.n, self.amplitude = name, n, amplitude

    def setup(self, ktcy, F, workdir):
        return ktcy.renormalize(F)

    def cycle(self, ktcy, F, workdir, run):
        cfg = ktcy.SolverConfig(grid=F.grid)
        solved = run("solve", lambda: ktcy.solve(F, cfg))
        if solved.error:
            return [solved] + [skipped("verify", "solve failed")] * AUDITS, None, []
        rep = solved.result
        solved.miss = _gate_solution(rep, cfg.newton_tol, rep.u.values, F.values, F.grid.periods)
        checks = [_audit(ktcy, run, rep, F, exact=True) for _ in range(AUDITS)]
        records = [(r.newton_iters, r.accepted) for r in rep.trace.records]
        return [solved, *checks], lambda: rep.u, records


# -- rotated-24: solve_rotated on enlarged cells -----------------------------


class RotatedSolve:
    """``ktcy.solve_rotated`` for each angle, then ``ktcy.verify`` on the cell.

    The re-audit runs against an independently pulled-back cell datum, so
    its margins agree with the in-run ones to rounding, not bitwise.
    """

    def __init__(self, name, n, amplitude, cells):
        self.name, self.n, self.amplitude, self.cells = name, n, amplitude, cells

    def setup(self, ktcy, F, workdir):
        return ktcy.renormalize(F)

    def cell_unknowns_ratio(self) -> float:
        return sum(c * c for _, _, c in self.cells) / (len(self.cells) * self.n * self.n)

    def cycle(self, ktcy, F, workdir, run):
        ops, records, v = [], [], None
        for m, n, cells in self.cells:
            angle = ktcy.RationalAngle(m, n)
            cfg = ktcy.SolverConfig(grid=ktcy.rotated_grid(angle, cells, cells, self.n))
            solved = run("solve", lambda: ktcy.solve_rotated(F, angle, cfg))
            ops.append(solved)
            if solved.error:
                ops += [skipped("verify", "solve failed")] * AUDITS
                continue
            rep = solved.result.report
            G = oracle.pullback(F.values, m, n, cfg.grid.shape, MAX_MODE)
            solved.miss = _gate_solution(rep, cfg.newton_tol, rep.u.values, G, cfg.grid.periods)
            if solved.miss is None and not solved.result.sup_vp <= angle.length:
                solved.miss = f"sup |v_p| = {solved.result.sup_vp:.6g} > L = {angle.length:.6g}"
            G_field = ktcy.ScalarField(cfg.grid, G)
            ops += [_audit(ktcy, run, rep, G_field, exact=False) for _ in range(AUDITS)]
            records += [(r.newton_iters, r.accepted) for r in rep.trace.records]
            v = rep.u
        return ops, (None if v is None else lambda: v), records


WORKLOADS = {
    w.name: w
    for w in (
        CliSolveVerify("smooth-48", n=48, amplitude=0.3),
        LibrarySolve("large-amp-32", n=32, amplitude=3.0),
        RotatedSolve("rotated-24", n=24, amplitude=0.3, cells=((1, 1, 34), (2, 1, 54))),
    )
}


def solver_counts(records) -> dict:
    """Newton and tau counts from the (newton_iters, accepted) records of a cycle."""
    newton = sum(it for it, _ in records)
    wasted = sum(it for it, ok in records if not ok)
    attempts = len(records)
    return {
        "solver.newton_iters": newton,
        "solver.tau_attempts": attempts,
        "solver.tau_accept_ratio": sum(ok for _, ok in records) / attempts if attempts else 0.0,
        "solver.newton_wasted_ratio": wasted / newton if newton else 0.0,
    }


def plain_apply_seconds(ktcy, u, calls: int = 15) -> float:
    """Median time of one untraced ``apply_linearized`` at the state u."""
    coeffs = ktcy.linearize(u)
    rng = np.random.default_rng(0)
    w = ktcy.project_mean_zero(ktcy.ScalarField(u.grid, rng.standard_normal(u.grid.shape)))
    times = []
    for _ in range(calls):
        start = perf_counter()
        ktcy.apply_linearized(coeffs, w)
        times.append(perf_counter() - start)
    return float(np.median(times))


def make_runner(solver_error, probe=None, tracer=None):
    """run(kind, fn): time fn (traced when a tracer is given) between two probes.

    A typed solver failure is recorded in the returned Op, not raised.
    """

    def run(kind, fn) -> Op:
        before = probe() if probe else 1.0
        start = perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                result, error = fn(), None
        except solver_error as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        after = probe() if probe else 1.0
        return Op(kind, seconds, result, error, slowdown=(before + after) / 2.0)

    return run
