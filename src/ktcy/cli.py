"""Batch front door: solve, verify, rotate, manufacture and export commands.

Configuration is a flat ``key = value`` text file plus command-line
overrides; reports are deterministic key-value text, with every numeric
value carrying its check name.  Data come from exactly one of: a builtin
name with parameters, a field dump, or a closed-form expression in a small
arithmetic/trig grammar (sums and products of constants, sin/cos, exp and
log of the coordinates x, y, t and pi, Lx, Ly, Lt).

Exit codes: 0 success, 2 usage/config error, 3 normalization error,
4 continuation stalled, 5 non-positive manufactured left-hand side,
6 I/O failure.
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from .estimates import EstimateReport, verify
from .field import GridSpec, ScalarField, integrate, read_field, sample, write_field
from .pde import NonPositiveLHS, manufacture, renormalize
from .rotation import RationalAngle, rotated_grid, solve_rotated
from .solver import ContinuationStalled, NormalizationError, SolverConfig, solve

__all__ = [
    "ExpressionError",
    "evaluate_expression",
    "builtin_field",
    "write_csv_slice",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NORMALIZATION = 3
EXIT_STALLED = 4
EXIT_NONPOSITIVE = 5
EXIT_IO = 6


class ExpressionError(ValueError):
    """Rejected datum expression."""


# -- datum expression grammar ---------------------------------------------

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}


def evaluate_expression(expr: str, grid: GridSpec) -> ScalarField:
    """Sample a closed-form expression on the grid.

    Anything richer than the grammar (powers, comparisons, attribute access,
    unknown names) must come in as a field dump.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression: {exc}") from exc
    X, Y, T = grid.meshgrid()
    env = {
        "x": X, "y": Y, "t": T,
        "pi": np.pi, "Lx": grid.L_x, "Ly": grid.L_y, "Lt": grid.L_t,
    }

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ExpressionError(f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _FUNCS.get(node.func.id)
            if fn is None or len(node.args) != 1 or node.keywords:
                raise ExpressionError(f"unsupported call {ast.dump(node)}")
            return fn(ev(node.args[0]))
        raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")

    values = np.broadcast_to(np.asarray(ev(tree.body), dtype=float), grid.shape)
    return ScalarField(grid, values)


# -- builtin data ----------------------------------------------------------

def builtin_field(spec: str, grid: GridSpec) -> ScalarField:
    """Named parametrized data: ``name`` or ``name:key=value,key=value``.

    zero                      -- the zero field
    triple_sine[:amplitude=a] -- a sin(2 pi x/Lx) sin(2 pi y/Ly) sin(2 pi t/Lt)
    two_mode[:a1=..,a2=..]    -- a1 sin(2 pi x/Lx) + a2 cos(2 pi y/Ly) sin(2 pi t/Lt)
    """
    name, _, tail = spec.partition(":")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise ExpressionError(f"malformed builtin parameter {piece!r}")
            params[key.strip()] = float(val)
    tau = 2.0 * np.pi
    if name == "zero":
        if params:
            raise ExpressionError(f"builtin 'zero' takes no parameters: {sorted(params)}")
        return ScalarField.zeros(grid)
    if name == "triple_sine":
        a = params.pop("amplitude", 0.3)
        f = lambda x, y, t: a * (
            np.sin(tau * x / grid.L_x) * np.sin(tau * y / grid.L_y) * np.sin(tau * t / grid.L_t)
        )
    elif name == "two_mode":
        a1 = params.pop("a1", 0.01)
        a2 = params.pop("a2", 0.005)
        f = lambda x, y, t: (
            a1 * np.sin(tau * x / grid.L_x)
            + a2 * np.cos(tau * y / grid.L_y) * np.sin(tau * t / grid.L_t)
        )
    else:
        raise ExpressionError(f"unknown builtin {name!r}")
    if params:
        raise ExpressionError(f"unknown parameters for builtin {name!r}: {sorted(params)}")
    return sample(f, grid)


# -- report serialization ---------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _shape_text(shape) -> str:
    return " ".join(map(str, shape))


def grid_checksum(grid: GridSpec) -> str:
    header = f"{grid.n_x} {grid.n_y} {grid.n_t} {grid.L_x:.17g} {grid.L_y:.17g} {grid.L_t:.17g}"
    return hashlib.sha256(header.encode()).hexdigest()[:16]


class RunReport:
    """Ordered key-value report; serialization is deterministic."""

    def __init__(self):
        self.pairs = []

    def add(self, key: str, value):
        self.pairs.append((key, _fmt(value)))

    def add_config_echo(self, items: dict):
        for key in items:
            self.add(f"config.{key}", items[key])

    def add_grid(self, grid: GridSpec):
        self.add("grid.shape", _shape_text(grid.shape))
        self.add("grid.periods", f"{grid.L_x:.17g} {grid.L_y:.17g} {grid.L_t:.17g}")
        self.add("grid.checksum", grid_checksum(grid))

    def add_audit(self, est: EstimateReport):
        """Residual norms, ellipticity and estimates of one audit."""
        self.add("residual.sup", est.residual_sup)
        self.add("residual.l2", est.residual_l2)
        self.add("residual.mean", est.check("j_mean_residual").lhs)
        for key, value in dataclasses.asdict(est.ellipticity).items():
            self.add(f"ellipticity.{key}", value)
        self.add_estimates(est)

    def add_estimates(self, est: EstimateReport):
        self.add("estimate.informative", est.informative)
        self.add("estimate.passed", est.passed)
        for c in est.checks:
            self.add(f"estimate.{c.name}.lhs", c.lhs)
            self.add(f"estimate.{c.name}.rhs", c.rhs)
            self.add(f"estimate.{c.name}.margin", c.margin)
            self.add(f"estimate.{c.name}.pass", c.passed)
        self.add("estimate.sup_u", est.sup_u)
        self.add("estimate.sup_laplacian", est.sup_laplacian)

    def add_trace(self, trace):
        self.add("trace.records", len(trace.records))
        for i, r in enumerate(trace.records, start=1):
            self.add(f"trace.{i}.tau", r.tau)
            self.add(f"trace.{i}.newton_iters", r.newton_iters)
            self.add(f"trace.{i}.residual_sup", r.final_residual_sup)
            self.add(f"trace.{i}.lambda_min", r.lambda_min)
            self.add(f"trace.{i}.accepted", r.accepted)
            self.add(f"trace.{i}.failure", r.failure or "none")
            self.add(f"trace.{i}.krylov_applications", r.krylov_applications)
            self.add(f"trace.{i}.grid", _shape_text(r.grid))

    def add_resolution(self, solve_report):
        """The coarse grid and sup |u - prolonged coarse u| of a sequenced
        solve, ``none`` when the continuation ran on the requested grid."""
        coarse, sup = solve_report.coarse_grid, solve_report.coarse_fine_sup
        self.add("resolution.coarse_grid", "none" if coarse is None else _shape_text(coarse))
        self.add("resolution.coarse_fine_sup", "none" if sup is None else sup)

    def text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.pairs) + "\n"

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.text())


def write_csv_slice(u: ScalarField, path, axis: str, index: int) -> None:
    """2-D slice at a fixed third coordinate as ``coord1,coord2,value`` rows."""
    order = ["x", "y", "t"]
    if axis not in order:
        raise ValueError(f"axis must be one of {order}")
    order.remove(axis)
    a1, a2 = order
    fixed_ax = {"x": 0, "y": 1, "t": 2}[axis]
    n_fixed = u.grid.shape[fixed_ax]
    if not 0 <= index < n_fixed:
        raise ValueError(f"slice index {index} outside 0..{n_fixed - 1}")
    plane = np.take(u.values, index, axis=fixed_ax)
    c1 = u.grid.coordinates(a1)
    c2 = u.grid.coordinates(a2)
    lines = [f"{a1},{a2},value"]
    for i, x1 in enumerate(c1):
        for j, x2 in enumerate(c2):
            lines.append(f"{x1:.17g},{x2:.17g},{plane[i, j]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- configuration -----------------------------------------------------------

# Command-line flag (argparse dest) -> setting key.  A config file takes
# these keys plus the solver keys below.
_FLAG_KEYS = {
    "grid": "grid", "periods": "periods", "angle": "angle", "renormalize": "renormalize",
    "builtin": "datum_builtin", "expr": "datum_expr", "field": "datum_field",
    "out": "out", "solution": "solution",
    "format": "format", "slice_axis": "slice_axis", "slice_index": "slice_index",
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


# Solver keys -> parser: every SolverConfig field but the grid, parsed by the
# type of its default.  The defaults live in SolverConfig only; a field of a
# type with no parser here fails the import instead of parsing wrongly.
_PARSERS = {float: float, int: int}
_SOLVER_KEYS = {
    f.name: _PARSERS[type(f.default)] for f in dataclasses.fields(SolverConfig) if f.name != "grid"
}
_CONFIG_KEYS = set(_FLAG_KEYS.values()) | set(_SOLVER_KEYS)


def parse_config_file(path) -> dict:
    items = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            items[key] = value.strip()
    return items


def _describe(grid: GridSpec) -> str:
    return f"{grid.shape} with periods {grid.periods}"


class RunConfig:
    """Resolved command configuration: config file merged with CLI overrides."""

    def __init__(self, command: str, settings: dict):
        self.command = command
        self.settings = settings
        sources = [k for k in ("datum_builtin", "datum_expr", "datum_field") if settings.get(k)]
        if command in ("solve", "verify", "rotate", "manufacture"):
            if len(sources) != 1:
                raise ValueError(
                    f"exactly one datum source required (builtin, expr or field), got {sources or 'none'}"
                )
        if settings.get("angle") and command != "rotate":
            raise ValueError("angle is only valid with the rotate command")
        if "periods" in settings and command == "rotate":
            raise ValueError("periods is not valid with rotate: the angle fixes the cell")
        self.renormalize = _parse_bool(settings.get("renormalize", "false"))
        if self.renormalize and command in ("manufacture", "export"):
            raise ValueError(f"renormalize is not valid with the {command} command")
        self.datum_source = sources[0] if sources else None

    def _numbers(self, key: str, count: int, kind) -> tuple:
        text = self.settings[key]
        parts = text.replace(",", " ").split()
        if len(parts) != count:
            noun = "integers" if kind is int else "reals"
            raise ValueError(f"{key} needs {count} {noun}, got {text!r}")
        return tuple(kind(p) for p in parts)

    def grid(self, dump: GridSpec | None = None) -> GridSpec:
        """The grid of --grid and --periods.

        Given the grid of a dump, an omitted flag takes the dump's value and
        a given flag must agree with it.
        """
        s = self.settings
        if "grid" in s:
            shape = self._numbers("grid", 3, int)
        elif dump is not None:
            shape = dump.shape
        else:
            raise ValueError("grid is required (use --grid NX,NY,NT)")
        if "periods" in s:
            periods = self._numbers("periods", 3, float)
        else:
            periods = (1.0, 1.0, 1.0) if dump is None else dump.periods
        grid = GridSpec(*shape, *periods)
        if dump is not None and grid != dump:
            raise ValueError(
                f"--grid/--periods give {_describe(grid)}, the dump holds {_describe(dump)}"
            )
        return grid

    def angle(self) -> RationalAngle:
        if "angle" not in self.settings:
            raise ValueError("rotate requires --angle M,N")
        return RationalAngle(*self._numbers("angle", 2, int))

    def solver_config(self, grid: GridSpec) -> SolverConfig:
        """Solver settings from the keys given; the others keep their defaults."""
        s = self.settings
        solver = {key: parse(s[key]) for key, parse in _SOLVER_KEYS.items() if key in s}
        return SolverConfig(grid=grid, **solver)

    def datum(self, grid: GridSpec | None = None) -> ScalarField:
        """The datum from its one source, renormalized when asked.

        A builtin or an expression is sampled on ``grid``, by default the
        grid of the flags.  A dump brings its own grid, which must equal
        ``grid`` when one is given.
        """
        source, text = self.datum_source, self.settings[self.datum_source]
        if source == "datum_field":
            F = read_field(text)
            if grid is not None and F.grid != grid:
                raise ValueError(
                    f"the datum dump holds {_describe(F.grid)}, expected {_describe(grid)}"
                )
        elif source == "datum_builtin":
            F = builtin_field(text, grid or self.grid())
        else:
            F = evaluate_expression(text, grid or self.grid())
        return renormalize(F) if self.renormalize else F

    def echo(self) -> dict:
        return {k: self.settings[k] for k in sorted(self.settings)}


# -- commands ----------------------------------------------------------------

def _ensure_out(settings) -> str | None:
    out = settings.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _begin_report(config: RunConfig) -> RunReport:
    report = RunReport()
    report.add("tool", "ktcy")
    report.add("version", __version__)
    report.add("command", config.command)
    report.add_config_echo(config.echo())
    return report


def _finish(report: RunReport, out, started: float, u=None, datum=None) -> int:
    report.add("timing.total_s", time.perf_counter() - started)
    if out:
        report.write(os.path.join(out, "report.txt"))
        if u is not None:
            write_field(u, os.path.join(out, "solution.field"))
        if datum is not None:
            write_field(datum, os.path.join(out, "datum.field"))
        sys.stdout.write(f"report written to {os.path.join(out, 'report.txt')}\n")
    else:
        sys.stdout.write(report.text())
    return EXIT_OK


def cmd_solve(config: RunConfig) -> int:
    started = time.perf_counter()
    F = config.datum()
    cfg = config.solver_config(config.grid(F.grid))
    out = _ensure_out(config.settings)
    report = _begin_report(config)
    report.add_grid(F.grid)
    solve_report = solve(F, cfg)
    report.add_trace(solve_report.trace)
    report.add_resolution(solve_report)
    report.add_audit(solve_report.estimates)
    return _finish(report, out, started, u=solve_report.u, datum=F)


def cmd_verify(config: RunConfig) -> int:
    started = time.perf_counter()
    solution_path = config.settings.get("solution")
    if not solution_path:
        raise ValueError("verify requires --solution PATH (a field dump)")
    u = read_field(solution_path)
    F = config.datum(config.grid(u.grid))
    out = _ensure_out(config.settings)
    report = _begin_report(config)
    report.add_grid(u.grid)
    report.add_audit(verify(u, F))
    return _finish(report, out, started)


def cmd_rotate(config: RunConfig) -> int:
    started = time.perf_counter()
    angle = config.angle()
    grid = rotated_grid(angle, *config.grid().shape)
    F = config.datum()
    cfg = config.solver_config(grid)
    out = _ensure_out(config.settings)
    report = _begin_report(config)
    report.add_grid(grid)
    report.add("rotation.m", angle.m)
    report.add("rotation.n", angle.n)
    report.add("rotation.period", angle.length)
    rotated = solve_rotated(F, angle, cfg)
    report.add("rotation.cell_normalization", rotated.cell_normalization)
    report.add("rotation.sup_vp", rotated.sup_vp)
    report.add_trace(rotated.report.trace)
    report.add_resolution(rotated.report)
    report.add_estimates(rotated.report.estimates)
    return _finish(report, out, started, u=rotated.report.u)


def cmd_manufacture(config: RunConfig) -> int:
    started = time.perf_counter()
    u_star = config.datum()
    grid = config.grid(u_star.grid)
    F, u0 = manufacture(u_star)
    out = _ensure_out(config.settings)
    report = _begin_report(config)
    report.add_grid(grid)
    report.add("manufacture.min_lhs", float(np.min(np.exp(F.values))))
    report.add("manufacture.datum_integral", integrate(F.with_values(np.exp(F.values))))
    report.add("manufacture.volume", F.grid.volume())
    if out:
        write_field(F, os.path.join(out, "F.field"))
        write_field(u0, os.path.join(out, "u_star.field"))
    return _finish(report, out, started)


def cmd_export(config: RunConfig) -> int:
    settings = config.settings
    path = settings.get("datum_field") or settings.get("solution")
    if not path:
        raise ValueError("export requires --field PATH")
    u = read_field(path)
    fmt = settings.get("format", "field-dump")
    out = _ensure_out(settings) or "."
    if fmt == "field-dump":
        target = os.path.join(out, "export.field")
        write_field(u, target)
    elif fmt == "csv-slice":
        axis = settings.get("slice_axis", "t")
        index = int(settings.get("slice_index", 0))
        target = os.path.join(out, f"slice_{axis}{index}.csv")
        write_csv_slice(u, target, axis, index)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    sys.stdout.write(f"wrote {target}\n")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "rotate": cmd_rotate,
    "manufacture": cmd_manufacture,
    "export": cmd_export,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktcy",
        description="Calabi-Yau equation solver and estimate auditor on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--grid", help="samples per axis, NX,NY,NT")
        p.add_argument("--periods", help="axis periods LX,LY,LT (default 1,1,1)")
        p.add_argument("--builtin", help="builtin datum, NAME[:k=v,...]")
        p.add_argument("--expr", help="closed-form datum expression in x, y, t")
        p.add_argument("--field", help="field-dump datum path")
        p.add_argument("--angle", help="rational angle M,N (rotate only)")
        p.add_argument("--renormalize", action="store_true", default=None,
                       help="shift the datum so the integral of e^F matches the volume")
        p.add_argument("--out", help="output directory for report and field dumps")
        if name == "verify":
            p.add_argument("--solution", help="solution field dump to audit")
        if name == "export":
            p.add_argument("--format", choices=("field-dump", "csv-slice"),
                           help="output format (default field-dump)")
            p.add_argument("--slice-axis", choices=("x", "y", "t"),
                           help="fixed axis of a csv-slice (default t)")
            p.add_argument("--slice-index", type=int,
                           help="sample index along the fixed axis (default 0)")
    return parser


def _merge_settings(args) -> dict:
    settings = parse_config_file(args.config) if args.config else {}
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            settings[key] = "true" if value is True else str(value)
    return settings


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(args.command, _merge_settings(args))
        return _COMMANDS[args.command](config)
    except NormalizationError as exc:
        sys.stderr.write(f"normalization error: {exc}\n")
        return EXIT_NORMALIZATION
    except ContinuationStalled as exc:
        sys.stderr.write(f"continuation stalled: {exc}\n")
        return EXIT_STALLED
    except NonPositiveLHS as exc:
        sys.stderr.write(f"manufacture failed: {exc}\n")
        return EXIT_NONPOSITIVE
    except OSError as exc:
        sys.stderr.write(f"I/O failure: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
