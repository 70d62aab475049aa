"""Batch front door: solve, verify, rotate, manufacture and export commands.

Configuration is a flat ``key = value`` text file plus command-line
overrides; reports are deterministic key-value text, with every numeric
value carrying its check name.  Data come from exactly one of: a builtin
name with parameters, a field dump, or a closed-form expression in a small
arithmetic/trig grammar (sums and products of constants, sin/cos, exp and
log of the coordinates x, y, t and pi, Lx, Ly, Lt).  A builtin is a
template of that grammar with its parameters filled in.

The four report commands (solve, verify, rotate, manufacture) share one
pipeline: each validates its inputs, starts its report, computes, and
returns the report with the fields to dump; ``main`` times the run and
prints the report or writes it and the dumps to ``--out``.  ``export``
writes no report.

Exit codes: 0 success, 2 usage/config error, 3 normalization error,
4 solve failed (any other ``SolverError``, named in the message),
5 non-positive manufactured left-hand side, 6 I/O failure.
"""
from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .estimates import EstimateReport, verify
from .field import GridSpec, ScalarField, _write_rows, integrate, read_field, write_field
from .pde import NonPositiveLHS, manufacture, renormalize
from .rotation import RationalAngle, rotated_grid, solve_rotated
from .solver import NormalizationError, SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NORMALIZATION = 3
EXIT_SOLVE_FAILED = 4
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
    unknown names) must come in as a field dump, and so must an expression
    nested beyond Python's recursion limit.
    """
    X, Y, T = grid.meshgrid()
    env = {
        "x": X, "y": Y, "t": T,
        "pi": np.pi, "Lx": grid.L_x, "Ly": grid.L_y, "Lt": grid.L_t,
    }

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
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

    try:
        tree = ast.parse(expr, mode="eval")
        # a non-finite sample is the field's to reject, naming its grid
        # index, not numpy's to warn about (an error under ``-W error``)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.broadcast_to(np.asarray(ev(tree.body), dtype=float), grid.shape)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression: {exc}") from exc
    except RecursionError:  # from the parser or from ev
        raise ExpressionError("expression nests too deeply") from None
    return ScalarField(grid, values)


# -- builtin data ----------------------------------------------------------

# name -> (grammar template, default parameters).  Each parameter enters the
# template as its repr, which parses back to the same float.
_BUILTINS = {
    "zero": ("0", {}),
    "triple_sine": ("{amplitude}*(sin(2*pi*x/Lx)*sin(2*pi*y/Ly)*sin(2*pi*t/Lt))",
                    {"amplitude": 0.3}),
    "two_mode": ("{a1}*sin(2*pi*x/Lx) + {a2}*cos(2*pi*y/Ly)*sin(2*pi*t/Lt)",
                 {"a1": 0.01, "a2": 0.005}),
}


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
            key = key.strip()
            params[key] = float(val)
            if not math.isfinite(params[key]):
                raise ExpressionError(f"builtin parameter {key!r} must be finite, got {val!r}")
    if name not in _BUILTINS:
        raise ExpressionError(f"unknown builtin {name!r}")
    template, defaults = _BUILTINS[name]
    if params and not defaults:
        raise ExpressionError(f"builtin {name!r} takes no parameters: {sorted(params)}")
    unknown = sorted(params.keys() - defaults.keys())
    if unknown:
        raise ExpressionError(f"unknown parameters for builtin {name!r}: {unknown}")
    values = {key: repr(value) for key, value in {**defaults, **params}.items()}
    return evaluate_expression(template.format(**values), grid)


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

    def add_audit(self, est: EstimateReport):
        """Residual norms, ellipticity and estimates of one audit."""
        self.add("residual.sup", est.residual_sup)
        self.add("residual.l2", est.residual_l2)
        self.add("residual.mean", est.check("j_mean_residual").lhs)
        for key, value in dataclasses.asdict(est.ellipticity).items():
            self.add(f"ellipticity.{key}", value)
        self.add("estimate.informative", est.informative)
        self.add("estimate.passed", est.passed)
        for c in est.checks:
            self.add(f"estimate.{c.name}.lhs", c.lhs)
            self.add(f"estimate.{c.name}.rhs", c.rhs)
            self.add(f"estimate.{c.name}.margin", c.margin)
            self.add(f"estimate.{c.name}.pass", c.passed)
        self.add("estimate.sup_u", est.sup_u)
        self.add("estimate.sup_laplacian", est.sup_laplacian)

    def add_solve(self, solve_report):
        """Trace, resolution and audit of a solve.

        Every Newton attempt gives one row group; ``resolution.*`` names the
        coarse grid of a sequenced solve and the sup change its last Newton
        attempt made (for ``rotate`` started on the unit grid: the unit
        grid's coarse grid and the change of the cell polish), ``none`` when
        the solve ran from u = 0 on the requested grid.
        """
        records = solve_report.trace.records
        self.add("trace.records", len(records))
        for i, r in enumerate(records, start=1):
            self.add(f"trace.{i}.newton_iters", r.newton_iters)
            self.add(f"trace.{i}.residual_sup", r.final_residual_sup)
            self.add(f"trace.{i}.lambda_min", r.lambda_min)
            self.add(f"trace.{i}.accepted", r.accepted)
            self.add(f"trace.{i}.failure", r.failure or "none")
            self.add(f"trace.{i}.krylov_applications", r.krylov_applications)
            self.add(f"trace.{i}.grid", _shape_text(r.grid))
        coarse, sup = solve_report.coarse_grid, solve_report.coarse_fine_sup
        self.add("resolution.coarse_grid", "none" if coarse is None else _shape_text(coarse))
        self.add("resolution.coarse_fine_sup", "none" if sup is None else sup)
        self.add_audit(solve_report.estimates)

    def text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.pairs) + "\n"


def write_csv_slice(u: ScalarField, path, axis: str, index: int) -> None:
    """2-D slice at a fixed third coordinate as ``coord1,coord2,value`` rows,
    after a header row, each number written as C's ``%.17g`` by the kernel
    of the field dumps."""
    order = ["x", "y", "t"]
    if axis not in order:
        raise ValueError(f"axis must be one of {order}")
    fixed_ax = order.index(axis)
    order.remove(axis)
    a1, a2 = order
    n_fixed = u.grid.shape[fixed_ax]
    if not 0 <= index < n_fixed:
        raise ValueError(f"slice index {index} outside 0..{n_fixed - 1}")
    plane = np.take(u.values, index, axis=fixed_ax)
    c1, c2 = np.meshgrid(u.grid.coordinates(a1), u.grid.coordinates(a2), indexing="ij")
    rows = np.column_stack([c1.ravel(), c2.ravel(), plane.ravel()])
    with open(path, "wb") as fh:
        fh.write(f"{a1},{a2},value\n".encode())
        _write_rows(fh, rows)


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


# -- commands ----------------------------------------------------------------
#
# A report command returns (report, dumps), ``dumps`` mapping a file name
# under --out to a field; ``main`` writes both.

def _start_report(config: RunConfig, grid: GridSpec) -> RunReport:
    """Create the output directory, so that an unwritable --out fails before
    any solve, and start the report: tool, version, command, the settings
    in key order and the grid."""
    if config.settings.get("out"):
        os.makedirs(config.settings["out"], exist_ok=True)
    report = RunReport()
    report.add("tool", "ktcy")
    report.add("version", __version__)
    report.add("command", config.command)
    for key in sorted(config.settings):
        report.add(f"config.{key}", config.settings[key])
    report.add("grid.shape", _shape_text(grid.shape))
    report.add("grid.periods", f"{grid.L_x:.17g} {grid.L_y:.17g} {grid.L_t:.17g}")
    report.add("grid.checksum", grid_checksum(grid))
    return report


def cmd_solve(config: RunConfig) -> tuple[RunReport, dict]:
    F = config.datum()
    cfg = config.solver_config(config.grid(F.grid))
    report = _start_report(config, F.grid)
    solve_report = solve(F, cfg)
    report.add_solve(solve_report)
    return report, {"solution.field": solve_report.u, "datum.field": F}


def cmd_verify(config: RunConfig) -> tuple[RunReport, dict]:
    solution_path = config.settings.get("solution")
    if not solution_path:
        raise ValueError("verify requires --solution PATH (a field dump)")
    u = read_field(solution_path)
    F = config.datum(config.grid(u.grid))
    report = _start_report(config, u.grid)
    report.add_audit(verify(u, F))
    return report, {}


def cmd_rotate(config: RunConfig) -> tuple[RunReport, dict]:
    angle = config.angle()
    grid = rotated_grid(angle, *config.grid().shape)
    F = config.datum()
    cfg = config.solver_config(grid)
    report = _start_report(config, grid)
    report.add("rotation.m", angle.m)
    report.add("rotation.n", angle.n)
    report.add("rotation.period", angle.length)
    rotated = solve_rotated(F, angle, cfg)
    report.add("rotation.sup_vp", rotated.sup_vp)
    report.add_solve(rotated.report)
    return report, {"solution.field": rotated.report.u}


def cmd_manufacture(config: RunConfig) -> tuple[RunReport, dict]:
    u_star = config.datum()
    grid = config.grid(u_star.grid)
    F, u0 = manufacture(u_star)
    report = _start_report(config, grid)
    report.add("manufacture.min_lhs", float(np.min(np.exp(F.values))))
    report.add("manufacture.datum_integral", integrate(F.with_values(np.exp(F.values))))
    report.add("manufacture.volume", F.grid.volume())
    return report, {"F.field": F, "u_star.field": u0}


def cmd_export(config: RunConfig) -> int:
    settings = config.settings
    path = settings.get("datum_field") or settings.get("solution")
    if not path:
        raise ValueError("export requires --field PATH")
    u = read_field(path)
    fmt = settings.get("format", "field-dump")
    out = settings.get("out") or "."
    os.makedirs(out, exist_ok=True)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    does not change it."""
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
    started = time.perf_counter()
    try:
        config = RunConfig(args.command, _merge_settings(args))
        if args.command == "export":
            return cmd_export(config)
        report, dumps = _COMMANDS[args.command](config)
        report.add("timing.total_s", time.perf_counter() - started)
        out = config.settings.get("out")
        if out:
            path = os.path.join(out, "report.txt")
            with open(path, "w") as fh:
                fh.write(report.text())
            for name, field in dumps.items():
                write_field(field, os.path.join(out, name))
            sys.stdout.write(f"report written to {path}\n")
        else:
            sys.stdout.write(report.text())
        return EXIT_OK
    except NormalizationError as exc:
        sys.stderr.write(f"normalization error: {exc}\n")
        return EXIT_NORMALIZATION
    except SolverError as exc:
        sys.stderr.write(f"solve failed: {type(exc).__name__}: {exc}\n")
        return EXIT_SOLVE_FAILED
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
