"""Tests for the batch front door: library operations and command line."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import i0

from ktcy.cli import (
    EXIT_IO,
    EXIT_NONPOSITIVE,
    EXIT_NORMALIZATION,
    EXIT_OK,
    EXIT_USAGE,
    ExpressionError,
    RunConfig,
    builtin_field,
    evaluate_expression,
    grid_checksum,
    main,
    parse_config_file,
    write_csv_slice,
)
from ktcy.estimates import verify
from ktcy.field import (
    GridSpec,
    ScalarField,
    integrate,
    random_band_limited,
    read_field,
    sample,
    write_field,
)
from ktcy.pde import NonPositiveLHS, ellipticity_report, manufacture, renormalize, residual
from ktcy.solver import NormalizationError, SolverConfig, check_normalization, newton_solve

TAU = 2.0 * np.pi


@pytest.fixture
def zero_dump(tmp_path):
    """Dump of the zero field on the unit 8^3 grid."""
    path = tmp_path / "u.field"
    write_field(ScalarField.zeros(GridSpec(8, 8, 8)), path)
    return path


class TestManufacture:
    def test_zero(self, grid8):
        F, u0 = manufacture(ScalarField.zeros(grid8))
        assert np.max(np.abs(F.values)) == 0.0
        assert np.max(np.abs(u0.values)) == 0.0

    def test_small_mode_closed_form(self, grid16):
        u_star = sample(lambda x, y, t: 0.01 * np.sin(TAU * x), grid16)
        F, u0 = manufacture(u_star)
        want = sample(lambda x, y, t: np.log(1.0 - 0.01 * TAU**2 * np.sin(TAU * x)), grid16)
        assert np.allclose(F.values, want.values, atol=1e-12)
        assert np.min(np.exp(F.values)) > 0

    def test_normalized_at_quadrature_level(self, grid16):
        u_star = sample(
            lambda x, y, t: 0.01 * np.sin(TAU * x) + 0.005 * np.cos(TAU * y) * np.sin(TAU * t),
            grid16,
        )
        F, _ = manufacture(u_star)
        assert integrate(F.with_values(np.exp(F.values))) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_large_amplitude(self, grid16):
        u_star = sample(lambda x, y, t: np.sin(TAU * x), grid16)
        with pytest.raises(NonPositiveLHS) as err:
            manufacture(u_star)
        assert err.value.min_value == pytest.approx(1.0 - TAU**2, abs=1e-9)
        assert len(err.value.index) == 3

    def test_projects_mean(self, grid8):
        u_star = ScalarField.constant(grid8, 4.0)
        F, u0 = manufacture(u_star)
        assert np.max(np.abs(u0.values)) == 0.0
        assert np.max(np.abs(F.values)) == 0.0


class TestRenormalize:
    def test_constant(self, grid8):
        F = renormalize(ScalarField.constant(grid8, math.log(2.0)))
        assert np.allclose(F.values, 0.0, atol=1e-15)

    def test_idempotent(self, grid16, rng):
        from ktcy.field import random_band_limited

        F = renormalize(random_band_limited(grid16, rng, max_mode=3, amplitude=0.7))
        F2 = renormalize(F)
        assert np.max(np.abs(F2.values - F.values)) <= 1e-14

    @pytest.mark.parametrize("level", [-720.0, -740.0, -800.0])
    def test_subnormal_or_zero_mean_of_e_f(self, level):
        # the mean of e^F is subnormal at -720 and -740 and 0 at -800: its
        # log lost digits or was -inf, while F - max F is renormalized exactly
        F = renormalize(ScalarField.constant(GridSpec(5, 5, 5), level))
        assert np.max(np.abs(F.values)) == 0.0
        check_normalization(F)

    def test_shift_invariant_below_the_smallest_normal_mean(self):
        g = GridSpec(16, 8, 8)
        F = sample(lambda x, y, t: 0.5 * np.sin(TAU * x) * np.cos(TAU * t), g)
        want = renormalize(F)
        got = renormalize(F - 760.0)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    def test_cli_solves_a_datum_of_zero_mean_e_f(self, tmp_path):
        code = main(["solve", "--grid", "5,5,5", "--expr", "0*x-800", "--renormalize",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_OK

    def test_sine_constant_is_bessel(self):
        # quadrature oracle: mean of e^{sin} over a period is I_0(1)
        g = GridSpec(32, 8, 8)
        F = sample(lambda x, y, t: np.sin(TAU * x), g)
        shifted = renormalize(F)
        constant = F.values[0, 0, 0] - shifted.values[0, 0, 0]
        assert constant == pytest.approx(math.log(i0(1.0)), abs=1e-13)


class TestExpressionGrammar:
    def test_basic(self, grid8):
        u = evaluate_expression("0.5*sin(2*pi*x) + cos(2*pi*t)", grid8)
        want = sample(lambda x, y, t: 0.5 * np.sin(TAU * x) + np.cos(TAU * t), grid8)
        assert np.allclose(u.values, want.values, atol=1e-15)

    def test_periods_available(self):
        g = GridSpec(8, 8, 8, L_x=2.0)
        u = evaluate_expression("sin(2*pi*x/Lx)", g)
        want = sample(lambda x, y, t: np.sin(TAU * x / 2.0), g)
        assert np.allclose(u.values, want.values, atol=1e-15)

    def test_exp_log(self, grid8):
        u = evaluate_expression("log(exp(1.5))", grid8)
        assert np.allclose(u.values, 1.5, atol=1e-15)

    def test_unary_signs(self, grid8):
        X, Y, _ = grid8.meshgrid()
        assert np.array_equal(evaluate_expression("-x + +y", grid8).values, -X + Y)

    @pytest.mark.parametrize(
        "expr",
        [
            "x**2",
            "__import__('os')",
            "sin(x, y)",
            "unknown_name",
            "sin(x) if x else 0",
            "np.sin(x)",
            "sin(x) > 0",
            "True*x",
        ],
    )
    def test_rejects_out_of_grammar(self, grid8, expr):
        with pytest.raises(ExpressionError):
            evaluate_expression(expr, grid8)


class TestBuiltins:
    def test_zero(self, grid8):
        assert np.max(np.abs(builtin_field("zero", grid8).values)) == 0.0

    def test_triple_sine_default(self, grid8):
        u = builtin_field("triple_sine", grid8)
        want = sample(
            lambda x, y, t: 0.3 * np.sin(TAU * x) * np.sin(TAU * y) * np.sin(TAU * t), grid8
        )
        assert np.allclose(u.values, want.values, atol=1e-15)

    def test_two_mode_params(self, grid8):
        u = builtin_field("two_mode:a1=0.02,a2=0.01", grid8)
        want = sample(
            lambda x, y, t: 0.02 * np.sin(TAU * x) + 0.01 * np.cos(TAU * y) * np.sin(TAU * t),
            grid8,
        )
        assert np.allclose(u.values, want.values, atol=1e-15)

    @pytest.mark.parametrize("spec", ["nope", "zero:a=1", "two_mode:bad", "two_mode:q=3"])
    def test_rejects_malformed(self, grid8, spec):
        with pytest.raises(ExpressionError):
            builtin_field(spec, grid8)

    @pytest.mark.parametrize("spec, key", [
        ("triple_sine:amplitude=inf", "amplitude"),
        ("triple_sine:amplitude=nan", "amplitude"),
        ("two_mode:a1=-inf", "a1"),
    ])
    def test_rejects_non_finite_parameters(self, grid8, capsys, spec, key):
        with pytest.raises(ExpressionError, match=f"builtin parameter '{key}' must be finite"):
            builtin_field(spec, grid8)
        assert main(["manufacture", "--grid", "5,5,5", "--builtin", spec]) == EXIT_USAGE
        assert f"builtin parameter '{key}' must be finite" in capsys.readouterr().err


class TestCsvSlice:
    def test_zero_field(self, grid8, tmp_path):
        path = tmp_path / "slice.csv"
        write_csv_slice(ScalarField.zeros(grid8), path, "t", 0)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 8 * 8
        assert all(line.endswith(",0") for line in lines[1:])

    def test_slice_values(self, grid8, tmp_path):
        u = sample(lambda x, y, t: x + 10.0 * y + 100.0 * t, grid8)
        path = tmp_path / "slice.csv"
        write_csv_slice(u, path, "y", 2)
        rows = path.read_text().splitlines()[1:]
        first = rows[0].split(",")
        # fixed y = 2/8; first row is x = 0, t = 0
        assert float(first[2]) == pytest.approx(10.0 * 2.0 / 8.0)

    def test_rejects_bad_index(self, grid8, tmp_path):
        with pytest.raises(ValueError, match="index"):
            write_csv_slice(ScalarField.zeros(grid8), tmp_path / "x.csv", "t", 99)

    def test_bytes_match_savetxt_on_edge_values(self, tmp_path):
        # the rows np.savetxt(fmt="%.17g") wrote before the dump kernel did
        g = GridSpec(6, 8, 5, L_x=math.sqrt(2.0), L_y=1e-3, L_t=3e20)
        values = np.random.default_rng(5).standard_normal(g.shape) * 1e3
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        edge = [0.0, -0.0, 5e-324, -tiny, big, -big, 1e-5, 9.9999999999999991e-5, 1e16,
                1e17, 1000000000000000.25, 1000000000000000.75, 9.99999999999999999e22]
        values[:, :, 2].flat[:len(edge)] = edge
        u = ScalarField(g, values)
        path = tmp_path / "slice.csv"
        write_csv_slice(u, path, "t", 2)
        c1, c2 = np.meshgrid(g.coordinates("x"), g.coordinates("y"), indexing="ij")
        rows = np.column_stack([c1.ravel(), c2.ravel(), values[:, :, 2].ravel()])
        want = tmp_path / "savetxt.csv"
        np.savetxt(want, rows, fmt="%.17g", delimiter=",", header="x,y,value", comments="")
        assert path.read_bytes() == want.read_bytes()


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solver settings\n"
            "grid = 8,8,8\n"
            "newton_tol = 1e-10   # tight\n"
            "datum_builtin = zero\n"
        )
        items = parse_config_file(cfg)
        assert items == {"grid": "8,8,8", "newton_tol": "1e-10", "datum_builtin": "zero"}

    # wibble never was a key; the others were solver settings that became
    # constants, and a file that still names one is a usage error
    @pytest.mark.parametrize("key", [
        "wibble", "tau_initial_step", "krylov_tol", "krylov_max_iters",
        "damping_enabled", "damping_factor", "damping_max_backtracks", "tau_min_step",
    ])
    def test_rejects_unknown_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(cfg)
        code = main(["solve", "--config", str(cfg), "--grid", "8,8,8", "--builtin", "zero"])
        assert code == EXIT_USAGE
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_non_finite_newton_tol_is_a_usage_error(self, tmp_path, capsys):
        # NaN fails every comparison, so an unguarded tolerance would run
        # each Newton attempt to its budget and end in a stall instead
        cfg = tmp_path / "run.cfg"
        cfg.write_text("newton_tol = nan\n")
        code = main(["solve", "--config", str(cfg), "--grid", "9,9,9",
                     "--builtin", "triple_sine", "--renormalize"])
        assert code == EXIT_USAGE
        assert "newton_tol must be positive and finite" in capsys.readouterr().err


class TestSolverSettings:
    def test_no_keys_give_the_library_defaults(self, grid8):
        config = RunConfig("solve", {"datum_builtin": "zero", "grid": "8,8,8"})
        assert config.solver_config(grid8) == SolverConfig(grid=grid8)

    def test_one_key_changes_one_setting(self, grid8):
        config = RunConfig("solve", {"datum_builtin": "zero", "newton_max_iters": "7"})
        want = dataclasses.replace(SolverConfig(grid=grid8), newton_max_iters=7)
        assert config.solver_config(grid8) == want

    def test_keys_are_the_solver_config_fields(self, tmp_path, grid8):
        # every SolverConfig field but the grid is a config-file key, parsed
        # to the type of its default; there are exactly two
        fields = [f for f in dataclasses.fields(SolverConfig) if f.name != "grid"]
        assert {f.name for f in fields} == {"newton_tol", "newton_max_iters"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{f.name} = {f.default}\n" for f in fields))
        config = RunConfig("solve", {"datum_builtin": "zero", **parse_config_file(cfg)})
        got = config.solver_config(grid8)
        assert got == SolverConfig(grid=grid8)
        assert all(type(getattr(got, f.name)) is type(f.default) for f in fields)


class TestMainCommands:
    def test_solve_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--grid", "8,8,8", "--builtin", "zero", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "report.txt").read_text()
        assert "residual.sup = 0" in text
        assert text.count(".margin = ") == 10

    def test_solve_requires_one_datum_source(self, capsys):
        code = main(["solve", "--grid", "8,8,8"])
        assert code == EXIT_USAGE
        code = main(["solve", "--grid", "8,8,8", "--builtin", "zero", "--expr", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["solve", "manufacture"])
    @pytest.mark.parametrize("expr, index", [
        ("log(x)", (0, 0, 0)), ("1/(x-x)", (0, 0, 0)), ("exp(1000*x)", (6, 0, 0)),
    ])
    def test_non_finite_expression_is_a_usage_error(self, capsys, command, expr, index):
        # numpy's divide, invalid and overflow warnings must not escape main
        # (they are errors under this suite's filter and under python -W
        # error); the field rejects the sample and names its grid index
        code = main([command, "--grid", "8,8,8", "--expr", expr])
        assert code == EXIT_USAGE
        assert f"non-finite value at grid index {index}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, message", [
        (["solve", "--grid", "5,5,5", "--expr", "sin(x"], None, "cannot parse expression"),
        (["solve", "--grid", "8,8", "--builtin", "zero"], None, "grid needs 3 integers"),
        (["solve", "--builtin", "zero"], None, "grid is required"),
        (["rotate", "--grid", "8,8,8", "--builtin", "zero"], None, "rotate requires --angle"),
        (["verify", "--solution", "{u}", "--field", "{F}"], None,
         "the datum dump holds (5, 5, 5)"),
        (["export"], None, "export requires --field"),
        (["solve", "--builtin", "zero"], "grid 8,8,8\n", "expected 'key = value'"),
        (["solve", "--grid", "8,8,8", "--builtin", "zero"], "renormalize = maybe\n",
         "expected boolean, got 'maybe'"),
        (["export", "--field", "{u}"], "format = pdf\n", "unknown export format 'pdf'"),
        (["export", "--field", "{u}"], "format = csv-slice\nslice_axis = z\n",
         "axis must be one of"),
    ], ids=[
        "syntax", "two_axis_grid", "no_grid", "rotate_no_angle", "verify_datum_grid",
        "export_no_field", "config_line", "config_bool", "export_format", "slice_axis",
    ])
    def test_usage_errors_exit_2(self, tmp_path, zero_dump, capsys, argv, config, message):
        F = tmp_path / "F.field"
        write_field(ScalarField.zeros(GridSpec(5, 5, 5)), F)
        argv = [a.format(u=zero_dump, F=F) for a in argv] + ["--out", str(tmp_path / "run")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_solve_unnormalized_exits_3(self, capsys):
        code = main(["solve", "--grid", "8,8,8", "--expr", "1"])
        assert code == EXIT_NORMALIZATION
        assert "renormalize" in capsys.readouterr().err

    def test_solve_renormalize_flag(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--grid", "8,8,8", "--expr", "1", "--renormalize",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_renormalize_flag_matches_prenormalized(self, tmp_path):
        # solve --renormalize on raw datum == solve on renormalized datum
        g = GridSpec(8, 8, 8)
        raw = sample(lambda x, y, t: 0.2 * np.sin(TAU * x), g)
        from ktcy.field import write_field

        raw_path = tmp_path / "raw.field"
        write_field(raw, raw_path)
        pre_path = tmp_path / "pre.field"
        write_field(renormalize(raw), pre_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--field", str(raw_path), "--renormalize", "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--field", str(pre_path), "--out", str(out2)]) == EXIT_OK
        u1 = (out1 / "solution.field").read_text()
        u2 = (out2 / "solution.field").read_text()
        assert u1 == u2

    def test_manufacture_too_large_exits_5(self, tmp_path, capsys):
        code = main(["manufacture", "--grid", "16,16,16", "--expr", "sin(2*pi*x)",
                     "--out", str(tmp_path / "m")])
        assert code == EXIT_NONPOSITIVE

    def test_manufacture_then_solve_then_verify(self, tmp_path):
        mdir = tmp_path / "m"
        code = main(["manufacture", "--grid", "16,16,16",
                     "--builtin", "two_mode:a1=0.01,a2=0.005", "--out", str(mdir)])
        assert code == EXIT_OK
        sdir = tmp_path / "s"
        code = main(["solve", "--field", str(mdir / "F.field"), "--out", str(sdir)])
        assert code == EXIT_OK
        vdir = tmp_path / "v"
        code = main(["verify", "--solution", str(sdir / "solution.field"),
                     "--field", str(sdir / "datum.field"), "--out", str(vdir)])
        assert code == EXIT_OK
        # margins reproduce bitwise between the in-run and re-verified reports
        solve_lines = {
            line for line in (sdir / "report.txt").read_text().splitlines()
            if ".margin = " in line
        }
        verify_lines = {
            line for line in (vdir / "report.txt").read_text().splitlines()
            if ".margin = " in line
        }
        assert solve_lines == verify_lines
        # every Newton attempt records its Krylov work
        report = (sdir / "report.txt").read_text()
        attempts = int(re.search(r"^trace\.records = (\d+)$", report, re.M).group(1))
        krylov = re.findall(r"^trace\.(\d+)\.krylov_applications = (\d+)$", report, re.M)
        assert [int(i) for i, _ in krylov] == list(range(1, attempts + 1))
        assert all(int(n) > 0 for _, n in krylov)
        # recovered solution matches the manufactured state
        u = read_field(sdir / "solution.field")
        u_star = read_field(mdir / "u_star.field")
        assert np.max(np.abs(u.values - u_star.values)) <= 1e-9

    def test_rotate_identity(self, tmp_path):
        rdir = tmp_path / "r"
        code = main(["rotate", "--grid", "16,16,16", "--angle", "1,0",
                     "--builtin", "zero", "--out", str(rdir)])
        assert code == EXIT_OK
        text = (rdir / "report.txt").read_text()
        assert "rotation.period = 1" in text

    def test_the_parser_is_built_once(self, capsys):
        from ktcy.cli import _build_parser

        parser = _build_parser()
        with pytest.raises(SystemExit):
            main(["solve", "--wibble"])
        assert main(["solve", "--grid", "8,8,8", "--builtin", "zero"]) == EXIT_OK
        assert _build_parser() is parser

    def test_rotate_rejects_angle_elsewhere(self, capsys):
        code = main(["solve", "--grid", "8,8,8", "--builtin", "zero", "--angle", "1,1"])
        assert code == EXIT_USAGE

    def test_export_round_trip(self, tmp_path):
        g = GridSpec(8, 8, 8)
        u = sample(lambda x, y, t: np.sin(TAU * x), g)
        from ktcy.field import write_field

        src = tmp_path / "u.field"
        write_field(u, src)
        out = tmp_path / "exp"
        code = main(["export", "--field", str(src), "--format", "field-dump",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "export.field").read_text() == src.read_text()

    def test_export_csv_slice(self, tmp_path):
        g = GridSpec(8, 8, 8)
        from ktcy.field import write_field

        src = tmp_path / "u.field"
        write_field(ScalarField.zeros(g), src)
        out = tmp_path / "exp"
        code = main(["export", "--field", str(src), "--format", "csv-slice",
                     "--slice-axis", "t", "--slice-index", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "slice_t3.csv").read_text().splitlines()[0] == "x,y,value"

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 8,8,8\ndatum_builtin = zero\n")
        out = tmp_path / "run"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "report.txt").read_text()
        assert "config.datum_builtin = zero" in text

    def test_io_failure_exit_code(self, capsys):
        code = main(["solve", "--grid", "8,8,8", "--field", "/nonexistent/F.field"])
        assert code == 6

    def test_continuation_stall_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "starved.cfg"
        cfg.write_text(
            "grid = 16,16,16\n"
            "datum_builtin = triple_sine\n"
            "renormalize = true\n"
            "newton_max_iters = 1\n"   # cannot converge in one iteration
        )
        code = main(["solve", "--config", str(cfg)])
        assert code == 4
        assert capsys.readouterr().err.startswith("solve failed: NewtonStalled: ")

    def test_rotate_unnormalized_exits_3(self, capsys):
        code = main(["rotate", "--grid", "16,16,16", "--angle", "1,1",
                     "--expr", "0.1*sin(2*pi*x)+0.2"])
        assert code == EXIT_NORMALIZATION
        assert "integral of e^F" in capsys.readouterr().err

    def test_rotate_unnormalized_names_the_datum_integral(self, capsys):
        # the user's own integral of e^F, not the L^2 = 2 times larger one of
        # the cell datum
        grid = GridSpec(16, 16, 16)
        F = sample(lambda x, y, t: 0.1 * np.sin(TAU * x) + 0.2, grid)
        integral = integrate(F.with_values(np.exp(F.values)))
        assert integral == pytest.approx(1.2244, abs=1e-4)
        code = main(["rotate", "--grid", "16,16,16", "--angle", "1,1",
                     "--expr", "0.1*sin(2*pi*x)+0.2"])
        assert code == EXIT_NORMALIZATION
        err = capsys.readouterr().err
        assert f"integral of e^F is {integral:.15g}, expected 1;" in err

    @pytest.mark.parametrize(
        "datum,coarse",
        [
            (["--builtin", "triple_sine:amplitude=0.1"], "9 9 9"),
            # the log of a trigonometric polynomial has a spectral tail
            (["--expr", "log(1 + 0.2*sin(2*pi*x)*cos(2*pi*t))"], "none"),
        ],
        ids=["sequenced", "unresolved"],
    )
    def test_solve_reports_grids_and_resolution(self, tmp_path, datum, coarse):
        out = tmp_path / "run"
        assert main(["solve", "--grid", "16,16,16", *datum, "--renormalize",
                     "--out", str(out)]) == EXIT_OK
        report = dict(
            line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()
        )
        records = int(report["trace.records"])
        grids = [report[f"trace.{i}.grid"] for i in range(1, records + 1)]
        assert grids[-1] == "16 16 16" and report[f"trace.{records}.accepted"] == "true"
        assert not any(key.endswith(".tau") for key in report)
        assert report["resolution.coarse_grid"] == coarse
        if coarse == "none":
            assert set(grids) == {"16 16 16"}
            assert report["resolution.coarse_fine_sup"] == "none"
        else:
            assert set(grids) == {coarse, "16 16 16"}
            assert 0.0 <= float(report["resolution.coarse_fine_sup"]) < 1e-3

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "ktcy", "solve", "--grid", "8,8,8", "--builtin", "zero"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK
        assert done.stderr == ""
        assert "estimate.passed = true" in done.stdout

    def test_verify_honours_renormalize(self, tmp_path):
        datum = ["--grid", "8,8,8", "--expr", "0.3*sin(2*pi*x)*cos(2*pi*t) + 1", "--renormalize"]
        sdir, vdir = tmp_path / "s", tmp_path / "v"
        assert main(["solve", *datum, "--out", str(sdir)]) == EXIT_OK
        assert main(["verify", "--solution", str(sdir / "solution.field"), *datum,
                     "--out", str(vdir)]) == EXIT_OK
        solve_text = (sdir / "report.txt").read_text()
        verify_text = (vdir / "report.txt").read_text()
        assert "estimate.passed = true" in verify_text
        margins = [
            [line for line in text.splitlines() if ".margin = " in line]
            for text in (solve_text, verify_text)
        ]
        assert len(margins[0]) == 10
        assert margins[0] == margins[1]

    @pytest.mark.parametrize("command", ["manufacture", "export"])
    def test_renormalize_rejected_where_meaningless(self, command, zero_dump, tmp_path, capsys):
        code = main([command, "--field", str(zero_dump), "--renormalize",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "renormalize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, given",
        [
            ("solve", ["--grid", "16,16,16"], "(16, 16, 16) with periods (1.0, 1.0, 1.0)"),
            ("solve", ["--periods", "2,1,1"], "(8, 8, 8) with periods (2.0, 1.0, 1.0)"),
            ("manufacture", ["--grid", "8,8,16"], "(8, 8, 16) with periods (1.0, 1.0, 1.0)"),
            ("verify", ["--builtin", "zero", "--grid", "16,16,16"],
             "(16, 16, 16) with periods (1.0, 1.0, 1.0)"),
        ],
        ids=["solve-grid", "solve-periods", "manufacture-grid", "verify-grid"],
    )
    def test_grid_flags_must_match_the_dump(self, command, flags, given, zero_dump, capsys):
        source = "--solution" if command == "verify" else "--field"
        code = main([command, source, str(zero_dump), *flags])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"give {given}" in err
        assert "holds (8, 8, 8) with periods (1.0, 1.0, 1.0)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--field"],
            ["manufacture", "--field"],
            ["verify", "--builtin", "zero", "--solution"],
        ],
        ids=["solve", "manufacture", "verify"],
    )
    def test_matching_grid_flag_accepted(self, argv, zero_dump, tmp_path):
        code = main([*argv, str(zero_dump), "--grid", "8,8,8", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_rotate_rejects_periods(self, capsys):
        code = main(["rotate", "--grid", "16,16,16", "--angle", "1,1", "--builtin", "zero",
                     "--periods", "1,1,1"])
        assert code == EXIT_USAGE
        assert "periods" in capsys.readouterr().err

    def test_export_from_config_file(self, zero_dump, tmp_path):
        out = tmp_path / "exp"
        cfg = tmp_path / "export.cfg"
        cfg.write_text(
            f"datum_field = {zero_dump}\nformat = csv-slice\n"
            f"slice_axis = y\nslice_index = 2\nout = {out}\n"
        )
        assert main(["export", "--config", str(cfg)]) == EXIT_OK
        assert (out / "slice_y2.csv").read_text().splitlines()[0] == "x,t,value"

    def test_bad_dump_header_is_a_usage_error_naming_the_dump(self, tmp_path, capsys):
        path = tmp_path / "head.field"
        path.write_text("8 8 8.5 1 1 1\n" + "0.0\n" * 512)
        code = main(["verify", "--builtin", "zero", "--solution", str(path)])
        assert code == EXIT_USAGE
        assert f"{path}: malformed field dump header" in capsys.readouterr().err

    def test_verify_requires_solution(self, capsys):
        code = main(["verify", "--builtin", "zero"])
        assert code == EXIT_USAGE
        assert "solution" in capsys.readouterr().err


def _report_lines(path, prefixes):
    return [line for line in path.read_text().splitlines() if line.startswith(prefixes)]


class TestAuditReport:
    """``solve``, ``verify`` and ``rotate`` print residual, ellipticity and
    estimates from the one audit the library already made."""

    @pytest.fixture
    def datum_dump(self, tmp_path):
        grid = GridSpec(16, 16, 16)
        path = tmp_path / "F.field"
        write_field(renormalize(builtin_field("triple_sine:amplitude=0.3", grid)), path)
        return path

    def test_solve_and_verify_print_the_same_audit(self, datum_dump, tmp_path):
        sdir, vdir = tmp_path / "s", tmp_path / "v"
        assert main(["solve", "--field", str(datum_dump), "--out", str(sdir)]) == EXIT_OK
        assert main(["verify", "--solution", str(sdir / "solution.field"),
                     "--field", str(sdir / "datum.field"), "--out", str(vdir)]) == EXIT_OK
        prefixes = ("residual.", "ellipticity.", "estimate.")
        solved = _report_lines(sdir / "report.txt", prefixes)
        assert len(_report_lines(sdir / "report.txt", ("residual.",))) == 3
        assert len(_report_lines(sdir / "report.txt", ("ellipticity.",))) == 6
        assert solved == _report_lines(vdir / "report.txt", prefixes)

    def test_rotate_prints_the_whole_audit(self, tmp_path):
        out = tmp_path / "r"
        assert main(["rotate", "--grid", "16,16,16", "--angle", "1,1", "--builtin",
                     "triple_sine:amplitude=0.3", "--renormalize", "--out", str(out)]) == EXIT_OK
        path = out / "report.txt"
        assert len(_report_lines(path, ("residual.",))) == 3
        assert len(_report_lines(path, ("ellipticity.",))) == 6
        report = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
        assert float(report["residual.sup"]) <= SolverConfig.newton_tol
        assert report["estimate.passed"] == "true"

    def test_solve_prints_why_an_attempt_failed(self, tmp_path):
        # the Newton finish from the prolonged 9^3 solution leaves the cone
        grid = GridSpec(17, 17, 17)
        path, out = tmp_path / "F.field", tmp_path / "s"
        F = random_band_limited(grid, np.random.default_rng(5), max_mode=3, amplitude=3.0)
        write_field(renormalize(F), path)
        assert main(["solve", "--field", str(path), "--out", str(out)]) == EXIT_OK
        report = dict(line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines())
        failures = [report[f"trace.{i}.failure"] for i in range(1, int(report["trace.records"]) + 1)]
        assert failures == ["none", "EllipticityLost", "none"]
        assert report["trace.2.accepted"] == "false"

    def test_solve_linearizes_as_often_as_the_library(self, datum_dump, tmp_path, monkeypatch):
        import sys

        import ktcy.pde
        from ktcy.solver import solve

        calls, linearize = [], ktcy.pde.linearize

        def counting(u, angle=None):
            calls.append(1)
            return linearize(u, angle)

        for name, module in list(sys.modules.items()):
            if name.startswith("ktcy") and getattr(module, "linearize", None) is linearize:
                monkeypatch.setattr(module, "linearize", counting)
        F = read_field(datum_dump)
        solve(F, SolverConfig(grid=F.grid))
        library = len(calls)
        calls.clear()
        assert main(["solve", "--field", str(datum_dump), "--out", str(tmp_path / "s")]) == EXIT_OK
        assert library > 0 and len(calls) == library


class TestReportDeterminism:
    def test_grid_checksum_stable(self):
        g1 = GridSpec(16, 16, 16)
        g2 = GridSpec(16, 16, 16)
        g3 = GridSpec(16, 16, 32)
        assert grid_checksum(g1) == grid_checksum(g2)
        assert grid_checksum(g1) != grid_checksum(g3)

    def test_reports_identical_up_to_timing(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--grid", "8,8,8",
                         "--builtin", "triple_sine:amplitude=0.1", "--renormalize",
                         "--out", str(out)]) == EXIT_OK
            lines = [
                line for line in (out / "report.txt").read_text().splitlines()
                if not line.startswith(("timing.", "config.out"))
            ]
            outs.append(lines)
        assert outs[0] == outs[1]


class TestExpOverflow:
    """An e^F beyond float64 is a typed error, under any warning filter
    (this suite turns numpy's RuntimeWarning into an error)."""

    # max F = 720 on 5^3 and 800 on 9^3, above log(max float) = 709.78
    @pytest.mark.parametrize("argv", [
        ["solve", "--grid", "5,5,5"],
        ["rotate", "--grid", "9,9,9", "--angle", "1,1"],
    ], ids=["solve", "rotate"])
    def test_unnormalized_datum_names_an_integral_of_inf(self, capsys, argv):
        assert main([*argv, "--expr", "900*x"]) == EXIT_NORMALIZATION
        assert "integral of e^F is inf, expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, max_f", [
        (["solve", "--grid", "5,5,5"], "720"),
        (["rotate", "--grid", "9,9,9", "--angle", "1,1"], "800"),
    ], ids=["solve", "rotate"])
    def test_renormalize_names_the_largest_f(self, capsys, argv, max_f):
        assert main([*argv, "--expr", "900*x", "--renormalize"]) == EXIT_USAGE
        assert f"e^F overflows float64: max F is {max_f}," in capsys.readouterr().err

    def test_verify_names_the_largest_f(self, tmp_path, capsys):
        path = tmp_path / "u.field"
        write_field(ScalarField.zeros(GridSpec(5, 5, 5)), path)
        assert main(["verify", "--solution", str(path), "--expr", "900*x"]) == EXIT_USAGE
        assert "e^F overflows float64: max F is 720," in capsys.readouterr().err

    # e^360 is finite but its square is not, and 4 e^709 is not finite either
    @pytest.mark.parametrize("max_f", ["360", "709"])
    def test_verify_names_the_largest_f_when_the_audit_overflows(self, tmp_path, capsys, max_f):
        path = tmp_path / "u.field"
        write_field(ScalarField.zeros(GridSpec(5, 5, 5)), path)
        assert main(["verify", "--solution", str(path), "--expr", f"{max_f}+0*x"]) == EXIT_USAGE
        assert f"the estimate audit overflows float64: max F is {max_f} " in capsys.readouterr().err

    @pytest.mark.parametrize("call", [
        lambda u, F: residual(u, F),
        lambda u, F: ellipticity_report(u, F),
        lambda u, F: newton_solve(u, F, SolverConfig(grid=u.grid)),
    ], ids=["residual", "ellipticity_report", "newton_solve"])
    def test_library_functions_name_the_largest_f(self, call):
        # the datum's overflow, not a non-finite state or a clamped Lambda
        grid = GridSpec(9, 9, 9)
        F = sample(lambda x, y, t: 900.0 * x, grid)
        with pytest.raises(ValueError, match=r"e\^F overflows float64: max F is 800,"):
            call(ScalarField.zeros(grid), F)

    def test_an_audit_below_the_overflow_reports(self):
        # 125 e^704 is finite: the audit reports, and fails
        grid = GridSpec(5, 5, 5)
        report = verify(ScalarField.zeros(grid), ScalarField.constant(grid, 352.0))
        assert report.informative and not report.passed
        assert np.isfinite(report.residual_l2)

    def test_an_overflowing_sum_is_caught_too(self):
        # every e^709 is finite, their sum over 125 samples is not
        F = ScalarField.constant(GridSpec(5, 5, 5), 709.0)
        with pytest.raises(ValueError, match="max F is 709,"):
            renormalize(F)
        with pytest.raises(NormalizationError, match=r"integral of e\^F is inf"):
            check_normalization(F)


class TestFloatRange:
    """Periods and data beyond float64's range are usage errors that say
    so, with no warning on the way (this suite turns numpy's RuntimeWarning
    into an error)."""

    def test_a_tiny_period_names_its_axis(self, capsys):
        argv = ["solve", "--grid", "5,5,5", "--expr", "0*x", "--periods", "1,1,1e-300"]
        assert main(argv) == EXIT_USAGE
        assert "L_t = 1e-300 is too small for n_t = 5" in capsys.readouterr().err

    def test_a_huge_period_still_solves(self, tmp_path):
        argv = ["solve", "--grid", "5,5,5", "--expr", "0*x", "--periods", "1e300,1,1"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_OK

    @pytest.mark.parametrize("period", ["1e300", "1e25"])
    def test_a_datum_along_a_huge_period_names_its_axis(self, capsys, period):
        # along x the derivative factor (2 pi / L)^2 is 0 or below the
        # smallest normal float32: the linear solves cannot see u_xx
        argv = [
            "solve", "--grid", "5,5,5", "--expr", "0.1*sin(2*pi*x/Lx)",
            "--periods", f"{period},1,1", "--renormalize",
        ]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"F varies along x, but L_x = {float(period)!r} makes the derivative factor" in err

    def test_newton_solve_refuses_a_datum_along_a_huge_period(self):
        grid = GridSpec(5, 5, 5, 1.0, 1.0, 1e300)
        F = renormalize(sample(lambda x, y, t: 0.1 * np.sin(TAU * t / 1e300), grid))
        with pytest.raises(ValueError, match="F varies along t, but L_t = 1e[+]300"):
            newton_solve(ScalarField.zeros(grid), F, SolverConfig(grid=grid))

    @pytest.mark.parametrize("period", ["1e300", "1e25"])
    def test_a_datum_across_a_huge_period_solves(self, tmp_path, period):
        argv = [
            "solve", "--grid", "5,5,5", "--expr", "0.1*sin(2*pi*y)",
            "--periods", f"{period},1,1", "--renormalize", "--out", str(tmp_path / "run"),
        ]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("amplitude", ["1e200", "1e307"])
    def test_manufacture_names_the_overflow(self, capsys, amplitude):
        argv = ["manufacture", "--grid", "5,5,5", "--expr", f"{amplitude}*sin(2*pi*x)"]
        assert main(argv) == EXIT_USAGE
        assert "ma_lhs(u_star) overflows float64: sup |u_star| is" in capsys.readouterr().err

    def test_library_manufacture_raises_no_non_positive_lhs(self):
        u_star = sample(lambda x, y, t: 1e200 * np.sin(TAU * x), GridSpec(5, 5, 5))
        with pytest.raises(ValueError, match="overflows float64") as info:
            manufacture(u_star)
        assert not isinstance(info.value, NonPositiveLHS)


class TestExpressionDepth:
    @pytest.mark.parametrize("expr", [
        "+".join(["x"] * 1200),  # deep in the evaluator
        "-" * 3000 + "1",        # deep in the parser
    ], ids=["sum", "unary"])
    def test_deep_nesting_is_a_usage_error(self, grid8, capsys, expr):
        with pytest.raises(ExpressionError, match="expression nests too deeply"):
            evaluate_expression(expr, grid8)
        assert main(["solve", "--grid", "5,5,5", f"--expr={expr}"]) == EXIT_USAGE
        assert "error: expression nests too deeply" in capsys.readouterr().err


class TestRunPipeline:
    """The four report commands share one pipeline: the same report goes to
    stdout or to ``--out`` with the command's dumps."""

    DUMPS = {
        "solve": {"report.txt", "solution.field", "datum.field"},
        "verify": {"report.txt"},
        "rotate": {"report.txt", "solution.field"},
        "manufacture": {"report.txt", "F.field", "u_star.field"},
    }

    @pytest.fixture(params=sorted(DUMPS))
    def argv(self, request, zero_dump):
        datum = ["--builtin", "triple_sine:amplitude=0.1", "--renormalize"]
        return request.param, {
            "solve": ["solve", "--grid", "9,9,9", *datum],
            "verify": ["verify", "--solution", str(zero_dump), "--builtin", "zero"],
            "rotate": ["rotate", "--grid", "9,9,9", "--angle", "1,1", *datum],
            "manufacture": ["manufacture", "--grid", "9,9,9", "--builtin", "two_mode"],
        }[request.param]

    @staticmethod
    def _stable(text):
        return [
            line for line in text.splitlines()
            if not line.startswith(("timing.", "config.out"))
        ]

    def test_stdout_and_out_carry_the_same_report(self, argv, tmp_path, capsys):
        command, args = argv
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"report written to {out / 'report.txt'}\n"
        assert self._stable(printed) == self._stable((out / "report.txt").read_text())
        assert f"command = {command}" in printed
        assert {p.name for p in out.iterdir()} == self.DUMPS[command]

    def test_unwritable_out_fails_before_the_solve(self, argv, tmp_path, capsys, monkeypatch):
        import ktcy.cli

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("solve", "solve_rotated", "verify", "manufacture"):
            monkeypatch.setattr(ktcy.cli, name, counting(getattr(ktcy.cli, name)))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv[1], "--out", str(blocker / "o")]) == EXIT_IO
        assert "I/O failure" in capsys.readouterr().err
        # manufacture validates its datum by manufacturing it, before --out
        assert calls == (["manufacture"] if argv[0] == "manufacture" else [])
