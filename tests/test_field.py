"""Tests for the spectral field substrate."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktcy import field
from ktcy.field import (
    AXES,
    GridMismatchError,
    GridSpec,
    ScalarField,
    _from_spectrum,
    _single,
    _spectrum,
    derivative,
    evaluate,
    gradient,
    integrate,
    interpolant_modes,
    mean,
    norms,
    operator_symbols,
    project_mean_zero,
    random_band_limited,
    read_field,
    resample,
    sample,
    synthesize,
    write_field,
)

TAU = 2.0 * np.pi


def _around(x: float) -> list:
    """x and its two float neighbours."""
    return [x, float(np.nextafter(x, -math.inf)), float(np.nextafter(x, math.inf))]


def _finite_bit_patterns(n: int) -> list:
    bits = np.random.default_rng(31).integers(0, 2**64, size=2 * n, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:n].tolist()


def _near_ties() -> list:
    """Doubles about 1.27e30 and 2.54e30 whose 18th digit and beyond lie
    within 1 / (2 5^14) of a 5: too near a tie for the kernel's scaling."""
    q, values = 14, []
    for e, sign in ((48, 1), (48, -1), (49, 1)):
        # x = m 2^e and x / 10^q = m 2^(e - q) / 5^q, whose fraction is
        # 1/2 - sign / (2 5^q) where m 2^(e - q) = (5^q - sign) / 2 mod 5^q
        m = (5**q - sign) // 2 * pow(2 ** (e - q), -1, 5**q) % 5**q
        m += 5**q * ((2**52 - m) // 5**q + 1)  # 53 bits, so m 2^e is a double
        values.append(float(m * 2**e))
    return values


_TINY, _MAX = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)
# name -> (values that lead a dump, the dump's size minus the chunk length
# or None to keep the chunk); Python's per-value %.17g is the oracle
_FORMAT_CASES = {
    "normals": ([-0.0, 5e-324, 1e-300, 1e300], None),
    "zeros-and-subnormals": (
        [0.0, -0.0, 5e-324, -5e-324, _TINY - 5e-324, -(_TINY - 5e-324), 1.5e-320, 2.5e-310], None
    ),
    "tiny-and-max": ([_TINY, -_TINY, _MAX, -_MAX, *_around(_TINY), _MAX * (1 - 2.0**-53)], None),
    "powers-of-ten": ([v for k in range(-323, 309) for v in _around(float(f"1e{k}"))], None),
    "g-switch-points": ([s * v for s in (1, -1) for x in (1e-5, 1e-4, 1e16, 1e17)
                         for v in _around(x)], None),
    # 17 nines round up to the next power, across the %g switch points too
    "decade-round-up": (
        [float(f"9.99999999999999999e{k}") for k in range(-307, 308)]
        + [-9.99999999999999999e-6, 9.999999999999999999e-5, 99999999999999999.0], None
    ),
    # the 18th digit an exact 5: rounded to even
    "17th-digit-ties": (
        [1000000000000000.25, 1000000000000000.75, -1000000000000000.25, 2000000000000001.25,
         123456789012345.625, 123456789012345.875]
        + [10.0**15 + k + 0.25 for k in range(40)] + [10.0**14 + k + 0.125 for k in range(40)],
        None,
    ),
    # near ties in exponent notation, which the fallback formats
    "near-ties": (_near_ties() + [-x for x in _near_ties()], None),
    # finite bit patterns over three chunks, some of them fallbacks
    "bit-patterns": (_finite_bit_patterns(9000), None),
    # a dump of 192 values, the first and the last a subnormal, which the
    # fallback formats, and the chunk length one above, on or one below it
    "chunk-minus-one": ([5e-324] + [1.5] * 190 + [-5e-324], -1),
    "chunk": ([5e-324] + [1.5] * 190 + [-5e-324], 0),
    "chunk-plus-one": ([5e-324] + [1.5] * 190 + [-5e-324], 1),
}


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(8, 16, 4, 1.0, 2.0, 0.5)
        assert g.shape == (8, 16, 4)
        assert g.volume() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [3, 2, 0, -8])
    def test_rejects_bad_sample_counts(self, bad):
        with pytest.raises(ValueError, match="even integer"):
            GridSpec(bad, 8, 8)

    @pytest.mark.parametrize("n", [5, 7, 9, 25])
    def test_accepts_odd_sample_counts(self, n):
        assert GridSpec(n, 8, n).shape == (n, 8, n)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_periods(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            GridSpec(8, 8, 8, 1.0, bad, 1.0)

    @pytest.mark.parametrize("periods, axis", [
        ((1.0, 1.0, 1e-300), "L_t"),
        ((5e-324, 1.0, 1.0), "L_x"),
        ((1e-153, 1e-153, 1e-153), "L_x"),  # each axis's factor is finite, their sum is not
    ], ids=str)
    def test_rejects_periods_whose_derivative_symbols_overflow(self, periods, axis):
        with pytest.raises(ValueError, match=f"{axis} = .* is too small for n_{axis[-1]} = 5"):
            GridSpec(5, 5, 5, *periods)

    @pytest.mark.parametrize("periods", [(1e-152, 1e-152, 1e-152), (1e300, 1e300, 1.0)], ids=str)
    def test_rejects_a_volume_outside_the_float_range(self, periods):
        with pytest.raises(ValueError, match="box volume"):
            GridSpec(5, 5, 5, *periods)

    @pytest.mark.parametrize("angle", [None, (0.6, 0.8)], ids=["axes", "rotated"])
    def test_symbols_of_the_smallest_accepted_periods_are_finite(self, angle):
        # 2 pi 2 / 1e-152 squared is 1.6e306 on x and y: their symbols sum
        # and the rotated groups mix them, all inside the float range
        table = operator_symbols(GridSpec(5, 5, 5, 1e-152, 1e-152, 1.0), angle)
        assert all(np.all(np.isfinite(symbol)) for symbol in table)

    @pytest.mark.parametrize("periods", [(1e300, 1.0, 1.0), (1.0, 1.0, 1e300), (1e25, 1.0, 1.0)], ids=str)
    def test_a_huge_period_pins_the_modes_along_it_alone(self, periods):
        # (2 pi / 1e300)^2 is 0 and (2 pi / 1e25)^2 below the smallest
        # normal float32: the flat symbol of the modes along that axis alone
        # is pinned like the zero mode, with no warning, and its inverse
        # stays in float32 range; every other mode keeps 1 / flat
        grid = GridSpec(5, 5, 5, *periods)
        table = operator_symbols(grid)
        flat = table.xx + table.yy_tt_t
        pinned = table.flat_inverse == 0
        alone = np.zeros(flat.shape, dtype=bool)
        index = [0, 0, 0]
        ax = periods.index(max(periods))
        index[ax] = slice(None)
        alone[tuple(index)] = True
        assert np.array_equal(pinned, alone)
        assert np.array_equal(table.flat_inverse[~pinned], 1.0 / flat[~pinned])
        assert np.all(np.isfinite(_single(table.flat_inverse)))

    def test_coordinates(self):
        g = GridSpec(4, 4, 4, L_x=2.0)
        assert np.allclose(g.coordinates("x"), [0.0, 0.5, 1.0, 1.5])
        assert np.allclose(g.coordinates("y"), [0.0, 0.25, 0.5, 0.75])


class TestSample:
    def test_constant(self, grid8):
        u = sample(lambda x, y, t: np.ones_like(x), grid8)
        assert np.all(u.values == 1.0)

    def test_single_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        expected = np.sin(TAU * np.arange(8) / 8)
        assert np.allclose(u.values, expected[:, None, None], atol=1e-15)
        # independent of j, k
        assert np.ptp(u.values, axis=1).max() == 0.0
        assert np.ptp(u.values, axis=2).max() == 0.0

    def test_irrational_period(self):
        g = GridSpec(8, 8, 8, L_x=math.sqrt(2.0))
        u = sample(lambda x, y, t: np.sin(TAU * x / math.sqrt(2.0)), g)
        expected = np.sin(TAU * np.arange(8) / 8)
        assert np.allclose(u.values[:, 0, 0], expected, atol=1e-15)

    def test_rejects_non_finite_with_index(self, grid8):
        def bad(x, y, t):
            out = np.ones_like(x)
            out[2, 3, 1] = np.inf
            return out

        with pytest.raises(ValueError, match=r"\(2, 3, 1\)"):
            sample(bad, grid8)


class TestDerivative:
    def test_sin_x_first(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        d = derivative(u, "x", 1)
        exact = sample(lambda x, y, t: TAU * np.cos(TAU * x), grid8)
        assert np.allclose(d.values, exact.values, atol=1e-13)

    def test_cross_axis_is_zero(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        assert np.max(np.abs(derivative(u, "y", 1).values)) < 1e-15

    def test_cos_t_second(self, grid8):
        u = sample(lambda x, y, t: np.cos(TAU * t), grid8)
        d = derivative(u, "t", 2)
        exact = sample(lambda x, y, t: -TAU**2 * np.cos(TAU * t), grid8)
        assert np.allclose(d.values, exact.values, atol=1e-12)

    def test_constant_derivative_is_zero(self, grid8):
        u = ScalarField.constant(grid8, 3.7)
        for axis in ("x", "y", "t"):
            for order in (1, 2):
                assert np.max(np.abs(derivative(u, axis, order).values)) < 1e-14

    def test_period_scaling(self):
        g = GridSpec(16, 8, 8, L_x=2.0)
        u = sample(lambda x, y, t: np.sin(TAU * x / 2.0), g)
        d = derivative(u, "x", 1)
        exact = sample(lambda x, y, t: (TAU / 2.0) * np.cos(TAU * x / 2.0), g)
        assert np.allclose(d.values, exact.values, atol=1e-13)

    def test_rejects_bad_args(self, grid8):
        u = ScalarField.zeros(grid8)
        with pytest.raises(ValueError):
            derivative(u, "z", 1)
        with pytest.raises(ValueError):
            derivative(u, "x", 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_of_derivative_vanishes(self, grid8, seed):
        u = random_band_limited(grid8, np.random.default_rng(seed), max_mode=3)
        for axis in ("x", "y", "t"):
            assert abs(mean(derivative(u, axis, 1))) < 1e-14


class TestQuadrature:
    def test_constant_unit_box(self, grid8):
        assert integrate(ScalarField.constant(grid8, 1.0)) == pytest.approx(1.0)

    def test_oscillatory_mean_zero(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        assert abs(mean(u)) < 1e-16

    def test_volume_scaling(self):
        g = GridSpec(8, 8, 8, L_x=math.sqrt(2.0))
        assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(math.sqrt(2.0))


class TestProjectMeanZero:
    def test_constant(self, grid8):
        assert np.max(np.abs(project_mean_zero(ScalarField.constant(grid8, 5.0)).values)) == 0.0

    def test_shifted_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x) + 3.0, grid8)
        v = project_mean_zero(u)
        exact = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        assert np.allclose(v.values, exact.values, atol=1e-14)

    def test_idempotent(self, grid8, rng):
        u = random_band_limited(grid8, rng)
        v = project_mean_zero(u)
        w = project_mean_zero(v)
        assert np.allclose(v.values, w.values, atol=1e-16)


class TestNorms:
    def test_constant(self, grid8):
        n = norms(ScalarField.constant(grid8, 2.0))
        assert n["sup"] == pytest.approx(2.0)
        assert n["l2"] == pytest.approx(2.0)
        assert n["grad_sup"] == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_parseval(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x), grid8)
        n = norms(u)
        assert n["l2"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
        assert n["grad_l2"] == pytest.approx(TAU / math.sqrt(2.0), rel=1e-13)

    def test_zero(self, grid8):
        n = norms(ScalarField.zeros(grid8))
        assert all(v == 0.0 for v in n.values())


class TestDiscreteIdentities:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_parseval(self, grid16, seed):
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=5)
        l2_grid = norms(u)["l2"]
        spec = np.fft.fftn(u.values)
        l2_fourier = math.sqrt(
            float(np.sum(np.abs(spec) ** 2)) / u.values.size**2 * u.grid.volume()
        )
        assert abs(l2_grid - l2_fourier) <= 1e-12 * l2_fourier

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_poincare_unit_box(self, grid16, seed):
        u = random_band_limited(grid16, np.random.default_rng(seed), max_mode=5)
        n = norms(u)
        assert 4.0 * np.pi**2 * n["l2"] ** 2 <= n["grad_l2"] ** 2 * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_ut_moment_vanishes(self, grid16, seed):
        # holds for arbitrary periodic fields, full white-noise spectrum
        rng = np.random.default_rng(seed)
        u = ScalarField(grid16, rng.standard_normal(grid16.shape))
        ut = derivative(u, "t", 1)
        bound = 1e-12 * norms(u)["l2"] * max(norms(ut)["l2"], 1e-30)
        assert abs(integrate(u * ut)) <= max(bound, 1e-15)


# grids of both parities: each axis even, each odd, and mixed
PARITY_SHAPES = [(16, 16, 16), (9, 9, 9), (15, 11, 13), (8, 9, 10), (9, 8, 9)]


def _white(shape, seed):
    return ScalarField(GridSpec(*shape), np.random.default_rng(seed).standard_normal(shape))


class TestParityConventions:
    @pytest.mark.parametrize("shape", PARITY_SHAPES, ids=str)
    def test_first_derivatives_are_skew(self, shape):
        # integral of v d_a u = -integral of u d_a v on the full spectrum
        u, v = _white(shape, 1), _white(shape, 2)
        for axis in AXES:
            left = integrate(v * derivative(u, axis, 1))
            right = integrate(u * derivative(v, axis, 1))
            scale = norms(u)["l2"] * norms(derivative(v, axis, 1))["l2"]
            assert abs(left + right) <= 1e-13 * scale

    @pytest.mark.parametrize("shape", PARITY_SHAPES, ids=str)
    def test_integration_by_parts_defect(self, shape):
        # integral of (u_xx u_yy - u_xy^2) + (u_xx u_tt - u_xt^2) vanishes for
        # every u on an odd grid; on white noise over a grid with an even axis
        # the Nyquist planes leave an order-one defect
        u = _white(shape, 3)
        ux = derivative(u, "x", 1)
        uxx = derivative(u, "x", 2)
        terms = (
            uxx * derivative(u, "y", 2),
            -(derivative(ux, "y", 1) * derivative(ux, "y", 1)),
            uxx * derivative(u, "t", 2),
            -(derivative(ux, "t", 1) * derivative(ux, "t", 1)),
        )
        defect = abs(integrate(terms[0] + terms[1] + terms[2] + terms[3]))
        scale = sum(integrate(t.with_values(np.abs(t.values))) for t in terms)
        if all(n % 2 for n in shape):
            assert defect <= 1e-13 * scale
        else:
            assert defect >= 1e-2 * scale

    @pytest.mark.parametrize("shape,max_mode", [((9, 9, 9), 4), ((8, 9, 10), 3)])
    def test_band_limited_guard_by_parity(self, rng, shape, max_mode):
        grid = GridSpec(*shape)
        u = random_band_limited(grid, rng, max_mode=max_mode)
        assert abs(mean(u)) <= 1e-15
        with pytest.raises(ValueError, match="Nyquist"):
            random_band_limited(grid, rng, max_mode=max_mode + 1)


class TestArithmeticAndCompatibility:
    def test_grid_mismatch_raises(self, grid8, grid16):
        a = ScalarField.zeros(grid8)
        b = ScalarField.zeros(grid16)
        with pytest.raises(GridMismatchError):
            _ = a + b

    def test_period_difference_is_a_mismatch(self):
        a = ScalarField.zeros(GridSpec(8, 8, 8, L_x=1.0))
        b = ScalarField.zeros(GridSpec(8, 8, 8, L_x=2.0))
        with pytest.raises(GridMismatchError):
            _ = a * b

    def test_shape_mismatch_raises(self, grid8):
        with pytest.raises(ValueError, match=r"values shape \(8, 8, 9\) does not match grid \(8, 8, 8\)"):
            ScalarField(grid8, np.zeros((8, 8, 9)))

    def test_reflected_subtraction(self, grid8, rng):
        u = ScalarField(grid8, rng.standard_normal(grid8.shape))
        assert np.array_equal((2.0 - u).values, 2.0 - u.values)

    def test_repr_names_grid_periods_and_sup(self):
        u = ScalarField.constant(GridSpec(8, 8, 6, L_t=2.0), -3.0)
        assert repr(u) == "ScalarField(grid=(8, 8, 6), periods=(1.0, 1.0, 2.0), sup=3.000e+00)"

    def test_immutability(self, grid8):
        u = ScalarField.zeros(grid8)
        with pytest.raises(AttributeError):
            u.values = np.ones(grid8.shape)
        with pytest.raises(ValueError):
            u.values[0, 0, 0] = 1.0

    @pytest.mark.parametrize("layout", ["fortran", "float32"])
    def test_values_are_an_own_c_ordered_float64_copy(self, grid8, rng, layout):
        source = rng.standard_normal(grid8.shape)
        source = np.asfortranarray(source) if layout == "fortran" else source.astype(np.float32)
        u = ScalarField(grid8, source)
        assert u.values.dtype == np.float64 and u.values.flags.c_contiguous
        assert not u.values.flags.writeable
        assert np.array_equal(u.values, source.astype(np.float64))
        before = u.values.copy()
        source[0, 0, 0] += 1.0
        assert np.array_equal(u.values, before)


class TestDumpFormat:
    def test_round_trip_bitwise(self, grid8, rng, tmp_path):
        u = ScalarField(grid8, rng.standard_normal(grid8.shape))
        path = tmp_path / "u.field"
        write_field(u, path)
        v = read_field(path)
        assert v.grid == u.grid
        assert np.array_equal(v.values, u.values)

    def test_header_and_order(self, tmp_path):
        g = GridSpec(4, 4, 4, L_x=math.sqrt(2.0))
        X, _, _ = g.meshgrid()
        u = ScalarField(g, X)  # value = x coordinate
        path = tmp_path / "u.field"
        write_field(u, path)
        lines = path.read_text().splitlines()
        assert lines[0].split()[:3] == ["4", "4", "4"]
        assert float(lines[0].split()[3]) == math.sqrt(2.0)
        # x varies fastest: first four values run through the x coordinates
        step = math.sqrt(2.0) / 4
        assert [float(v) for v in lines[1:5]] == pytest.approx(
            [0.0, step, 2 * step, 3 * step]
        )
        assert float(lines[5]) == 0.0  # then y increments, x resets

    @pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
    def test_text_matches_per_value_formatting(self, tmp_path, monkeypatch, case):
        # the case's values lead the dump in x-fastest order, and normals follow
        special, chunk_offset = _FORMAT_CASES[case]
        n_t = max(4, math.ceil(len(special) / 48))
        g = GridSpec(6, 8, n_t, L_x=math.sqrt(5.0), L_t=0.3)
        if chunk_offset is not None:
            monkeypatch.setattr(field, "_CHUNK", 6 * 8 * n_t - chunk_offset)
        values = np.random.default_rng(17).standard_normal(g.n_x * g.n_y * g.n_t)
        values[:len(special)] = special
        values = values.reshape(g.shape, order="F")
        path = tmp_path / "u.field"
        write_field(ScalarField(g, values), path)
        lines = [f"6 8 {n_t} {math.sqrt(5.0):.17g} 1 0.29999999999999999"]
        lines.extend(f"{v:.17g}" for v in values.ravel(order="F"))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(
        n_t=st.integers(4, 9),
        data=st.data(),
    )
    def test_any_finite_values_match_per_value_formatting(self, tmp_path_factory, n_t, data):
        g = GridSpec(4, 4, n_t)
        values = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=g.n_x * g.n_y * n_t,
            max_size=g.n_x * g.n_y * n_t)))
        path = tmp_path_factory.mktemp("dump") / "u.field"
        write_field(ScalarField(g, values.reshape(g.shape, order="F")), path)
        lines = [f"4 4 {n_t} 1 1 1"]
        lines.extend(f"{v:.17g}" for v in values)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = read_field(path).values.ravel(order="F")
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_a_48_cubed_dump_peaks_below_the_per_value_formatting(self, tmp_path):
        # ("%.17g\n" * n) % tuple(values), which this writer replaced,
        # peaked at 7.88 MiB of traced allocations on this dump
        import tracemalloc

        g = GridSpec(48, 48, 48)
        u = random_band_limited(g, np.random.default_rng(3), amplitude=0.3)
        write_field(ScalarField.zeros(GridSpec(4, 4, 4)), tmp_path / "warm.field")  # the tables
        tracemalloc.start()
        try:
            write_field(u, tmp_path / "u.field")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.9 * 2**20

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("4 4\n")
        with pytest.raises(ValueError, match="header"):
            read_field(path)

    @pytest.mark.parametrize(
        "header, reason",
        [
            ("8 8 8.5 1 1 1", "invalid literal for int"),
            ("8 8 8 1 1 -1", "L_t must be a positive finite real"),
        ],
        ids=["count", "period"],
    )
    def test_header_error_names_the_dump(self, tmp_path, header, reason):
        path = tmp_path / "head.field"
        path.write_text(header + "\n" + "0.0\n" * 512)
        with pytest.raises(ValueError, match=f"head.field: malformed field dump header .*{reason}"):
            read_field(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "short.field"
        path.write_text("4 4 4 1 1 1\n" + "0.0\n" * 10)
        with pytest.raises(ValueError, match="expected 64 values"):
            read_field(path)

    def test_rejects_malformed_value(self, tmp_path):
        path = tmp_path / "typo.field"
        path.write_text("4 4 4 1 1 1\n" + "0.0\n" * 40 + "0.O\n" + "0.0\n" * 23)
        with pytest.raises(ValueError, match="typo.field: malformed field dump values"):
            read_field(path)

    def test_blank_body_has_no_values(self, tmp_path):
        path = tmp_path / "blank.field"
        path.write_text("4 4 4 1 1 1\n \n")
        with pytest.raises(ValueError, match="expected 64 values, found 0"):
            read_field(path)

    def test_round_trip_random_bit_patterns(self, tmp_path):
        # every finite double, subnormals, signed zeros and the extremes
        # included, comes back with the same bits
        g = GridSpec(16, 16, 16)
        bits = np.random.default_rng(29).integers(0, 2**64, size=g.shape, dtype=np.uint64)
        values = bits.view(np.float64).copy()
        values[~np.isfinite(values)] = 1.0
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        values.reshape(-1)[:8] = [0.0, -0.0, 5e-324, -5e-324, tiny, tiny - 5e-324, big, -big]
        path = tmp_path / "bits.field"
        write_field(ScalarField(g, values), path)
        back = read_field(path).values
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


class TestResample:
    def test_upsample_band_limited_exact(self, rng):
        g1 = GridSpec(8, 8, 8)
        g2 = GridSpec(16, 16, 16)
        u = random_band_limited(g1, rng, max_mode=3)
        v = resample(u, g2)
        exact = evaluate(u, *g2.meshgrid())
        assert np.allclose(v.values, exact, atol=1e-13)

    def test_up_down_round_trip(self, rng):
        g1 = GridSpec(8, 8, 8)
        g2 = GridSpec(16, 12, 20)
        u = random_band_limited(g1, rng, max_mode=3)
        v = resample(resample(u, g2), g1)
        assert np.allclose(v.values, u.values, atol=1e-13)

    @pytest.mark.parametrize(
        "coarse,fine",
        [((9, 9, 9), (16, 17, 20)), ((8, 9, 10), (11, 12, 13)), ((9, 8, 7), (25, 16, 14))],
        ids=str,
    )
    def test_round_trip_both_parities(self, coarse, fine):
        # white noise on the coarse grid: its even axes carry a Nyquist mode,
        # which upsampling splits and downsampling folds back
        u = _white(coarse, 4)
        g = GridSpec(*fine)
        v = resample(u, g)
        assert np.max(np.abs(v.values - evaluate(u, *g.meshgrid()))) <= 1e-13
        assert np.max(np.abs(resample(v, u.grid).values - u.values)) <= 1e-13

    @pytest.mark.parametrize("fine,coarse", [((16, 16, 16), (9, 9, 9)), ((12, 9, 10), (7, 5, 6))], ids=str)
    def test_downsampling_truncates(self, fine, coarse):
        # resolved modes pass exactly, modes above the coarse band vanish
        g_fine, g_coarse = GridSpec(*fine), GridSpec(*coarse)
        kept = sample(lambda x, y, t: np.cos(TAU * 2 * x) * np.sin(TAU * y + 0.3), g_fine)
        dropped = sample(lambda x, y, t: np.sin(TAU * 5 * x) * np.cos(TAU * 4 * t), g_fine)
        want = sample(lambda x, y, t: np.cos(TAU * 2 * x) * np.sin(TAU * y + 0.3), g_coarse)
        got = resample(kept + dropped, g_coarse)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @pytest.mark.parametrize(
        "source,target",
        [
            ((9, 9, 9), (16, 17, 20)), ((16, 17, 20), (9, 9, 9)),  # odd up to mixed, and back down
            ((8, 10, 12), (13, 15, 17)), ((13, 15, 17), (8, 10, 12)),  # even up to odd, odd down to even
            ((8, 9, 10), (12, 14, 16)), ((12, 14, 16), (8, 9, 10)),  # even to even both ways
            ((10, 7, 6), (6, 11, 10)),  # down and up at once
            ((16, 16, 16), (16, 16, 9)),  # even axes kept at their size
        ],
        ids=str,
    )
    def test_matches_the_interpolant_remap(self, source, target):
        # the real-transform remap against the signed-mode one it replaces:
        # keep |m| <= n_new / 2, split an even source's Nyquist mode, fold
        # +-n_new/2 onto an even target's, on white noise (every mode set)
        periods = (2.0, 0.5, 3.0)
        u = ScalarField(GridSpec(*source, *periods), np.random.default_rng(7).standard_normal(source))
        grid = GridSpec(*target, *periods)
        coeffs, modes = interpolant_modes(u)
        keep = [np.abs(k) <= n // 2 for k, n in zip(modes, grid.shape)]
        want = synthesize(grid, coeffs[np.ix_(*keep)], np.ix_(*(k[kept] for k, kept in zip(modes, keep))))
        assert np.max(np.abs(resample(u, grid).values - want.values)) <= 1e-14

    def test_period_mismatch_rejected(self, grid8, rng):
        u = random_band_limited(grid8, rng)
        with pytest.raises(GridMismatchError):
            resample(u, GridSpec(16, 16, 16, L_x=2.0))


class TestSynthesize:
    @pytest.mark.parametrize("data, cell", [((9, 8, 9), (11, 10, 6)), ((8, 9, 8), (7, 12, 5))], ids=str)
    def test_a_remapped_t_mode_wraps_into_the_half_layout(self, data, cell):
        # the rotated pullback keeps k_t; k_t -> 2 k_t wraps t modes past
        # n_t // 2 on either side, onto an even and an odd cell axis: the
        # field at (x, y, t) is the interpolant at (x, y, 2 t mod 1)
        u = ScalarField(GridSpec(*data), np.random.default_rng(11).standard_normal(data))
        grid = GridSpec(*cell)
        coeffs, (kx, ky, kt) = interpolant_modes(u)
        got = synthesize(grid, coeffs, np.ix_(kx, ky, 2 * kt))
        X, Y, T = grid.meshgrid()
        want = evaluate(u, X, Y, np.mod(2.0 * T, 1.0))
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


class TestEvaluate:
    def test_on_grid_points_reproduce_samples(self, grid8, rng):
        u = ScalarField(grid8, rng.standard_normal(grid8.shape))
        X, Y, T = grid8.meshgrid()
        vals = evaluate(u, X, Y, T)
        assert np.allclose(vals, u.values, atol=1e-12)

    def test_off_grid_single_mode(self, grid8):
        u = sample(lambda x, y, t: np.sin(TAU * x) * np.cos(TAU * t), grid8)
        pts = np.array([0.1234, 0.777, 0.5])
        got = evaluate(u, pts[0], pts[1], pts[2])
        assert got == pytest.approx(np.sin(TAU * 0.1234) * np.cos(TAU * 0.5), abs=1e-13)

    def test_periodic_wrap(self, grid8, rng):
        u = random_band_limited(grid8, rng, max_mode=3)
        x = np.array([0.3, 0.3 + 1.0, 0.3 - 2.0])
        got = evaluate(u, x, np.full(3, 0.2), np.full(3, 0.9))
        assert np.allclose(got, got[0], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_point(self, grid8, rng, bad):
        # an infinite coordinate has no remainder modulo the period, and a
        # nan one would return nan
        u = random_band_limited(grid8, rng, max_mode=3)
        x = np.array([0.1, 0.2, bad, bad])
        with pytest.raises(ValueError, match=rf"non-finite point \({bad}, 0.5, 0.25\) at index \(2,\)"):
            evaluate(u, x, 0.5, 0.25)


class TestGradientHelper:
    def test_matches_componentwise(self, grid8, rng):
        u = random_band_limited(grid8, rng, max_mode=3)
        ux, uy, ut = gradient(u)
        assert np.array_equal(ux.values, derivative(u, "x", 1).values)
        assert np.array_equal(uy.values, derivative(u, "y", 1).values)
        assert np.array_equal(ut.values, derivative(u, "t", 1).values)


_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ktcy"
_FFT_MODULES = {"numpy.fft", "scipy.fft"}


def _fft_references(source: str) -> list:
    """Lines of ``source`` that name numpy.fft or scipy.fft, as np.fft,
    numpy.fft, scipy.fft or an import of either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            named = node.value
            if isinstance(named, ast.Name) and named.id in ("np", "numpy", "scipy"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name in _FFT_MODULES for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module in _FFT_MODULES or any(
                f"{node.module}.{alias.name}" in _FFT_MODULES for alias in node.names
            ):
                lines.append(node.lineno)
    return sorted(lines)


class TestSpectralSeam:
    """Only ``field`` chooses the FFT backend and the layout of spectra."""

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "field.py")
    )
    def test_no_fft_outside_field(self, module):
        assert _fft_references((_PACKAGE / module).read_text()) == []

    @pytest.mark.parametrize(
        "source",
        ["np.fft.rfftn(a)", "numpy.fft.irfftn(a)", "scipy.fft.rfftn(a)", "import numpy.fft",
         "import scipy.fft as sf", "from numpy import fft", "from scipy.fft import rfftn",
         "from numpy.fft import irfftn"],
    )
    def test_guard_sees_every_spelling(self, source):
        assert _fft_references(source) == [1]

    def test_field_is_the_backend(self):
        assert _fft_references((_PACKAGE / "field.py").read_text())


class TestSinglePrecision:
    """The seam's float32 path, which the Krylov solve runs on."""

    ANGLE = (0.6, 0.8)

    def test_single_keeps_complex_symbols_complex(self):
        # the d_t part of yy_tt_t and the L0^{-1} symbol are complex: a real
        # single-precision cast would drop d_t without an error
        grid = GridSpec(9, 8, 10)
        table = operator_symbols(grid, self.ANGLE)
        assert np.iscomplexobj(table.yy_tt_t) and np.iscomplexobj(table.flat_inverse)
        for symbol in table:
            single = _single(symbol)
            assert single.dtype == (np.complex64 if np.iscomplexobj(symbol) else np.float32)
            assert np.allclose(single, symbol, rtol=1e-6, atol=0.0)

    def test_transforms_keep_the_precision_of_their_input(self, rng):
        grid = GridSpec(9, 8, 10)
        values = rng.standard_normal(grid.shape)
        symbols = operator_symbols(grid)
        spec = _spectrum(values.astype(np.float32))
        assert spec.dtype == np.complex64
        out = _from_spectrum(spec, _single(symbols.yy_tt_t), grid)
        want = _from_spectrum(_spectrum(values), symbols.yy_tt_t, grid)
        assert out.dtype == np.float32 and want.dtype == np.float64
        assert np.max(np.abs(out - want)) <= 1e-5 * np.max(np.abs(want))


def test_import_leaves_scipy_fft_unloaded(tmp_path):
    # scipy.fft, which pulls in scipy.special, is imported by the first
    # single-precision transform and GMRES by the first linear solve, so
    # importing the package loads neither; the dump writer builds its tables
    # with integer arithmetic, so a dump loads neither fractions nor decimal
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, ktcy; print([m for m in ('scipy.fft', 'scipy.sparse') if m in sys.modules]); "
         "ktcy.write_field(ktcy.ScalarField.constant(ktcy.GridSpec(8, 8, 8), 0.1), sys.argv[1]); "
         "print([m for m in ('fractions', 'decimal', 'scipy.fft') if m in sys.modules])",
         str(tmp_path / "u.field")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "[]", ""]
