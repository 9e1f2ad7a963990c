import copy
import math
import pickle
import sys
import threading
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from poisson_stencils import _kernel, simulator, stability
from poisson_stencils.benchmarks import TABLE_BC, TABLES, run_table
from poisson_stencils.quadrature import LambdaPoly
from poisson_stencils.scheme import NAMED_SCHEMES, SchemeSpec, evaluated, named_scheme
from poisson_stencils.stability import envelope, lambda_max, symbol
from poisson_stencils.simulator import (
    DegenerateNormError,
    Separable,
    SimConfig,
    SimReport,
    _Stepper,
    dump_grid_csv,
    exact_standing_wave,
    first_step,
    relative_l2_error,
    run,
    standing_wave_initial_u,
    standing_wave_initial_v,
    two_step,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def p5():
    return named_scheme("P5")


@pytest.fixture(scope="module")
def p13():
    return named_scheme("P13")


class TestExactStandingWave:
    def test_peak_value(self):
        t_peak = 1.0 / (4.0 * SQRT2)  # sin(2*sqrt(2)*pi*t) = 1
        assert exact_standing_wave(0.25, 0.25, t_peak) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_on_boundary_and_at_t0(self):
        assert exact_standing_wave(0.0, 0.37, 0.9) == pytest.approx(0.0, abs=1e-12)
        assert exact_standing_wave(0.6, 0.2, 0.0) == 0.0

    def test_initial_velocity_is_time_derivative_at_zero(self):
        eps = 1e-7
        x1, x2 = 0.3, 0.8
        fd = (exact_standing_wave(x1, x2, eps) - exact_standing_wave(x1, x2, -eps)) / (2 * eps)
        assert standing_wave_initial_v(x1, x2) == pytest.approx(fd, rel=1e-6)


class TestFirstStep:
    def test_zero_fields_stay_zero(self, p5):
        z = np.zeros((11, 11))
        assert not first_step(z, z, p5, 0.707, 0.0707, "dirichlet").any()

    def test_constant_displacement_preserved_periodic(self, p5):
        u0 = np.ones((11, 11))
        v0 = np.zeros((11, 11))
        out = first_step(u0, v0, p5, 0.6, 0.06, "periodic")
        assert out == pytest.approx(np.ones((11, 11)), abs=1e-14)

    def test_benchmark_first_step_error(self, p5):
        report = run(SimConfig(scheme=p5, n=10, n_t=1, lam=0.707))
        assert report.error == pytest.approx(9.0843e-4, rel=1e-2)

    def test_dirichlet_radius_two_first_step(self, p13):
        # The standing wave's first step at n = 10, to within P13's error
        # there, with the boundary ring at exact +0.0.
        x1, x2 = np.meshgrid(np.arange(11) / 10, np.arange(11) / 10, indexing="ij")
        out = first_step(np.zeros((11, 11)), standing_wave_initial_v(x1, x2), p13, 0.707, 0.0707)
        assert out == pytest.approx(exact_standing_wave(x1, x2, 0.0707), abs=1e-4)
        ring = np.r_[out[[0, -1], :].ravel(), out[:, [0, -1]].ravel()]
        assert not ring.any() and not np.signbit(ring).any()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (2, 2, 2)])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_fields_must_be_square_grids(self, p5, shape, bc):
        field = np.ones(shape)
        with pytest.raises(ValueError):
            first_step(field, np.zeros(shape), p5, 0.5, 0.1, bc)
        with pytest.raises(ValueError):
            two_step(field, field, p5, 0.5, bc)

    def test_field_shapes_must_agree(self, p5):
        with pytest.raises(ValueError, match="one shape"):
            first_step(np.ones((5, 5)), np.zeros((6, 6)), p5, 0.5, 0.1)


class TestTwoStep:
    def test_constants_preserved_periodic(self, p5):
        c0 = 2.5 * np.ones((9, 9))
        out = two_step(c0, c0, p5, 0.5, "periodic")
        assert out == pytest.approx(c0, abs=1e-13)

    def test_reversal_of_previous_field(self, p5):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(9, 9))
        out = two_step(np.zeros((9, 9)), g, p5, 0.5, "periodic")
        # periodic updates read only the core; compare there
        assert out[:8, :8] == pytest.approx(-g[:8, :8], abs=1e-14)

    def test_benchmark_ten_steps(self, p5):
        report = run(SimConfig(scheme=p5, n=10, n_t=10, lam=0.707))
        assert report.error == pytest.approx(9.1540e-4, rel=1e-2)

    def test_dirichlet_boundary_stays_zero(self, p5):
        rng = np.random.default_rng(5)
        u_k = rng.normal(size=(9, 9))
        u_km1 = rng.normal(size=(9, 9))
        out = two_step(u_k, u_km1, p5, 0.6, "dirichlet")
        assert not out[0, :].any() and not out[-1, :].any()
        assert not out[:, 0].any() and not out[:, -1].any()


class TestRun:
    def test_thirteen_point_periodic_benchmark(self, p13):
        report = run(SimConfig(scheme=p13, n=20, n_t=20, lam=0.707, bc="periodic"))
        assert report.error == pytest.approx(6.6004e-7, rel=5e-2)

    def test_conventional_five_point_benchmark(self):
        report = run(SimConfig(scheme=named_scheme("C5"), n=40, n_t=40, lam=0.707))
        assert report.error == pytest.approx(4.1234e-3, rel=1e-2)

    def test_conventional_nine_point_benchmark(self):
        report = run(SimConfig(scheme=named_scheme("C9"), n=20, n_t=20, lam=0.796))
        assert report.error == pytest.approx(2.7523e-2, rel=1e-2)

    def test_report_carries_per_step_errors_and_config(self, p5):
        config = SimConfig(scheme=p5, n=10, n_t=5, lam=0.707)
        report = run(config)
        assert len(report.per_step_errors) == 5
        assert report.config is config
        assert report.wall_time_s > 0

    def test_radius_two_dirichlet_equals_periodic(self):
        # The standing wave is odd about both boundaries, so on table 3's
        # rows a Dirichlet run repeats the periodic one up to roundoff.
        for name in ("P13", "C13"):
            spec = named_scheme(name)
            for n in (10, 20, 40, 80):
                errors = [
                    run(SimConfig(scheme=spec, n=n, n_t=n, lam=0.707, bc=bc)).error
                    for bc in ("dirichlet", "periodic")
                ]
                assert errors[0] == pytest.approx(errors[1], rel=1e-5)

    def test_degenerate_norm_reported(self, p5):
        zero = lambda _: 0.0
        config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.5, initial_u=Separable(zero, zero),
                           initial_v=Separable(zero, zero), exact=Separable(zero, zero, zero))
        with pytest.raises(DegenerateNormError):
            run(config)

    def test_a_step_whose_reference_vanishes_is_not_an_overflow(self, p5):
        # The reference is zero at step 1 only, so that step's error is nan
        # and run() still reports, where an overflowed step is refused.
        wave = exact_standing_wave
        exact = Separable(wave.x1, wave.x2, lambda t: wave.t(t) * (t - 0.0625))
        report = run(SimConfig(scheme=p5, n=8, n_t=3, lam=0.5, exact=exact))
        assert math.isnan(report.per_step_errors[0])
        assert all(map(math.isfinite, (report.error, *report.per_step_errors[1:])))

    def test_unstable_lambda_warns(self, p5):
        # The warning names run()'s caller, not the simulator.
        with pytest.warns(UserWarning, match="stable range") as caught:
            run(SimConfig(scheme=p5, n=8, n_t=2, lam=0.9))
        assert [warning.filename for warning in caught] == [__file__]

    def test_linearity_in_initial_data(self, p5):
        alpha = 3.5
        fields = {}
        for scale, key in ((1.0, "base"), (alpha, "scaled")):
            captured = []
            config = SimConfig(
                scheme=p5,
                n=8,
                n_t=4,
                lam=0.6,
                initial_v=Separable(lambda x, s=scale: s * _scaled_sine(x), _sine),
            )
            run(config, on_step=lambda k, f: captured.append(f))
            fields[key] = captured
        for base, scaled in zip(fields["base"], fields["scaled"]):
            assert scaled == pytest.approx(alpha * base, rel=1e-13, abs=1e-15)

    def test_swap_symmetry_preserved(self, p5):
        captured = []
        run(SimConfig(scheme=p5, n=12, n_t=6, lam=0.707), on_step=lambda k, f: captured.append(f))
        for field in captured:
            assert np.abs(field - field.T).max() <= 1e-12

    def test_zero_initial_data_stays_zero(self, p5):
        zero = Separable(lambda x: 0.0 * x, lambda x: 0.0 * x)
        captured = []
        run(
            SimConfig(scheme=p5, n=8, n_t=4, lam=0.6, initial_u=zero, initial_v=zero),
            on_step=lambda k, f: captured.append(f),
        )
        for field in captured:
            assert not field.any()

    def test_convergence_factor_at_least_eight(self, p5):
        errors = [
            run(SimConfig(scheme=p5, n=n, n_t=n, lam=0.707)).error for n in (10, 20, 40)
        ]
        assert errors[0] / errors[1] >= 8.0
        assert errors[1] / errors[2] >= 8.0

    def test_conventional_first_step_isolates_error_difference(self):
        # C13 and C5 share the first step u1 = tau*v0 when u0 = 0, so their
        # single-step errors coincide despite different stencils and boundaries
        e_c5 = run(SimConfig(scheme=named_scheme("C5"), n=10, n_t=1, lam=0.707)).error
        e_c13 = run(
            SimConfig(scheme=named_scheme("C13"), n=10, n_t=1, lam=0.707, bc="periodic")
        ).error
        assert e_c5 == pytest.approx(6.8938e-2, rel=1e-2)
        assert e_c13 == pytest.approx(e_c5, rel=1e-12)


class TestRelativeL2Error:
    def test_exact_fields_give_zero(self):
        n, tau = 8, 0.05
        coords = np.arange(n + 1) / n
        x1, x2 = np.meshgrid(coords, coords, indexing="ij")
        fields = [exact_standing_wave(x1, x2, k * tau) for k in range(1, 4)]
        assert relative_l2_error(fields, exact_standing_wave, tau) == 0.0

    def test_doubled_fields_give_one(self):
        n, tau = 8, 0.05
        coords = np.arange(n + 1) / n
        x1, x2 = np.meshgrid(coords, coords, indexing="ij")
        fields = [2.0 * exact_standing_wave(x1, x2, k * tau) for k in range(1, 4)]
        assert relative_l2_error(fields, exact_standing_wave, tau) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "fields,where",
        [
            ([np.full((9, 9), 1e200)], "step 1"),
            # Each step's sum of squares is finite (8.1e307), their total is not.
            ([np.full((9, 9), 1e153)] * 3, "all 3 steps together"),
        ],
    )
    def test_overflowed_sums_are_refused(self, fields, where):
        # Finite fields whose squares overflow returned inf, with a numpy
        # "overflow encountered in square" warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                relative_l2_error(fields, exact_standing_wave, 0.1)
        expected = f"the computed fields overflow: the error of {where} is not finite"
        assert str(refused.value) == expected

    def test_degenerate_norm(self):
        fields = [np.ones((5, 5))]
        zero = lambda *_: 0.0
        with pytest.raises(DegenerateNormError):
            relative_l2_error(fields, Separable(zero, zero, zero), 0.1)

    @pytest.mark.parametrize(
        "fields",
        [
            [np.ones((5, 5)), np.ones((1, 5))],
            [np.ones((5, 5)), np.ones(5)],
            [np.ones((5, 5)), 1.0],
            [np.ones((5, 5)), np.ones((6, 6))],
            [np.ones(5)],
            [1.0],
            [np.ones((1, 1))],
            [np.ones((4, 5))],
        ],
    )
    def test_fields_must_share_one_square_grid(self, kernels, fields):
        # A (1, 5) row used to broadcast against the 5 x 5 grid (E = 3.0017).
        for _, path in kernels:
            with path(), mock.patch.object(simulator, "_error_sums", side_effect=AssertionError):
                with pytest.raises(ValueError, match="square 2-D fields"):
                    relative_l2_error(fields, exact_standing_wave, 0.1)

    @pytest.mark.parametrize("shape", [(1, 5), (5,), (), (6, 6), (5, 4)])
    def test_error_sums_reject_a_field_off_the_grid(self, kernels, shape):
        # A field reaches the sums through relative_l2_error's grid check,
        # and does not broadcast.  The march's reference comes from its own
        # stepper's sampling, so no field or sine off the grid reaches it.
        grid = np.ones((5, 5))
        assert simulator._error_sums(grid, grid, 1.0, np.empty((2, 5, 5))) == (0.0, 25.0)
        for _, path in kernels:
            with path():
                with pytest.raises(ValueError, match="shape"):
                    relative_l2_error([grid, np.ones(shape)], exact_standing_wave, 0.1)

    def test_march_stays_within_the_sampled_steps(self, kernels, p5):
        # The stepper takes a reference sampled for n_t steps and writes each
        # step's sums into its own (n_t x 2) array; a march past them, or of
        # no steps, is refused before the kernel writes anything.
        ones = (np.ones(5), np.ones(5), np.ones(3))
        for _, path in kernels:
            with path():
                stepper = _Stepper(p5, 0.5, 4, "dirichlet", reference=ones)
                assert stepper.sums.shape == (3, 2)
                for steps in (0, -1, 4):
                    with pytest.raises(ValueError, match="can march 1 to 3 more steps"):
                        stepper.march(steps)
                stepper.march(2)
                with pytest.raises(ValueError, match="can march 1 to 1 more steps, got 2"):
                    stepper.march(2)
                stepper.march(1)
                assert stepper.step == 3
                assert stepper.sums.tolist() == [[25.0, 25.0]] * 3  # zero fields against ones
                with pytest.raises(ValueError, match="can march 1 to 0 more steps, got 1"):
                    stepper.march(1)
                assert stepper.step == 3

    def test_needs_a_field(self):
        with pytest.raises(ValueError, match="at least one computed field"):
            relative_l2_error([], exact_standing_wave, 0.1)

    def test_needs_a_field_from_any_iterable(self):
        # An empty iterator once failed to unpack the fields' shapes instead.
        for empty in ((), iter([]), (field for field in [])):
            with pytest.raises(ValueError, match="need at least one computed field"):
                relative_l2_error(empty, exact_standing_wave, 0.1)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="tau"):
            relative_l2_error([np.ones((5, 5))], exact_standing_wave, tau)


def test_dump_grid_csv_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(6, 6))
    path = tmp_path / "field.csv"
    dump_grid_csv(grid, path)
    text = path.read_text().strip().splitlines()
    assert len(text) == 6
    loaded = np.loadtxt(path, delimiter=",")
    assert loaded == pytest.approx(grid, abs=0, rel=1e-16)


def test_sim_config_validation(p5):
    bad_inputs = (
        {"n": 1},
        {"n": 8.5},
        {"n": 8.0},
        {"n_t": 0},
        {"n_t": 2.5},
        {"lam": -0.5},
        {"lam": math.nan},
        {"lam": math.inf},
        {"bc": "reflecting"},
        {"initial_u": None},
        {"initial_v": None},
        {"exact": None},
        {"exact": 0.0},
        {"exact": lambda x1, x2, t: exact_standing_wave(x1, x2, t)},
    )
    for bad in bad_inputs:
        kwargs = {"scheme": p5, "n": 10, "n_t": 1, "lam": 0.5, **bad}
        with pytest.raises(ValueError):
            SimConfig(**kwargs)
    # A Separable in space and time is no initial field: it failed inside
    # run() with a TypeError.  Nor is a plain function of (x1, x2), even one
    # with the default's values.  One in space alone is no reference.
    plain = lambda x1, x2: standing_wave_initial_v(x1, x2)
    for name in ("initial_u", "initial_v"):
        with pytest.raises(ValueError, match=f"^{name} must be a field of \\(x1, x2\\)"):
            SimConfig(scheme=p5, n=10, n_t=1, lam=0.5, **{name: exact_standing_wave})
        with pytest.raises(ValueError, match=f"^{name} must be a Separable, got <function"):
            SimConfig(scheme=p5, n=10, n_t=1, lam=0.5, **{name: plain})
    in_space = Separable(np.sin, np.sin)
    with pytest.raises(ValueError, match="^exact must be a Separable with a time factor"):
        SimConfig(scheme=p5, n=10, n_t=1, lam=0.5, exact=in_space)
    with pytest.raises(ValueError, match="^exact must be a Separable with a time factor"):
        relative_l2_error([np.ones((11, 11))], in_space, 0.1)
    config = SimConfig(scheme=p5, n=10, n_t=1, lam=0.5)
    assert config.tau == pytest.approx(0.05)
    assert SimConfig(scheme=p5, n=np.int64(10), n_t=np.int32(1), lam=0.5).n == 10


@pytest.mark.parametrize("scheme", ["P5", None])
def test_sim_config_refuses_a_scheme_that_is_not_a_spec(scheme):
    # A scheme name or None constructed, and run() then ended in an
    # AttributeError.
    with pytest.raises(ValueError, match="^scheme must be a SchemeSpec"):
        SimConfig(scheme=scheme, n=4, n_t=2, lam=0.5)


@pytest.mark.parametrize("scheme", ["P5", None])
def test_public_steps_refuse_a_scheme_that_is_not_a_spec(scheme):
    # Both ended in an AttributeError on the name's missing radius.
    field = np.ones((5, 5))
    with pytest.raises(ValueError, match="^scheme must be a SchemeSpec"):
        first_step(field, field, scheme, 0.5, 0.1)
    with pytest.raises(ValueError, match="^scheme must be a SchemeSpec"):
        two_step(field, field, scheme, 0.5)


def test_run_refuses_a_table_outside_the_stability_analysis_that_the_steps_march(kernels, p5):
    # run() takes the stability envelope for its warning, and the envelope
    # refuses a two-step table outside the exact analysis, here one with
    # (2, 1) offsets; first_step and two_step take no envelope and march it.
    knight = LambdaPoly({4: Fraction(1, 12)})
    table = {**p5.two_step, **dict.fromkeys([(2, 1), (-2, 1), (2, -1), (-2, -1)], knight)}
    wide = SchemeSpec(name="wide", first_u=p5.first_u, first_v=p5.first_v, two_step=table)
    for bc in ("dirichlet", "periodic"):
        with pytest.raises(ValueError, match="outside the exact stability analysis"):
            run(SimConfig(scheme=wide, n=8, n_t=2, lam=0.5, bc=bc))
    impulse = np.zeros((9, 9))
    impulse[4, 4] = 1.0
    for _, path in kernels:
        with path():
            first = first_step(impulse, impulse, wide, 0.5, 0.5 / 8)
            marched = two_step(impulse, np.zeros((9, 9)), wide, 0.5, "periodic")
        assert np.isfinite(first).all()
        assert [marched[4 + q1, 4 + q2] for q1, q2 in [(2, 1), (-2, 1), (2, -1), (-2, -1)]] == [
            float(knight(0.5))] * 4
        assert marched[5, 6] == 0.0


def _wide_p5():
    """P5 with the eight (+-2, +-1) and (+-1, +-2) offsets and (+-3, 0) and
    (0, +-3) added at coefficient 1 to each of its three tables."""
    p5 = named_scheme("P5")
    wide = [(2, 1), (-2, 1), (2, -1), (-2, -1), (1, 2), (-1, 2), (1, -2), (-1, -2),
            (3, 0), (-3, 0), (0, 3), (0, -3)]
    one = dict.fromkeys(wide, LambdaPoly.constant(1))
    return SchemeSpec(name="wide", first_u={**p5.first_u, **one},
                      first_v={**p5.first_v, **one}, two_step={**p5.two_step, **one})


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
@pytest.mark.parametrize("name", [*NAMED_SCHEMES, "wide"])
def test_public_steps_read_the_odd_extension_of_their_fields(kernels, reference_step, name, bc):
    # A field's ghosts are its odd extension (Dirichlet) or its wrap mod n
    # (periodic), ring included.  Ghost rows were once filled over the core
    # columns only, so where a ghost row met a boundary column a first
    # field's buffer held 0.0: a Dirichlet step whose table reaches such a
    # node, through an offset with |q1| >= 2 and q2 != 0 or one wider than
    # n, was off by O(1).
    spec = _wide_p5() if name == "wide" else named_scheme(name)
    lam, rng = 0.5, np.random.default_rng(33)
    for n in range(2, 10):
        u, w = rng.standard_normal((2, n + 1, n + 1))
        tau = lam / n
        first = reference_step(spec, lam, bc, u, w, tau).tobytes()
        two = reference_step(spec, lam, bc, u, w).tobytes()
        for isa, path in kernels:
            with path():
                assert first_step(u, w, spec, lam, tau, bc).tobytes() == first, (isa, n)
                assert two_step(u, w, spec, lam, bc).tobytes() == two, (isa, n)


@pytest.mark.parametrize(
    "key, value",
    [
        ("bc", "Periodic"),
        ("bc", "reflecting"),
        ("lam", math.nan),
        ("lam", math.inf),
        ("lam", -0.5),
        ("lam", 0.0),
        ("tau", math.nan),
        ("tau", math.inf),
        ("tau", -math.inf),
    ],
)
def test_public_steps_validate_like_sim_config(p5, key, value):
    # The steps share SimConfig's checks on lambda and bc, and first_step
    # also rejects a non-finite time step, instead of returning nan fields.
    args = {"spec": p5, "lam": 0.5, "bc": "periodic", "tau": 0.1, key: value}
    field = np.ones((5, 5))
    with pytest.raises(ValueError):
        first_step(field, field, **args)
    if key != "tau":
        del args["tau"]
        with pytest.raises(ValueError):
            two_step(field, field, **args)


@pytest.mark.parametrize("name, bc", [("P5", "dirichlet"), ("P13", "periodic")])
def test_run_error_is_relative_l2_error_of_its_fields(kernels, name, bc):
    # run() and relative_l2_error share one error sum, bit for bit: the whole
    # run, from a list or a generator of its fields, and step k alone as a
    # one-field run with time step k * tau; and every kernel gives the same run.
    config = SimConfig(scheme=named_scheme(name), n=12, n_t=7, lam=0.6, bc=bc)
    reports = []
    for _, path in kernels:
        captured = []
        with path():
            report = run(config, on_step=lambda k, f: captured.append(f))
        assert report.error == relative_l2_error(captured, exact_standing_wave, config.tau)
        generated = relative_l2_error((f for f in captured), exact_standing_wave, config.tau)
        assert generated.hex() == report.error.hex()
        assert report.per_step_errors == tuple(
            relative_l2_error([f], exact_standing_wave, k * config.tau)
            for k, f in enumerate(captured, start=1)
        )
        reports.append((report.error, report.per_step_errors))
    assert len(set(reports)) == 1


@pytest.mark.parametrize("name, bc", [("P5", "dirichlet"), ("P13", "periodic")])
def test_a_separable_reference_marches_in_one_call_with_the_default_bits(
    kernels, rewrapped_wave, name, bc
):
    # Any Separable reference takes the default's path: one compiled march
    # call for the whole run, and with the standing wave's values from new
    # functions, the default's bits on every kernel.
    default = SimConfig(scheme=named_scheme(name), n=24, n_t=9, lam=0.7, bc=bc)
    for _, path in kernels:
        with path():
            want = run(default)
            kernel, calls = _kernel.load(), []

            def march(*args):
                calls.append(args)
                return kernel.march(*args)

            counted = None if kernel is None else _kernel.Kernel(kernel.isa, march, None)
            with mock.patch.object(_kernel, "load", lambda: counted):
                got = run(replace(default, exact=rewrapped_wave))
        assert len(calls) == (kernel is not None)
        assert got.error.hex() == want.error.hex()
        assert [e.hex() for e in got.per_step_errors] == [e.hex() for e in want.per_step_errors]


def test_exact_must_be_separable(p5):
    # A plain callable, even one with the standing wave's values, is refused
    # where it enters: by SimConfig and by relative_l2_error.
    plain = lambda x1, x2, t: exact_standing_wave(x1, x2, t)
    with pytest.raises(ValueError, match="exact must be a Separable"):
        SimConfig(scheme=p5, n=8, n_t=3, lam=0.5, exact=plain)
    with pytest.raises(ValueError, match="exact must be a Separable"):
        relative_l2_error([np.zeros((9, 9))], plain, 0.1)
    for factors in ((None, np.sin, np.sin), (np.sin, 1.0, np.sin), (np.sin, np.sin, "t")):
        with pytest.raises(ValueError, match="must be a function"):
            Separable(*factors)


def test_another_reference_overflows_with_the_stability_warning_alone(kernels, rewrapped_wave):
    # An overflowed march ends in run()'s ValueError at the same step on
    # every kernel and with any reference, with no numpy RuntimeWarning: the
    # compiled march warns of nothing, and run() silences the numpy march.
    for name, path in kernels:
        for exact in (exact_standing_wave, rewrapped_wave):
            with path(), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="the error of step 94 is not finite"):
                    run(SimConfig(scheme=named_scheme("P5"), n=8, n_t=100, lam=3.0, exact=exact))
            assert [warning.category for warning in caught] == [UserWarning], name


def test_sim_config_copies_and_pickles(p13):
    config = SimConfig(scheme=p13, n=10, n_t=3, lam=0.5, bc="periodic")
    for clone in (copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
        assert clone == config and hash(clone) == hash(config)
        assert list(clone.scheme.two_step) == list(p13.two_step)
        assert list(clone.scheme.first_u) == list(p13.first_u)


def test_on_step_fields_match_public_steps(p5, p13):
    # run() and first_step/two_step share one kernel, and on_step gets copies
    # that later steps do not overwrite.
    for spec, bc in ((p5, "dirichlet"), (p13, "periodic")):
        config = SimConfig(scheme=spec, n=9, n_t=5, lam=0.6, bc=bc)
        captured = []
        run(config, on_step=lambda k, f: captured.append(f))
        coords = np.arange(10) / 9
        x1, x2 = np.meshgrid(coords, coords, indexing="ij")
        u_prev = np.zeros((10, 10))
        u_curr = first_step(u_prev, standing_wave_initial_v(x1, x2), spec, 0.6, config.tau, bc)
        expected = [u_curr]
        for _ in range(4):
            u_prev, u_curr = u_curr, two_step(u_curr, u_prev, spec, 0.6, bc)
            expected.append(u_curr)
        assert len(captured) == len(expected)
        for got, want in zip(captured, expected):
            assert np.array_equal(got, want)


def one(x):
    return 1.0


def growing(t):
    return t


growing_reference = Separable(one, one, growing)


def test_run_reports_its_phases(p5, p13):
    # Fixed phase names in order, each a wall time >= 0, summing to at most
    # the run's wall time, on the one-call march and on the step-by-step
    # one, with the default reference and another: the set-up and the
    # error apart from the sampling and the march.
    configs = (
        SimConfig(scheme=p5, n=12, n_t=5, lam=0.6),
        SimConfig(scheme=p13, n=12, n_t=5, lam=0.6, bc="periodic", exact=growing_reference),
    )
    for config in configs:
        for on_step in (None, lambda k, field: None):
            report = run(config, on_step=on_step)
            names = [name for name, _ in report.phases]
            assert names == ["envelope", "sample", "setup", "march", "error"]
            assert all(seconds >= 0.0 for _, seconds in report.phases)
            assert sum(seconds for _, seconds in report.phases) <= report.wall_time_s
            assert pickle.loads(pickle.dumps(report)).phases == report.phases
    bare = SimReport(error=0.0, per_step_errors=(), wall_time_s=0.0, config=configs[0])
    assert bare.phases == ()


def test_report_names_the_kernel_that_ran(kernels, p13):
    # Each compiled variant reports its instruction set, the numpy path
    # "numpy", on the one-call march and on the step-by-step one.
    config = SimConfig(scheme=p13, n=12, n_t=3, lam=0.6, bc="periodic")
    for name, path in kernels:
        with path():
            assert run(config).kernel == name
            assert run(config, on_step=lambda k, field: None).kernel == name
    assert kernels[-1][0] == "numpy"
    assert SimReport(error=0.0, per_step_errors=(), wall_time_s=0.0, config=config).kernel == ""


@pytest.mark.parametrize("name, n, bc, last", [("P5", 12, "dirichlet", 24),
                                               ("P13", 16, "periodic", 20),
                                               ("C9", 20, "dirichlet", 24)])
def test_each_running_error_is_the_error_of_the_run_cut_there(kernels, name, n, bc, last):
    # Entry m - 1 of a run of `last` steps has the bits of E of the same
    # run of m steps, on every kernel, and the per-step errors are a prefix.
    spec = named_scheme(name)
    for isa, path in kernels:
        with path():
            report = run(SimConfig(scheme=spec, n=n, n_t=last, lam=0.6, bc=bc))
            assert len(report.running_errors) == last == len(report.per_step_errors)
            assert report.running_errors[-1].hex() == report.error.hex()
            for m in range(1, last + 1):
                cut = run(SimConfig(scheme=spec, n=n, n_t=m, lam=0.6, bc=bc))
                assert report.running_errors[m - 1].hex() == cut.error.hex(), (isa, m)
                assert [*map(float.hex, report.per_step_errors[:m])] == [
                    *map(float.hex, cut.per_step_errors)], (isa, m)


def test_a_running_error_is_nan_while_the_reference_has_vanished(kernels, p5):
    # The reference's time factor is zero at step 1 alone: the run of one
    # step is degenerate, so entry 0 is nan, and every later entry is the
    # finite E of the run cut there.
    wave = exact_standing_wave
    tau = 0.5 / 16
    exact = Separable(wave.x1, wave.x2, lambda t: wave.t(t) * (t - tau))
    configs = [SimConfig(scheme=p5, n=16, n_t=m, lam=0.5, exact=exact) for m in range(1, 7)]
    assert configs[0].tau == tau
    for isa, path in kernels:
        with path():
            running = run(configs[-1]).running_errors
            assert math.isnan(running[0])
            with pytest.raises(DegenerateNormError):
                run(configs[0])
            assert [e.hex() for e in running[1:]] == [run(c).error.hex() for c in configs[1:]]
            assert all(map(math.isfinite, running[1:]))


@pytest.mark.parametrize(
    "name, function",
    [
        ("exact", lambda x: math.inf),
        ("exact", lambda x: x + 0j),
        ("exact", lambda x: x * math.nan),
    ],
)
def test_sampled_fields_must_be_real_and_finite(kernels, p5, name, function):
    # A complex value was cast with only a ComplexWarning, and a nan or
    # infinite one gave E = nan.  A bad value of the reference is refused
    # from each of its three factors; the initial fields' factors are
    # refused the same way (test_separable_initial_fields_are_refused_by_name).
    wave = exact_standing_wave
    cases = {
        "exact.x1": Separable(function, wave.x2, wave.t),
        "exact.x2": Separable(wave.x1, function, wave.t),
        "exact.t": Separable(wave.x1, wave.x2, function),
    }
    for _, path in kernels:
        for factor, value in cases.items():
            config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, **{name: value})
            with path(), warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=factor):
                    run(config)
                with pytest.raises(ValueError, match=factor):
                    relative_l2_error([np.ones((9, 9))], value, 0.1)


def one_reference_with(factor, function):
    """The standing wave with its factor ``factor`` ("exact.x1", "exact.x2"
    or "exact.t") replaced by ``function``."""
    return replace(exact_standing_wave, **{factor.removeprefix("exact."): function})


@pytest.mark.parametrize(
    "factor, function",
    [
        ("exact.x1", lambda x: x[:, None]),
        ("exact.x1", lambda x: np.ones(1)),
        ("exact.x2", lambda x: x[:-1]),
        ("exact.x2", lambda x: np.ones((1, 1))),
        ("exact.t", lambda t: t[:1]),
        ("exact.t", lambda t: t[:, None]),
    ],
    ids=["x1-column", "x1-one-value", "x2-short", "x2-one-by-one", "t-one-value", "t-column"],
)
def test_reference_factors_give_one_value_per_point(kernels, p5, factor, function):
    # A factor is called with a vector of points and must return a scalar
    # or one value per point.  An (n+1, 1) column or a one-element time
    # factor failed with numpy's or the march's message, naming no input.
    exact = one_reference_with(factor, function)
    config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, exact=exact)
    for _, path in kernels:
        with path():
            with pytest.raises(ValueError, match=f"^{factor} must return a scalar or"):
                run(config)
        with pytest.raises(ValueError, match=f"^{factor} must return a scalar or"):
            relative_l2_error([np.ones((9, 9))] * 3, exact, 0.1)


@pytest.mark.parametrize("factor", ["exact.x1", "exact.x2"])
def test_a_read_only_factor_gives_the_bits_of_a_writable_one(kernels, p13, factor):
    # A scalar initial factor makes _sample check one factor at a time:
    # _checked copies a read-only vector into a writable one of its own,
    # which is what the compiled march reads.
    def read_only(points):
        values = np.sin(2.0 * np.pi * points)
        values.flags.writeable = False
        return values

    points = np.arange(9) / 8
    given = read_only(points)
    checked = simulator._checked(given, factor, points)
    assert checked.flags.writeable and not np.shares_memory(checked, given)
    writable = one_reference_with(factor, lambda points: np.sin(2.0 * np.pi * points))
    config = SimConfig(scheme=p13, n=24, n_t=5, lam=0.6, bc="periodic", exact=writable,
                       initial_u=Separable(lambda x: 0.0, lambda x: 0.0))
    for isa, path in kernels:
        with path():
            want = run(config)
            got = run(replace(config, exact=one_reference_with(factor, read_only)))
        assert got.kernel == isa
        assert got.error.hex() == want.error.hex()
        assert [e.hex() for e in got.per_step_errors] == [e.hex() for e in want.per_step_errors]


# The one array that exact.x1 returns in
# test_a_factor_array_changed_during_a_run_gives_numpy_bits_on_every_kernel.
_CHANGING = np.empty(17)


@pytest.mark.parametrize("initial", [lambda x: 0.0, np.zeros_like], ids=["scalar", "vector"])
def test_a_factor_array_changed_during_a_run_gives_numpy_bits_on_every_kernel(
    kernels, p5, initial
):
    # exact.x1 returns one array that on_step doubles after each step.  A
    # run samples its factors once, so that change must not reach the
    # march.  With scalar initial factors, _sample checks one factor at a
    # time; the compiled march then read the caller's array itself and
    # gave E = 0x1.b440e969797dap-1 where numpy gave 0x1.284e906303b93p-10.
    def double(k, field):
        _CHANGING[...] *= 2.0

    config = SimConfig(
        scheme=p5, n=16, n_t=4, lam=0.5,
        initial_u=Separable(initial, initial),
        exact=replace(exact_standing_wave, x1=lambda x: _CHANGING),
    )
    bits = {}
    for isa, path in kernels:
        _CHANGING[...] = np.sin(2.0 * np.pi * np.arange(17) / 16)
        with path():
            report = run(config, on_step=double)
        bits[isa] = [e.hex() for e in (report.error, *report.per_step_errors)]
    assert all(got == bits["numpy"] for got in bits.values()), bits


@pytest.mark.parametrize("factor", ["exact.x1", "exact.x2", "exact.t"])
def test_a_scalar_factor_is_broadcast_and_each_factor_called_once(kernels, p5, factor):
    # A factor may return one scalar for all its points: it gives the bits
    # of the same value per point.  Each factor is called once per run with
    # all its points, the time factor with the n_t step times.
    calls = []

    def counted(function):
        def factor_of(points):
            calls.append(np.array(points))
            return function(points)

        return factor_of

    scalar = one_reference_with(factor, counted(lambda points: 0.75))
    full = one_reference_with(factor, lambda points: np.full(np.shape(points), 0.75))
    config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, exact=scalar)
    fields = [np.full((9, 9), 0.5)] * 3
    for _, path in kernels:
        with path():
            calls.clear()
            got = run(config)
            want = run(replace(config, exact=full))
        assert got.error.hex() == want.error.hex()
        assert [e.hex() for e in got.per_step_errors] == [e.hex() for e in want.per_step_errors]
        points = np.arange(1, 4) * config.tau if factor == "exact.t" else np.arange(9) / 8
        assert len(calls) == 1 and np.array_equal(calls[0], points)
    calls.clear()
    assert relative_l2_error(fields, scalar, config.tau) == relative_l2_error(
        fields, full, config.tau
    )
    assert len(calls) == 1


def _scaled_sine(x):
    return 2.0 * SQRT2 * np.pi * np.sin(2.0 * np.pi * x)


def _sine(x):
    return np.sin(2.0 * np.pi * x)


def test_default_initial_fields_keep_their_values_on_meshgrids():
    # The defaults are Separables of space now, with the bits of the whole
    # expressions they replaced, called as (x1, x2) on any grid.
    coords = np.arange(13) / 12
    grids = (np.meshgrid(coords, coords, indexing="ij"), (coords[:, None], coords[None, :]))
    for x1, x2 in grids:
        want = 2.0 * SQRT2 * np.pi * np.sin(2.0 * np.pi * x1) * np.sin(2.0 * np.pi * x2)
        got = standing_wave_initial_v(x1, x2)
        assert got.shape == (13, 13) and got.tobytes() == want.tobytes()
        zero = standing_wave_initial_u(x1, x2)
        assert zero.shape == (13, 13) and zero.tobytes() == np.zeros((13, 13)).tobytes()
    assert standing_wave_initial_v(0.3, 0.8) == _scaled_sine(0.3) * _sine(0.8)
    for field in (standing_wave_initial_u, standing_wave_initial_v):
        assert field.t is None and pickle.loads(pickle.dumps(field)) == field
        with pytest.raises(TypeError, match="called as \\(x1, x2\\)"):
            field(0.3, 0.8, 0.1)
    with pytest.raises(TypeError, match="called as \\(x1, x2, t\\)"):
        exact_standing_wave(0.3, 0.8)


def test_an_axes_buffer_is_the_buffer_of_its_product(kernels):
    # stepper.buffer((p, q)) holds the bits of stepper.buffer(p[:, None] *
    # q[None, :]), its ghosts zero, on both boundary layouts.  The march
    # fills the ghosts that step 0 reads, so steppers formed from either
    # hold the same whole buffers, ghosts included, after the first step
    # and after a two-step from step 0, on every kernel.
    rng = np.random.default_rng(23)
    for name, bc, n in (("P5", "dirichlet", 9), ("P13", "periodic", 11), ("P13", "dirichlet", 5)):
        spec = named_scheme(name)
        p, q = rng.standard_normal((2, n + 1))
        product = p[:, None] * q[None, :]
        stepper = _Stepper(spec, 0.5, n, bc)
        got = stepper.buffer((p, q))
        assert got.tobytes() == stepper.buffer(product).tobytes()
        ghosts = np.ones(got.shape, bool)
        ghosts[stepper.origin : stepper.origin + n + 1, stepper.origin : stepper.origin + n + 1] = False
        assert not got[ghosts].any()
        for isa, path in kernels:
            with path():
                for first in (True, False):
                    formed = [_Stepper(spec, 0.5, n, bc, field, field, field if first else None,
                                       tau=0.1) for field in ((p, q), product)]
                    for stepper in formed:
                        stepper.march(1)
                    axes, whole = formed
                    assert axes.prev.tobytes() == whole.prev.tobytes(), (isa, name, bc)
                    assert axes.curr.tobytes() == whole.curr.tobytes(), (isa, name, bc)


@pytest.mark.parametrize("name, bc", [(name, bc) for name in ("P5", "P13")
                                      for bc in ("dirichlet", "periodic")])
def test_separable_and_plain_initial_fields_give_the_default_bits(kernels, name, bc):
    # A Separable initial field is formed in its buffer from two vectors.
    # Rewritten from its factors, the default gives the default's bits, on
    # every kernel and on grids from n = 2 up.  A plain function of
    # (x1, x2) is refused (test_sim_config_validation).
    rewrapped = {
        "initial_u": Separable(lambda x: np.zeros(np.shape(x)), lambda x: np.zeros(np.shape(x))),
        "initial_v": Separable(lambda x: _scaled_sine(x), lambda x: _sine(x)),
    }
    for n in (2, 3, 7, 16, 80):
        default = SimConfig(scheme=named_scheme(name), n=n, n_t=5, lam=0.6, bc=bc)
        for _, path in kernels:
            with path():
                runs = [run(default), run(replace(default, **rewrapped))]
            bits = {(r.error.hex(), *(e.hex() for e in r.per_step_errors)) for r in runs}
            assert len(bits) == 1, (n, bits)


def test_each_initial_factor_is_called_once_and_the_field_never(kernels, p5):
    # Each factor of a Separable initial field is called once per run with
    # the n + 1 node coordinates, and the Separable itself is never called.
    # A factor may return one scalar for all its points, with the bits of
    # the same value per point.
    calls = {}

    def counted(label, function):
        def factor_of(points):
            calls.setdefault(label, []).append(np.array(points))
            return function(points)

        return factor_of

    scalar = {
        "initial_u": Separable(counted("initial_u.x1", lambda x: 0.5),
                               counted("initial_u.x2", lambda x: x)),
        "initial_v": Separable(counted("initial_v.x1", _scaled_sine),
                               counted("initial_v.x2", lambda x: 0.75)),
    }
    full = {
        "initial_u": Separable(lambda x: np.full(np.shape(x), 0.5), lambda x: x),
        "initial_v": Separable(_scaled_sine, lambda x: np.full(np.shape(x), 0.75)),
    }
    config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, **scalar)
    for _, path in kernels:
        with path():
            calls.clear()
            with mock.patch.object(Separable, "__call__", side_effect=AssertionError):
                got = run(config)
            want = run(replace(config, **full))
        assert got.error.hex() == want.error.hex()
        assert [e.hex() for e in got.per_step_errors] == [e.hex() for e in want.per_step_errors]
        assert sorted(calls) == ["initial_u.x1", "initial_u.x2", "initial_v.x1", "initial_v.x2"]
        for points in calls.values():
            assert len(points) == 1 and np.array_equal(points[0], np.arange(9) / 8)


def _huge(x):
    return np.full(np.shape(x), 1e200)


@pytest.mark.parametrize(
    "field, message",
    [
        (Separable(lambda x: x + 1j, _sine), "^initial_v.x1 must be real"),
        (Separable(lambda x: x * math.nan, _sine), "^initial_v.x1 must be finite"),
        (Separable(lambda x: x / 0.0, _sine), "^initial_v.x1 must be finite"),
        (Separable(_sine, lambda x: -math.inf), "^initial_v.x2 must be finite"),
        (Separable(lambda x: x[:, None], _sine), "^initial_v.x1 must return a scalar or 9 values"),
        (Separable(_sine, lambda x: x[:-1]), "^initial_v.x2 must return a scalar or 9 values"),
        (Separable(_huge, _huge), "^initial_v must be finite, got an x1 \\* x2 that overflows"),
    ],
    ids=["complex", "nan", "inf", "x2-inf", "column", "short", "overflow"],
)
def test_separable_initial_fields_are_refused_by_name(kernels, p5, field, message):
    # A bad factor is refused under its own name, and a product that
    # overflows (1e200 * 1e200) under the field's, before it is formed, so
    # with no numpy warning.
    config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, initial_v=field)
    for _, path in kernels:
        with path(), warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=message):
                    run(config)


# A long double beyond the doubles, where long doubles are wider than them.
LONG_BEYOND = (np.longdouble(2) ** 1100
               if np.finfo(np.longdouble).max > np.finfo(float).max else None)

BAD_FACTORS = {
    "nan": lambda x: x * math.nan,
    "complex": lambda x: x + 0j,
    "short": lambda x: x[:-1],
    "huge": _huge,
    "scalar": lambda x: 0.5,
    "str": lambda x: np.full(np.shape(x), "0.5"),
    "datetime": lambda x: np.zeros(np.shape(x), "datetime64[D]"),
    "object-complex": lambda x: np.full(np.shape(x), 0.5 + 1j, dtype=object),
    "generator": lambda x: (value for value in x),
    "int-beyond": lambda x: 10**400,
    "ints-beyond": lambda x: [10**400] * len(x),
    "ragged": lambda x: [0.5, [0.5, 0.5]],
    "longdouble-beyond": lambda x: np.full(np.shape(x), LONG_BEYOND),
}

# (bad factors, message) pairs for P5, n = 8, n_t = 3: the message is the
# one that checking the factors one at a time, in the order of
# SAMPLED_FACTORS, raises.
SAMPLED_FACTORS = (
    "initial_u.x1", "initial_u.x2", "initial_v.x1", "initial_v.x2",
    "exact.x1", "exact.x2", "exact.t",
)
FACTOR_REFUSALS = [
    *(
        ({factor: kind}, f"{factor} {message}")
        for factor in SAMPLED_FACTORS
        for kind, message in [
            ("nan", "must be finite, got nan or infinity"),
            ("complex", "must be real, got complex128"),
            ("short", "must return a scalar or "
             + ("3 values, got shape (2,)" if factor == "exact.t" else "9 values, got shape (8,)")),
            # A str or a ragged list gave numpy's message, naming no
            # factor; an object array of complex values or a generator a
            # TypeError, an int beyond the doubles an OverflowError; a
            # datetime counted its days.
            ("str", "must be real, got <U3"),
            ("datetime", "must be real, got datetime64[D]"),
            ("object-complex", "must be real, got complex"),
            ("generator", "must be real, got generator"),
            ("int-beyond", "must be finite, got a value beyond the doubles"),
            ("ints-beyond", "must be finite, got a value beyond the doubles"),
            ("ragged", "must be real, got a ragged list"),
            *([("longdouble-beyond", "must be finite, got a value beyond the doubles")]
              if LONG_BEYOND is not None else []),
        ]
    ),
    ({"initial_u.x2": "short", "initial_u.x1": "nan"},
     "initial_u.x1 must be finite, got nan or infinity"),
    ({"initial_v.x2": "nan", "exact.x1": "complex"},
     "initial_v.x2 must be finite, got nan or infinity"),
    ({"exact.t": "complex", "exact.x2": "short"},
     "exact.x2 must return a scalar or 9 values, got shape (8,)"),
    ({"initial_u.x1": "huge", "initial_u.x2": "huge"},
     "initial_u must be finite, got an x1 * x2 that overflows"),
    ({"initial_v.x1": "huge", "initial_v.x2": "huge"},
     "initial_v must be finite, got an x1 * x2 that overflows"),
    ({"initial_u.x1": "huge", "initial_u.x2": "huge", "initial_v.x1": "nan"},
     "initial_u must be finite, got an x1 * x2 that overflows"),
    ({"initial_v.x1": "huge", "initial_v.x2": "huge", "exact.t": "nan"},
     "initial_v must be finite, got an x1 * x2 that overflows"),
    ({"initial_u.x1": "scalar", "initial_v.x2": "short", "exact.x1": "nan"},
     "initial_v.x2 must return a scalar or 9 values, got shape (8,)"),
    ({"exact.x1": "generator", "initial_v.x1": "datetime", "initial_v.x2": "int-beyond"},
     "initial_v.x1 must be real, got datetime64[D]"),
]


def _error_of_ones(config):
    """relative_l2_error of n_t unit fields against ``config``'s reference."""
    return relative_l2_error([np.ones((config.n + 1,) * 2)] * config.n_t, config.exact, config.tau)


# run() on every row, and relative_l2_error on the rows whose bad factors
# are all the reference's.
SAMPLERS = [
    *((run, bad, message) for bad, message in FACTOR_REFUSALS),
    *((_error_of_ones, bad, message) for bad, message in FACTOR_REFUSALS
      if all(name.startswith("exact.") for name in bad)),
]


@pytest.mark.parametrize(
    "sampler, bad, message", SAMPLERS,
    ids=[("" if sampler is run else "relative_l2_error-") + "+".join(map(":".join, bad.items()))
         for sampler, bad, _ in SAMPLERS],
)
def test_the_first_bad_factor_is_refused_and_each_called_at_most_once(p5, sampler, bad, message):
    # run() calls all seven factors before it checks any, and checks them
    # together; a failed check is redone one factor at a time, so the
    # refusal names the factor (or the overflowing field) that comes first.
    # relative_l2_error samples its reference through the same routine.
    calls = {}

    def counted(name, function):
        def factor_of(points):
            calls[name] = calls.get(name, 0) + 1
            return function(points)

        return factor_of

    fields = {"initial_u": standing_wave_initial_u, "initial_v": standing_wave_initial_v,
              "exact": exact_standing_wave}
    for name in SAMPLED_FACTORS:
        field, axis = name.split(".")
        function = BAD_FACTORS[bad[name]] if name in bad else getattr(fields[field], axis)
        fields[field] = replace(fields[field], **{axis: counted(name, function)})
    config = SimConfig(scheme=p5, n=8, n_t=3, lam=0.6, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            sampler(config)
    assert str(refused.value) == message
    assert max(calls.values()) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1j])
def test_computed_fields_must_be_real_and_finite(kernels, value):
    # A nan field gave E = nan, and a complex one a TypeError from a cast.
    good = np.ones((5, 5))
    bad = np.ones((5, 5), dtype=type(value))
    bad[2, 3] = value
    for _, path in kernels:
        with path(), warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            with mock.patch.object(simulator, "_error_sums", side_effect=AssertionError):
                with pytest.raises(ValueError, match="computed field 2 must be"):
                    relative_l2_error([good, bad], exact_standing_wave, 0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1j])
def test_public_steps_reject_nonfinite_and_complex_fields(kernels, p5, value):
    # A nan or infinite node came back as nan or inf, and a complex field
    # was cast with only a ComplexWarning, dropping its imaginary part.
    good = np.ones((5, 5))
    bad = np.ones((5, 5), dtype=type(value))
    bad[2, 3] = value
    steps = {
        "u0": lambda: first_step(bad, good, p5, 0.5, 0.1),
        "v0": lambda: first_step(good, bad, p5, 0.5, 0.1),
        "u_k": lambda: two_step(bad, good, p5, 0.5),
        "u_km1": lambda: two_step(good, bad, p5, 0.5),
    }
    for _, path in kernels:
        with path(), warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            for name, step in steps.items():
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    step()


# (5 x 5 field, refusal) per kind of field whose values are not real
# numbers that are finite as doubles.
UNREAL_FIELDS = {
    "str": (np.full((5, 5), "1.0"), "must be real, got <U3"),
    "datetime": (np.zeros((5, 5), "datetime64[D]") + 18262, "must be real, got datetime64[D]"),
    "object-complex": (np.full((5, 5), 1 + 1j, dtype=object), "must be real, got complex"),
    "object-str": (np.full((5, 5), "1.0", dtype=object), "must be real, got str"),
    "int-beyond": (np.full((5, 5), 10**400, dtype=object),
                   "must be finite, got a value beyond the doubles"),
    "list-beyond": ([[10**400] * 5] * 5, "must be finite, got a value beyond the doubles"),
    # np.shape raised numpy's "inhomogeneous shape" message, naming no field.
    "ragged": ([[1.0] * 5] * 4 + [[1.0] * 4], "must be real, got a ragged list"),
    # The cast to doubles warned "overflow encountered in cast" first.
    **({"longdouble-beyond": (np.full((5, 5), LONG_BEYOND),
                              "must be finite, got a value beyond the doubles")}
       if LONG_BEYOND is not None else {}),
}


@pytest.mark.parametrize("kind", UNREAL_FIELDS)
def test_fields_that_are_not_real_numbers_are_refused_by_name(kernels, p5, kind):
    # A str field gave numpy's message, an object array of complex values
    # a TypeError and an int beyond the doubles an OverflowError, none
    # naming the field; a datetime field counted its days (18262.0 as u0).
    bad, refusal = UNREAL_FIELDS[kind]
    good = np.ones((5, 5))
    calls = {
        "u0": lambda: first_step(bad, good, p5, 0.5, 0.1),
        "v0": lambda: first_step(good, bad, p5, 0.5, 0.1),
        "u_k": lambda: two_step(bad, good, p5, 0.5),
        "u_km1": lambda: two_step(good, bad, p5, 0.5),
        "computed field 2": lambda: relative_l2_error([good, bad], exact_standing_wave, 0.1),
    }
    for _, path in kernels:
        with path(), warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in calls.items():
                with pytest.raises(ValueError) as refused:
                    call()
                assert str(refused.value) == f"{name} {refusal}"


def test_public_steps_refuse_a_step_that_overflows(kernels, p5):
    # Finite fields whose step overflows came back as inf, or as nan where an
    # infinite velocity term met tau = 0, and the numpy path warned.
    zero, slow = np.zeros((5, 5)), np.full((5, 5), 2.7e8)
    huge = np.full((5, 5), 1e308)
    steps = {
        "first_step": lambda: first_step(zero, slow, p5, 1e150, 0.0),
        "two_step": lambda: two_step(huge, -huge, p5, 0.5, "periodic"),
    }
    for _, path in kernels:
        with path(), warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, step in steps.items():
                lam = 1e150 if name == "first_step" else 0.5
                with pytest.raises(ValueError) as refused:
                    step()
                assert str(refused.value) == f"lambda = {lam} and these fields overflow scheme 'P5'"


def closed_form_error(spec, n, n_t, lam):
    """E of the standing-wave benchmark from its one mode, with no simulator.

    sin 2 pi x1 sin 2 pi x2 is an eigenfunction of every symmetric stencil on
    both boundaries, with eigenvalue the cosine sum of the table at theta =
    2 pi / n.  So u^k = a_k times the mode, a_{k+1} = S a_k - a_{k-1} with
    a_0 = 0 and a_1 = tau omega V, and the space sums cancel from E.
    """
    theta, omega, tau = 2 * math.pi / n, 2 * SQRT2 * math.pi, lam / n

    def cosine_sum(table):
        return sum(poly(lam) * math.cos(q1 * theta) * math.cos(q2 * theta)
                   for (q1, q2), poly in table.items())

    gain = cosine_sum(spec.two_step)
    prev, a = 0.0, tau * omega * cosine_sum(spec.first_v)
    num = den = 0.0
    for k in range(1, n_t + 1):
        if k > 1:
            prev, a = a, gain * a - prev
        exact = math.sin(omega * k * tau)
        num += (a - exact) ** 2
        den += exact**2
    return math.sqrt(num / den)


def test_every_table_row_matches_the_closed_form():
    # A plain 1e-9 relative bound fails on 8 rows whose E is mostly roundoff
    # (worst 2.8e-4 relative on P13 at n = 80); the second term allows one
    # rounding per offset and step.
    rows = 0
    for table, cases in TABLES.items():
        for case in cases:
            for name in case.reference:
                spec = named_scheme(name)
                config = SimConfig(scheme=spec, n=case.n, n_t=case.n_t, lam=case.lam,
                                   bc=TABLE_BC[table])
                computed = run(config).error
                expected = closed_form_error(spec, case.n, case.n_t, case.lam)
                bound = 1e-9 * expected + len(spec.two_step) * case.n_t * 2.0**-52
                assert abs(computed - expected) <= bound, (table, case, name)
                rows += 1
    assert rows == 48


def test_public_steps_evaluate_the_tables_once(cold_caches, p5):
    # Repeated one-shot steps at one (scheme, lambda) share one evaluation.
    calls = []
    evaluate = LambdaPoly.__call__

    def counted(poly, lam):
        calls.append(lam)
        return evaluate(poly, lam)

    u = np.zeros((9, 9))
    u[4, 4] = 1.0
    with mock.patch.object(LambdaPoly, "__call__", counted):
        for _ in range(10):
            two_step(u, u, p5, 0.6)
        assert len(calls) == len(p5.first_u) + len(p5.first_v) + len(p5.two_step)
        for _ in range(10):
            first_step(u, u, p5, 0.6, 0.1)
            two_step(u, u, p5, 0.6, "periodic")
    assert len(calls) == len(p5.first_u) + len(p5.first_v) + len(p5.two_step)


def test_run_checks_its_scheme_and_lambda_once(cold_caches, p5):
    # SimConfig checks the scheme and lambda, and run() once checked both
    # again in stability.envelope on every run.
    config = SimConfig(scheme=p5, n=16, n_t=8, lam=0.5)

    def refuse(*args):
        raise AssertionError(f"checked again: {args!r}")

    with mock.patch.object(stability, "check_scheme", refuse), \
            mock.patch.object(stability, "check_positive", refuse):
        assert run(config).error.hex() == "0x1.1ed2e5c123e5fp-8"


def test_reordered_tables_share_no_evaluation(cold_caches):
    # Offsets are summed in table order, so a spec whose tables differ from
    # P13's only in order is another spec: it marches its own order whether
    # P13 was evaluated first or not.
    p13 = named_scheme("P13")
    tables = (p13.first_u, p13.first_v, p13.two_step)
    reordered = SchemeSpec(p13.name, *(dict(reversed(table.items())) for table in tables))
    assert reordered != p13 and hash(reordered) == hash(p13)
    x = np.linspace(0.0, 1.0, 33)
    u = np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x))
    w = np.outer(np.cos(3 * x), np.sin(5 * x))
    two_step(u, w, reordered, 0.6, "periodic")
    cold = two_step(u, w, reordered, 0.6, "periodic")
    for cache in cold_caches:
        cache.cache_clear()
    two_step(u, w, p13, 0.6, "periodic")
    assert two_step(u, w, reordered, 0.6, "periodic").tobytes() == cold.tobytes()
    assert two_step(u, w, p13, 0.6, "periodic").tobytes() != cold.tobytes()


def _table_bits():
    """float.hex of E and of every per-step error, for all 48 table rows."""
    bits = []
    for table, cases in TABLES.items():
        for case in cases:
            for name in case.reference:
                config = SimConfig(named_scheme(name), case.n, case.n_t, case.lam, TABLE_BC[table])
                report = run(config)
                bits.append([report.error.hex(), *map(float.hex, report.per_step_errors)])
    return bits


def test_shared_evaluations_keep_every_table_bit(cold_caches):
    cold = _table_bits()
    assert len(cold) == 48
    assert _table_bits() == cold  # warm
    for cache in cold_caches:
        cache.cache_clear()
    assert _table_bits() == cold


def _per_row_table(table):
    """``run_table(table)`` as one run() per row and scheme, with no march shared."""
    rows = []
    for case in TABLES[table]:
        row = {"n": case.n, "n_t": case.n_t, "lambda": case.lam}
        for name, reference in case.reference.items():
            config = SimConfig(named_scheme(name), case.n, case.n_t, case.lam, TABLE_BC[table])
            error = run(config).error
            row[f"E_{name}"] = error
            row[f"ref_{name}"] = reference
            row[f"dev_{name}"] = abs(error - reference) / reference
        rows.append(row)
    return rows


def test_tables_march_once_per_row_group_to_the_per_row_bits(kernels):
    # run_table marches each scheme once per (n, lambda): 32 marches for
    # the three tables, where a run per row makes 48.  Every E, and so
    # every row, keeps the bits of its own run, on every kernel.
    for isa, path in kernels:
        with path(), mock.patch.object(_Stepper, "march", autospec=True,
                                       side_effect=_Stepper.march) as march:
            tables = [run_table(table) for table in TABLES]
            assert march.call_count == 32
            march.reset_mock()
            per_row = [_per_row_table(table) for table in TABLES]
            assert march.call_count == 48
        for rows, reference in zip(tables, per_row):
            assert [list(row.items()) for row in rows] == [list(row.items()) for row in reference]
            assert _e_bits(rows) == _e_bits(reference), isa


def test_tables_sample_once_per_row_group():
    # The two schemes of a (n, n_t, lambda) group share one sample: 16
    # samples for the 32 marches of the three tables, where run() samples
    # once per run.
    with mock.patch.object(simulator, "_sample", side_effect=simulator._sample) as sample, \
            mock.patch.object(_Stepper, "march", autospec=True,
                              side_effect=_Stepper.march) as march:
        for table in TABLES:
            run_table(table)
        assert (sample.call_count, march.call_count) == (16, 32)
        run(SimConfig(scheme=named_scheme("P5"), n=10, n_t=3, lam=0.7))
        assert (sample.call_count, march.call_count) == (17, 33)


def test_steppers_of_one_grid_share_their_layout_and_plan(cold_caches, kernels):
    # The layout is formed once per (radius, n, bc) and, on a compiled
    # kernel, the plan once per (spec, lambda, n, bc), and later steppers
    # share them.  A stepper holds both, so one whose entries are cleared
    # between its construction and its march, and other grids' plans formed
    # meanwhile, still gives a fresh stepper's bits.
    p13 = named_scheme("P13")
    config = SimConfig(scheme=p13, n=20, n_t=7, lam=0.6, bc="periodic")
    u, v, reference = simulator._samples(config)

    def stepper():
        return _Stepper(p13, config.lam, config.n, config.bc, u, v=v, tau=config.tau,
                        reference=reference)

    for isa, path in kernels:
        with path():
            for cache in cold_caches:
                cache.cache_clear()
            first, second = stepper(), stepper()
            assert first._lines is second._lines and first.shape is second.shape
            if isa != "numpy":
                assert first._plan is second._plan and first._plan_at is second._plan_at
            for cache in cold_caches:
                cache.cache_clear()
            for n in range(8, 40):
                _Stepper(p13, 0.7, n, "periodic")
            fresh = stepper()
            assert fresh._lines is not first._lines
            first.march(config.n_t)
            fresh.march(config.n_t)
            for got, want in ((first.prev, fresh.prev), (first.curr, fresh.curr),
                              (first.sums, fresh.sums)):
                assert got.tobytes() == want.tobytes(), isa


def _e_bits(rows):
    return [[value.hex() for key, value in row.items() if key.startswith("E_")] for row in rows]


def test_threads_share_the_caches_with_the_sequential_bits(cold_caches):
    # Tables 1 and 3 from cold caches at once, twice each in four threads
    # (more than this host's cores) that switch often: each gets the bits
    # of running alone.
    sequential = {table: _e_bits(run_table(table)) for table in (1, 3)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            for cache in cold_caches:
                cache.cache_clear()
            start, results = threading.Barrier(4), {}

            def worker(slot, table):
                start.wait(timeout=60)
                results[slot] = _e_bits(run_table(table))

            threads = [
                threading.Thread(target=worker, args=(slot, table))
                for slot, table in enumerate((1, 3, 1, 3))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert results == {slot: sequential[table] for slot, table in enumerate((1, 3, 1, 3))}
    finally:
        sys.setswitchinterval(interval)


def _bits_at(lam):
    """float.hex of everything computed at ``lam``: run(), the public steps,
    the symbol and the envelope, for P5 Dirichlet and P13 periodic."""
    bits = []
    coords = np.arange(9) / 8
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    u, v = exact_standing_wave(x1, x2, 0.3), standing_wave_initial_v(x1, x2)
    for name, bc in (("P5", "dirichlet"), ("P13", "periodic")):
        spec = named_scheme(name)
        report = run(SimConfig(scheme=spec, n=8, n_t=6, lam=lam, bc=bc))
        bits.append([report.error.hex(), *map(float.hex, report.per_step_errors)])
        for field in (first_step(u, v, spec, lam, 0.1, bc), two_step(u, v, spec, lam, bc)):
            bits.append([value.hex() for value in field.ravel().tolist()])
        bits.append([symbol(spec, lam, 0.3, 1.1).hex(), repr(envelope(spec, lam))])
    return bits


@pytest.mark.parametrize(
    "lam",
    [np.float32(0.7071), np.float64(0.707), Fraction(707, 1000), Decimal("0.707")],
    ids=lambda lam: type(lam).__name__,
)
def test_every_numeric_lambda_gives_its_floats_bits(cold_caches, lam):
    # A numpy float32 lambda once made float32 tables in the public steps and
    # the symbol, with an "overflow encountered in cast" warning per
    # coefficient, and a TypeError in run(), envelope() and lambda_max(); a
    # Decimal one a TypeError everywhere.  Each side starts from cold caches.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _bits_at(float(lam))
        for cache in cold_caches:
            cache.cache_clear()
        assert _bits_at(lam) == expected
        config = SimConfig(scheme=named_scheme("P5"), n=8, n_t=6, lam=lam)
        assert type(config.lam) is float and config.lam.hex() == float(lam).hex()


def test_integer_lambda_and_numpy_tol_give_their_floats_bits(cold_caches):
    p5, c9 = named_scheme("P5"), named_scheme("C9")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tol = np.float32(1e-3)
        assert lambda_max(c9, tol).hex() == lambda_max(c9, float(tol)).hex()
        assert SimConfig(scheme=p5, n=8, n_t=6, lam=1).lam.hex() == (1.0).hex()
        for spec in (p5, c9):
            at_int = (repr(envelope(spec, 1)), symbol(spec, 1, 0.3, 1.1).hex())
            for cache in cold_caches:
                cache.cache_clear()
            assert at_int == (repr(envelope(spec, 1.0)), symbol(spec, 1.0, 0.3, 1.1).hex())


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
def test_a_bool_is_not_a_lambda_or_a_tol(flag):
    # SimConfig(spec, 8, 2, True) once stored lam = 1.0 and ran at lambda = 1,
    # while n and n_t refused True; a bool tau ran as 1.0 or 0.0.
    p5 = named_scheme("P5")
    checks = (
        lambda: SimConfig(scheme=p5, n=8, n_t=2, lam=flag),
        lambda: envelope(p5, flag),
        lambda: symbol(p5, flag, 0.3, 1.1),
        lambda: lambda_max(p5, tol=flag),
        lambda: first_step(np.zeros((5, 5)), np.zeros((5, 5)), p5, flag, 0.1),
        lambda: first_step(np.zeros((5, 5)), np.zeros((5, 5)), p5, 0.5, flag),
        lambda: relative_l2_error([np.ones((5, 5))], exact_standing_wave, flag),
    )
    for check in checks:
        with pytest.raises(ValueError, match="must be a number"):
            check()


# (entry point, the name it refuses, the rule it states) for each public
# scalar that check_finite reads.
SCALAR_INPUTS = {
    "SimConfig.lam": (lambda p5, x: SimConfig(scheme=p5, n=8, n_t=2, lam=x),
                      "lambda", "positive and finite"),
    "envelope.lam": (lambda p5, x: envelope(p5, x), "lambda", "positive and finite"),
    "evaluated.lam": (lambda p5, x: evaluated(p5, x), "lambda", "positive and finite"),
    "symbol.lam": (lambda p5, x: symbol(p5, x, 0.3, 1.1), "lambda", "positive and finite"),
    "symbol.theta1": (lambda p5, x: symbol(p5, 0.5, x, 1.1), "theta1", "finite"),
    "lambda_max.tol": (lambda p5, x: lambda_max(p5, tol=x), "tol", "positive and finite"),
    "first_step.tau": (lambda p5, x: first_step(np.zeros((5, 5)), np.zeros((5, 5)), p5, 0.5, x),
                       "tau", "finite"),
    "relative_l2_error.tau": (lambda p5, x: relative_l2_error([np.ones((5, 5))],
                                                              exact_standing_wave, x),
                              "tau", "finite"),
}


@pytest.mark.parametrize("entry", SCALAR_INPUTS)
@pytest.mark.parametrize("value, refusal", [
    (np.complex128(0.5 + 3j), "a number"),
    (np.complex64(0.5), "a number"),
    (0.5 + 0j, "a number"),
    ("0.5", "a number"),
    (None, "a number"),
    (10**400, "rule"),
    (-10**400, "rule"),
    (10**5000, "rule"),
    (Fraction(10**400, 3), "rule"),
    (Fraction(10**5000, 3), "rule"),
    (Decimal("snan"), "rule"),
    (Decimal(10**5000), "rule"),
    (Decimal(-10**400), "rule"),
], ids=["np.complex128", "np.complex64", "complex", "str", "None", "int", "-int", "int5000",
        "Fraction", "Fraction5000", "sNaN", "Decimal5000", "-Decimal400"])
def test_a_scalar_that_is_not_a_real_double_is_refused(entry, value, refusal):
    # A numpy complex was cut to its real part with only a ComplexWarning
    # (SimConfig stored lambda = 0.5 and lambda_max bisected); a complex, a
    # str or None gave a TypeError, a huge int or Fraction an OverflowError,
    # and a Decimal sNaN, which cannot be hashed, a TypeError from the
    # (scheme, lambda) cache's key.  A huge int or Fraction was then named
    # by all its digits, and one past 4300 digits by Python's own error
    # from printing it; a Decimal of 5001 digits gave a 5041-character
    # message.
    call, name, rule = SCALAR_INPUTS[entry]
    stated = "a number" if refusal == "a number" else rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be {stated}, got ") as refused:
            call(named_scheme("P5"), value)
    assert len(str(refused.value)) < 120


@pytest.mark.parametrize("tau", [np.float32(0.1), Decimal("0.1")],
                         ids=lambda tau: type(tau).__name__)
def test_relative_l2_error_takes_tau_as_its_float(tau):
    # A float32 tau once sampled the reference at float32 times
    # (0x1.8881fb6cae52ep+1 against 0x1.8881fc2efefa2p+1), and a Decimal one
    # raised TypeError.
    fields = [np.ones((9, 9)), np.full((9, 9), 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = relative_l2_error(fields, exact_standing_wave, float(tau))
        assert relative_l2_error(fields, exact_standing_wave, tau).hex() == want.hex()
        if isinstance(tau, np.float32):
            assert relative_l2_error([np.ones((9, 9))], exact_standing_wave, tau).hex() == (
                "0x1.8881fc2efefa2p+1"
            )
