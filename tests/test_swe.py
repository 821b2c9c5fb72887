import dataclasses
import tracemalloc
from math import factorial

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.linalg import expm

from semicav.fockspace import (CompositeSpace, CompositeState, FockBasis, coherent_amplitudes,
                               partial_trace_field)
from semicav.phasespace import (OperatorPhaseField, PhaseFunction, PhaseGrid,
                                SemiclassicalObservable, coarse_grain, husimi_density,
                                phase_space_moment)
from semicav import swe, unitary
from semicav.swe import (
    _K_CUT,
    GridOptions,
    GridStepper,
    SemiclassicalWave,
    compare_to_oracle,
    evaluate_on_grid,
    evolve_swe,
    field_density,
    initial_wave,
    sample_field,
    swe_expectation,
)
from semicav.unitary import (
    AtomFieldModel,
    TimeGrid,
    density_operator,
    evolve_unitary,
    integrate,
    product_initial_state,
    rk4_step,
    two_level_model,
)

EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)


@pytest.fixture(scope="module")
def grid64():
    return PhaseGrid(5.0, 64)


def analytic_rabi_wave(grid, t, g=1.0):
    """Closed-form field of the resonant one-excitation exchange."""
    a = grid.nodes()
    env = np.exp(-0.5 * np.abs(a) ** 2) / np.sqrt(np.pi)
    values = np.zeros((2, grid.M, grid.M), dtype=complex)
    values[0] = np.cos(g * t) * env
    values[1] = -1j * np.sin(g * t) * np.conj(a) * env
    return values


def zero_current_model():
    return AtomFieldModel(2, h_ato=np.diag([0.5, -0.5]), j=np.zeros((2, 2)), omega=1.0)


def _reference_rhs(stepper, t, psi, mu):
    """The grid RHS written term by term, in five transforms of d planes.

    -i(a* psi J^T + a/2 psi J+^T + d*psi J+^T) - mu D+ D psi, with the coupling
    read from ``stepper`` at call time; ``psi`` and the result are (d, M, M), worked on
    node-major.
    """
    psi = np.moveaxis(psi, 0, -1)
    grid = stepper.grid
    nodes = grid.nodes()
    a, ac = nodes[:, :, None], np.conj(nodes)[:, :, None]
    k = 2.0 * np.pi * sfft.fftfreq(grid.M, d=grid.h)
    kx, ky = k[:, None], k[None, :]
    keep = kx ** 2 + ky ** 2 <= _K_CUT ** 2
    s_dastar = (0.5 * (1j * kx - ky) * keep)[:, :, None]
    s_da = (0.5 * (1j * kx + ky) * keep)[:, :, None]
    jt, jdt = stepper._coupling(t)
    ft = sfft.fft2(psi, axes=(0, 1))
    dstar = sfft.ifft2(s_dastar * ft, axes=(0, 1))
    da = sfft.ifft2(s_da * ft, axes=(0, 1))
    out = -1j * (ac * (psi @ jt.T) + 0.5 * a * (psi @ jdt.T) + dstar @ jdt.T)
    v = da + 0.5 * ac * psi
    dstar_v = sfft.ifft2(s_dastar * sfft.fft2(v, axes=(0, 1)), axes=(0, 1))
    return np.moveaxis(out - mu * (-dstar_v + 0.5 * a * v), -1, 0)


def _stepper(model, grid, penalty, monkeypatch):
    """A ``GridStepper`` built with ``swe._PENALTY`` set to ``penalty``, and its mu."""
    monkeypatch.setattr(swe, "_PENALTY", penalty)
    return GridStepper(model, grid), penalty * np.linalg.norm(model.j, 2)


def _random_wave(rng, grid, d):
    return rng.normal(size=(d, grid.M, grid.M)) + 1j * rng.normal(size=(d, grid.M, grid.M))


class TestInitialWave:
    def test_peak_value(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        center = grid64.M // 2
        assert np.linalg.norm(wave.values[:, center, center]) == pytest.approx(
            1.0 / np.sqrt(np.pi), abs=1e-12)

    def test_total_probability(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        assert wave.total_probability() == pytest.approx(1.0, abs=grid64.tol)

    def test_density_is_vacuum_q_function(self, grid64):
        dens = field_density(initial_wave(EXCITED, grid64))
        expected = np.exp(-np.abs(grid64.nodes()) ** 2) / np.pi
        assert np.max(np.abs(dens.values - expected)) <= 1e-12

    def test_bargmann_coefficients(self):
        # on a FockBasis the start is the oracle's product state, so both pictures share it
        wave = initial_wave(GROUND, FockBasis(6))
        np.testing.assert_allclose(wave.coeffs[0], GROUND)
        assert np.max(np.abs(wave.coeffs[1:])) == 0.0
        space = CompositeSpace(2, FockBasis(6))
        assert isinstance(wave, CompositeState) and wave.space == space
        np.testing.assert_array_equal(
            wave.amplitudes, product_initial_state(GROUND, np.eye(7)[0], space).amplitudes)

    def test_rejects_unnormalized(self, grid64):
        with pytest.raises(ValueError):
            initial_wave(2.0 * EXCITED, grid64)

    @pytest.mark.parametrize("backend", ["bargmann", "grid"])
    def test_refuses_nan(self, grid64, backend):
        rep = FockBasis(6) if backend == "bargmann" else grid64
        with pytest.raises(ValueError, match="not normalized"):
            initial_wave(np.array([np.nan, 0.0]), rep)
        wave = initial_wave(EXCITED, rep)
        if backend == "bargmann":
            with pytest.raises(ValueError, match="state norm nan"):
                CompositeState(wave.space, np.full_like(wave.amplitudes, np.nan), norm_tol=1.0)
        else:
            with pytest.raises(ValueError, match="total probability nan"):
                SemiclassicalWave(grid64, np.full_like(wave.values, np.nan), norm_tol=1.0)

    def test_norm_tol_is_kept_and_replace_repeats_the_check(self):
        # the construction tolerance reads what the constructor was given, or None, and
        # dataclasses.replace rebuilds the object under that same tolerance
        loose = initial_wave(EXCITED, PhaseGrid(2.5, 32), norm_tol=1.0)  # 0.99914 of unit mass
        assert loose.norm_tol == 1.0
        assert dataclasses.replace(loose).norm_tol == 1.0
        assert initial_wave(EXCITED, PhaseGrid(5.0, 64)).norm_tol is None
        space = CompositeSpace(2, FockBasis(6))
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[0] = 1.0 + 1e-5
        state = CompositeState(space, amps, norm_tol=1e-4)
        assert state.norm_tol == 1e-4
        assert dataclasses.replace(state).norm_tol == 1e-4
        assert CompositeState(space, np.eye(space.total_dim)[0]).norm_tol is None
        with pytest.raises(ValueError, match="state norm 1.00001 deviates from 1 by more than 1e-12"):
            dataclasses.replace(state, norm_tol=None)
        assert "norm_tol" not in repr(loose) and "norm_tol" not in repr(state)

    def test_guards_refuse_nan(self, grid64):
        barg = initial_wave(EXCITED, FockBasis(6))
        barg.coeffs[1, 1] = np.nan  # after the constructor's check
        with pytest.raises(RuntimeError, match=r"probability nan at the truncation edge "
                                                r"at step 1, t=0\.01;"):
            evolve_swe(two_level_model(g=1.0), barg, TimeGrid(0.0, 1.0, 0.01))
        wave = initial_wave(EXCITED, grid64)
        nan = np.full_like(wave.values, np.nan)
        with pytest.raises(RuntimeError, match=r"boundary mass grew by nan .*step 3, t=0\.5\)"):
            swe._grid_guard(wave, grid64.tol, True)(3, np.array([0.5]), nan[None])
        with pytest.raises(RuntimeError, match=r"total probability nan .* at step 3, t=0\.5"):
            swe._grid_guard(wave, grid64.tol, False)(3, np.array([0.5]), nan[None])


class TestZeroSteps:
    @pytest.mark.parametrize("backend", ["bargmann", "grid"])
    def test_returns_initial_wave(self, grid64, backend):
        rep = FockBasis(6) if backend == "bargmann" else grid64
        wave = initial_wave(EXCITED, rep)
        waves = evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 0.0, 1e-3))
        assert len(waves) == 1 and waves[0] is wave
        amplitudes = "coeffs" if backend == "bargmann" else "values"
        np.testing.assert_array_equal(getattr(wave, amplitudes),
                                      getattr(initial_wave(EXCITED, rep), amplitudes))


class TestBargmannStepper:
    def test_zero_current_is_static(self):
        wave = initial_wave(EXCITED, FockBasis(6))
        stepped = evolve_swe(zero_current_model(), wave, TimeGrid(0.0, 1e-2, 1e-2))[-1]
        np.testing.assert_allclose(stepped.coeffs, wave.coeffs, atol=1e-15)

    def test_resonant_rabi_coefficients(self):
        model = two_level_model(g=1.0)
        wave = initial_wave(EXCITED, FockBasis(6))
        wave = evolve_swe(model, wave, TimeGrid(0.0, 1.0, 1e-3, 1000))[-1]
        t = 1.0
        np.testing.assert_allclose(wave.coeffs[0], np.cos(t) * EXCITED, atol=1e-8)
        np.testing.assert_allclose(wave.coeffs[1], -1j * np.sin(t) * GROUND, atol=1e-8)
        assert np.sum(np.abs(wave.coeffs) ** 2) == pytest.approx(1.0, abs=1e-9)

    # a cascade atom emits two photons, overflowing a 3-level mode. Both pictures
    # check the raw iterate of one coupling map, so both stop at the same step.
    CASCADE_OVERFLOW = r"truncation edge at step 12, t=0\.012;"

    @staticmethod
    def cascade_model():
        lower = np.zeros((3, 3), dtype=complex)
        lower[1, 0] = lower[2, 1] = 1.0
        return AtomFieldModel(3, h_ato=np.zeros((3, 3)), j=lower, omega=0.0)

    def test_truncation_overflow_raises(self):
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(RuntimeError, match=self.CASCADE_OVERFLOW):
            evolve_swe(self.cascade_model(), initial_wave(psi0, FockBasis(2)),
                       TimeGrid(0.0, 2.0, 1e-3))

    def test_truncation_overflow_raises_in_oracle_at_same_step(self):
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        vac = np.array([1.0, 0.0, 0.0], dtype=complex)
        space = CompositeSpace(3, FockBasis(2))
        with pytest.raises(RuntimeError, match=self.CASCADE_OVERFLOW):
            evolve_unitary(self.cascade_model(), product_initial_state(psi0, vac, space),
                           TimeGrid(0.0, 2.0, 1e-3))

    @pytest.mark.parametrize("rows", [4, 5])
    def test_truncation_overflow_names_the_step_whatever_the_block(self, rows, monkeypatch):
        # step 12 is the last row of the third block of 4, and the second row of the
        # third block of 5; both pictures name it as a stepwise run does
        monkeypatch.setattr(unitary, "_BLOCK_MACS", 4 * 9 ** 2 * rows)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        wave = initial_wave(psi0, FockBasis(2))
        with pytest.raises(RuntimeError, match=self.CASCADE_OVERFLOW):
            evolve_swe(self.cascade_model(), wave, TimeGrid(0.0, 2.0, 1e-3))
        with pytest.raises(RuntimeError, match=self.CASCADE_OVERFLOW):
            evolve_unitary(self.cascade_model(), wave, TimeGrid(0.0, 2.0, 1e-3))

    def test_probability_guard_fires_in_a_later_block(self):
        # 1e-6 - 2e-9 short of unit probability, the start drifts past NORM_TOL at step 79,
        # in the second block of 64, as a stepwise RK4 run does (tests/test_unitary.py)
        start = initial_wave(EXCITED, FockBasis(2))
        amps = start.amplitudes * np.sqrt(1.0 - unitary.NORM_TOL + 2e-9)
        wave = CompositeState(start.space, amps, norm_tol=1e-5)
        with pytest.raises(RuntimeError, match=r"total probability 0\.99999899.* beyond 1e-06 "
                                                r"at step 79, t=2\.765;"):
            evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 7.0, 0.035))

    def test_probability_conserved_per_unit_time(self):
        model = two_level_model(g=1.0, detuning=0.5)
        wave = initial_wave(EXCITED, FockBasis(6))
        wave = evolve_swe(model, wave, TimeGrid(0.0, 1.0, 1e-3))[-1]
        assert abs(np.sum(np.abs(wave.coeffs) ** 2) - 1.0) <= 1e-9

    def test_probability_guard_names_step_and_time(self):
        # a start 2e-5 off unit probability, admitted at construction, is refused by the
        # run's own tolerance after the first step, as the oracle's is
        start = initial_wave(EXCITED, FockBasis(6))
        wave = CompositeState(start.space, start.amplitudes * (1 + 1e-5), norm_tol=1e-4)
        with pytest.raises(RuntimeError, match=r"total probability 1\.00002.* beyond 1e-06 "
                                                r"at step 1, t=0\.01;"):
            evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 1.0, 1e-2))

    @pytest.mark.parametrize("options", [GridOptions(), GridOptions(norm_tol=0.0)])
    def test_refuses_grid_options(self, options):
        wave = initial_wave(EXCITED, FockBasis(8))
        with pytest.raises(ValueError, match="GridOptions"):
            evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 1e-2, 1e-3), options)

    def test_matches_oracle_on_three_levels(self, three_level_model):
        # the coefficient wave is the oracle's state and evolve_unitary steps it, so the
        # samples are bit-equal: from the vacuum, and from the random start on two Fock
        # levels of test_step_map_matches_stepwise_rk4, whose total probability drifts by 3e-10
        vacuum = np.zeros((3, 11), dtype=complex)
        vacuum[0, 0] = 1.0
        rng = np.random.default_rng(17)
        low = np.zeros((3, 13), dtype=complex)
        low[:, :2] = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        for Y0, tgrid in ((vacuum, TimeGrid(0.0, 1.0, 1e-3, 250)),
                          (low / np.linalg.norm(low), TimeGrid(0.0, 2.4, 0.01, 60))):
            basis = FockBasis(Y0.shape[1] - 1)
            psi0 = CompositeState(CompositeSpace(3, basis), Y0.ravel())
            states = evolve_unitary(three_level_model, psi0, tgrid).states
            waves = evolve_swe(three_level_model, psi0, tgrid)
            assert len(waves) == len(states) == 5 and waves[0] is psi0
            for state, wave in zip(states, waves):
                assert isinstance(wave, CompositeState)
                np.testing.assert_array_equal(wave.amplitudes, state.amplitudes)
                np.testing.assert_array_equal(wave.coeffs, state.as_matrix().T)


class TestGridStepper:
    def test_zero_current_is_static(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        stepped = evolve_swe(zero_current_model(), wave, TimeGrid(0.0, 1e-2, 1e-2))[-1]
        np.testing.assert_allclose(stepped.values, wave.values, atol=1e-14)

    def test_multiplication_term_is_node_local(self, grid64, monkeypatch):
        # with the adjoint coupling artificially removed the dynamics is a
        # pointwise matrix exponential; on the real axis the generator is
        # Hermitian there, so the local norm is a constant of motion
        g = 1.0
        model = AtomFieldModel(2, h_ato=np.zeros((2, 2)),
                               j=g * np.array([[0.0, 1.0], [1.0, 0.0]]), omega=0.0)

        class LoweringOnly(GridStepper):
            def _coupling(self, t):
                jt, _ = super()._coupling(t)
                return jt, np.zeros_like(jt)

        # no derivative term survives, so the transverse penalty is moot;
        # building the stepper without it makes the node-local closed form exact
        monkeypatch.setattr(swe, "_PENALTY", 0.0)
        stepper = LoweringOnly(model, grid64)
        wave = initial_wave(EXCITED, grid64)
        dt, n_steps = 1e-3, 100
        _, ys = integrate(lambda t, psi, left: rk4_step(stepper.rhs, t, psi, dt)[None],
                          wave.values, TimeGrid(0.0, n_steps * dt, dt, n_steps),
                          lambda step, ts, block: None)
        current = ys[-1]
        t = n_steps * dt
        a_conj = np.conj(grid64.nodes())
        expected = np.empty_like(wave.values)
        for ix in range(grid64.M):
            for iy in range(grid64.M):
                gen = -1j * t * a_conj[ix, iy] * model.j
                expected[:, ix, iy] = expm(gen) @ wave.values[:, ix, iy]
        assert np.max(np.abs(current - expected)) <= 1e-9
        # real-axis row: pure phase rotation, pointwise modulus preserved
        iy0 = grid64.M // 2
        before = np.linalg.norm(wave.values[:, :, iy0], axis=0)
        after = np.linalg.norm(current[:, :, iy0], axis=0)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_matches_bargmann_backend(self):
        # the wave itself over half a Rabi period: at L 8 the domain edge is below
        # round-off and the two RK4 maps agree at any dt (test_matches_oracle_to_round_off)
        grid = PhaseGrid(8.0, 64)
        model = two_level_model(g=1.0)
        tgrid = TimeGrid(0.0, np.pi, np.pi / 785, 785)
        grid_run = evolve_swe(model, initial_wave(EXCITED, grid), tgrid)
        barg_run = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)
        barg_on_grid = evaluate_on_grid(barg_run[-1], grid)
        scale = np.max(np.abs(barg_on_grid.values))
        diff = np.max(np.abs(grid_run[-1].values - barg_on_grid.values))
        assert diff <= 1e-12 * scale, diff / scale

    @pytest.mark.parametrize("which", ["two-level", "detuned", "three-level"])
    def test_matches_oracle_to_round_off(self, which, request):
        # on e^{-|a|^2/2} times a polynomial in a* the grid RHS is the coefficient RHS read
        # on the grid, so the RK4 maps agree at any dt; at L 8 the domain edge is below
        # round-off, and a defect of 1e-6 in a symbol reads 1e-8 here
        grid = PhaseGrid(8.0, 64)
        if which == "three-level":
            model, psi_ato, n_max, bound = (request.getfixturevalue("three_level_model"),
                                            np.array([0.6, 0.8j, 0.0]), 12, 1e-10)
            tgrid = TimeGrid(0.0, 1.0, 4e-3)
        else:
            model = two_level_model(g=1.0, detuning=1.5 if which == "detuned" else 0.0)
            psi_ato, n_max, bound = EXCITED, 8, 1e-13
            tgrid = TimeGrid(0.0, 196 * 4e-3, 4e-3)
        grid_run = evolve_swe(model, initial_wave(psi_ato, grid), tgrid)
        oracle = evolve_unitary(model, initial_wave(psi_ato, FockBasis(n_max)), tgrid)
        assert compare_to_oracle(grid_run[-1], oracle.states[-1], grid).linf <= bound

    def test_boundary_guard_fires_on_small_grid(self):
        # a domain of radius 3 cannot hold the spreading component
        model = two_level_model(g=1.0)
        grid = PhaseGrid(3.0, 32)
        wave = initial_wave(EXCITED, grid)
        tgrid = TimeGrid(0.0, np.pi, 1e-3 * np.pi, 1000)
        with pytest.raises(RuntimeError, match=r"boundary mass grew .*step \d+, t="):
            evolve_swe(model, wave, tgrid, GridOptions(norm_tol=1.0))

    def test_probability_guard_names_step_and_time(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        with pytest.raises(RuntimeError, match=r"total probability .* at step 1, t=0\.001"):
            evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 0.1, 1e-3),
                       GridOptions(norm_tol=0.0))

    def test_probability_guard_ignores_the_start_tolerance(self):
        # norm_tol=1.0 admits the start at construction only: the run holds total
        # probability to grid.tol, 4e-4 here, which the start's 0.99914 misses
        grid = PhaseGrid(2.5, 32)
        wave = initial_wave(EXCITED, grid, norm_tol=1.0)
        with pytest.raises(RuntimeError, match=r"total probability 0\.9991.* beyond 0\.0004 "
                                                r"at step 1, t=0\.001$"):
            evolve_swe(two_level_model(g=1.0), wave, TimeGrid(0.0, 0.01, 1e-3),
                       GridOptions(check_boundary=False))

    def test_spectral_matches_analytic_wave(self, grid64):
        model = two_level_model(g=1.0)
        tgrid = TimeGrid(0.0, 0.5, 1e-3, 500)
        exact = analytic_rabi_wave(grid64, 0.5)
        spectral = evolve_swe(model, initial_wave(EXCITED, grid64), tgrid)
        assert np.max(np.abs(spectral[-1].values - exact)) <= 1e-4

    @pytest.mark.parametrize("which", ["two_level", "detuned", "three_level"])
    def test_rhs_matches_five_transform_reference(self, which, grid64, request, monkeypatch):
        model = {"two_level": lambda: two_level_model(g=1.0),
                 "detuned": lambda: two_level_model(g=1.0, detuning=1.5),
                 "three_level": lambda: request.getfixturevalue("three_level_model")}[which]()
        rng = np.random.default_rng(11)
        # mu is folded into the stepper's multipliers at construction, so each penalty,
        # the default, none and another, gets a stepper of its own
        for penalty in (swe._PENALTY, 0.0, 2.0):
            stepper, mu = _stepper(model, grid64, penalty, monkeypatch)
            for t in (0.0, 0.37, 5.3):
                psi = _random_wave(rng, grid64, model.atom_dim)
                ref = _reference_rhs(stepper, t, psi, mu)
                diff = np.max(np.abs(stepper.rhs(t, psi) - ref))
                assert diff <= 1e-14 * np.max(np.abs(ref)), (penalty, t)

    def test_rhs_ignores_the_penalty_set_after_construction(self, grid64, monkeypatch):
        model = two_level_model(g=1.0)
        psi = _random_wave(np.random.default_rng(17), grid64, 2)
        stepper = GridStepper(model, grid64)
        before = stepper.rhs(0.37, psi)
        monkeypatch.setattr(swe, "_PENALTY", 0.0)
        np.testing.assert_array_equal(stepper.rhs(0.37, psi), before)
        assert np.max(np.abs(GridStepper(model, grid64).rhs(0.37, psi) - before)) > 0

    def test_one_current_per_distinct_stage_time(self, grid64, monkeypatch):
        # RK4 evaluates its midpoint twice; the second evaluation reuses j(t)
        calls = []

        def counting(model, t):
            calls.append(t)
            return unitary.rotated_current(model, t)

        monkeypatch.setattr(swe, "rotated_current", counting)
        stepper = GridStepper(two_level_model(g=1.0, detuning=0.3), grid64)
        psi = initial_wave(EXCITED, grid64).values
        rk4_step(stepper.rhs, 0.2, psi, 4e-3)
        assert calls == [0.2, 0.2 + 2e-3, 0.2 + 4e-3]

    def test_rhs_results_alias_nothing(self, grid64):
        rng = np.random.default_rng(12)
        stepper = GridStepper(two_level_model(g=1.0), grid64)
        psi1, psi2 = (_random_wave(rng, grid64, 2) for _ in range(2))
        kept1, kept2 = psi1.copy(), psi2.copy()
        r1 = stepper.rhs(0.0, psi1)
        first = r1.copy()
        r2 = stepper.rhs(0.37, psi2)
        assert not np.shares_memory(r1, r2)
        np.testing.assert_array_equal(r1, first)
        np.testing.assert_array_equal(psi1, kept1)
        np.testing.assert_array_equal(psi2, kept2)

        y0 = initial_wave(EXCITED, grid64).values
        y0_kept = y0.copy()
        _, ys = integrate(lambda t, psi, left: rk4_step(stepper.rhs, t, psi, 1e-3)[None], y0,
                          TimeGrid(0.0, 5e-3, 1e-3), lambda step, ts, block: None)
        np.testing.assert_array_equal(y0, y0_kept)
        # the first sample is y0 itself; each stepped sample shares memory with nothing
        assert len(ys) == 6 and ys[0] is y0
        arrays = [y0] + ys[1:]
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        # the samples differ from step to step, so none was overwritten by a later one
        assert all(np.max(np.abs(x - y)) > 0 for x, y in zip(ys, ys[1:]))

    def test_samples_are_the_stepper_iterates(self, grid64):
        # one layout: every grid wave holds a C-contiguous (d, M, M) array, and a run's
        # samples are the stepper's iterates as they are, none sharing memory with another
        # sample or with the start
        model, tgrid = two_level_model(g=1.0), TimeGrid(0.0, 5e-3, 1e-3)
        start = initial_wave(EXCITED, grid64)
        waves = evolve_swe(model, start, tgrid)
        coefficient = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        for wave in [start, evaluate_on_grid(coefficient, grid64), *waves]:
            assert wave.values.shape == (2, grid64.M, grid64.M)
            assert wave.values.flags.c_contiguous
        assert len(waves) == 6 and waves[0] is start
        for i, x in enumerate(waves):
            for y in waves[i + 1:]:
                assert not np.shares_memory(x.values, y.values)
        stepper = GridStepper(model, grid64)
        _, ys = integrate(lambda t, psi, left: rk4_step(stepper.rhs, t, psi, tgrid.dt)[None],
                          start.values, tgrid, lambda step, ts, block: None)
        for wave, psi in zip(waves, ys, strict=True):
            np.testing.assert_array_equal(wave.values, psi)
        with pytest.raises(ValueError, match=r"values must have shape \(d, M, M\)"):
            SemiclassicalWave(grid64, np.moveaxis(start.values, 0, -1))

    @pytest.mark.parametrize("which", ["two_level", "three_level"])
    @pytest.mark.parametrize("L, M, band", [(2.5, 32, 19), (6.0, 32, 32), (8.0, 256, 61)])
    def test_rhs_matches_reference_across_band_widths(self, which, L, M, band, request,
                                                      monkeypatch):
        # a band narrower than the axis, one that is the whole axis (no padding)
        # and a wide grid whose band is a quarter of it
        model = (two_level_model(g=1.0) if which == "two_level"
                 else request.getfixturevalue("three_level_model"))
        grid = PhaseGrid(L, M)
        rng = np.random.default_rng(14)
        for penalty in (swe._PENALTY, 0.0):
            stepper, mu = _stepper(model, grid, penalty, monkeypatch)
            assert stepper._band.size == band
            psi = _random_wave(rng, grid, model.atom_dim)
            ref = _reference_rhs(stepper, 0.37, psi, mu)
            diff = np.max(np.abs(stepper.rhs(0.37, psi) - ref))
            assert diff <= 1e-14 * np.max(np.abs(ref)), penalty

    def test_rhs_does_not_depend_on_the_previous_call(self, grid64):
        # the work buffers keep a call's values, off the band too; the next
        # call's result must not depend on them
        rng = np.random.default_rng(15)
        model = two_level_model(g=1.0)
        psi1, psi2 = (_random_wave(rng, grid64, 2) for _ in range(2))
        stepper = GridStepper(model, grid64)
        stepper.rhs(0.37, psi1)
        np.testing.assert_array_equal(stepper.rhs(0.37, psi2),
                                      GridStepper(model, grid64).rhs(0.37, psi2))

    @pytest.mark.parametrize("detuning", [0.0, 1.5])
    def test_atom_products_only_on_non_zero_entries(self, detuning, grid64, monkeypatch):
        # j(t) of the two-level preset is g e^{-i detuning t} sigma_-, one non-zero entry:
        # each _atoms call does one plane product, and the plane that meets only zero
        # coefficients is never read, so NaN there leaves the result finite
        stepper = GridStepper(two_level_model(g=1.0, detuning=detuning), grid64)
        rng = np.random.default_rng(16)
        products, multiply = [], np.multiply

        def counting(x, *args, **kwargs):
            products.append(x.shape)
            return multiply(x, *args, **kwargs)

        monkeypatch.setattr(np, "multiply", counting)
        for t in (0.0, 0.37, 1.1):
            jt, jdt = stepper._coupling(t)
            for op in (-2j * jt, -1j * jdt):
                (j, i), = np.argwhere(op)
                x = _random_wave(rng, grid64, 2)
                x[1 - i] = np.nan
                products.clear()
                result = stepper._atoms(op, x, np.empty_like(x))
                assert products == [(grid64.M, grid64.M)]
                assert np.all(np.isfinite(result))
                np.testing.assert_array_equal(result[j], x[i] * op[j, i])
                np.testing.assert_array_equal(result[1 - j], 0.0)

    @pytest.mark.parametrize("which", ["two_level", "three_level"])
    def test_rhs_transform_count(self, which, grid64, request, monkeypatch):
        # the band at L 5, M 64 is 39 of the 64 indices per axis
        model = (two_level_model(g=1.0) if which == "two_level"
                 else request.getfixturevalue("three_level_model"))
        d, M, band = model.atom_dim, grid64.M, 39
        lines, two_d = [], []

        def counting(transform):
            def wrapped(x, *args, axis=-1, **kwargs):
                lines.append(x.size // x.shape[axis])
                return transform(x, *args, axis=axis, **kwargs)
            return wrapped

        monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
        for name in ("fft2", "ifft2", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, lambda *args, name=name, **kwargs: two_d.append(name))
        psi = _random_wave(np.random.default_rng(13), grid64, d)
        # one path: without the penalty too, a call does all four transforms
        for penalty in (swe._PENALTY, 0.0):
            stepper, _ = _stepper(model, grid64, penalty, monkeypatch)
            lines.clear()
            stepper.rhs(0.37, psi)
            assert sorted(lines) == 4 * [band * d] + 4 * [M * d], penalty
        assert two_d == []


class TestRepresentationMaps:
    def test_initial_wave_evaluates_to_gaussian(self, grid64):
        barg = initial_wave(EXCITED, FockBasis(8))
        on_grid = evaluate_on_grid(barg, grid64)
        np.testing.assert_allclose(on_grid.values, initial_wave(EXCITED, grid64).values,
                                   atol=1e-14)

    def test_round_trip_projection(self):
        # the grid must cover the highest retained basis function
        grid = PhaseGrid(7.0, 128)
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        coeffs /= np.sqrt(np.sum(np.abs(coeffs) ** 2))
        barg = CompositeState(CompositeSpace(2, FockBasis(8)), coeffs.T.ravel())
        np.testing.assert_array_equal(barg.coeffs, coeffs)
        # quadrature against e^{-|a|^2/2} (a*)^n / sqrt(pi n!), orthonormal under dx dy
        a = grid.nodes()[:, :, None]
        n = np.arange(9)
        basis = np.exp(-0.5 * np.abs(a) ** 2) * np.conj(a) ** n \
            / np.sqrt(np.pi * np.array([factorial(k) for k in n]))
        back = np.einsum("xyn,dxy->nd", basis.conj(), evaluate_on_grid(barg, grid).values) \
            * grid.weight
        np.testing.assert_allclose(back, coeffs, atol=1e-8)

    @pytest.mark.parametrize("L, M, n_max", [(5.0, 64, 14), (8.0, 256, 16)],
                             ids=["L5-M64-n14", "L8-M256-n16"])
    def test_evolved_state_is_the_explicit_basis_sum(self, L, M, n_max):
        # an oracle state is a coefficient wave: on the grid it is
        # sum_n e^{-|a|^2/2} (a*)^n / sqrt(pi n!) F_n with F = Y^T, node by node; the
        # second grid is verify_phasespace.json's, whose corners reach |a| = 11.3
        model = two_level_model(g=1.0, detuning=0.5)
        space = CompositeSpace(2, FockBasis(n_max))
        start = product_initial_state(EXCITED, coherent_amplitudes(0.6, space.fock), space)
        state = evolve_unitary(model, start, TimeGrid(0.0, 0.5, 1e-3, 500)).states[-1]
        grid = PhaseGrid(L, M)
        a = grid.nodes()
        F = state.as_matrix().T
        expected = sum(np.exp(-0.5 * np.abs(a) ** 2) * np.conj(a) ** n
                       / np.sqrt(np.pi * factorial(n)) * F[n][:, None, None]
                       for n in range(n_max + 1))
        assert np.max(np.abs(evaluate_on_grid(state, grid).values - expected)) <= 1e-15

    def test_allocates_no_fock_axis(self):
        # the same state held in FockBasis(16) and in FockBasis(40): the peak allocation
        # of putting it on the grid stays a few wave arrays, whatever n_max
        grid = PhaseGrid(5.0, 128)
        amplitudes = coherent_amplitudes(0.5, FockBasis(8))
        peaks = []
        for n_max in (16, 40):
            space = CompositeSpace(2, FockBasis(n_max))
            padded = np.zeros(n_max + 1, dtype=complex)
            padded[:9] = amplitudes / np.linalg.norm(amplitudes)
            state = product_initial_state(EXCITED, padded, space)
            tracemalloc.start()
            try:
                result = evaluate_on_grid(state, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert peaks[1] <= 6 * result.values.nbytes, (peaks, result.values.nbytes)

    def test_norm_preserved(self, grid64):
        barg = initial_wave(EXCITED, FockBasis(8))
        on_grid = evaluate_on_grid(barg, grid64)
        assert on_grid.total_probability() == pytest.approx(1.0, abs=grid64.tol)

    def test_grid_wave_passes_through(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        assert evaluate_on_grid(wave, grid64) is wave
        assert evaluate_on_grid(wave, PhaseGrid(5.0, 64)) is wave  # equal, not the same object
        for other in (PhaseGrid(5.0, 32), PhaseGrid(6.0, 64)):
            with pytest.raises(ValueError, match="does not match the grid"):
                evaluate_on_grid(wave, other)

    def test_grid_consumers_refuse_coefficient_waves(self):
        barg = initial_wave(EXCITED, FockBasis(8))
        with pytest.raises(ValueError, match="field_density needs a grid wave; .*evaluate_on_grid"):
            field_density(barg)
        with pytest.raises(ValueError,
                           match="swe_expectation needs a grid wave; .*evaluate_on_grid"):
            swe_expectation(barg, SemiclassicalObservable.constant(1.0))
        with pytest.raises(ValueError, match="sample_field needs a grid wave; .*evaluate_on_grid"):
            sample_field(barg, 10, seed=0)


class TestFieldDensity:
    def test_rabi_density_closed_form(self, grid64):
        model = two_level_model(g=1.0)
        t_end = 0.75
        tgrid = TimeGrid(0.0, t_end, 1e-3, 750)
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        dens = field_density(evaluate_on_grid(wave, grid64))
        a = grid64.nodes()
        expected = (np.exp(-np.abs(a) ** 2) / np.pi) * (
            np.cos(t_end) ** 2 + np.abs(a) ** 2 * np.sin(t_end) ** 2)
        assert np.max(np.abs(dens.values - expected)) <= grid64.tol
        assert dens.values.min() >= 0.0
        assert dens.integral() == pytest.approx(1.0, abs=grid64.tol)


class TestConditionalState:
    """Conditional atomic states psi(a)/||psi(a)|| read at the nodes of the grid wave."""

    @staticmethod
    def _states(wave, grid):
        values = evaluate_on_grid(wave, grid).values
        return values / np.linalg.norm(values, axis=0, keepdims=True), values

    def test_initial_wave_factorizes(self, grid64):
        states, _ = self._states(initial_wave(EXCITED, grid64), grid64)
        np.testing.assert_allclose(states, np.broadcast_to(EXCITED[:, None, None], states.shape),
                                   atol=1e-12)

    def test_rabi_quarter_period_at_origin(self, grid64):
        model = two_level_model(g=1.0)
        tgrid = TimeGrid(0.0, np.pi / 4.0, np.pi / 4000.0, 1000)
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        states, _ = self._states(wave, grid64)
        assert grid64.nodes()[32, 32] == 0.0
        assert abs(abs(states[0, 32, 32]) - 1.0) <= 1e-9

    def test_rabi_half_period(self, grid64):
        model = two_level_model(g=1.0)
        tgrid = TimeGrid(0.0, np.pi / 2.0, np.pi / 4000.0, 2000)
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        states, values = self._states(wave, grid64)
        assert grid64.nodes()[40, 32] == 1.25
        assert abs(abs(states[1, 40, 32]) - 1.0) <= 1e-9
        # the excited amplitude vanishes at the origin, so no state is conditioned there
        assert np.linalg.norm(values[:, 32, 32]) <= 1e-12


class TestExpectations:
    def test_unit_and_projector_and_second_moment(self, grid64):
        model = two_level_model(g=1.0)
        t_end = 1.2
        tgrid = TimeGrid(0.0, t_end, 1e-3, 1200)
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        gwave = evaluate_on_grid(wave, grid64)
        one = SemiclassicalObservable.constant(1.0)
        assert swe_expectation(gwave, one) == pytest.approx(1.0, abs=1e-6)
        proj_e = SemiclassicalObservable.constant(1.0, atom_op=np.diag([1.0, 0.0]))
        assert swe_expectation(gwave, proj_e) == pytest.approx(np.cos(t_end) ** 2, abs=1e-6)
        abs_sq = SemiclassicalObservable.abs_square()
        assert swe_expectation(gwave, abs_sq) == pytest.approx(
            np.sin(t_end) ** 2 + 1.0, abs=1e-6)

    def test_refuses_a_non_hermitian_observable(self, grid64):
        # swe_expectation returns a real number, so <a> of this wave would read about
        # 1 where phase_space_moment gives 1+1j, and sigma_+ would read 0
        alpha = 1.0 + 1.0j
        envelope = np.exp(-0.5 * np.abs(grid64.nodes() - alpha) ** 2) / np.sqrt(np.pi)
        wave = SemiclassicalWave(grid64, envelope * EXCITED[:, None, None])
        mean = phase_space_moment(field_density(wave), 1, 0)
        assert mean == pytest.approx(alpha, abs=1e-6)
        for poly in ({(1, 0): 1.0}, {(1, 1): 1.0j}, {(1, 0): 0.5, (0, 1): 0.4}):
            with pytest.raises(ValueError, match="c_jk != conj"):
                swe_expectation(wave, SemiclassicalObservable.from_poly(poly))
        sigma_plus = SemiclassicalObservable.constant(1.0, atom_op=[[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="atom_op is not Hermitian"):
            swe_expectation(wave, sigma_plus)
        # the Hermitian parts of the same observables are read
        re_a = SemiclassicalObservable.from_poly({(1, 0): 0.5, (0, 1): 0.5})
        im_a = SemiclassicalObservable.from_poly({(1, 0): -0.5j, (0, 1): 0.5j})
        assert swe_expectation(wave, re_a) == pytest.approx(mean.real, abs=1e-12)
        assert swe_expectation(wave, im_a) == pytest.approx(mean.imag, abs=1e-12)
        sigma_x = SemiclassicalObservable.constant(1.0, atom_op=[[0.0, 1.0], [1.0, 0.0]])
        assert swe_expectation(wave, sigma_x) == 0.0

    @pytest.mark.parametrize("site", ["husimi-imag", "husimi-min", "wigner-sum", "poly",
                                      "atom-op", "coarse-grain"])
    def test_checks_refuse_nan(self, grid64, site):
        # every check is written so that NaN fails it
        q = np.exp(-np.abs(grid64.nodes()) ** 2) / np.pi
        nan_node = np.zeros_like(q)
        nan_node[32, 32] = np.nan
        wave = initial_wave(EXCITED, grid64)
        refused = {
            "husimi-imag": (lambda: PhaseFunction(grid64, q + 1j * nan_node, kind="husimi"),
                            "husimi values must be real"),
            "husimi-min": (lambda: PhaseFunction(grid64, q + nan_node, kind="husimi"),
                           "husimi values dip to nan"),
            "wigner-sum": (lambda: PhaseFunction(grid64, np.full_like(q, np.nan), kind="wigner"),
                           "quadrature sum nan"),
            "poly": (lambda: swe_expectation(wave, SemiclassicalObservable.from_poly(
                {(1, 1): np.nan})), "c_jk != conj"),
            "atom-op": (lambda: swe_expectation(wave, SemiclassicalObservable.constant(
                1.0, atom_op=[[np.nan, 0.0], [0.0, 1.0]])), "atom_op is not Hermitian"),
            "coarse-grain": (lambda: coarse_grain(PhaseFunction(grid64, np.full_like(q, np.nan))),
                             "boundary mass nan"),
        }
        build, message = refused[site]
        with pytest.raises(ValueError, match=message):
            build()


class TestSampling:
    def test_initial_wave_second_moment(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        samples = sample_field(wave, 100000, seed=42)
        mean = np.mean([abs(s.a) ** 2 for s in samples])
        assert abs(mean - 1.0) <= 0.02

    def test_estimate_matches_quadrature_within_errors(self, grid64):
        model = two_level_model(g=1.0)
        tgrid = TimeGrid(0.0, np.pi / 4.0, np.pi / 4000.0, 1000)
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        gwave = evaluate_on_grid(wave, grid64)
        quad = swe_expectation(gwave, SemiclassicalObservable.abs_square())
        samples = sample_field(gwave, 100000, seed=7)
        values = np.array([abs(s.a) ** 2 for s in samples])
        stderr = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - quad) <= 3.0 * stderr

    def test_seed_determinism(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        first = sample_field(wave, 500, seed=3)
        second = sample_field(wave, 500, seed=3)
        assert [s.a for s in first] == [s.a for s in second]
        third = sample_field(wave, 500, seed=4)
        assert [s.a for s in first] != [s.a for s in third]

    def test_conditional_states_attached(self, grid64):
        wave = initial_wave(EXCITED, grid64)
        samples = sample_field(wave, 50, seed=0)
        assert samples.a.shape == (50,) and samples.a.dtype == complex
        assert samples.conditional_state.shape == (50, 2)
        np.testing.assert_allclose(samples.conditional_state, np.tile(EXCITED, (50, 1)),
                                   atol=1e-12)
        # each record is its node's vector, normalized the way sample_field does it
        ix, iy = (np.round((part + grid64.L) / grid64.h).astype(int)
                  for part in (samples.a.real, samples.a.imag))
        for state, vec in zip(samples.conditional_state, wave.values[:, ix, iy].T):
            np.testing.assert_array_equal(
                state, vec / np.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag)))

    def test_zero_uniform_draws_first_node_of_positive_mass(self, grid64, monkeypatch):
        values = initial_wave(EXCITED, grid64).values.copy()
        values[:, 0, :] = values[:, :, 0] = 0.0
        wave = SemiclassicalWave(grid64, values)

        class ZeroRng:
            def random(self, count):
                return np.zeros(count)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroRng())
        samples = sample_field(wave, 3, seed=0)
        np.testing.assert_array_equal(samples.a, np.full(3, grid64.nodes()[1, 1]))
        np.testing.assert_array_equal(samples.conditional_state, np.tile(EXCITED, (3, 1)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("setup", ["readme", "three-level"])
    def test_conditional_states_average_to_reduced_atomic_state(self, request, setup, seed):
        # the stochastic claim: the conditional states c drawn with the field average,
        # E[c c+], to the oracle's Tr_field rho, each complex entry within 5 standard
        # errors sqrt(E|x - Ex|^2 / N) of its mean
        if setup == "readme":
            model, psi_ato, basis = two_level_model(g=1.0), EXCITED, FockBasis(8)
            grid, tgrid = PhaseGrid(5.0, 128), TimeGrid(0.0, 0.785, 1e-3, 785)
        else:
            model, psi_ato = request.getfixturevalue("three_level_model"), [0.6, 0.8j, 0.0]
            basis, grid, tgrid = FockBasis(10), PhaseGrid(6.0, 128), TimeGrid(0.0, 1.0, 2e-3, 500)
        space = CompositeSpace(model.atom_dim, basis)
        initial = product_initial_state(psi_ato, np.eye(basis.dim)[0], space)
        state = evolve_unitary(model, initial, tgrid).states[-1]
        rho_atom = partial_trace_field(density_operator(state), space)
        wave = evolve_swe(model, initial_wave(psi_ato, basis), tgrid)[-1]
        c = sample_field(evaluate_on_grid(wave, grid), 100000, seed).conditional_state
        outer = c[:, :, None] * c[:, None, :].conj()
        se = outer.std(axis=0, ddof=1) / np.sqrt(len(c))
        assert np.all(np.abs(outer.mean(axis=0) - rho_atom) <= 5.0 * se)

    def test_node_frequencies_match_density(self):
        grid = PhaseGrid(5.0, 32)
        rng = np.random.default_rng(5)
        values = _random_wave(rng, grid, 2)
        values[:, 0, :] = values[:, :, 0] = 0.0
        values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.weight)
        wave = SemiclassicalWave(grid, values)
        count = 100000
        samples = sample_field(wave, count, seed=13)
        ix, iy = (np.round((part + grid.L) / grid.h).astype(int)
                  for part in (samples.a.real, samples.a.imag))
        freq = np.bincount(ix * grid.M + iy, minlength=grid.M ** 2) / count
        p = (np.sum(np.abs(values) ** 2, axis=0) * grid.weight).ravel()
        stderr = np.sqrt(p * (1.0 - p) / count)
        assert np.all(np.abs(freq - p) <= 5.0 * stderr)  # a node of zero mass is never drawn


class TestJaynesCummingsReference:
    """Collapse and revival from a coherent field, against the closed-form series.

    With the atom excited, field amplitudes c_n and detuning D,
    P_e(t) = sum_n |c_n|^2 [1 - (4 g^2 (n+1) / W_n^2) sin^2(W_n t / 2)] with
    W_n = sqrt(D^2 + 4 g^2 (n+1)), independent of either solver; at resonance
    this is sum_n |c_n|^2 cos^2(g sqrt(n+1) t). The detuned case exercises
    non-zero Bohr phases in j(t).
    """

    @pytest.mark.parametrize("solver,detuning", [("oracle", 0.0), ("coefficient", 0.0),
                                                 ("oracle", 1.5), ("coefficient", 1.5),
                                                 ("grid", 0.0), ("grid", 1.5),
                                                 ("grid-revival", 0.0)],
                             ids=["oracle", "coefficient", "oracle-detuned",
                                  "coefficient-detuned", "grid", "grid-detuned", "grid-revival"])
    def test_excited_population_matches_series(self, solver, detuning):
        # The grid cases are the only grid runs that start above the vacuum, so the
        # only ones that reach Fock levels above 1: the sqrt(n+1) ladder and the
        # derivative term. At n̄ 2.25 to t 2 only the series is asserted. The revival
        # case holds the grid backend through the collapse and revival of n̄ 5 to t 16,
        # the field's memory (Eberly, Narozhny & Sanchez-Mondragon, PRL 44, 1323 (1980)).
        g = 1.0
        model = two_level_model(g=g, detuning=detuning)
        if solver == "grid":
            basis, tgrid, nbar = FockBasis(24), TimeGrid(0.0, 2.0, 4e-3, 50), 2.25
            grid = PhaseGrid(6.0, 64)
        elif solver == "grid-revival":
            basis, tgrid, nbar = FockBasis(30), TimeGrid(0.0, 16.0, 4e-3, 100), 5.0
            grid = PhaseGrid(7.0, 32)
        else:
            basis, tgrid, nbar = FockBasis(30), TimeGrid(0.0, 16.0, 2.5e-3, 40), 5.0
        c = coherent_amplitudes(np.sqrt(nbar), basis)
        start = product_initial_state(EXCITED, c, CompositeSpace(2, basis))
        # the sample times of every run are those of the TimeGrid
        times = tgrid.t_start + tgrid.dt * np.arange(0, tgrid.n_steps + 1, tgrid.sample_stride)
        if solver == "oracle":
            run = evolve_unitary(model, start, tgrid)
            np.testing.assert_array_equal(run.times, times)
            p_e = np.array([np.sum(np.abs(state.as_matrix()[0]) ** 2) for state in run.states])
        elif solver.startswith("grid"):
            waves = evolve_swe(model, evaluate_on_grid(start, grid), tgrid)
            excited = SemiclassicalObservable.constant(1.0, atom_op=np.diag([1.0, 0.0]))
            p_e = np.array([swe_expectation(w, excited) for w in waves])
        else:
            waves = evolve_swe(model, start, tgrid)
            p_e = np.array([np.sum(np.abs(w.coeffs[:, 0]) ** 2) for w in waves])
        assert len(p_e) == len(times)
        weight = 4.0 * g ** 2 * (np.arange(basis.dim) + 1)
        rabi = np.sqrt(detuning ** 2 + weight)
        series = (1.0 - (weight / rabi ** 2)[None, :]
                  * np.sin(0.5 * rabi[None, :] * times[:, None]) ** 2) @ np.abs(c) ** 2
        if solver == "grid":
            assert len(times) == 11 and np.min(p_e) < 0.3
            assert np.max(np.abs(p_e - series)) <= 1e-6
            return
        count, bound = (41, 1e-6) if solver == "grid-revival" else (161, 1e-8)
        assert len(times) == count
        assert np.max(np.abs(p_e - series)) <= bound
        # the collapse settles at the time average of the series (1/2 at resonance)
        plateau = np.abs(c) ** 2 @ (1.0 - 0.5 * weight / rabi ** 2)
        collapse = (times >= 4.0) & (times <= 8.0)
        assert np.all(np.abs(p_e[collapse] - plateau) <= 0.05)
        assert np.max(p_e[(times >= 12.0) & (times <= 16.0)]) > 0.75


class TestOracleComparison:
    def test_refuses_wave_on_another_grid(self, grid64):
        space = CompositeSpace(2, FockBasis(8))
        state = product_initial_state(EXCITED, np.eye(9, dtype=complex)[0], space)
        wave = initial_wave(EXCITED, PhaseGrid(5.0, 32))
        with pytest.raises(ValueError, match="does not match the grid"):
            compare_to_oracle(wave, state, grid64)

    def test_identical_at_time_zero(self, grid64):
        space = CompositeSpace(2, FockBasis(8))
        vac = np.zeros(9, dtype=complex)
        vac[0] = 1.0
        state = product_initial_state(EXCITED, vac, space)
        wave = initial_wave(EXCITED, FockBasis(8))
        report = compare_to_oracle(wave, state, grid64)
        assert report.linf <= 1e-10
        assert report.l2 <= 1e-10

    def test_full_period_agreement(self, grid64):
        model = two_level_model(g=1.0)
        space = CompositeSpace(2, FockBasis(8))
        vac = np.zeros(9, dtype=complex)
        vac[0] = 1.0
        tgrid = TimeGrid(0.0, np.pi, np.pi / 3142, 3142)
        state = evolve_unitary(model, product_initial_state(EXCITED, vac, space),
                               tgrid).states[-1]
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        report = compare_to_oracle(wave, state, grid64)
        assert report.linf <= 1e-7
        for name in ("1", "a", "a*", "|a|^2"):
            assert report.moments[name]["delta"] <= 1e-7
        payload = report.to_json_dict()
        assert set(payload) == {"linf", "l2", "moments"}
        assert payload["moments"]["|a|^2"]["swe"]["re"] == pytest.approx(
            np.sin(np.pi) ** 2 + 1.0, abs=1e-6)

    def test_moments_are_phase_space_moments_of_each_field(self, grid64):
        space = CompositeSpace(2, FockBasis(8))
        atom = np.array([0.6, 0.8j])
        state = product_initial_state(atom, coherent_amplitudes(0.5 - 0.3j, space.fock), space)
        report = compare_to_oracle(state, state, grid64)
        psi = evaluate_on_grid(state, grid64).values
        fields = {"swe": OperatorPhaseField(grid64, np.einsum("ixy,jxy->ijxy", psi, psi.conj())),
                  "oracle": husimi_density(density_operator(state), space, grid64)}
        for name, (j, k) in {"1": (0, 0), "a": (1, 0), "a*": (0, 1), "|a|^2": (1, 1)}.items():
            for side, field in fields.items():
                m = phase_space_moment(field, j, k)
                assert report.moments[name][side] == {"re": m.real, "im": m.imag}, (name, side)
        assert abs(report.moments["a"]["oracle"]["re"] - 0.5) <= 1e-6  # not a vanishing moment

    def test_atomic_marginal_matches_partial_trace(self, grid64):
        # quadrature of psi psi+ over the field plane is the reduced atomic
        # density operator of the oracle state
        from semicav.fockspace import partial_trace_field
        from semicav.unitary import density_operator

        model = two_level_model(g=1.0)
        space = CompositeSpace(2, FockBasis(8))
        vac = np.zeros(9, dtype=complex)
        vac[0] = 1.0
        tgrid = TimeGrid(0.0, 1.1, 1e-3, 1100)
        state = evolve_unitary(model, product_initial_state(EXCITED, vac, space),
                               tgrid).states[-1]
        wave = evolve_swe(model, initial_wave(EXCITED, FockBasis(8)), tgrid)[-1]
        gwave = evaluate_on_grid(wave, grid64)
        marginal = np.einsum("ixy,jxy->ij", gwave.values, gwave.values.conj()) \
            * grid64.weight
        reduced = partial_trace_field(density_operator(state), space)
        np.testing.assert_allclose(marginal, reduced, atol=1e-8)
