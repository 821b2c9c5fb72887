import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from semicav import unitary
from semicav.fockspace import (
    CompositeSpace,
    CompositeState,
    FockBasis,
    coherent_amplitudes,
    number_operator,
)
from semicav.phasespace import PhaseGrid
from semicav.swe import GridStepper
from semicav.unitary import (
    AtomFieldModel,
    TimeGrid,
    atom_propagator,
    density_operator,
    evolve_unitary,
    integrate,
    interaction_hamiltonian,
    product_initial_state,
    rk4_step,
    rotated_current,
    two_level_model,
)

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
EXCITED = np.array([1.0, 0.0], dtype=complex)


def vacuum(n_max):
    v = np.zeros(n_max + 1, dtype=complex)
    v[0] = 1.0
    return v


def rabi_setup(g=1.0, n_max=8, detuning=0.0):
    model = two_level_model(g=g, detuning=detuning)
    space = CompositeSpace(2, FockBasis(n_max))
    psi0 = product_initial_state(EXCITED, vacuum(n_max), space)
    return model, space, psi0


class TestAtomPropagator:
    def test_matches_matrix_exponential(self, three_level_model):
        model = three_level_model
        for t in (0.37, 5.3):
            expected = expm(-1j * model.h_ato * t)
            assert np.max(np.abs(atom_propagator(model, t) - expected)) <= 1e-13

    def test_group_property(self, three_level_model):
        model = three_level_model
        for t, s in ((0.37, 5.3), (-1.1, 0.4)):
            product = atom_propagator(model, t) @ atom_propagator(model, s)
            assert np.max(np.abs(product - atom_propagator(model, t + s))) <= 1e-13


class TestRotatedCurrent:
    def test_t_zero_returns_j(self):
        model = two_level_model(g=0.8, detuning=0.4)
        np.testing.assert_allclose(rotated_current(model, 0.0), model.j, atol=1e-14)

    def test_two_level_closed_form(self):
        # conjugating sigma_- by the diagonal exponential gives a pure phase
        g, detuning = 0.7, 0.3
        model = two_level_model(g=g, detuning=detuning)
        for t in (0.2, 1.0, 3.7):
            expected = g * np.exp(-1j * detuning * t) * SIGMA_MINUS
            np.testing.assert_allclose(rotated_current(model, t), expected, atol=1e-12)

    def test_matches_matrix_exponentials_on_three_levels(self, three_level_model):
        # non-diagonal H_ato: the eigenvector matrix is not a permutation
        model = three_level_model
        for t in (0.3, 1.7, 5.3, 40.0):
            expected = (np.exp(1j * model.omega * t) * expm(1j * model.h_ato * t) @ model.j
                        @ expm(-1j * model.h_ato * t))
            assert np.max(np.abs(rotated_current(model, t) - expected)) <= 1e-12

    def test_resonant_case_is_static(self):
        model = two_level_model(g=1.3)
        for t in (0.5, 2.0, 9.1):
            np.testing.assert_allclose(rotated_current(model, t), model.j, atol=1e-12)

    @pytest.mark.parametrize("field", ["h_ato", "j", "omega"])
    def test_refuses_non_finite_model(self, field):
        entries = {"h_ato": np.diag([0.5, -0.5]), "j": SIGMA_MINUS.copy(), "omega": 1.0}
        if field == "omega":
            entries["omega"] = np.nan
        else:
            entries[field][0, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            AtomFieldModel(2, **entries)

    def test_hermiticity_validation(self):
        with pytest.raises(ValueError):
            AtomFieldModel(2, h_ato=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           j=np.zeros((2, 2)), omega=1.0)


class TestInteractionHamiltonian:
    def test_hermitian(self):
        model, space, _ = rabi_setup(detuning=0.25)
        for t in (0.0, 0.9, 4.2):
            h = interaction_hamiltonian(model, t, space)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_single_matrix_element(self):
        g = 0.6
        model, space, _ = rabi_setup(g=g)
        h = interaction_hamiltonian(model, 0.0, space)
        nf = space.fock.dim
        # <e,0| H |g,1>: excited is atomic index 0
        assert h[0 * nf + 0, 1 * nf + 1] == pytest.approx(g, abs=1e-14)

    def test_zero_current(self):
        model = AtomFieldModel(2, h_ato=np.zeros((2, 2)), j=np.zeros((2, 2)), omega=1.0)
        space = CompositeSpace(2, FockBasis(4))
        assert np.max(np.abs(interaction_hamiltonian(model, 1.0, space))) == 0.0

    def test_dimension_mismatch(self):
        model = two_level_model(g=1.0)
        with pytest.raises(ValueError):
            interaction_hamiltonian(model, 0.0, CompositeSpace(3, FockBasis(4)))


class TestInitialStates:
    def test_single_amplitude(self):
        space = CompositeSpace(2, FockBasis(4))
        state = product_initial_state(EXCITED, vacuum(4), space)
        expected = np.zeros(10, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected)

    def test_coherent_field_expansion(self):
        space = CompositeSpace(2, FockBasis(10))
        alpha = 0.9 + 0.2j
        state = product_initial_state(EXCITED, coherent_amplitudes(alpha, space.fock), space)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        amps = state.as_matrix()[0]
        np.testing.assert_allclose(amps[2] / amps[1], alpha / np.sqrt(2.0), atol=1e-12)

    def test_rejects_unnormalized(self):
        space = CompositeSpace(2, FockBasis(4))
        with pytest.raises(ValueError):
            product_initial_state(2.0 * EXCITED, vacuum(4), space)

    def test_rejects_nan(self):
        space = CompositeSpace(2, FockBasis(4))
        with pytest.raises(ValueError, match="atomic factor"):
            product_initial_state(np.array([np.nan, 0.0]), vacuum(4), space)
        field = vacuum(4)
        field[2] = np.nan
        with pytest.raises(ValueError, match="field factor"):
            product_initial_state(EXCITED, field, space)


class TestEvolution:
    def test_zero_current_is_static(self):
        model = AtomFieldModel(2, h_ato=np.diag([0.5, -0.5]), j=np.zeros((2, 2)), omega=1.0)
        space = CompositeSpace(2, FockBasis(4))
        psi0 = product_initial_state(EXCITED, vacuum(4), space)
        traj = evolve_unitary(model, psi0, TimeGrid(0.0, 1.0, 0.01, 25))
        for state in traj.states:
            np.testing.assert_allclose(state.amplitudes, psi0.amplitudes, atol=1e-12)

    def test_vacuum_rabi_populations(self):
        model, space, psi0 = rabi_setup()
        traj = evolve_unitary(model, psi0, TimeGrid(0.0, 6.284, 1e-3, 314))
        n_op = space.field_operator(number_operator(space.fock))
        worst_p = worst_n = worst_norm = worst_edge = 0.0
        for t, state in zip(traj.times, traj.states):
            p_e = float(np.sum(np.abs(state.as_matrix()[0]) ** 2))
            n_mean = float(np.real(state.amplitudes.conj() @ n_op @ state.amplitudes))
            worst_p = max(worst_p, abs(p_e - np.cos(t) ** 2))
            worst_n = max(worst_n, abs(n_mean - np.sin(t) ** 2))
            worst_norm = max(worst_norm, abs(np.linalg.norm(state.amplitudes) - 1.0))
            worst_edge = max(worst_edge, float(np.sum(np.abs(state.as_matrix()[:, -1]) ** 2)))
        assert worst_p <= 1e-8
        assert worst_n <= 1e-8
        assert worst_norm <= 1e-9
        assert worst_edge <= 1e-10

    def test_detuned_rabi_closed_form(self):
        g, detuning = 1.0, 0.8
        model, space, psi0 = rabi_setup(g=g, detuning=detuning)
        traj = evolve_unitary(model, psi0, TimeGrid(0.0, 4.0, 1e-3, 500))
        # generalized Rabi frequency for one excitation shared by two levels
        omega_r = np.sqrt(g ** 2 + 0.25 * detuning ** 2)
        for t, state in zip(traj.times, traj.states):
            p_e = float(np.sum(np.abs(state.as_matrix()[0]) ** 2))
            expected = 1.0 - (g ** 2 / omega_r ** 2) * np.sin(omega_r * t) ** 2
            assert p_e == pytest.approx(expected, abs=1e-7)

    def test_rk4_order(self):
        model, space, psi0 = rabi_setup()

        t_end = 0.96

        def endpoint_error(dt):
            traj = evolve_unitary(model, psi0, TimeGrid(0.0, t_end, dt, int(round(t_end / dt))))
            exact = np.zeros(space.total_dim, dtype=complex)
            exact[0] = np.cos(t_end)
            exact[space.fock.dim + 1] = -1j * np.sin(t_end)
            return np.linalg.norm(traj.states[-1].amplitudes - exact)

        ratio = endpoint_error(0.016) / endpoint_error(0.008)
        assert ratio >= 12.0

    def test_step_size_guard(self):
        model, space, psi0 = rabi_setup(g=10.0)
        with pytest.raises(ValueError):
            evolve_unitary(model, psi0, TimeGrid(0.0, 1.0, 0.1))

    def test_step_size_guard_threshold_is_exact(self):
        # the guard compares dt against the exact spectral norm at t_start
        model, space, psi0 = rabi_setup(g=10.0)
        norm = np.linalg.norm(interaction_hamiltonian(model, 0.0, space), 2)
        with pytest.raises(ValueError, match="reduce dt"):
            evolve_unitary(model, psi0, TimeGrid(0.0, 1.0, 1.0 / np.floor(norm / 0.05)))
        evolve_unitary(model, psi0, TimeGrid(0.0, 0.1, 0.1 / np.ceil(2.0 * norm), 1000))

    def test_norm_guard_refuses_nan(self):
        model, space, psi0 = rabi_setup()
        psi0.amplitudes[3] = np.nan  # after the constructor's check
        with pytest.raises(RuntimeError, match=r"probability nan at the truncation edge "
                                                r"at step 1, t=0\.01;"):
            evolve_unitary(model, psi0, TimeGrid(0.0, 1.0, 0.01))

    def test_norm_guard_names_step_and_time(self):
        model, space, _ = rabi_setup()
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[0] = 1.0 + 1e-5
        psi0 = CompositeState(space, amps, norm_tol=1e-4)
        # the oracle holds total probability, not the norm, to 1e-6
        with pytest.raises(RuntimeError, match=r"total probability 1\.00002.* beyond 1e-06 "
                                                r"at step 1, t=0\.01;"):
            evolve_unitary(model, psi0, TimeGrid(0.0, 1.0, 0.01))


def textbook_rk4(f, t, y, dt):
    """Classical RK4 as the expression is written, every stage a fresh array."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stepwise_rk4(model, space, Y0, tgrid):
    """Classical RK4 of -i H_I(t) y, one step at a time: the samples of ``tgrid``."""
    f = lambda t, y: -1j * interaction_hamiltonian(model, t, space) @ y
    dt = tgrid.dt
    y = Y0.ravel()
    samples = [y]
    for n in range(1, tgrid.n_steps + 1):
        y = textbook_rk4(f, tgrid.t_start + (n - 1) * dt, y, dt)
        if n % tgrid.sample_stride == 0:
            samples.append(y)
    return samples


def first_refused_step(model, space, Y0, tgrid):
    """The step, and its end time, at which a stepwise run first breaks a coupling run's
    checks: top-Fock population above 1e-8, or total probability off 1 beyond NORM_TOL."""
    f = lambda t, y: -1j * interaction_hamiltonian(model, t, space) @ y
    y = Y0.ravel()
    for n in range(1, tgrid.n_steps + 1):
        y = textbook_rk4(f, tgrid.t_start + (n - 1) * tgrid.dt, y, tgrid.dt)
        p = np.abs(y.reshape(space.atom_dim, -1)) ** 2
        if not (p[:, -1].sum() <= 1e-8 and abs(p.sum() - 1.0) <= unitary.NORM_TOL):
            return n, tgrid.t_start + n * tgrid.dt
    return None


def block_rows(monkeypatch, dim, rows):
    """Make integrate_coupling advance ``rows`` steps per block on a ``dim``-dimensional space."""
    monkeypatch.setattr(unitary, "_BLOCK_MACS", 4 * dim * dim * rows)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestCouplingOde:
    @pytest.mark.parametrize("which", ["three_level", "detuned_two_level"])
    def test_step_map_matches_stepwise_rk4(self, which, request):
        # a random start on the two lowest Fock levels, in a basis wide enough that the
        # top level stays below the 1e-8 edge over the run
        if which == "three_level":
            model = request.getfixturevalue("three_level_model")
            space = CompositeSpace(3, FockBasis(12))
        else:
            model, space = two_level_model(g=0.7, detuning=0.9), CompositeSpace(2, FockBasis(5))
        rng = np.random.default_rng(17)
        shape = (space.atom_dim, space.fock.dim)
        Y0 = np.zeros(shape, dtype=complex)
        Y0[:, :2] = rng.normal(size=(shape[0], 2)) + 1j * rng.normal(size=(shape[0], 2))
        Y0 /= np.linalg.norm(Y0)
        tgrid = TimeGrid(0.3, 2.7, 0.01, 60)
        start = Y0.copy()
        times, ys = unitary.integrate_coupling(model, Y0, tgrid)
        expected = stepwise_rk4(model, space, Y0, tgrid)
        np.testing.assert_array_equal(times, [0.3 + n * 0.01 for n in range(0, 241, 60)])
        assert ys[0] is Y0  # the start itself, left as it was
        np.testing.assert_array_equal(Y0, start)
        assert len(ys) == len(expected) == 5
        for Y, y in zip(ys, expected):
            assert Y.shape == shape
            assert np.max(np.abs(Y.ravel() - y)) <= 1e-12

    def test_integrate_samples_and_guards(self):
        # dy/dt = y: RK4 samples track e^t whether a step hands back one iterate or a stack
        # of up to 7 (a stride of 25 divides neither 7 nor the 98 steps of the full blocks);
        # the guard sees every step once and in order, and each block starts at the time
        # the guard saw for the step before
        for rows in (1, 7):
            seen, starts = [], []

            def step(t, y, left):
                starts.append((t, len(seen)))
                block = []
                for i in range(min(rows, left)):
                    y = rk4_step(lambda s, x: x, t + i * 0.01, y, 0.01)
                    block.append(y)
                return np.stack(block)

            def guard(first, ts, block):
                assert len(ts) == len(block)
                seen.extend(zip(range(first, first + len(block)), ts))

            times, ys = integrate(step, np.ones(2), TimeGrid(0.0, 1.0, 0.01, 25), guard)
            np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])
            np.testing.assert_allclose([y[0] for y in ys], np.exp(times), rtol=1e-9)
            assert [s for s, _ in seen] == list(range(1, 101))
            assert seen[-1][1] == pytest.approx(1.0, abs=1e-15)
            assert len(starts) == -(-100 // rows)
            assert [t for t, _ in starts] == [0.0] + [seen[k - 1][1] for _, k in starts[1:]]

    @pytest.mark.parametrize("rows", [None, 16])
    def test_blocks_cut_across_samples(self, rows, monkeypatch):
        # 100 steps in blocks of 64 (the default here) or 16, sampled every 7 steps: neither
        # block size divides the run, and the stride divides neither, so samples fall on
        # every row position and the last block is short
        model, space = two_level_model(g=0.7, detuning=0.9), CompositeSpace(2, FockBasis(5))
        if rows:
            block_rows(monkeypatch, space.total_dim, rows)
        rng = np.random.default_rng(29)
        Y0 = np.zeros((2, 6), dtype=complex)
        Y0[:, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Y0 /= np.linalg.norm(Y0)
        tgrid = TimeGrid(0.2, 1.2, 0.01, 7)
        times, ys = unitary.integrate_coupling(model, Y0, tgrid)
        expected = stepwise_rk4(model, space, Y0, tgrid)
        np.testing.assert_array_equal(times, [0.2 + n * 0.01 for n in range(0, 99, 7)])
        assert len(ys) == len(expected) == 15
        for Y, y in zip(ys, expected):
            assert np.max(np.abs(Y.ravel() - y)) <= 1e-12

    @pytest.mark.parametrize("rows", [None, 50])
    def test_truncation_failure_in_a_later_block(self, rows, monkeypatch):
        # sigma_x pumps photons without bound: the n = 4 edge passes 1e-8 at step 150, the
        # 22nd row of the third block of 64 (the default here), or the last row of the
        # third block of 50
        model = AtomFieldModel(2, h_ato=0.5 * np.diag([1.0, -1.0]), j=SIGMA_X, omega=1.0)
        space = CompositeSpace(2, FockBasis(4))
        if rows:
            block_rows(monkeypatch, space.total_dim, rows)
        Y0 = np.zeros((2, 5), dtype=complex)
        Y0[0, 0] = 1.0
        tgrid = TimeGrid(0.0, 1.0, 1e-3)
        step, t = first_refused_step(model, space, Y0, tgrid)
        assert (step, t) == (150, 0.15)
        expected = re.escape(f"truncation edge at step {step}, t={t};")
        with pytest.raises(RuntimeError, match=expected):
            unitary.integrate_coupling(model, Y0, tgrid)

    @pytest.mark.parametrize("rows", [None, 13])
    def test_probability_failure_in_a_later_block(self, rows, monkeypatch):
        # a start 1e-6 - 2e-9 short of unit probability at dt ||H_I|| = 0.0495: RK4's
        # loss crosses NORM_TOL at step 79, the 15th row of the second block of 64 (the
        # default here), or the first row of the seventh block of 13
        model, space = two_level_model(g=1.0), CompositeSpace(2, FockBasis(2))
        if rows:
            block_rows(monkeypatch, space.total_dim, rows)
        Y0 = np.zeros((2, 3), dtype=complex)
        Y0[0, 0] = np.sqrt(1.0 - unitary.NORM_TOL + 2e-9)
        tgrid = TimeGrid(0.0, 7.0, 0.035)
        step, t = first_refused_step(model, space, Y0, tgrid)
        assert step == 79
        with pytest.raises(RuntimeError, match=re.escape(f"beyond 1e-06 at step {step}, t={t};")):
            unitary.integrate_coupling(model, Y0, tgrid)


class TestRk4Step:
    @pytest.mark.parametrize("which", ["two_level", "detuned", "three_level"])
    def test_grid_step_is_the_textbook_step(self, which, request):
        model = {"two_level": lambda: two_level_model(g=1.0),
                 "detuned": lambda: two_level_model(g=1.0, detuning=1.5),
                 "three_level": lambda: request.getfixturevalue("three_level_model")}[which]()
        stepper = GridStepper(model, PhaseGrid(5.0, 64))
        rng = np.random.default_rng(19)
        shape = (model.atom_dim, 64, 64)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        kept = y.copy()
        for t in (0.0, 0.37):
            step = rk4_step(stepper.rhs, t, y, 4e-3)
            assert np.array_equal(step, textbook_rk4(stepper.rhs, t, y, 4e-3))
            assert not np.shares_memory(step, y)
        np.testing.assert_array_equal(y, kept)

    @pytest.mark.parametrize("which", ["detuned_two_level", "three_level"])
    def test_oracle_step_map_is_the_textbook_step(self, which, request):
        if which == "three_level":
            model = request.getfixturevalue("three_level_model")
            space = CompositeSpace(3, FockBasis(6))
        else:
            model, space = two_level_model(g=0.7, detuning=0.9), CompositeSpace(2, FockBasis(5))
        f = lambda s, X: -1j * interaction_hamiltonian(model, s, space) @ X
        eye = np.eye(space.total_dim, dtype=complex)
        assert np.array_equal(rk4_step(f, 0.0, eye, 0.01), textbook_rk4(f, 0.0, eye, 0.01))
        np.testing.assert_array_equal(eye, np.eye(space.total_dim))

    def test_f_may_return_its_argument(self):
        # dy/dt = y with f handing back the very array it was given: no stage may
        # overwrite a derivative that is still to be summed, nor y itself
        y = np.array([1.0, -0.5, 2.0 + 1j])
        kept = y.copy()
        step = rk4_step(lambda s, x: x, 0.0, y, 0.1)
        assert np.array_equal(step, textbook_rk4(lambda s, x: x, 0.0, y, 0.1))
        np.testing.assert_array_equal(y, kept)
        growth = 1 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6 + 0.1 ** 4 / 24
        np.testing.assert_allclose(step, growth * y, rtol=1e-15)

    def test_grid_step_peak_allocation(self):
        # the textbook expression holds four stage derivatives and its partial sums:
        # 7 wave arrays at the peak; dropping each derivative once spent leaves 6
        grid = PhaseGrid(5.0, 64)
        stepper = GridStepper(two_level_model(g=1.0), grid)
        rng = np.random.default_rng(23)
        psi = rng.normal(size=(2, 64, 64)) + 1j * rng.normal(size=(2, 64, 64))
        rk4_step(stepper.rhs, 0.0, psi, 4e-3)
        tracemalloc.start()
        try:
            rk4_step(stepper.rhs, 0.0, psi, 4e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * psi.nbytes, peak / psi.nbytes


    def test_grid_steps_reuse_their_pages(self):
        # once warm, a grid step takes its temporaries from memory the process already
        # holds: 50 steps fault in fewer pages than one wave (128 pages of 4 KiB) holds,
        # where mapping fresh ones for every temporary costs about 250 a step
        resource = pytest.importorskip("resource")
        grid = PhaseGrid(5.0, 128)
        stepper = GridStepper(two_level_model(g=1.0), grid)
        psi = np.stack([np.exp(-0.5 * np.abs(grid.nodes()) ** 2) / np.sqrt(np.pi),
                        np.zeros((128, 128))]).astype(complex)
        for n in range(5):
            psi = rk4_step(stepper.rhs, n * 4e-3, psi, 4e-3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for n in range(5, 55):
            psi = rk4_step(stepper.rhs, n * 4e-3, psi, 4e-3)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < psi.nbytes // 4096, faults


class TestDensityOperator:
    def test_basis_state(self):
        space = CompositeSpace(2, FockBasis(2))
        state = product_initial_state(EXCITED, vacuum(2), space)
        rho = density_operator(state)
        assert rho[0, 0] == 1.0
        assert np.count_nonzero(rho) == 1

    def test_purity_and_trace(self):
        rng = np.random.default_rng(9)
        space = CompositeSpace(2, FockBasis(3))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = density_operator(product_initial_state(EXCITED, vacuum(3), space))
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


class TestTimeGrid:
    def test_rejects_non_integer_span(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.3)

    def test_sample_times(self):
        times, _ = integrate(lambda t, y, left: 2.0 * y[None], np.ones(1),
                             TimeGrid(0.0, 1.0, 0.1, 5), lambda step, ts, block: None)
        np.testing.assert_allclose(times, [0.0, 0.5, 1.0])

    def test_zero_length_yields_one_sample(self):
        steps = []
        y0 = np.ones(2)
        times, ys = integrate(lambda t, y, left: y[None], y0, TimeGrid(0.7, 0.7, 0.1),
                              lambda step, ts, block: steps.append(step))
        assert list(times) == [0.7] and steps == []
        assert ys[0] is y0
        np.testing.assert_array_equal(y0, np.ones(2))

    @pytest.mark.parametrize("t_start, t_end, dt, name", [
        (0.0, 1.0, np.inf, "dt"), (0.0, 1.0, np.nan, "dt"), (0.0, np.inf, 0.1, "t_end"),
        (0.0, np.nan, 0.1, "t_end"), (-np.inf, 1.0, 0.1, "t_start"), (np.nan, 1.0, 0.1, "t_start"),
    ])
    def test_rejects_non_finite_fields(self, t_start, t_end, dt, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            TimeGrid(t_start, t_end, dt)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="must not precede"):
            TimeGrid(1.0, 0.5, 0.1)

    def test_evolve_unitary_zero_steps(self):
        model, _, psi0 = rabi_setup()
        traj = evolve_unitary(model, psi0, TimeGrid(0.0, 0.0, 1e-3))
        assert list(traj.times) == [0.0] and len(traj.states) == 1
        assert traj.states[0] is psi0

    def test_zero_steps_late_start_has_no_free_evolution_round_trip(self):
        model, _, psi0 = rabi_setup(detuning=0.4)
        traj = evolve_unitary(model, psi0, TimeGrid(0.7, 0.7, 1e-3))
        assert list(traj.times) == [0.7] and len(traj.states) == 1
        np.testing.assert_array_equal(traj.states[0].amplitudes, psi0.amplitudes)
