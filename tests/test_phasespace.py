from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_laguerre

from semicav import phasespace

from semicav.fockspace import (
    CompositeSpace,
    CompositeState,
    FockBasis,
    annihilation,
    coherent_amplitudes,
    number_operator,
    partial_trace_atom,
    partial_trace_field,
    tensor,
)
from semicav.phasespace import (
    CharacteristicSample,
    OperatorPhaseField,
    PhaseFunction,
    PhaseGrid,
    SemiclassicalObservable,
    characteristic_function,
    coarse_grain,
    husimi_density,
    husimi_function,
    phase_space_moment,
    photon_number_from_husimi,
    sharp_density,
    superop_characteristic_function,
    symmetric_moment_oracle,
    vacuum_kernel,
    wigner,
)


@pytest.fixture(scope="module")
def default_grid():
    return PhaseGrid(5.0, 128)


def fock_density(n, n_max):
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[n, n] = 1.0
    return rho


def random_composite_density(rng, d, n_max, edge_margin=0):
    nf = n_max + 1
    v = np.zeros((d, nf), dtype=complex)
    keep = nf - edge_margin
    v[:, :keep] = rng.normal(size=(d, keep)) + 1j * rng.normal(size=(d, keep))
    v = v.reshape(-1)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestPhaseGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseGrid(5.0, 31)
        with pytest.raises(ValueError):
            PhaseGrid(5.0, 48)
        with pytest.raises(ValueError):
            PhaseGrid(-1.0, 64)
        for L in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                PhaseGrid(L, 64)

    def test_geometry(self):
        grid = PhaseGrid(5.0, 128)
        assert grid.h == pytest.approx(10.0 / 128)
        assert grid.axis()[0] == -5.0
        assert grid.axis()[64] == 0.0
        assert grid.nodes()[64, 64] == 0.0

    def test_nodes_are_built_once_and_read_only(self):
        # a grid's every caller shares one node array, so none may write through it
        grid = PhaseGrid(5.0, 64)
        nodes = grid.nodes()
        assert grid.nodes() is nodes
        x = grid.axis()
        np.testing.assert_array_equal(nodes, x[:, None] + 1j * x[None, :])
        assert grid == PhaseGrid(5.0, 64) and hash(grid) == hash(PhaseGrid(5.0, 64))
        for view in (nodes, nodes.ravel(), nodes.real):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0

    @pytest.mark.parametrize("L", [0.5, 2.5, 3.0, 5.0, 6.0, 7.0, 8.0, 20.0])
    def test_dyadic_axis_is_the_offset_form_byte_for_byte(self, L):
        # every config in use has such an L: its nodes did not move when the axis
        # became (k - M/2) h, so no pinned number moved with them
        for M in (32, 64, 128, 256, 512):
            grid = PhaseGrid(L, M)
            assert grid.axis().tobytes() == (np.arange(M) * grid.h - L).tobytes()

    @pytest.mark.parametrize("L", [5.3, 7.1])
    def test_nodes_are_point_symmetric_bit_for_bit(self, L):
        # -L + k h misses the reflection by up to 2.5e-15 at these L, and then
        # _chi_on_grid would evaluate every node instead of one per +-lambda pair
        for M in (32, 64, 256):
            grid = PhaseGrid(L, M)
            x, nodes = grid.axis(), grid.nodes()
            assert x[0] == -L and x[M // 2] == 0.0
            assert np.array_equal(x[1:], -x[:0:-1])
            assert np.array_equal(nodes[1:, 1:], -nodes[:0:-1, :0:-1])
            assert not np.array_equal(np.arange(M) * grid.h - L, x)

    def test_tolerance_at_default(self):
        assert PhaseGrid(5.0, 128).tol == pytest.approx(1e-4)
        assert PhaseGrid(5.0, 256).tol == pytest.approx(2.5e-5)


class TestCharacteristicFunction:
    def test_at_zero(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        sample = characteristic_function(rho, 0.0)
        assert isinstance(sample, CharacteristicSample)
        assert sample.value == pytest.approx(1.0, abs=1e-13)

    def test_vacuum_gaussian(self):
        rho = fock_density(0, 24)
        for lam in (0.5, 1.0 + 0.5j, 2.0 * np.exp(0.7j)):
            value = characteristic_function(rho, lam).value
            assert value == pytest.approx(np.exp(-0.5 * abs(lam) ** 2), abs=1e-10)

    def test_fock_one_laguerre(self):
        rho = fock_density(1, 24)
        for lam in (0.4, 0.9 - 0.3j, 1.5j):
            expected = (1.0 - abs(lam) ** 2) * np.exp(-0.5 * abs(lam) ** 2)
            assert characteristic_function(rho, lam).value == pytest.approx(expected, abs=1e-9)

    def test_matches_expm_on_random_states(self):
        # scipy's expm is the reference the eigendecomposition replaced
        basis = FockBasis(14)
        a = annihilation(basis)
        rng = np.random.default_rng(4)
        for _ in range(6):
            B = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
            rho = B @ B.conj().T
            rho /= np.trace(rho)
            lam = rng.uniform(0, 2) * np.exp(2j * np.pi * rng.random())
            expected = np.trace(expm(lam * a.conj().T - np.conj(lam) * a) @ rho)
            assert abs(characteristic_function(rho, lam).value - expected) <= 1e-12

    def test_superop_route_matches_direct(self):
        basis = FockBasis(24)
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = np.zeros(basis.dim, dtype=complex)
            v[:11] = rng.normal(size=11) + 1j * rng.normal(size=11)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            lam = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
            direct = characteristic_function(rho, lam).value
            via_superop = superop_characteristic_function(rho, lam, basis).value
            assert abs(direct - via_superop) <= 1e-8

    def test_superop_vacuum_value(self):
        basis = FockBasis(24)
        value = superop_characteristic_function(fock_density(0, 24), 0.3, basis).value
        assert value == pytest.approx(np.exp(-0.045), abs=1e-10)

    def test_superop_at_zero(self):
        basis = FockBasis(8)
        assert superop_characteristic_function(fock_density(3, 8), 0.0, basis).value == \
            pytest.approx(1.0, abs=1e-13)


class TestWigner:
    def test_vacuum_gaussian(self):
        grid = PhaseGrid(8.0, 128)  # h = 0.125
        w = wigner(fock_density(0, 8), grid)
        a = grid.nodes()
        exact = (2.0 / np.pi) * np.exp(-2.0 * np.abs(a) ** 2)
        assert np.max(np.abs(w.values - exact)) <= 1e-6
        assert w.integral() == pytest.approx(1.0, abs=1e-10)

    def test_fock_one_negativity(self, default_grid):
        w = wigner(fock_density(1, 8), default_grid)
        center = w.values[64, 64]
        assert center == pytest.approx(-2.0 / np.pi, abs=1e-4)
        assert w.values.min() < -0.6
        # full Laguerre closed form
        r2 = np.abs(default_grid.nodes()) ** 2
        exact = (2.0 / np.pi) * np.exp(-2.0 * r2) * (4.0 * r2 - 1.0)
        assert np.max(np.abs(w.values - exact)) <= 1e-9

    def test_coherent_state_displaced_gaussian(self, default_grid):
        alpha = 1.2 - 0.5j
        amps = coherent_amplitudes(alpha, FockBasis(24))
        w = wigner(np.outer(amps, amps.conj()), default_grid)
        a = default_grid.nodes()
        exact = (2.0 / np.pi) * np.exp(-2.0 * np.abs(a - alpha) ** 2)
        assert np.max(np.abs(w.values - exact)) <= 1e-6

    def test_fock_eight_on_coarse_grid(self):
        # h = 0.3125 is coarse, but the transform is exact at the nodes
        grid = PhaseGrid(5.0, 32)
        w = wigner(fock_density(8, 8), grid)
        r2 = np.abs(grid.nodes()) ** 2
        exact = (2.0 / np.pi) * np.exp(-2.0 * r2) * eval_laguerre(8, 4.0 * r2)
        assert np.max(np.abs(w.values - exact)) <= 1e-12

    def test_odd_coherence_closed_form(self, default_grid):
        # psi = c0|0> + c1|1> has W(a) = (2/pi) e^{-2|a|^2} (|c0|^2 + |c1|^2 (4|a|^2 - 1)
        # + 4 Re(c0 c1* a)); the cross term is a k = 1 diagonal, whose sign a wrong
        # (-1)^k in the kernel's pairing flips
        c = np.zeros(5, dtype=complex)
        c[:2] = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2.0)
        w = wigner(np.outer(c, c.conj()), default_grid)
        a = default_grid.nodes()
        r2 = np.abs(a) ** 2
        exact = (2.0 / np.pi) * np.exp(-2.0 * r2) * (
            abs(c[0]) ** 2 + abs(c[1]) ** 2 * (4.0 * r2 - 1.0) + 4.0 * (c[0] * c[1].conj() * a).real)
        assert np.max(np.abs(w.values - exact)) <= 1e-14

    def test_under_resolved_grid_refused(self):
        # h = 0.5 does not resolve the oscillations of |8><8|
        with pytest.raises(ValueError, match="quadrature normalization"):
            wigner(fock_density(8, 8), PhaseGrid(8.0, 32))

    def test_grid_too_small(self):
        # a coherent state sitting at |alpha| > L leaves the grid
        grid = PhaseGrid(5.0, 32)
        amps = coherent_amplitudes(5.5, FockBasis(60))
        with pytest.raises(ValueError, match="grid too small"):
            wigner(np.outer(amps, amps.conj()), grid)


class TestSharpDensity:
    def test_product_state_factorizes(self, default_grid):
        rng = np.random.default_rng(2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho_ato = np.outer(v, v.conj())
        space = CompositeSpace(2, FockBasis(8))
        rho = tensor(rho_ato, fock_density(0, 8))
        field = sharp_density(rho, space, default_grid)
        gauss = (2.0 / np.pi) * np.exp(-2.0 * np.abs(default_grid.nodes()) ** 2)
        expected = rho_ato[:, :, None, None] * gauss
        assert np.max(np.abs(field.values - expected)) <= 1e-10

    def test_atomic_trace_is_field_wigner(self, default_grid):
        rng = np.random.default_rng(3)
        space = CompositeSpace(2, FockBasis(8))
        rho = random_composite_density(rng, 2, 8)
        field = sharp_density(rho, space, default_grid)
        w_reduced = wigner(partial_trace_atom(rho, space), default_grid)
        assert np.max(np.abs(field.atomic_trace().values - w_reduced.values)) <= 1e-8

    def test_quadrature_gives_reduced_atom(self, default_grid):
        rng = np.random.default_rng(4)
        space = CompositeSpace(2, FockBasis(8))
        rho = random_composite_density(rng, 2, 8)
        field = sharp_density(rho, space, default_grid)
        quadrature = np.sum(field.values, axis=(2, 3)) * default_grid.weight
        np.testing.assert_allclose(quadrature, partial_trace_field(rho, space), atol=1e-6)


class TestOperatorFieldLayout:
    def test_fields_are_atom_major(self):
        # every operator field holds its d x d axes first and its node axes last, like a
        # grid wave; a node-major array is refused, not read with its axes mixed up
        grid = PhaseGrid(5.0, 32)
        space = CompositeSpace(3, FockBasis(6))
        rho = random_composite_density(np.random.default_rng(71), 3, 6, edge_margin=3)
        sharp = sharp_density(rho, space, grid)
        for field in (sharp, husimi_density(rho, space, grid), coarse_grain(sharp)):
            assert field.values.shape == (3, 3, 32, 32)
        with pytest.raises(ValueError, match=r"values must have shape \(d, d, M, M\)"):
            OperatorPhaseField(grid, np.zeros((32, 32, 3, 3)))


class TestChiOnGrid:
    @pytest.mark.parametrize("n_max", [2, 9, 20])
    def test_matches_displacement_exponential(self, n_max, monkeypatch):
        # reference: tr(exp(lam a+ - lam* a) B) with B zero-padded 40 levels higher,
        # so that truncating the exponential does not reach the block; the exponential
        # is exp(-iH) of the Hermitian H = i(lam a+ - lam* a), from one batched eigh
        rng = np.random.default_rng(29 + n_max)
        nf = n_max + 1
        blocks = rng.normal(size=(nf, nf, 3, 3)) + 1j * rng.normal(size=(nf, nf, 3, 3))
        lam = np.linspace(0.0, 2.0, 19)[:, None] * np.exp(2j * np.pi * rng.random((19, 7)))
        a = annihilation(FockBasis(n_max + 40))
        lam_ = lam[..., None, None]
        w, V = np.linalg.eigh(1j * (lam_ * a.conj().T - np.conj(lam_) * a))
        disp = (V * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
        expected = np.einsum("...mn,nmij->...ij", disp[..., :nf, :nf], blocks)
        # 133 points: one block at the module's GEMM size, then five blocks of
        # at most 30 points, the last partial
        for macs in (phasespace._GEMM_MACS, 30 * nf * 4 * 9):
            monkeypatch.setattr(phasespace, "_GEMM_MACS", macs)
            chi = phasespace._chi_on_grid(blocks, lam)
            assert chi.shape == expected.shape
            assert np.all(np.abs(chi - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_paired_blocks_match_displacement_exponential(self, monkeypatch):
        # the parity-folded blocks of a Hermitian rho pair entry (i, j) with (j, i), and
        # the kernel sums their columns once; the reference is the exponential, as above
        n_max, d = 9, 3
        nf = n_max + 1
        rng = np.random.default_rng(83)
        A = rng.normal(size=(d * nf, d * nf)) + 1j * rng.normal(size=(d * nf, d * nf))
        rho = A @ A.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        assert np.array_equal(rho, rho.conj().T)  # Hermitian bit for bit, as sharp_density's
        parity = (-1.0) ** np.arange(nf)[:, None, None, None]
        blocks = parity * rho.reshape(d, nf, d, nf).transpose(1, 3, 0, 2)
        lam = np.linspace(0.0, 2.0, 19)[:, None] * np.exp(2j * np.pi * rng.random((19, 7)))
        a = annihilation(FockBasis(n_max + 40))
        lam_ = lam[..., None, None]
        w, V = np.linalg.eigh(1j * (lam_ * a.conj().T - np.conj(lam_) * a))
        disp = (V * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
        expected = np.einsum("...mn,nmij->...ij", disp[..., :nf, :nf], blocks)
        # 133 points: one block at the module's GEMM size, then blocks of at most 60
        # points (half the columns of the general case), the last partial
        for macs in (phasespace._GEMM_MACS, 30 * nf * 4 * 9):
            monkeypatch.setattr(phasespace, "_GEMM_MACS", macs)
            chi = phasespace._chi_on_grid(blocks, lam)
            assert chi.shape == expected.shape
            assert np.all(np.abs(chi - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_sharp_density_matches_two_sided_kernel(self):
        # a trailing batch axis of length 1 is no (d, d) batch, so there the kernel sums
        # the (n, n+k) and (n+k, n) columns of every block itself
        grid, space = PhaseGrid(5.0, 64), CompositeSpace(3, FockBasis(8))
        rng = np.random.default_rng(84)
        vecs = rng.normal(size=(3, 27)) + 1j * rng.normal(size=(3, 27))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        rho = np.einsum("k,ki,kj->ij", rng.dirichlet(np.ones(3)), vecs, vecs.conj())
        rho = 0.5 * (rho + rho.conj().T)
        field = sharp_density(rho, space, grid)
        parity = (-1.0) ** np.arange(9)[:, None, None, None, None]
        blocks = parity * rho.reshape(3, 9, 3, 9).transpose(1, 3, 0, 2)[..., None]
        chi = phasespace._chi_on_grid(blocks, 2.0 * grid.nodes())[..., 0]
        expected = np.moveaxis((2.0 / np.pi) * chi, (0, 1), (2, 3))
        assert np.max(np.abs(field.values - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_density_operators_take_half_the_columns(self, monkeypatch):
        # a rho that is Hermitian only within the input check pairs once the transforms
        # take its Hermitian part; general blocks take both column sets. Both paths give
        # the same values, so only the width of the column set shows which one ran
        widths = []
        column_set = phasespace._column_set

        def spy(scaled, batch):
            columns, mirror = column_set(scaled, batch)
            widths.append(columns.shape[2] // scaled.shape[2])
            return columns, mirror

        monkeypatch.setattr(phasespace, "_column_set", spy)
        grid, space = PhaseGrid(5.0, 64), CompositeSpace(3, FockBasis(8))
        rng = np.random.default_rng(85)
        v = rng.normal(size=27) + 1j * rng.normal(size=27)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        rho[0, 1] += 1e-13
        sharp_density(rho, space, grid)
        wigner(rho[:9, :9] / np.trace(rho[:9, :9]).real, grid)
        phasespace._chi_on_grid(rng.normal(size=(9, 9, 3, 3)), grid.nodes())
        assert widths == [1, 1, 2]

    @pytest.mark.parametrize("macs", [phasespace._GEMM_MACS, 30 * 9 * 4 * 9])
    def test_reflected_nodes_match_every_node_evaluated(self, macs, monkeypatch):
        # on a grid the kernel evaluates rows 0..M/2 and column 0 below them, and fills
        # the other nodes with chi(-lam); a 1-D lam is never paired, so it evaluates every
        # node. At the smaller size, partial blocks of 60 points straddle flat index M + 1
        # (the first reflected node) and the end of row M/2 (the last evaluated row)
        monkeypatch.setattr(phasespace, "_GEMM_MACS", macs)
        grid, space = PhaseGrid(5.3, 64), CompositeSpace(3, FockBasis(8))
        rho = random_composite_density(np.random.default_rng(86), 3, 8)
        rho = 0.5 * (rho + rho.conj().T)
        field = sharp_density(rho, space, grid)
        parity = (-1.0) ** np.arange(9)[:, None, None, None]
        blocks = parity * rho.reshape(3, 9, 3, 9).transpose(1, 3, 0, 2)
        chi = phasespace._chi_on_grid(blocks, (2.0 * grid.nodes()).ravel())
        expected = np.moveaxis((2.0 / np.pi) * chi.reshape(64, 64, 3, 3), (0, 1), (2, 3))
        assert np.max(np.abs(field.values - expected)) <= 1e-15 * np.max(np.abs(expected))
        # scaled by 1/8, exactly, the nodes keep their symmetry, and the corner (63, 63),
        # the first reflected node, is no longer negligible
        lam = 0.125 * grid.nodes()
        chi, expected = (phasespace._chi_on_grid(blocks, z) for z in (lam, lam.ravel()))
        assert np.max(np.abs(expected[-1])) >= 0.01 * np.max(np.abs(expected))
        assert np.max(np.abs(chi.reshape(expected.shape) - expected)) \
            <= 1e-15 * np.max(np.abs(expected))

    def test_pairs_only_a_point_symmetric_grid(self, monkeypatch):
        # the number of points evaluated shows whether the +-lambda pairs ran: a node
        # nudged by one ulp breaks the symmetry bit for bit, and every node is evaluated
        evaluated = []
        chi_pair = phasespace._chi_pair

        def spy(z, *args):
            evaluated[-1] += z.size
            return chi_pair(z, *args)

        monkeypatch.setattr(phasespace, "_chi_pair", spy)
        grid, space = PhaseGrid(5.3, 64), CompositeSpace(2, FockBasis(6))
        rho = random_composite_density(np.random.default_rng(87), 2, 6)
        parity = (-1.0) ** np.arange(7)[:, None, None, None]
        blocks = parity * rho.reshape(2, 7, 2, 7).transpose(1, 3, 0, 2)
        nudged = 2.0 * grid.nodes()
        nudged[40, 9] = np.nextafter(nudged[40, 9].real, np.inf) + 1j * nudged[40, 9].imag
        for lam in (2.0 * grid.nodes(), nudged):
            evaluated.append(0)
            phasespace._chi_on_grid(blocks, lam)
        evaluated.append(0)
        sharp_density(rho, space, grid)
        assert evaluated == [64 ** 2 // 2 + 3 * 64 // 2 - 1, 64 ** 2, 64 ** 2 // 2 + 3 * 64 // 2 - 1]

    def test_far_lambda_is_zero_not_nan(self):
        # the envelope underflows to 0 near |lam| 40; at |lam|^2 = 2e22 L_16 alone
        # overflows, but lam^16 does not, so the product must stay 0
        blocks = np.ones((17, 17, 1))
        chi = phasespace._chi_on_grid(blocks, np.array([40.0, 60.0j, 1e11 + 1e11j]))
        assert np.array_equal(chi, np.zeros((3, 1)))


class TestCoarseGrain:
    def test_vacuum_wigner_becomes_husimi(self, default_grid):
        w = wigner(fock_density(0, 8), default_grid)
        q = coarse_grain(w)
        assert q.kind == "husimi"
        exact = np.exp(-np.abs(default_grid.nodes()) ** 2) / np.pi
        assert np.max(np.abs(q.values - exact)) <= 1e-6

    def test_convolution_in_place_matches_fft2(self):
        # the one-axis passes on one copy give fft2's values and leave the input as it
        # was, for an atom-major view such as sharp_density's and for a real plane
        grid = PhaseGrid(5.0, 64)
        rng = np.random.default_rng(88)
        kft = np.fft.fft2(np.fft.ifftshift(vacuum_kernel(grid)))
        field = rng.normal(size=(64, 64, 2, 2)) + 1j * rng.normal(size=(64, 64, 2, 2))
        for values in (np.moveaxis(field, (0, 1), (2, 3)), field[:, :, 0, 0].real):
            before = values.copy()
            expected = np.fft.ifft2(np.fft.fft2(values) * kft) * grid.weight
            out = phasespace._convolve_with_kernel(values, grid)
            assert out.shape == values.shape and out.flags.c_contiguous
            assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))
            np.testing.assert_array_equal(values, before)

    def test_polynomial_moment_shift(self):
        obs = SemiclassicalObservable.abs_square()
        smoothed = coarse_grain(obs)
        assert smoothed.poly[(1, 1)] == pytest.approx(1.0)
        assert smoothed.poly[(0, 0)] == pytest.approx(0.5)

    def test_constant_is_fixed_point(self):
        obs = SemiclassicalObservable.constant(3.25)
        assert coarse_grain(obs).poly == {(0, 0): pytest.approx(3.25)}

    def test_quartic_moment_shift(self):
        # |a|^4 gains 2 |a|^2 <|a0|^2> * 2 and <|a0|^4> = 2 * (1/2)^2
        obs = SemiclassicalObservable.from_poly({(2, 2): 1.0})
        smoothed = coarse_grain(obs)
        assert smoothed.poly[(2, 2)] == pytest.approx(1.0)
        assert smoothed.poly[(1, 1)] == pytest.approx(2.0)
        assert smoothed.poly[(0, 0)] == pytest.approx(0.5)

    def test_boundary_mass_guard(self, default_grid):
        values = np.zeros((128, 128))
        values[0, :] = 1.0
        f = PhaseFunction(default_grid, values, kind="generic")
        with pytest.raises(ValueError, match="boundary"):
            coarse_grain(f)

    def test_refuses_non_psd_smoothed_field(self, default_grid):
        # a sharp field corrupted by minus twice the vacuum Wigner function in one
        # atomic level smooths to node matrices with an eigenvalue <= -1/pi at a = 0
        rho = random_composite_density(np.random.default_rng(14), 2, 8, edge_margin=4)
        values = sharp_density(rho, CompositeSpace(2, FockBasis(8)), default_grid).values
        values[1, 1] -= 2.0 * wigner(fock_density(0, 8), default_grid).values
        with pytest.raises(ValueError, match="smoothed node matrix not positive semidefinite"):
            coarse_grain(OperatorPhaseField(default_grid, values, kind="sharp"))

    def test_kernel_invariants(self, default_grid):
        kernel = vacuum_kernel(default_grid)
        r2 = np.abs(default_grid.nodes()) ** 2
        assert np.sum(kernel) * default_grid.weight == pytest.approx(1.0, abs=1e-4)
        assert np.sum(r2 * kernel) * default_grid.weight == pytest.approx(0.5, abs=1e-4)
        with pytest.raises(ValueError, match="kernel integral"):
            vacuum_kernel(PhaseGrid(0.5, 32))


class TestHusimi:
    def test_vacuum_product_state(self, default_grid):
        rng = np.random.default_rng(5)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho_ato = np.outer(v, v.conj())
        space = CompositeSpace(2, FockBasis(8))
        field = husimi_density(tensor(rho_ato, fock_density(0, 8)), space, default_grid)
        gauss = np.exp(-np.abs(default_grid.nodes()) ** 2) / np.pi
        expected = rho_ato[:, :, None, None] * gauss
        assert np.max(np.abs(field.values - expected)) <= 1e-12

    def test_positivity_random_states(self, default_grid):
        rng = np.random.default_rng(6)
        space = CompositeSpace(2, FockBasis(8))
        for _ in range(50):
            rho = random_composite_density(rng, 2, 8)
            field = husimi_density(rho, space, default_grid)
            eigs = np.linalg.eigvalsh(np.moveaxis(field.values, (0, 1), (2, 3)))
            assert eigs.min() >= -1e-10

    def test_two_routes_agree(self, default_grid):
        rng = np.random.default_rng(7)
        space = CompositeSpace(2, FockBasis(8))
        rho = random_composite_density(rng, 2, 8)
        direct = husimi_density(rho, space, default_grid)
        smoothed = coarse_grain(sharp_density(rho, space, default_grid))
        assert smoothed.kind == "husimi"
        diff = np.max(np.abs(direct.values - smoothed.values))
        assert diff <= 5.0 * default_grid.tol

    def test_smoothed_wigner_matches_q_function(self, default_grid):
        # scalar version on field-only states concentrated at low occupation
        rng = np.random.default_rng(8)
        for _ in range(5):
            v = np.zeros(9, dtype=complex)
            v[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            q_direct = husimi_function(rho, default_grid)
            q_smoothed = coarse_grain(wigner(rho, default_grid))
            assert np.max(np.abs(q_direct.values - q_smoothed.values)) <= 5.0 * default_grid.tol

    @pytest.mark.parametrize("M", [32, 64])
    def test_matches_einsum_definition(self, M, monkeypatch):
        # the four-operand contraction over the full overlap array is the reference
        rng = np.random.default_rng(41 + M)
        space = CompositeSpace(3, FockBasis(10))
        grid = PhaseGrid(5.0, M)
        vecs = rng.normal(size=(4, 33)) + 1j * rng.normal(size=(4, 33))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        rho = np.einsum("k,ki,kj->ij", rng.dirichlet(np.ones(4)), vecs, vecs.conj())
        a = grid.nodes()[:, :, None]
        n = np.arange(11)
        C = np.exp(-0.5 * np.abs(a) ** 2) * a ** n / np.sqrt([float(factorial(k)) for k in n])
        vals = np.einsum("xym,imjn,xyn->ijxy", C.conj(), rho.reshape(3, 11, 3, 11), C) / np.pi
        vals = 0.5 * (vals + vals.conj().transpose(1, 0, 2, 3))
        # blocks at the module's GEMM size, and of 100 nodes with a partial last block
        for macs in (phasespace._GEMM_MACS, 100 * (2 * 11) * (2 * 9 * 11)):
            monkeypatch.setattr(phasespace, "_GEMM_MACS", macs)
            field = husimi_density(rho, space, grid)
            assert np.max(np.abs(field.values - vals)) <= 1e-14

    def test_overlap_scale_built_once_per_call(self, monkeypatch):
        # the 1/sqrt(n!) vector of the coherent overlaps is built once per call, however
        # many GEMM blocks the nodes fall into
        from semicav import swe
        original, calls = phasespace._log_factorials, []

        def counting(n_max):
            calls.append(n_max)
            return original(n_max)

        monkeypatch.setattr(phasespace, "_log_factorials", counting)
        monkeypatch.setattr(swe, "_log_factorials", counting)
        monkeypatch.setattr(phasespace, "_GEMM_MACS", 100 * (2 * 9) * (2 * 4 * 9))
        space, grid = CompositeSpace(2, FockBasis(8)), PhaseGrid(5.0, 64)
        state = CompositeState(space, np.eye(space.total_dim)[0])
        husimi_density(np.outer(state.amplitudes, state.amplitudes.conj()), space, grid)
        assert calls == [8]  # 41 blocks of 100 nodes
        swe.evaluate_on_grid(state, grid)
        assert calls == [8, 8]

    @pytest.mark.parametrize("transform", [husimi_density, sharp_density])
    def test_transforms_refuse_invalid_rho(self, transform):
        grid = PhaseGrid(5.0, 32)
        space = CompositeSpace(2, FockBasis(8))
        skewed = random_composite_density(np.random.default_rng(10), 2, 8)
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="density operator not Hermitian: defect 1.0000"):
            transform(skewed, space, grid)
        negative = tensor(np.diag([1.1, -0.1]), fock_density(0, 8))
        with pytest.raises(ValueError, match="not positive semidefinite: eigenvalue -0.1"):
            transform(negative, space, grid)
        with pytest.raises(ValueError, match="density operator has shape"):
            transform(fock_density(0, 8), space, grid)

    def test_eigendecomposes_rho_not_the_nodes(self, default_grid, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rho = random_composite_density(np.random.default_rng(12), 2, 8)
        husimi_density(rho, CompositeSpace(2, FockBasis(8)), default_grid)
        assert shapes == [(18, 18)]


def coherent_product(beta, atom, n_max):
    """|atom> (x) |beta> as a density operator, the coherent amplitudes from their series."""
    field = [np.exp(-abs(beta) ** 2 / 2) * beta ** n / np.sqrt(float(factorial(n)))
             for n in range(n_max + 1)]
    v = np.kron(atom, field)
    return np.outer(v, v.conj())


def coherent_husimi(grid, beta, rho_ato):
    """Closed form of the Husimi density of ``coherent_product``: e^{-|a - beta|^2}/pi rho_ato."""
    gauss = np.exp(-np.abs(grid.nodes() - beta) ** 2) / np.pi
    return rho_ato[:, :, None, None] * gauss


class TestHusimiClosedForms:
    # Truncation at n_max 30 leaves under 1e-20 of the series on L = 5 grids
    grid = PhaseGrid(5.0, 64)
    space = CompositeSpace(2, FockBasis(30))

    @staticmethod
    def atom_state(rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    def test_coherent_product(self):
        atom = self.atom_state(np.random.default_rng(51))
        beta = 1.2 - 0.7j
        field = husimi_density(coherent_product(beta, atom, 30), self.space, self.grid)
        expected = coherent_husimi(self.grid, beta, np.outer(atom, atom.conj()))
        assert np.max(np.abs(field.values - expected)) <= 1e-14

    def rank_two_error(self):
        """Largest node error of husimi_density against the closed form of a two-term
        mixture of coherent products, whose atom states differ."""
        rng = np.random.default_rng(52)
        atoms = [self.atom_state(rng) for _ in range(2)]
        betas = (1.2 - 0.7j, -0.9 + 0.4j)
        rho = sum(p * coherent_product(b, v, 30) for p, b, v in zip((0.6, 0.4), betas, atoms))
        field = husimi_density(rho, self.space, self.grid)
        expected = sum(p * coherent_husimi(self.grid, b, np.outer(v, v.conj()))
                       for p, b, v in zip((0.6, 0.4), betas, atoms))
        return np.max(np.abs(field.values - expected))

    def test_rank_two_mixture(self):
        # both eigenpairs carry weight: keeping only the largest misses the smaller one
        assert self.rank_two_error() <= 1e-14

    def test_rank_two_mixture_sees_a_dropped_eigenpair(self, monkeypatch):
        # planted defect: a factorization that keeps only the largest |w| (the others
        # read as zero, so husimi_density drops them) fails the closed form by 0.098
        eigh = np.linalg.eigh

        def largest_only(a):
            w, V = eigh(a)
            return np.where(np.abs(w) == np.max(np.abs(w)), w, 0.0), V

        monkeypatch.setattr(np.linalg, "eigh", largest_only)
        assert self.rank_two_error() == pytest.approx(0.0977, abs=5e-4)

    def test_slightly_negative_eigenvalue_is_kept(self):
        # the input check accepts an eigenvalue of -5e-11; clamping it would move the
        # node matrices by about 1e-11, far beyond the bound
        rng = np.random.default_rng(53)
        space, grid = CompositeSpace(2, FockBasis(8)), PhaseGrid(5.0, 32)
        U, _ = np.linalg.qr(rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18)))
        weights = np.zeros(18)
        weights[:4] = 0.5, 0.3, 0.2 + 5e-11, -5e-11
        rho = (U * weights) @ U.conj().T
        assert np.min(np.linalg.eigvalsh(rho)) == pytest.approx(-5e-11, rel=1e-6)
        a = grid.nodes()[:, :, None]
        n = np.arange(9)
        C = np.exp(-0.5 * np.abs(a) ** 2) * a ** n / np.sqrt([float(factorial(k)) for k in n])
        vals = np.einsum("xym,imjn,xyn->ijxy", C.conj(), rho.reshape(2, 9, 2, 9), C) / np.pi
        vals = 0.5 * (vals + vals.conj().transpose(1, 0, 2, 3))
        assert np.max(np.abs(husimi_density(rho, space, grid).values - vals)) <= 1e-14


class TestExpectations:
    def test_unit_observable(self, default_grid):
        q = husimi_function(fock_density(0, 8), default_grid)
        assert phase_space_moment(q, 0, 0) == pytest.approx(1.0, abs=1e-6)

    def test_second_moment_vacuum_and_fock(self, default_grid):
        q0 = husimi_function(fock_density(0, 8), default_grid)
        q1 = husimi_function(fock_density(1, 8), default_grid)
        assert phase_space_moment(q0, 1, 1) == pytest.approx(1.0, abs=1e-6)
        assert phase_space_moment(q1, 1, 1) == pytest.approx(2.0, abs=1e-6)

    def test_photon_number_identity(self, default_grid):
        assert photon_number_from_husimi(husimi_function(fock_density(0, 8), default_grid)) \
            == pytest.approx(0.0, abs=1e-6)
        assert photon_number_from_husimi(husimi_function(fock_density(1, 8), default_grid)) \
            == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ValueError):
            photon_number_from_husimi(
                PhaseFunction(default_grid, np.zeros((128, 128)), kind="generic"))

    def test_atomic_projector(self, default_grid):
        rng = np.random.default_rng(9)
        space = CompositeSpace(2, FockBasis(8))
        rho = random_composite_density(rng, 2, 8)
        field = husimi_density(rho, space, default_grid)
        expected = float(np.real(partial_trace_field(rho, space)[0, 0]))
        excited = np.sum(field.values[0, 0].real) * default_grid.weight
        assert excited == pytest.approx(expected, abs=1e-6)


class TestMomentOracle:
    def test_unit_poly(self):
        basis = FockBasis(8)
        assert symmetric_moment_oracle(SemiclassicalObservable.constant(1.0),
                                       fock_density(0, 8), basis) == pytest.approx(1.0)

    def test_vacuum_symmetric_number(self):
        # tr(a_c+ a_c |0><0|) = (1/2) tr((a+a + a a+)|0><0|) / ... = 1/2
        basis = FockBasis(8)
        value = symmetric_moment_oracle(SemiclassicalObservable.abs_square(),
                                        fock_density(0, 8), basis)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_fock_one_symmetric_number(self):
        basis = FockBasis(8)
        value = symmetric_moment_oracle(SemiclassicalObservable.abs_square(),
                                        fock_density(1, 8), basis)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_degree_cap_and_poly_requirement(self):
        basis = FockBasis(4)
        with pytest.raises(ValueError):
            symmetric_moment_oracle(SemiclassicalObservable.from_poly({(3, 2): 1.0}),
                                    fock_density(0, 4), basis)
        assert SemiclassicalObservable.from_poly({(2, 2): 1.0}).degree() == 4
        with pytest.raises(TypeError):
            SemiclassicalObservable()

    def test_refuses_an_atomic_factor(self):
        # the operator side takes the polynomial alone; an observable with an
        # atomic factor is refused, coarse-grained or not
        basis = FockBasis(4)
        rho = np.kron(np.diag([1.0, 0.0]), fock_density(0, 4))
        proj_e = SemiclassicalObservable.constant(1.0, atom_op=np.diag([1.0, 0.0]))
        for obs in (proj_e, coarse_grain(proj_e)):
            with pytest.raises(ValueError, match=r"atomic factor \(atom_op\)"):
                symmetric_moment_oracle(obs, rho, basis)

    def test_sharp_equivalence_on_random_states(self, default_grid):
        # operator substitution against quadrature over the sharp density
        rng = np.random.default_rng(10)
        basis = FockBasis(8)
        space = CompositeSpace(2, basis)
        monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        for _ in range(3):
            rho = random_composite_density(rng, 2, 8, edge_margin=2)
            field = sharp_density(rho, space, default_grid)
            for j, k in monomials:
                obs = SemiclassicalObservable.from_poly({(j, k): 1.0})
                op_side = symmetric_moment_oracle(obs, rho, basis)
                ps_side = phase_space_moment(field, j, k)
                assert abs(op_side - ps_side) <= 1e-5

    def test_coarse_equivalence_on_random_states(self, default_grid):
        # smoothed observable substitution against quadrature over the
        # coherent-state diagonal
        rng = np.random.default_rng(11)
        basis = FockBasis(8)
        space = CompositeSpace(2, basis)
        monomials = [(0, 0), (1, 0), (1, 1), (2, 0)]
        for _ in range(3):
            rho = random_composite_density(rng, 2, 8, edge_margin=2)
            field = husimi_density(rho, space, default_grid)
            for j, k in monomials:
                obs = SemiclassicalObservable.from_poly({(j, k): 1.0})
                op_side = symmetric_moment_oracle(coarse_grain(obs), rho, basis)
                ps_side = phase_space_moment(field, j, k)
                assert abs(op_side - ps_side) <= 1e-5

    def test_number_shift_identity(self, default_grid):
        # tr((a_c+ a_c + 1/2) rho) equals the second moment of the Q-function
        rng = np.random.default_rng(12)
        basis = FockBasis(8)
        space = CompositeSpace(2, basis)
        rho = random_composite_density(rng, 2, 8, edge_margin=2)
        shifted = SemiclassicalObservable.from_poly({(1, 1): 1.0, (0, 0): 0.5})
        op_side = symmetric_moment_oracle(shifted, rho, basis)
        q = husimi_density(rho, space, default_grid).atomic_trace()
        ps_side = phase_space_moment(q, 1, 1)
        assert abs(op_side - ps_side) <= 1e-5
        # and subtracting the full unit of noise returns the photon number
        number = space.field_operator(number_operator(basis))
        exact = float(np.real(np.trace(number @ rho)))
        assert photon_number_from_husimi(q) == pytest.approx(exact, abs=1e-4)


class TestMonomials:
    @pytest.mark.parametrize("j, k", [(j, k) for j in range(5) for k in range(5 - j)])
    def test_match_complex_power(self, j, k):
        grid = PhaseGrid(5.0, 32)
        a = grid.nodes()
        ref = np.power(a, j) * np.power(np.conj(a), k)
        rng = np.random.default_rng(61)
        ops = rng.normal(size=(2, 2, 32, 32)) + 1j * rng.normal(size=(2, 2, 32, 32))
        trace = np.einsum("iixy->xy", ops)
        scale = np.sum(np.abs(ref * trace)) * grid.weight
        expected = np.sum(ref * trace) * grid.weight
        for field in (PhaseFunction(grid, trace), OperatorPhaseField(grid, ops)):
            assert abs(phase_space_moment(field, j, k) - expected) <= 1e-13 * scale


class TestObservableType:
    @pytest.mark.parametrize("poly", [{(-1, 0): 1.0}, {(0.5, 1): 1.0}, {(1.0, 0): 1.0},
                                      {(1,): 1.0}, {1: 1.0}],
                             ids=["negative", "fractional", "float", "single", "bare"])
    def test_refuses_exponents_that_are_not_non_negative_integers(self, poly):
        # an a^-1 term would read as tr rho in symmetric_moment_oracle, vanish in
        # coarse_grain and read as a^0 in swe_expectation, so construction refuses it
        valid = SemiclassicalObservable.abs_square()
        for build in (SemiclassicalObservable, SemiclassicalObservable.from_poly,
                      lambda p: replace(valid, poly=p)):
            with pytest.raises(ValueError, match="pairs of non-negative integers"):
                build(poly)

    @pytest.mark.parametrize("atom_op", [np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))],
                             ids=["vector", "rectangular", "stacked"])
    def test_refuses_an_atom_op_that_is_not_a_square_matrix(self, atom_op):
        for build in (lambda op: SemiclassicalObservable.constant(1.0, atom_op=op),
                      lambda op: SemiclassicalObservable({(1, 1): 1.0}, atom_op=op)):
            with pytest.raises(ValueError, match="square matrix"):
                build(atom_op)
