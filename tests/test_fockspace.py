from decimal import Decimal, localcontext
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from semicav.fockspace import (
    CompositeSpace,
    CompositeState,
    FockBasis,
    _log_factorials,
    _real_form,
    annihilation,
    coherent_amplitudes,
    ladder_exponential,
    number_operator,
    partial_trace_atom,
    partial_trace_field,
    superop_weyl_apply,
    symmetric_product,
    tensor,
)


def random_supported_operator(rng, dim, support):
    """Random operator with all entries above ``support`` occupation zero."""
    op = np.zeros((dim, dim), dtype=complex)
    block = support + 1
    op[:block, :block] = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    return op


def random_supported_state(rng, dim, support):
    v = np.zeros(dim, dtype=complex)
    v[: support + 1] = rng.normal(size=support + 1) + 1j * rng.normal(size=support + 1)
    return v / np.linalg.norm(v)


class TestBasisAndLadders:
    def test_nmax_lower_bound(self):
        with pytest.raises(ValueError):
            FockBasis(1)

    def test_matrix_elements(self):
        a = annihilation(FockBasis(2))
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_commutator_below_truncation_edge(self):
        basis = FockBasis(10)
        a = annihilation(basis)
        comm = a @ a.conj().T - a.conj().T @ a
        # the identity holds on every level except the last
        np.testing.assert_allclose(np.diag(comm)[:-1], 1.0, atol=1e-14)

    def test_number_operator_diagonal(self):
        basis = FockBasis(7)
        n = number_operator(basis)
        np.testing.assert_allclose(n, np.diag(np.arange(8.0)), atol=1e-14)

    def test_coherent_amplitudes_ratios(self):
        alpha = 0.7 - 0.4j
        basis = FockBasis(12)
        amps = coherent_amplitudes(alpha, basis)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)
        for n in range(1, 6):
            expected = alpha ** n / np.sqrt(float(factorial(n)))
            assert amps[n] / amps[0] == pytest.approx(expected, abs=1e-12)


class TestSymmetricProduct:
    def test_identity_case(self):
        basis = FockBasis(4)
        a = annihilation(basis)
        np.testing.assert_allclose(symmetric_product(a, np.eye(5)), a)

    def test_vacuum_projector_by_hand(self):
        # {a, |0><0|} on a 3-dim space: a|0><0| = 0 and |0><0|a has the
        # single entry a[0,1] = 1 in the top row, halved by the product.
        basis = FockBasis(2)
        proj = np.zeros((3, 3), dtype=complex)
        proj[0, 0] = 1.0
        result = symmetric_product(annihilation(basis), proj)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 0.5
        np.testing.assert_allclose(result, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_product(np.eye(3), np.eye(4))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 16 - 1))
    def test_linearity_and_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        basis = FockBasis(5)
        a = annihilation(basis)
        O1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        O2 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        c = complex(rng.normal(), rng.normal())
        lhs = symmetric_product(a, O1 + c * O2)
        rhs = symmetric_product(a, O1) + c * symmetric_product(a, O2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(
            symmetric_product(a, O1).conj().T,
            symmetric_product(a.conj().T, O1.conj().T),
            atol=1e-12,
        )

    def test_superoperators_commute_on_supported_operators(self):
        basis = FockBasis(10)
        a = annihilation(basis)
        ad = a.conj().T
        rng = np.random.default_rng(5)
        for _ in range(50):
            op = random_supported_operator(rng, basis.dim, basis.n_max - 2)
            comm = symmetric_product(a, symmetric_product(ad, op)) - symmetric_product(
                ad, symmetric_product(a, op)
            )
            assert np.max(np.abs(comm)) <= 1e-10


class TestLogFactorials:
    def test_matches_50_digit_reference(self):
        got = _log_factorials(60)
        with localcontext() as ctx:
            ctx.prec = 50
            for n in range(61):
                ref = Decimal(factorial(n)).ln()
                assert abs(Decimal(got[n]) - ref) <= Decimal(1e-15) * max(1, ref), n

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_takes_n_max_below_the_fock_floor(self, n_max):
        np.testing.assert_array_equal(_log_factorials(n_max), np.zeros(n_max + 1))


class TestRealForm:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_real_product_is_the_complex_product(self, shape):
        rng = np.random.default_rng(shape[0])
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        R = _real_form(A)
        assert R.shape == (2 * shape[0], 2 * shape[1]) and R.dtype == float
        for x in (rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0]),
                  rng.normal(size=(4, shape[0])) + 1j * rng.normal(size=(4, shape[0]))):
            ref = (x @ A).view(float)
            assert np.max(np.abs(x.view(float) @ R - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestLadderExponential:
    @pytest.mark.parametrize("n_max", [8, 24])
    def test_matches_expm(self, n_max):
        # scipy's expm is the reference the closed form replaced
        basis = FockBasis(n_max)
        a = annihilation(basis)
        rng = np.random.default_rng(n_max)
        cs = [0.0, 2.0, -2.0j, 1.2 * np.exp(0.4j)]
        cs += list(rng.uniform(0, 2, 6) * np.exp(2j * np.pi * rng.random(6)))
        for c in cs:
            lower = ladder_exponential(c, basis)
            for got, ref in ((lower, expm(c * a)), (lower.T, expm(c * a.conj().T))):
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestWeylApply:
    def test_zero_displacement_is_identity(self):
        basis = FockBasis(6)
        rng = np.random.default_rng(0)
        rho = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        np.testing.assert_allclose(superop_weyl_apply(0.0, rho, basis), rho, atol=1e-14)

    def test_roundtrip_below_edge(self):
        # forward then backward displacement restores entries that sit well
        # below the truncation edge
        basis = FockBasis(16)
        rng = np.random.default_rng(1)
        for lam in (0.5, 0.3 + 0.4j, -0.45j):
            v = random_supported_state(rng, basis.dim, 8)
            rho = np.outer(v, v.conj())
            back = superop_weyl_apply(-lam, superop_weyl_apply(lam, rho, basis), basis)
            keep = basis.n_max - 3
            np.testing.assert_allclose(back[:keep, :keep], rho[:keep, :keep], atol=1e-8)

    def test_trace_against_power_series(self):
        # independent oracle: expand exp(lam a_c+ - lam* a_c) term by term
        # with symmetric products, truncated at order 8
        def series_trace(lam, rho, basis, order=8):
            a = annihilation(basis)
            ad = a.conj().T
            term = rho.copy()
            total = np.trace(term)
            for k in range(1, order + 1):
                term = (-np.conj(lam) * symmetric_product(a, term)
                        + lam * symmetric_product(ad, term)) / k
                total += np.trace(term)
            return total

        basis = FockBasis(20)
        rng = np.random.default_rng(2)
        vacuum = np.zeros(basis.dim, dtype=complex)
        vacuum[0] = 1.0
        fock1 = np.zeros(basis.dim, dtype=complex)
        fock1[1] = 1.0
        # remainder of the order-8 series grows with |lam| and the support,
        # hence the graded tolerances
        cases = [
            (vacuum, 1e-6),
            (fock1, 1e-5),
            (random_supported_state(rng, basis.dim, 4), 2e-4),
        ]
        for state, tol in cases:
            rho = np.outer(state, state.conj())
            for lam in (0.5, 0.25 + 0.1j, 0.35 - 0.35j):
                direct = np.trace(superop_weyl_apply(lam, rho, basis))
                oracle = series_trace(lam, rho, basis)
                assert abs(direct - oracle) <= tol

    def test_refuses_composite_operator(self):
        # only field operators are displaced; a composite one is refused
        basis = FockBasis(8)
        composite = tensor(np.eye(2), np.eye(basis.dim))
        with pytest.raises(ValueError, match="expected \\(9, 9\\)"):
            superop_weyl_apply(0.3 - 0.2j, composite, basis)


class TestCompositeAlgebra:
    def test_tensor_identities(self):
        rng = np.random.default_rng(4)
        A, B, C, D = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))
        np.testing.assert_allclose(tensor(A, B) @ tensor(C, D), tensor(A @ C, B @ D),
                                   atol=1e-12)
        assert np.trace(tensor(A, B)) == pytest.approx(np.trace(A) * np.trace(B), abs=1e-12)

    def test_partial_trace_field_product_state(self):
        basis = FockBasis(4)
        space = CompositeSpace(2, basis)
        rng = np.random.default_rng(6)
        rho_ato = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_ato = rho_ato @ rho_ato.conj().T
        rho_ato /= np.trace(rho_ato)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        f /= np.linalg.norm(f)
        rho_f = np.outer(f, f.conj())
        reduced = partial_trace_field(tensor(rho_ato, rho_f), space)
        np.testing.assert_allclose(reduced, rho_ato, atol=1e-12)
        np.testing.assert_allclose(partial_trace_atom(tensor(rho_ato, rho_f), space),
                                   rho_f * np.trace(rho_ato), atol=1e-12)

    def test_partial_trace_identity_and_trace_preservation(self):
        basis = FockBasis(3)
        space = CompositeSpace(3, basis)
        eye = np.eye(space.total_dim, dtype=complex)
        np.testing.assert_allclose(partial_trace_field(eye, space), basis.dim * np.eye(3))
        rng = np.random.default_rng(7)
        O = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        assert np.trace(partial_trace_field(O, space)) == pytest.approx(np.trace(O), abs=1e-12)

    def test_partial_trace_dimension_check(self):
        with pytest.raises(ValueError):
            partial_trace_field(np.eye(7), CompositeSpace(2, FockBasis(2)))

    def test_composite_state_norm_check(self):
        space = CompositeSpace(2, FockBasis(2))
        amps = np.zeros(6, dtype=complex)
        amps[0] = 1.0
        CompositeState(space, amps)
        with pytest.raises(ValueError):
            CompositeState(space, 1.1 * amps)

    def test_composite_state_refuses_nan(self):
        amps = np.zeros(6, dtype=complex)
        amps[0] = np.nan
        with pytest.raises(ValueError, match="state norm nan"):
            CompositeState(CompositeSpace(2, FockBasis(2)), amps, norm_tol=1.0)
