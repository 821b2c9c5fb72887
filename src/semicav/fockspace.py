"""Truncated Fock-space and composite-space operator algebra.

Everything here is dense numpy linear algebra at desk scale (dimensions of
a few hundred at most). Operator identities involving the ladder operators
are exact only away from the truncation edge; callers that rely on them
must keep operator supports a few occupation levels below ``n_max``.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FockBasis:
    """Single radiation mode truncated at occupation number ``n_max``."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class CompositeSpace:
    """Atom tensor mode space; composite index = atom_index * fock_dim + fock_index."""

    atom_dim: int
    fock: FockBasis

    def __post_init__(self):
        if self.atom_dim < 1:
            raise ValueError(f"atom_dim must be >= 1, got {self.atom_dim}")

    @property
    def total_dim(self) -> int:
        return self.atom_dim * self.fock.dim

    def field_operator(self, op: np.ndarray) -> np.ndarray:
        """Lift a field-space operator to the composite space."""
        return np.kron(np.eye(self.atom_dim, dtype=complex), op)


@dataclass
class CompositeState:
    """Normalized pure state of the atom+mode system; also the SWE's coefficient wave.

    ``norm_tol``, by default 1e-12, loosens the unit-norm check at construction for states
    of long integrations, whose round-off drift is legitimate. It is kept as given, so that
    ``dataclasses.replace`` repeats that check; no run reads it.
    """

    space: CompositeSpace
    amplitudes: np.ndarray
    norm_tol: float | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        norm_tol = 1e-12 if self.norm_tol is None else self.norm_tol
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({self.space.total_dim},)"
            )
        nrm = np.linalg.norm(self.amplitudes)
        if not abs(nrm - 1.0) <= norm_tol:
            raise ValueError(f"state norm {nrm} deviates from 1 by more than {norm_tol}")

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (atom_dim, fock_dim)."""
        return self.amplitudes.reshape(self.space.atom_dim, self.space.fock.dim)

    @property
    def coeffs(self) -> np.ndarray:
        """SWE coefficients F = Y^T, a view shaped (fock_dim, atom_dim): row n is F_n."""
        return self.as_matrix().T


def annihilation(basis: FockBasis) -> np.ndarray:
    """Absorption operator: entry sqrt(n) at (n-1, n)."""
    return np.diag(np.sqrt(np.arange(1, basis.dim)), 1).astype(complex)


def number_operator(basis: FockBasis) -> np.ndarray:
    a = annihilation(basis)
    return a.conj().T @ a


def _log_factorials(n_max: int) -> np.ndarray:
    """log n! for n = 0 .. n_max (an int, possibly below 2), rounded once from the exact n!."""
    return np.array([math.log(math.factorial(n)) for n in range(n_max + 1)])


def coherent_amplitudes(alpha: complex, basis: FockBasis) -> np.ndarray:
    """Truncated coherent-state expansion alpha^n / sqrt(n!), renormalized."""
    n = np.arange(basis.dim)
    amps = np.power(complex(alpha), n) * np.exp(-0.5 * _log_factorials(basis.n_max))
    return amps / np.linalg.norm(amps)


def ladder_exponential(c: complex, basis: FockBasis) -> np.ndarray:
    """exp(c a) on the truncated space; its transpose is exp(c a+).

    The truncated ``a`` is nilpotent, so the series ends: entry (m, n) is
    c^(n-m) / (n-m)! * sqrt(n! / m!) for n >= m, and zero below the diagonal.
    """
    n = np.arange(basis.dim)
    k = np.maximum(n[None, :] - n[:, None], 0)
    log_fact = _log_factorials(basis.n_max)
    ratio = np.exp(0.5 * (log_fact[None, :] - log_fact[:, None]) - log_fact[k])
    return np.triu(np.power(complex(c), k) * ratio)


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, atom factor first."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def _real_form(A: np.ndarray) -> np.ndarray:
    """The real (2m, 2n) matrix R of a complex (m, n) matrix A with
    ``x.view(float) @ R == (x @ A).view(float)``: real and imaginary parts interleaved on
    both axes, as a complex array viewed as float holds them."""
    m, n = A.shape
    R = np.empty((m, 2, n, 2))
    R[:, 0, :, 0] = R[:, 1, :, 1] = A.real
    R[:, 0, :, 1], R[:, 1, :, 0] = A.imag, -A.imag
    return R.reshape(2 * m, 2 * n)


def symmetric_product(A: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Symmetric (Jordan) product (A O + O A) / 2."""
    A = np.asarray(A)
    O = np.asarray(O)
    if A.shape != O.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need square matrices of equal size, got {A.shape} and {O.shape}")
    return 0.5 * (A @ O + O @ A)


def superop_weyl_apply(lam: complex, rho: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Apply the symmetric-order displacement superoperator to a field operator.

    Computes ``exp(-lam* a/2) exp(lam a+/2) rho exp(lam a+/2) exp(-lam* a/2)``
    with the exponentials taken on the truncated field space, in closed form.

    The caller is responsible for keeping ``|lam|`` small enough (and the
    support of ``rho`` low enough) that truncation spill-over at the top
    Fock levels is negligible.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.dim, basis.dim):
        raise ValueError(f"operator has shape {rho.shape}, expected ({basis.dim}, {basis.dim})")
    e_lower = ladder_exponential(-0.5 * np.conj(lam), basis)
    e_raise = ladder_exponential(0.5 * lam, basis).T
    return e_lower @ e_raise @ rho @ e_raise @ e_lower


def partial_trace_field(O: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """Trace out the mode: entry (i, j) = sum_n O[(i,n), (j,n)]."""
    O = np.asarray(O)
    tot = space.total_dim
    if O.shape != (tot, tot):
        raise ValueError(f"operator has shape {O.shape}, expected ({tot}, {tot})")
    d, nf = space.atom_dim, space.fock.dim
    return np.einsum("injn->ij", O.reshape(d, nf, d, nf))


def partial_trace_atom(O: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """Trace out the atom, leaving a field-space operator."""
    O = np.asarray(O)
    tot = space.total_dim
    if O.shape != (tot, tot):
        raise ValueError(f"operator has shape {O.shape}, expected ({tot}, {tot})")
    d, nf = space.atom_dim, space.fock.dim
    return np.einsum("inim->nm", O.reshape(d, nf, d, nf))
