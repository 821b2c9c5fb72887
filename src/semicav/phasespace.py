"""Quasi-probability machinery on a discretized complex plane.

Conventions, fixed once and used everywhere:

* A phase-space point is ``a = x + i y``; the integration measure written
  ``da* da`` in the quantum-optics literature is implemented as ``dx dy``.
  With that reading the vacuum Wigner function is (2/pi) exp(-2|a|^2) and
  the Q-function (1/pi) <a|rho|a> integrates to one.
* The Wigner transform is the displaced parity, W_B(a) = (2/pi) tr[D(2a) P B]
  with P = (-1)^{a+ a} (Royer, Phys. Rev. A 15, 449 (1977)), evaluated at
  each node from the closed-form displacement matrix elements on the
  truncated Fock space, so it is exact at the nodes.
* Dirac deltas of superoperator arguments are never discretized.
* Every phase-space array holds its atom axes first and its node axes last: a grid
  wave is (d, M, M) and an operator field (d, d, M, M), so a transform over the node
  axes broadcasts over the atom axes, and an atomic trace is ``einsum("iixy->xy")``.
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from semicav.fockspace import (
    CompositeSpace,
    FockBasis,
    _log_factorials,
    _real_form,
    annihilation,
    symmetric_product,
    superop_weyl_apply,
)

# Spacing of the reference grid (L=5, M=128) at which the consistency
# tolerance below equals 1e-4.
_REFERENCE_H = 5.0 / 64.0

# Real multiply-adds per GEMM in _chi_on_grid and husimi_density, which
# sets how many points one block holds: in _chi_on_grid, twice as many for
# blocks that pair (i, j) with (j, i), which contract half the columns.
# OpenBLAS runs a GEMM this small on the calling thread. Larger ones at
# these shapes woke its second thread, which doubled the kernels' CPU time,
# saved no wall time, and for about 0.1 s after each call halved the speed
# of the small matrix products the grid backend runs. A husimi_density block's
# scratch is bounded below; a _chi_on_grid block's, its Laguerre columns and
# Horner sums, is largest for the one-level Wigner function: 7.5 MB at n_max 8 under
# tracemalloc, for a full block of 29127 points.
_GEMM_MACS = 1 << 19

# Bytes of scratch in one block of husimi_density: the overlaps, the GEMM result and its
# signed conjugate. At n_max 8 and rank 1 the GEMM bound alone allows 7281-node blocks,
# which in a prototype raised the peak RSS of a rabi run by about 1 MB.
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid over Re a, Im a in [-L, L), M points per axis.

    M must be even, so that the centred kernel and nodes()[M/2, M/2] = 0 line
    up, and a power of two, which the FFTs of the convolution favour.
    Nodes sit at x_k = (k - M/2) h with h = 2L/M; the quadrature weight is
    h^2 per node. With M a power of two, h is exact and (-j) h = -(j h), so the
    nodes are point-symmetric bit for bit, for every L: node (r, c) is minus node
    (M - r, M - c) for r, c >= 1.
    """

    L: float
    M: int

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.M < 32 or (self.M & (self.M - 1)) != 0:
            raise ValueError("M must be a power of two, at least 32")
        # built with the grid, not on first use: with a lazily cached array the grid
        # backend's verify read 3% slower in every pair measured, for the same work
        x = self.axis()
        nodes = x[:, None] + 1j * x[None, :]
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def weight(self) -> float:
        return self.h ** 2

    @property
    def tol(self) -> float:
        """Grid consistency tolerance: 1e-4 at the reference spacing, scaling h^2."""
        return 1e-4 * (self.h / _REFERENCE_H) ** 2

    def axis(self) -> np.ndarray:
        return (np.arange(self.M) - self.M // 2) * self.h

    def nodes(self) -> np.ndarray:
        """Complex node array, indexed [ix, iy]: built once per grid, and read-only."""
        return self._nodes

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros((self.M, self.M), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask


@dataclass
class PhaseFunction:
    """Scalar field on a PhaseGrid; ``kind`` selects the validation contract."""

    grid: PhaseGrid
    values: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        if self.kind not in ("wigner", "husimi", "generic"):
            raise ValueError(f"unknown kind {self.kind!r}")
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.M, self.grid.M):
            raise ValueError("values shape does not match grid")
        if self.kind == "husimi":
            if np.iscomplexobj(self.values):
                if not np.max(np.abs(self.values.imag)) <= 1e-10:
                    raise ValueError("husimi values must be real")
                self.values = self.values.real
            if not self.values.min() >= -1e-10:
                raise ValueError(f"husimi values dip to {self.values.min()}")
        if self.kind in ("wigner", "husimi"):
            total = self.integral()
            if not abs(total - 1.0) <= self.grid.tol:
                raise ValueError(f"quadrature sum {total} deviates from 1 beyond grid tolerance")

    def integral(self) -> float:
        return float(np.sum(self.values.real) * self.grid.weight)


@dataclass
class OperatorPhaseField:
    """Atomic-matrix-valued field, atom-major: values[i, j] is the (M, M) plane of the
    node matrices' entry (i, j), so ``values`` has shape (d, d, M, M).

    The ``husimi`` kind is Hermitian positive semidefinite node by node. The
    constructor checks only the shape: the transforms check the density
    operator they start from, and ``coarse_grain`` its smoothed node matrices.
    """

    grid: PhaseGrid
    values: np.ndarray
    kind: str = "sharp"

    def __post_init__(self):
        if self.kind not in ("sharp", "husimi"):
            raise ValueError(f"unknown kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=complex)
        M = self.grid.M
        if self.values.shape[1:] != self.values.shape[:1] + (M, M):
            raise ValueError("values must have shape (d, d, M, M)")

    def atomic_trace(self) -> PhaseFunction:
        tr = np.einsum("iixy->xy", self.values)
        kind = "husimi" if self.kind == "husimi" else "wigner"
        return PhaseFunction(self.grid, tr.real if kind == "husimi" else tr, kind)


@dataclass(frozen=True)
class CharacteristicSample:
    """One sample chi(lambda) of a symmetric-order characteristic function."""

    lam: complex
    value: complex


def vacuum_kernel(grid: PhaseGrid) -> np.ndarray:
    """Vacuum-noise smoothing kernel (2/pi) exp(-2|a|^2) at the nodes of ``grid``.

    Refuses a grid on which its integral or second moment is off."""
    r2 = np.abs(grid.nodes()) ** 2
    values = (2.0 / np.pi) * np.exp(-2.0 * r2)
    total = np.sum(values) * grid.weight
    if abs(total - 1.0) > grid.tol:
        raise ValueError(f"kernel integral {total} deviates from 1")
    second = np.sum(r2 * values) * grid.weight
    if abs(second - 0.5) > grid.tol:
        raise ValueError(f"kernel second moment {second} deviates from 1/2")
    return values


def _monomial(a: np.ndarray, j: int, k: int) -> np.ndarray:
    """a^j (a*)^k at every entry of ``a``, by repeated elementwise products."""
    out = np.ones_like(a)
    for factor, power in ((a, j), (a.conj(), k)):
        for _ in range(power):
            out *= factor
    return out


@dataclass
class SemiclassicalObservable:
    """Phase-space polynomial F(a, a*), optionally times an atomic operator.

    ``poly`` maps exponent pairs (j, k) to coefficients of a^j (a*)^k. The
    atomic operator factor multiplies the scalar polynomial, so that purely
    atomic observables are the special case of a constant polynomial;
    ``swe_expectation`` reads it, ``symmetric_moment_oracle`` refuses it.
    Exponents must be non-negative integers and ``atom_op`` a square matrix.
    """

    poly: dict[tuple[int, int], complex]
    atom_op: np.ndarray | None = None

    def __post_init__(self):
        for key in self.poly:
            pair = isinstance(key, tuple) and len(key) == 2
            if not pair or not all(isinstance(e, int | np.integer) and e >= 0 for e in key):
                raise ValueError(f"exponents must be pairs of non-negative integers, got {key!r}")
        if self.atom_op is not None:
            self.atom_op = np.asarray(self.atom_op, dtype=complex)
            if self.atom_op.ndim != 2 or self.atom_op.shape[0] != self.atom_op.shape[1]:
                raise ValueError(f"atom_op must be a square matrix, got shape "
                                 f"{self.atom_op.shape}")

    @classmethod
    def from_poly(cls, poly: dict[tuple[int, int], complex], atom_op: np.ndarray | None = None):
        return cls(poly=dict(poly), atom_op=atom_op)

    @classmethod
    def constant(cls, c: complex = 1.0, atom_op: np.ndarray | None = None):
        return cls.from_poly({(0, 0): c}, atom_op=atom_op)

    @classmethod
    def abs_square(cls):
        return cls.from_poly({(1, 1): 1.0})

    def degree(self) -> int:
        return max((j + k for j, k in self.poly), default=0)


def characteristic_function(rho_field: np.ndarray, lam: complex) -> CharacteristicSample:
    """Symmetric-order characteristic function tr(exp(lam a+ - lam* a) rho).

    The displacement exponential is taken on the truncated space, so the
    result is reliable when the state support plus the displacement reach
    stays below the truncation edge. The generator is anti-Hermitian: with
    i gen = V diag(w) V+, the exponential is V diag(e^{-iw}) V+.
    """
    rho_field = np.asarray(rho_field, dtype=complex)
    basis = FockBasis(rho_field.shape[0] - 1)
    a = annihilation(basis)
    w, V = np.linalg.eigh(1j * (lam * a.conj().T - np.conj(lam) * a))
    disp = (V * np.exp(-1j * w)) @ V.conj().T
    return CharacteristicSample(lam, complex(np.trace(disp @ rho_field)))


def superop_characteristic_function(rho: np.ndarray, lam: complex,
                                    basis: FockBasis) -> CharacteristicSample:
    """Same characteristic function through the symmetric-product route.

    Applies the four-factor product form of the superoperator displacement
    and traces; agreement with :func:`characteristic_function` is the
    operational statement that symmetric ordering and Weyl ordering
    coincide.
    """
    shifted = superop_weyl_apply(lam, rho, basis)
    return CharacteristicSample(lam, complex(np.trace(shifted)))


def _column_set(scaled: np.ndarray, batch: tuple) -> tuple:
    """The column set of _chi_on_grid for nb blocks on the last axis, and where H(R(B)) lies.

    The set is the blocks themselves when the batch is (d, d) and each reflection R(B)
    equals the block with (i, j) and (j, i) swapped, bit for bit; otherwise the blocks
    followed by their reflections. The second result gives, per block, the entry of the
    set whose Horner sum is H(R(B)).
    """
    nb = scaled.shape[2]
    n = np.arange(scaled.shape[0])
    reflected = ((-1.0) ** np.add.outer(n, n))[:, :, None] * scaled.transpose(1, 0, 2).conj()
    swap = np.arange(nb).reshape(batch).T.ravel()  # entry (i, j) -> (j, i) of a (d, d) batch
    if len(batch) == 2 and batch[0] == batch[1] and np.array_equal(reflected, scaled[:, :, swap]):
        return scaled, swap
    return np.concatenate((scaled, reflected), axis=2), nb + np.arange(nb)


def _chi_pair(z: np.ndarray, diagonals: list, mirror: np.ndarray, ncols: int) -> tuple:
    """chi(z) and chi(-z) of _chi_on_grid for the points z of one block, each (z.size, nb).

    Per diagonal k, the Laguerre columns at x = |z|^2 come from the three-term recurrence
    and one real GEMM contracts them with ``diagonals[k]``: U_k, a function of |z|^2 alone.
    H = sum_{k>=1} z^k U_k splits into its even part E and odd part O, and H(-z) = E - O.
    Horner's rule runs in w = z^2 with one accumulator per parity, from the top diagonal
    down, then E = w acc_0 and O = z acc_1: no power of z is formed, and where the columns
    underflow to 0 far from the origin, 0 * w stays 0.
    """
    n_max = len(diagonals) - 1
    x = z.real ** 2 + z.imag ** 2
    env = np.exp(-0.5 * x)
    w = (z * z)[:, None]
    lag, tmp = np.empty((n_max + 1, z.size)), np.empty(z.size)
    acc = np.zeros((2, z.size, ncols), dtype=complex)
    for k in range(n_max, -1, -1):
        rows = n_max + 1 - k
        lag[0] = env
        if rows > 1:
            lag[1] = (1 + k - x) * env
        for j in range(1, rows - 1):
            # lag[j + 1] = ((2j + 1 + k - x) lag[j] - (j + k) lag[j - 1]) / (j + 1), in place
            np.subtract(2 * j + 1 + k, x, out=tmp)
            tmp *= lag[j]
            np.multiply(j + k, lag[j - 1], out=lag[j + 1])
            np.subtract(tmp, lag[j + 1], out=lag[j + 1])
            lag[j + 1] /= j + 1
        terms = (lag[:rows].T @ diagonals[k]).view(complex)
        if k > 0:
            acc[k % 2] *= w
            acc[k % 2] += terms
    acc[0] *= w
    acc[1] *= z[:, None]
    even, odd = acc
    nb = len(mirror)
    return tuple(terms + h[:, :nb] + h[:, mirror].conj() for h in (even + odd, even - odd))


def _chi_on_grid(blocks: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """tr(D(lam) B) for every lambda in an array and every block B, in closed form.

    ``blocks`` has shape (n_max + 1, n_max + 1, *batch); the result has shape
    lam.shape + batch. Uses the Laguerre form of the displacement matrix
    elements, sqrt(n!/m!) lam^k e^{-|lam|^2/2} L_n^(k)(|lam|^2) with k = m - n
    (and (-lam*)^k for the transposed element); exact on the truncated space
    because the ladder operators are nilpotent there.

    Per diagonal k, the columns e^{-x/2} L_n^(k)(x), n = 0..n_max-k, x = |lam|^2, come
    from the three-term recurrence in n started at the envelope, and one real GEMM
    contracts them with the real and imaginary parts of a column set: U_k(B), the sums
    over the (n, n+k) elements. The (n+k, n) terms of B are the conjugates of the
    (n, n+k) terms of its reflection R(B)[n, m] = (-1)^(n+m) B[m, n]*, so that
    chi = U_0(B) + H(B) + H(R(B))* with H = sum_{k>=1} lam^k U_k, summed by Horner's
    rule split into even and odd diagonals (_chi_pair). General blocks take both column
    sets (_column_set). When the batch is (d, d) and R(B) is B with its batch axes
    swapped, bit for bit (the parity-folded blocks of a Hermitian rho), H(R(B))_ij is
    H(B)_ji and is not computed again: half the columns. Lambda is processed in blocks
    sized by _GEMM_MACS.

    U_k depends on |lam|^2 alone, so chi(-lam) is the same sum with the odd diagonals
    negated, and one evaluation gives both. When ``lam`` is a square (M, M) array with M
    even and lam[1:, 1:] = -lam[:0:-1, :0:-1] bit for bit (2 * PhaseGrid.nodes()), only
    rows 0..M/2 and column 0 of the rows below are evaluated, M^2/2 + 3M/2 - 1 points:
    row 0 and column 0 have no partner, row M/2 is its own mirror, and chi(-lam) of rows
    1..M/2-1 fills the rest. Any other ``lam`` is evaluated at every point.
    """
    n_max = blocks.shape[0] - 1
    batch = blocks.shape[2:]
    nb = int(np.prod(batch, dtype=int))
    n = np.arange(n_max + 1)
    log_fact = _log_factorials(n_max)
    lo, hi = log_fact[np.minimum.outer(n, n)], log_fact[np.maximum.outer(n, n)]
    scaled = np.asarray(blocks, dtype=complex).reshape(n_max + 1, n_max + 1, nb) \
        * np.exp(0.5 * (lo - hi))[:, :, None]
    columns, mirror = _column_set(scaled, batch)
    ncols = columns.shape[2]
    # rows n, columns Re/Im of the k = 0 elements, then of the column set per k > 0
    diagonals = [np.diagonal(scaled, 0).T.copy().view(float)]
    diagonals += [np.diagonal(columns, k).T.copy().view(float) for k in range(1, n_max + 1)]
    lam_flat = lam.ravel()
    chi = np.empty((lam_flat.size, nb), dtype=complex)
    size = max(1, _GEMM_MACS // ((n_max + 1) * 2 * ncols))
    M = lam.shape[0] if lam.ndim else 0
    paired = lam.shape == (M, M) and M % 2 == 0 and np.array_equal(lam[1:, 1:],
                                                                   -lam[:0:-1, :0:-1])
    # A paired grid evaluates rows 0..M/2, then column 0 of the rows below. Flat index
    # e = rM + c in [M + 1, M^2/2) reflects to M^2 + M - e; the reversed slice also writes
    # column 0 of rows M/2 + 2..M - 1, which is evaluated after it
    head, stride, mirrored = ((M // 2 + 1) * M, M, (M + 1, M * M // 2)) if paired \
        else (lam_flat.size, 1, (0, 0))
    end = lam_flat.size + M + 1
    for points in (range(head), range(head, lam_flat.size, stride)):
        for start in range(0, len(points), size):
            at = points[start:start + size]
            block = slice(at.start, at.stop, at.step)
            plus, minus = _chi_pair(lam_flat[block], diagonals, mirror, ncols)
            chi[block] = plus
            first, last = max(at.start, mirrored[0]), min(at.stop, mirrored[1])
            if first < last:
                chi[end - last:end - first] = minus[first - at.start:last - at.start][::-1]
    return chi.reshape(lam.shape + batch)


def _check_psd(ops: np.ndarray, tol: float, what: str) -> None:
    """Refuse square matrices, stacked over leading axes, not Hermitian PSD within ``tol``."""
    adjoint = np.swapaxes(ops.conj(), -1, -2)
    defect = float(np.max(np.abs(ops - adjoint)))
    if not defect <= tol:
        raise ValueError(f"{what} not Hermitian: defect {defect}")
    low = float(np.min(np.linalg.eigvalsh(0.5 * (ops + adjoint))))
    if not low >= -tol:
        raise ValueError(f"{what} not positive semidefinite: eigenvalue {low}")


def _density_operator(rho: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """Shape (D, D), Hermitian and PSD within 1e-10: the one check of both transforms' input.

    Returns the Hermitian part (rho + rho+)/2, which both transforms take: Hermitian bit
    for bit, as the pairing in ``_chi_on_grid`` needs."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (space.total_dim, space.total_dim):
        raise ValueError(f"density operator has shape {rho.shape}")
    _check_psd(rho, 1e-10, "density operator")
    return 0.5 * (rho + rho.conj().T)


def _check_grid_covers(w: np.ndarray, grid: PhaseGrid) -> None:
    """Reject transforms whose values at the edge of the grid are significant.

    The quadrature sum misses whatever lies past the edge, which the
    normalization checks of ``wigner`` and ``PhaseFunction`` catch only
    beyond their tolerances; the boundary values are the direct symptom.
    """
    edge = float(np.max(np.abs(w[grid.boundary_mask()])))
    if edge > 1e-4:
        raise ValueError(f"boundary value {edge}; grid too small for this state")


def wigner(rho_field: np.ndarray, grid: PhaseGrid) -> PhaseFunction:
    """Wigner function of a field state: the sharp density of a one-level atom."""
    rho_field = np.asarray(rho_field, dtype=complex)
    space = CompositeSpace(1, FockBasis(rho_field.shape[0] - 1))
    w = sharp_density(rho_field, space, grid).values[0, 0]
    total = float(np.sum(w.real) * grid.weight)
    if not 0.99 <= total <= 1.01:
        raise ValueError(f"quadrature normalization {total}; "
                         "grid too small or too coarse for this state")
    return PhaseFunction(grid, w.real, kind="wigner")


def sharp_density(rho: np.ndarray, space: CompositeSpace, grid: PhaseGrid) -> OperatorPhaseField:
    """Operator-valued Wigner transform over the field factor.

    Each atomic block (i, j) of the composite density operator is an
    operator on the field space and transforms independently; the atomic
    trace of the result is the Wigner function of the field-reduced state,
    and the quadrature over the grid is the reduced atomic density
    operator. Each node is the displaced parity of the module docstring: the
    parity (-1)^n multiplies the row index n of B_nm, so that the kernel sees
    P B (on the column index it would give W(-a)).

    The transform is that of the Hermitian part (rho + rho+)/2, which differs from
    rho by at most the 1e-10 the input check allows. Its parity-folded blocks pair
    (i, j) with (j, i) bit for bit, so ``_chi_on_grid`` contracts half the columns.
    """
    rho = _density_operator(rho, space)
    d, nf = space.atom_dim, space.fock.dim
    blocks = rho.reshape(d, nf, d, nf).transpose(1, 3, 0, 2)
    parity = (-1.0) ** np.arange(nf)[:, None, None, None]
    chi = _chi_on_grid(parity * blocks, 2.0 * grid.nodes())
    values = np.moveaxis((2.0 / np.pi) * chi, (0, 1), (2, 3))  # a view, not a copy
    _check_grid_covers(np.einsum("iixy->xy", values), grid)
    return OperatorPhaseField(grid, values, kind="sharp")


def _convolve_with_kernel(values: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Circular FFT convolution of the node axes with the vacuum kernel on ``grid``, weight h^2."""
    kft = np.fft.fft2(np.fft.ifftshift(vacuum_kernel(grid)))
    # one copy, transformed in place one axis at a time; fft2(..., out=) gave wrong values
    out = np.array(values, dtype=complex, order="C")
    for axis in (-1, -2):
        np.fft.fft(out, axis=axis, out=out)
    out *= kft
    for axis in (-1, -2):
        np.fft.ifft(out, axis=axis, out=out)
    out *= grid.weight
    return out


def _boundary_mass(values: np.ndarray, grid: PhaseGrid) -> float:
    """Quadrature over the boundary nodes of the largest |value| over the atom axes."""
    mask = grid.boundary_mask()
    flat = np.abs(values[..., mask]).reshape(-1, np.count_nonzero(mask)).max(axis=0)
    return float(np.sum(flat) * grid.weight)


def coarse_grain(f):
    """Gaussian vacuum-noise smoothing; returns the same kind of object.

    Scalar and operator fields are convolved by Fourier multiplication with
    the vacuum kernel sampled on their grid, assuming the field is negligible
    at the grid boundary (periodic wrap-around). Polynomial observables are
    smoothed exactly through the kernel moments instead, since polynomials do
    not decay and a periodic convolution would corrupt them: the kernel's
    cross-moments <a0^p a0*^q> vanish except for p = q, where they equal
    p! / 2^p, so the result is again a polynomial.
    """
    if isinstance(f, SemiclassicalObservable):
        out: dict[tuple[int, int], complex] = {}
        for (j, k), c in f.poly.items():
            for p in range(min(j, k) + 1):
                moment = factorial(p) * 0.5 ** p
                key = (j - p, k - p)
                out[key] = out.get(key, 0.0) + c * comb(j, p) * comb(k, p) * moment
        return SemiclassicalObservable.from_poly(out, atom_op=f.atom_op)
    grid = f.grid
    bmass = _boundary_mass(f.values, grid)
    if not bmass <= 1e-8:
        raise ValueError(f"boundary mass {bmass} too large for periodic convolution")
    smoothed = _convolve_with_kernel(f.values, grid)
    if isinstance(f, PhaseFunction):
        kind = "husimi" if f.kind == "wigner" else "generic"
        vals = smoothed.real if kind == "husimi" else smoothed
        return PhaseFunction(grid, vals, kind=kind)
    if isinstance(f, OperatorPhaseField):
        _check_psd(np.moveaxis(smoothed, (0, 1), (2, 3)), max(1e-10, grid.tol),
                   "smoothed node matrix")
        return OperatorPhaseField(grid, smoothed, kind="husimi")
    raise TypeError(f"cannot coarse-grain {type(f).__name__}")


def husimi_density(rho: np.ndarray, space: CompositeSpace, grid: PhaseGrid) -> OperatorPhaseField:
    """Coherent-state diagonal (1/pi) <a|rho|a> over the field factor.

    The Hermitian part of rho is factored once, sum_r w_r v_r v_r+, keeping every
    eigenpair with |w_r| >= D eps max|w| and the sign s_r of its weight, so nothing the
    input check accepts is clamped. With the overlaps E[p, n] = e^{-|a_p|^2/2} (a_p*)^n,
    (a*)^n a running product, and B[n, (r, i)] = sqrt(|w_r| / (pi n!)) v_r[i, n], a block
    of nodes is one real GEMM phi = E B, then the node matrices sum_r s_r phi_r phi_r+,
    Hermitian by construction: (n_max + 1) d r work per node, r the rank kept. The
    (M, M, n_max + 1) overlap is never built; a block holds at most ``_GEMM_MACS``
    multiply-adds and ``_BLOCK_BYTES`` of scratch.
    """
    rho = _density_operator(rho, space)
    d, nf = space.atom_dim, space.fock.dim
    w, V = np.linalg.eigh(rho)
    keep = np.abs(w) >= rho.shape[0] * np.finfo(float).eps * np.max(np.abs(w))  # all if rho = 0
    w, V, rank = w[keep], V[:, keep], int(np.count_nonzero(keep))
    scale = np.exp(-0.5 * _log_factorials(space.fock.n_max))
    B = (V * np.sqrt(np.abs(w) / np.pi)).reshape(d, nf, rank) * scale[:, None]
    B_real = _real_form(B.transpose(1, 2, 0).reshape(nf, rank * d))
    points = grid.nodes().ravel()
    vals = np.empty((d, d, points.size), dtype=complex)  # contiguous per entry
    size = max(1, min(_GEMM_MACS // B_real.size, _BLOCK_BYTES // (16 * (nf + 2 * rank * d))))
    E = np.empty((size, nf), dtype=complex)
    for start in range(0, points.size, size):
        ac = points[start:start + size].conj()
        e = E[:ac.size]
        e[:, 0] = np.exp(-0.5 * (ac.real ** 2 + ac.imag ** 2))
        for n in range(1, nf):
            np.multiply(e[:, n - 1], ac, out=e[:, n])
        phi = (e.view(float) @ B_real).view(complex).reshape(-1, rank, d)
        signed = phi.conj() * np.sign(w)[:, None]
        for i in range(d):
            for j in range(d):
                q = vals[i, j, start:start + size]
                np.multiply(phi[:, 0, i], signed[:, 0, j], out=q)
                for r in range(1, rank):
                    q += phi[:, r, i] * signed[:, r, j]
    return OperatorPhaseField(grid, vals.reshape(d, d, grid.M, grid.M), kind="husimi")


def husimi_function(rho_field: np.ndarray, grid: PhaseGrid) -> PhaseFunction:
    """Scalar Q-function of a field-only state."""
    rho_field = np.asarray(rho_field, dtype=complex)
    space = CompositeSpace(1, FockBasis(rho_field.shape[0] - 1))
    return husimi_density(rho_field, space, grid).atomic_trace()


def phase_space_moment(field, j: int, k: int) -> complex:
    """Complex moment int a^j (a*)^k f(a) dx dy of a scalar or operator field."""
    if isinstance(field, OperatorPhaseField):
        vals = np.einsum("iixy->xy", field.values)
    else:
        vals = field.values
    return complex(np.sum(_monomial(field.grid.nodes(), j, k) * vals) * field.grid.weight)


def photon_number_from_husimi(Q: PhaseFunction) -> float:
    """Mean photon number from the Q-function: int |a|^2 Q - 1.

    The subtraction removes the vacuum-noise contribution added by the
    coarse-graining, making the result exact rather than approximate.
    """
    if Q.kind != "husimi":
        raise ValueError("photon-number extraction requires a husimi-kind function")
    return phase_space_moment(Q, 1, 1).real - 1.0


def symmetric_moment_oracle(poly: SemiclassicalObservable, rho: np.ndarray,
                            basis: FockBasis) -> complex:
    """Operator-side value tr(F(a_c, a_c+) rho) built monomial by monomial.

    Each monomial a^j (a*)^k is substituted by j applications of the
    symmetric product with the annihilation operator and k with the
    creation operator (order immaterial, the two superoperators commute up
    to truncation). ``rho`` may be a field operator or a composite one; in
    the composite case the ladder operators act on the field factor. An
    observable with an atomic factor is refused.
    """
    if poly.atom_op is not None:
        raise ValueError("symmetric_moment_oracle takes the polynomial alone; "
                         "the observable has an atomic factor (atom_op)")
    deg = poly.degree()
    if deg > 4:
        raise ValueError(f"total degree {deg} exceeds the supported maximum of 4")
    rho = np.asarray(rho, dtype=complex)
    dim = basis.dim
    if rho.shape[0] % dim != 0:
        raise ValueError(f"operator dimension {rho.shape[0]} is not a multiple of {dim}")
    blocks = rho.shape[0] // dim
    a = annihilation(basis)
    if blocks > 1:
        a = np.kron(np.eye(blocks, dtype=complex), a)
    ad = a.conj().T
    total = 0.0 + 0.0j
    for (j, k), c in poly.poly.items():
        X = rho
        for _ in range(j):
            X = symmetric_product(a, X)
        for _ in range(k):
            X = symmetric_product(ad, X)
        total += c * np.trace(X)
    return complex(total)
