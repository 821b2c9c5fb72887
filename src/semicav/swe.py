"""Semiclassical wave equation for an atomic state attached to a classical field.

The unknown is an atomic-vector-valued function psi(a, a*) of one complex
field variable. Its evolution

    dpsi/dt = -i (a* j(t) + (a/2) j+(t)) psi - i j+(t) dpsi/da*

is integrated in two pictures:

* coefficients: psi = e^{-|a|^2/2} / sqrt(pi) * sum_n F_n (a*)^n / sqrt(n!), where a*
  raises and (a/2 + d/da*) lowers. This is the oracle's equation read through F = Y^T,
  so the coefficient wave is the oracle's ``CompositeState`` (``coeffs`` is F), and
  ``evolve_unitary`` steps it.
* grid: a ``SemiclassicalWave``, collocated on a PhaseGrid with the a*-derivative taken
  spectrally; the only independent discretization.

The grid backend needs stabilization: exact solutions have the rigid form
e^{-|a|^2/2} f(a*) with f anti-holomorphic, and the flow linearized around
that manifold has exponentially growing transverse directions which
amplify round-off. Two measures keep them in check, both acting only on
the transverse component: a radial low-pass filter on the derivative
(physical states decay like e^{-k^2/2} in the conjugate variable, so a
cutoff near 12 discards nothing measurable) and a penalty term
-mu D+ D psi with D = d/da + a*/2, which annihilates the manifold exactly
and damps every transverse mode at rate >= mu. mu is ``_PENALTY`` (5) times
the spectral norm of the current operator, which the interaction-picture
rotation leaves invariant.
"""

from dataclasses import dataclass, field

import numpy as np

from semicav.fockspace import CompositeSpace, CompositeState, FockBasis, _log_factorials
from semicav.phasespace import (
    PhaseFunction,
    PhaseGrid,
    SemiclassicalObservable,
    _boundary_mass,
    husimi_density,
    phase_space_moment,
)
from semicav.unitary import (AtomFieldModel, TimeGrid, density_operator, evolve_unitary,
                             integrate, product_initial_state, rk4_step, rotated_current)

_K_CUT = 12.0  # radial low-pass of the spectral derivative, see the module docstring
_PENALTY = 5.0  # mu / ||J||_2 of the transverse penalty, see the module docstring


@dataclass
class SemiclassicalWave:
    """Grid wave: atom-major ``values`` of shape (d, M, M) over ``grid``, as ``GridStepper``
    steps them, of unit total probability within ``norm_tol``, by default the grid's ``tol``.
    ``norm_tol`` is kept as given, so ``dataclasses.replace`` repeats the check; no run reads it."""

    grid: PhaseGrid
    values: np.ndarray
    norm_tol: float | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 3 or self.values.shape[1:] != (self.grid.M, self.grid.M):
            raise ValueError("values must have shape (d, M, M)")
        tol = self.grid.tol if self.norm_tol is None else self.norm_tol
        total = self.total_probability()
        if not abs(total - 1.0) <= tol:
            raise ValueError(f"total probability {total} deviates from 1 beyond {tol}")

    @property
    def atom_dim(self) -> int:
        return self.values.shape[0]

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.weight)


@dataclass(frozen=True)
class GridOptions:
    """Guards of the grid backend.

    ``check_boundary`` enforces the boundary-mass growth guard; disable it
    only for deliberate under-resolution studies. ``norm_tol``, by default the
    grid's ``tol``, is the run's unit-probability tolerance.
    """

    check_boundary: bool = True
    norm_tol: float | None = None


def initial_wave(psi_ato: np.ndarray, grid_or_basis,
                 norm_tol: float | None = None) -> SemiclassicalWave | CompositeState:
    """Atom in ``psi_ato``, cavity in vacuum: psi0(a) = psi_ato e^{-|a|^2/2}/sqrt(pi).

    On a ``FockBasis`` this is the oracle's product state, F_0 = psi_ato and all higher
    coefficients zero. ``norm_tol`` loosens the construction check of unit probability
    of a grid start, for deliberately under-resolved grids; a run does not inherit it.
    """
    psi_ato = np.asarray(psi_ato, dtype=complex)
    if not abs(np.linalg.norm(psi_ato) - 1.0) <= 1e-12:
        raise ValueError("atomic state is not normalized")
    if isinstance(grid_or_basis, PhaseGrid):
        grid = grid_or_basis
        env = np.exp(-0.5 * np.abs(grid.nodes()) ** 2) / np.sqrt(np.pi)
        return SemiclassicalWave(grid, env * psi_ato[:, None, None], norm_tol=norm_tol)
    if isinstance(grid_or_basis, FockBasis):
        return product_initial_state(psi_ato, np.eye(grid_or_basis.dim)[0],
                                     CompositeSpace(len(psi_ato), grid_or_basis))
    raise TypeError("expected a PhaseGrid or a FockBasis")


class GridStepper:
    """Precomputed right-hand side of the grid backend, stepped by ``integrate``.

    The iterate is a wave's ``values``, ``(d, M, M)``; ``rhs`` is ``-i(a* Jψ + ½a J†ψ +
    J†∂*ψ) - μ D†Dψ`` with ``D = ∂ + ½a*``, ``D† = -∂* + ½a``. The d×d products commute
    with the transforms over the node axes, so ``∂*ψ`` and ``μ∂*Dψ`` share one inverse: a
    call does four transforms of d planes, each only on the band of B fftfreq indices per
    axis with |k| ≤ ``_K_CUT``: forward, a full pass along the last axis, then the middle
    one over the band; inverse, the reverse, with the gap zeroed every call. Symbols at
    ``(B, B)`` and node factors ``½a``, ``½a*`` at ``(M, M)`` broadcast over the atom axis.
    μ = ``_PENALTY``·‖J‖₂ is folded into ``S_∂`` and a ``μ½a*`` factor at construction, so
    nothing set afterwards changes the RHS. A call reads ψ without copying it, and the only
    grid-sized array it allocates is its result. ``(J, J†)`` of the last stage time is kept,
    as RK4 evaluates its midpoint twice.
    """

    def __init__(self, model: AtomFieldModel, grid: PhaseGrid):
        self.model, self.grid = model, grid
        mu = _PENALTY * float(np.linalg.norm(model.j, 2))
        M, d = grid.M, model.atom_dim
        nodes = grid.nodes()
        self._half_a, self._half_ac = 0.5 * nodes, 0.5 * np.conj(nodes)
        self._mu_half_ac = mu * self._half_ac
        k = 2.0 * np.pi * np.fft.fftfreq(M, d=grid.h)
        keep = k[:, None] ** 2 + k[None, :] ** 2 <= _K_CUT ** 2
        self._band = band = np.flatnonzero(keep.any(axis=1))
        self._gap = slice(band.size // 2 + 1, M - (band.size - 1) // 2)  # between the band halves
        kx, ky, keep = k[band, None], k[None, band], keep[np.ix_(band, band)]
        self._s_dastar = 0.5 * (1j * kx - ky) * keep
        self._s_da = mu * (0.5 * (1j * kx + ky) * keep)
        self._f, self._g = (np.empty((d, band.size, band.size), dtype=complex) for _ in range(2))
        self._strip = np.empty((d, M, band.size), dtype=complex)
        self._v, self._w, self._tmp = (np.empty((d, M, M), dtype=complex) for _ in range(3))
        self._last = (None, None, None)  # (t, j, j+) of the last call; RK4 repeats its midpoint

    def _coupling(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Current operator and its adjoint at a stage time (test seam)."""
        jt = rotated_current(self.model, t)
        return jt, jt.conj().T

    def _atoms(self, op: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``op`` on the atom axis of ``x`` into ``out``, by multiply-adds of whole planes, one
        per non-zero entry of ``op``; a row of zeros writes zeros."""
        plane = self._tmp[0, :x.shape[1], :x.shape[2]]         # free outside the Dψ line
        for j, row in enumerate(op):                           # as one GEMM, two BLAS threads
            cols = np.flatnonzero(row)
            if cols.size:
                np.multiply(x[cols[0]], row[cols[0]], out=out[j])
            else:
                out[j] = 0.0
            for i in cols[1:]:
                out[j] += np.multiply(x[i], row[i], out=plane)
        return out

    def _band_fft2(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The band of ``fft2(x)`` over the node axes into ``out``; ``_v`` takes the first pass."""
        n, g, strip = self._gap.start, self._gap.stop, self._strip
        x = np.fft.fft(x, axis=2, out=self._v)
        strip[..., :n], strip[..., n:] = x[..., :n], x[..., g:]
        strip = np.fft.fft(strip, axis=1, out=strip)
        out[:, :n], out[:, n:] = strip[:, :n], strip[:, g:]
        return out

    def _band_ifft2(self, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Inverse of ``_band_fft2``: the band spectrum zero-padded to (d, M, M), into ``out``."""
        n, g, strip = self._gap.start, self._gap.stop, self._strip
        strip[:, :n], strip[:, n:g], strip[:, g:] = spectrum[:, :n], 0.0, spectrum[:, n:]
        strip = np.fft.ifft(strip, axis=1, out=strip)
        out[..., :n], out[..., n:g], out[..., g:] = strip[..., :n], 0.0, strip[..., n:]
        return np.fft.ifft(out, axis=2, out=out)

    def rhs(self, t: float, psi: np.ndarray) -> np.ndarray:
        if t != self._last[0]:
            self._last = (t, *self._coupling(t))
        _, jt, jdt = self._last
        f = self._band_fft2(psi, self._f)
        g = self._atoms(-1j * jdt, f, self._g)                 # -iJ†F
        w = self._atoms(-1j * jdt, psi, self._w)               # -iJ†ψ
        f *= self._s_da                                        # F is spent after g
        v = self._band_ifft2(f, self._v)                       # μ∂ψ
        v += np.multiply(self._mu_half_ac, psi, out=self._tmp)  # μDψ
        w -= v
        g += self._band_fft2(v, self._f)
        g *= self._s_dastar
        w *= self._half_a
        out = self._atoms(-2j * jt, psi, np.empty_like(psi))
        out *= self._half_ac
        out += w
        out += self._band_ifft2(g, self._v)
        return out


def _grid_guard(wave: SemiclassicalWave, tol: float, check_boundary: bool):
    """Per-step checks of the grid backend's (d, M, M) iterate: boundary mass, then norm."""
    grid = wave.grid
    initial = previous = _boundary_mass(np.abs(wave.values) ** 2, grid)

    def guard(step, ts, block):  # the grid steps one row at a time
        nonlocal previous
        (t,), (psi,) = ts, block
        density = np.abs(psi) ** 2
        mass = _boundary_mass(density, grid)
        if check_boundary and not mass - previous <= 1e-8:
            raise RuntimeError(f"boundary mass grew by {mass - previous} in one step "
                               f"(step {step}, t={t}); grid too small")
        total = float(np.sum(density) * grid.weight)
        if not abs(total - 1.0) <= tol:
            raise RuntimeError(f"total probability {total} deviates from 1 beyond {tol} "
                               f"at step {step}, t={t}")
        if check_boundary and not mass - initial <= 1e-8:
            raise RuntimeError(f"boundary mass grew from {initial} to {mass} by step {step}, "
                               f"t={t}; grid too small")
        previous = mass

    return guard


def evolve_swe(model: AtomFieldModel, wave: SemiclassicalWave | CompositeState,
               tgrid: TimeGrid, options: GridOptions | None = None) -> list:
    """Drive either picture over a TimeGrid, sampling every ``sample_stride`` steps; the
    first sample is ``wave`` itself, and the sample times are those of ``tgrid``.

    A coefficient wave is stepped by ``evolve_unitary`` under its checks. A grid wave is
    stepped from ``values`` and sampled as the iterates themselves; boundary-mass growth, per
    step and over the run, is held to 1e-8 (unless ``options`` disable it), and unit
    probability to ``options.norm_tol``, or else ``grid.tol``. ``options`` apply to grids only.
    """
    if isinstance(wave, CompositeState):
        if options is not None:
            raise ValueError("GridOptions apply to grid waves only, not to a coefficient wave")
        return evolve_unitary(model, wave, tgrid).states
    options = options or GridOptions()
    tol = wave.grid.tol if options.norm_tol is None else options.norm_tol
    stepper = GridStepper(model, wave.grid)
    _, ys = integrate(lambda t, psi, left: rk4_step(stepper.rhs, t, psi, tgrid.dt)[None],
                      wave.values, tgrid, _grid_guard(wave, tol, options.check_boundary))
    return [wave] + [SemiclassicalWave(wave.grid, psi, norm_tol=tol) for psi in ys[1:]]


def evaluate_on_grid(wave: SemiclassicalWave | CompositeState,
                     grid: PhaseGrid) -> SemiclassicalWave:
    """The one way onto the grid: a grid wave on ``grid`` as it is (another grid is refused),
    a coefficient wave as e^{-|a|^2/2} times sum_n F_n (a*)^n / sqrt(pi n!), the polynomial
    summed at every node by Horner's rule, so no Fock axis is ever allocated."""
    if isinstance(wave, SemiclassicalWave):
        if wave.grid != grid:
            raise ValueError(f"wave grid {wave.grid} does not match the grid {grid}")
        return wave
    scale = np.exp(-0.5 * _log_factorials(wave.space.fock.n_max)) / np.sqrt(np.pi)
    coeffs = wave.coeffs * scale[:, None]
    conj_a = np.conj(grid.nodes())
    values = np.full((wave.space.atom_dim, grid.M, grid.M), coeffs[-1][:, None, None])
    for c in coeffs[-2::-1]:
        values *= conj_a
        values += c[:, None, None]
    values *= np.exp(-0.5 * np.abs(conj_a) ** 2)
    return SemiclassicalWave(grid, values)


def _require_grid(wave, what: str) -> None:
    if not isinstance(wave, SemiclassicalWave):
        raise ValueError(f"{what} needs a grid wave; map a coefficient wave with evaluate_on_grid")


def field_density(wave: SemiclassicalWave) -> PhaseFunction:
    """Probability density of the classical field: the atomic norm squared."""
    _require_grid(wave, "field_density")
    density = np.sum(np.abs(wave.values) ** 2, axis=0)
    return PhaseFunction(wave.grid, density, kind="husimi")


def swe_expectation(wave: SemiclassicalWave, F: SemiclassicalObservable) -> float:
    """Sum of c_jk times the moment (j, k) of psi+ psi (or psi+ atom_op psi), for a Hermitian
    ``F`` only: real when c_jk = conj(c_kj) and ``atom_op`` is Hermitian, both within 1e-12."""
    _require_grid(wave, "swe_expectation")
    if not all(abs(c - np.conj(F.poly.get((k, j), 0.0))) <= 1e-12
               for (j, k), c in F.poly.items()):
        raise ValueError(f"swe_expectation needs a Hermitian observable; the polynomial "
                         f"{F.poly} has c_jk != conj(c_kj)")
    if F.atom_op is not None and not np.max(np.abs(F.atom_op - F.atom_op.conj().T)) <= 1e-12:
        raise ValueError("swe_expectation needs a Hermitian observable; atom_op is not "
                         "Hermitian within 1e-12")
    if F.atom_op is None:
        dens = np.sum(np.abs(wave.values) ** 2, axis=0)
    else:
        dens = np.einsum("ixy,ij,jxy->xy", wave.values.conj(), F.atom_op, wave.values)
    f = PhaseFunction(wave.grid, dens)
    return float(sum(c * phase_space_moment(f, j, k) for (j, k), c in F.poly.items()).real)


def sample_field(wave: SemiclassicalWave, count: int, seed: int) -> np.recarray:
    """Draw field values from ||psi(a)||^2 by inverse-CDF on the grid density.

    One categorical distribution over the M^2 nodes, in the C order of the columns of
    ``values.reshape(d, -1)`` and of ``grid.nodes().ravel()``: a draw is the first
    node whose cumulative mass, normalized to end at exactly 1, exceeds one
    uniform in [0, 1), so no node of zero mass is drawn. Fixed seed gives an
    identical sample sequence. Returns records with fields ``a`` (complex) and
    ``conditional_state`` (complex, shape (d,)), each checked to unit norm within 1e-12.
    """
    _require_grid(wave, "sample_field")
    cdf = np.cumsum(np.sum(np.abs(wave.values) ** 2, axis=0))
    cdf /= cdf[-1]
    nodes = np.searchsorted(cdf, np.random.default_rng(seed).random(count), side="right")
    vecs = wave.values.reshape(wave.atom_dim, -1)[:, nodes].T
    # the per-vector arithmetic of np.linalg.norm, row by row
    states = vecs / np.sqrt(np.vecdot(vecs.real, vecs.real)
                            + np.vecdot(vecs.imag, vecs.imag))[:, None]
    deviation = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    if not np.all(deviation <= 1e-12):
        raise ValueError(f"conditional state norm deviates from 1 by {np.max(deviation)}")
    return np.rec.fromarrays([wave.grid.nodes().ravel()[nodes], states],
                             dtype=[("a", complex), ("conditional_state", complex, (wave.atom_dim,))])


@dataclass
class ComparisonReport:
    """Node-wise and moment-level comparison of a wave against the oracle.

    ``moments`` holds each moment's ``swe`` and ``oracle`` values as ``{"re", "im"}``
    float pairs and their ``delta``, as written. ``oracle_max`` is the largest node
    value of the oracle's density, the scale of ``linf``; it is not in the JSON form.
    """

    linf: float
    l2: float
    moments: dict[str, dict]
    oracle_max: float

    def to_json_dict(self) -> dict:
        return {"linf": self.linf, "l2": self.l2, "moments": self.moments}


_MOMENT_POWERS = {"1": (0, 0), "a": (1, 0), "a*": (0, 1), "|a|^2": (1, 1)}


def compare_to_oracle(wave: SemiclassicalWave | CompositeState, state: CompositeState,
                      grid: PhaseGrid) -> ComparisonReport:
    """Check psi psi+ against the coherent-state diagonal of the oracle state.

    Both sides are smoothed semiclassical densities; they must agree node
    by node when the wave solves the same dynamics as the state.
    """
    wave = evaluate_on_grid(wave, grid)
    swe_field = np.einsum("ixy,jxy->ijxy", wave.values, wave.values.conj())
    oracle_field = husimi_density(density_operator(state), state.space, grid)
    dist = np.abs(swe_field - oracle_field.values)
    linf = float(np.max(dist))
    l2 = float(np.sqrt(np.sum(dist ** 2) * grid.weight))
    # each field's atomic trace, formed once for its four moments
    swe_tr, orc_tr = (PhaseFunction(grid, np.einsum("iixy->xy", f))
                      for f in (swe_field, oracle_field.values))
    moments = {}
    for name, (j, k) in _MOMENT_POWERS.items():
        m_swe = phase_space_moment(swe_tr, j, k)
        m_orc = phase_space_moment(orc_tr, j, k)
        moments[name] = {"swe": {"re": m_swe.real, "im": m_swe.imag},
                         "oracle": {"re": m_orc.real, "im": m_orc.imag},
                         "delta": abs(m_swe - m_orc)}
    return ComparisonReport(linf=linf, l2=l2, moments=moments,
                            oracle_max=float(np.max(np.abs(oracle_field.values))))
