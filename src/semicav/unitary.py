"""Reference solver: interaction-picture Schroedinger equation for atom + mode.

The coupling enters through the rotated current j(t) = e^{i w t} e^{i H t} J
e^{-i H t}; the interaction Hamiltonian is j(t) (x) a+ + h.c. Integration is
fixed-step classical RK4, applied as one precomputed step map, whose first K powers
advance the run K steps per product.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from semicav.fockspace import (CompositeSpace, CompositeState, FockBasis, _real_form, annihilation,
                               tensor)

# deviation of total probability from 1 that a coupling-picture run allows; at the
# dt refusal's limit dt ||H_I|| = 0.05 one RK4 step already loses up to 2.2e-10
NORM_TOL = 1e-6

# Real multiply-adds of one block product in integrate_coupling, which is also the number
# of doubles in its stacked step-map powers: 1 MiB, which stays in L2. As a complex GEMV
# the product woke OpenBLAS's second thread from 16 steps a block up (D 18), for twice the
# CPU time; as a real GEMV it ran on the calling thread at every block size tried.
_BLOCK_MACS = 1 << 17


@dataclass
class AtomFieldModel:
    """Atomic Hamiltonian, current operator and mode frequency (hbar = 1).

    The eigendecomposition of ``h_ato``, which ``atom_propagator`` reads, is
    made at construction, so the fields are not to be changed afterwards.
    """

    atom_dim: int
    h_ato: np.ndarray
    j: np.ndarray
    omega: float

    def __post_init__(self):
        self.h_ato = np.asarray(self.h_ato, dtype=complex)
        self.j = np.asarray(self.j, dtype=complex)
        d = self.atom_dim
        if d < 1:
            raise ValueError(f"atom_dim must be >= 1, got {d}")
        if self.h_ato.shape != (d, d) or self.j.shape != (d, d):
            raise ValueError(f"h_ato and j must be {d}x{d} matrices")
        if not np.isfinite([*self.h_ato.ravel(), *self.j.ravel(), self.omega]).all():
            raise ValueError("h_ato, j and omega must be finite")
        if np.max(np.abs(self.h_ato - self.h_ato.conj().T)) > 1e-12:
            raise ValueError("h_ato is not Hermitian within 1e-12")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        self._evals, self._V = np.linalg.eigh(self.h_ato)


def two_level_model(g: float, detuning: float = 0.0, omega: float = 1.0) -> AtomFieldModel:
    """Canonical two-level instance: H = (w_A/2) sigma_z, J = g sigma_-.

    Basis order is (excited, ground); ``detuning`` is the atomic frequency
    minus the mode frequency, w_A = omega + detuning.
    """
    omega_a = omega + detuning
    sz = np.diag([1.0, -1.0]).astype(complex)
    sminus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return AtomFieldModel(atom_dim=2, h_ato=0.5 * omega_a * sz, j=g * sminus, omega=omega)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid; states are sampled every ``sample_stride`` steps."""

    t_start: float
    t_end: float
    dt: float
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("t_start", "t_end", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        steps = (self.t_end - self.t_start) / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            raise ValueError("(t_end - t_start) / dt must be an integer")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))


@dataclass
class Trajectory:
    """Sampled output of a unitary run."""

    times: np.ndarray
    states: list[CompositeState]


def atom_propagator(model: AtomFieldModel, t: float) -> np.ndarray:
    """The atom's free evolution A(t) = e^{-i H_ato t} = V e^{-iEt} V+, from the model's
    ``eigh``: the factor of ``rotated_current`` and the atom factor of U0(t)."""
    return (model._V * np.exp(-1j * model._evals * t)) @ model._V.conj().T


def rotated_current(model: AtomFieldModel, t: float) -> np.ndarray:
    """j(t) = e^{i omega t} A(t)+ J A(t), with A the ``atom_propagator``."""
    A = atom_propagator(model, t)
    return np.exp(1j * model.omega * t) * (A.conj().T @ model.j @ A)


def interaction_hamiltonian(model: AtomFieldModel, t: float, space: CompositeSpace) -> np.ndarray:
    """Composite-space coupling j(t) (x) a+  +  j+(t) (x) a."""
    if space.atom_dim != model.atom_dim:
        raise ValueError(
            f"space atom_dim {space.atom_dim} does not match model atom_dim {model.atom_dim}"
        )
    a = annihilation(space.fock)
    jt = rotated_current(model, t)
    half = tensor(jt, a.conj().T)
    return half + half.conj().T


def product_initial_state(
    psi_ato: np.ndarray, field_amplitudes: np.ndarray, space: CompositeSpace
) -> CompositeState:
    """Product state psi_ato (x) field, both factors required unit norm."""
    psi_ato = np.asarray(psi_ato, dtype=complex)
    field_amplitudes = np.asarray(field_amplitudes, dtype=complex)
    if not abs(np.linalg.norm(psi_ato) - 1.0) <= 1e-12:
        raise ValueError("atomic factor is not normalized")
    if not abs(np.linalg.norm(field_amplitudes) - 1.0) <= 1e-12:
        raise ValueError("field factor is not normalized")
    amps = np.kron(psi_ato, field_amplitudes)
    return CompositeState(space, amps)


def density_operator(state: CompositeState) -> np.ndarray:
    """Outer product of a pure state with itself."""
    return np.outer(state.amplitudes, state.amplitudes.conj())


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray,
             dt: float) -> np.ndarray:
    """One classical Runge-Kutta step for dy/dt = f(t, y) from t to t + dt.

    Bit-identical to ``y + (dt/6)*(k1 + 2.0*k2 + 2.0*k3 + k4)``, but each stage derivative
    is dropped once spent (k1 once k1 + 2 k2 is formed). The call holds two stage arguments
    and the running sum, which it returns; it never writes into ``y`` or into an array ``f``
    returned."""
    k1 = f(t, y)
    s = np.multiply(0.5 * dt, k1)
    k = f(t + 0.5 * dt, np.add(y, s, out=s))
    s4 = np.multiply(2.0, k)                   # f may return s: read k before s is reused
    acc = np.add(k1, s4)                       # allocated last, so no free trims the heap
    del k1
    k = f(t + 0.5 * dt, np.add(y, np.multiply(0.5 * dt, k, out=s), out=s))
    acc += np.multiply(2.0, k, out=s4)
    acc += f(t + dt, np.add(y, np.multiply(dt, k, out=s4), out=s4))
    return np.add(y, np.multiply(dt / 6.0, acc, out=acc), out=acc)


def integrate(step: Callable[[float, np.ndarray, int], np.ndarray], y0: np.ndarray,
              tgrid: TimeGrid, guard: Callable[[int, np.ndarray, np.ndarray], None]
              ) -> tuple[np.ndarray, list]:
    """Advance y across ``tgrid`` in blocks of steps: ``step(t, y, left)`` returns the next
    1 to ``left`` iterates stacked on a new first axis, t being the time of ``y``.

    ``guard(n, ts, block)`` runs after each block, whose first row is step n and whose rows
    end at the times ``ts``, and raises to abort the run. Returns the sample times
    (``t_start`` included) and the arrays at those times; the first is ``y0`` itself, not a
    copy, so ``step`` must not write into its ``y``. The others are rows of the blocks, and
    rows of different blocks alias nothing, nor ``y0``, as long as ``step`` returns a fresh
    stack.
    """
    y, t, n, stride = y0, tgrid.t_start, 0, tgrid.sample_stride
    times, ys = [t], [y0]
    while n < tgrid.n_steps:
        block = step(t, y, tgrid.n_steps - n)
        ts = tgrid.t_start + np.arange(n + 1, n + 1 + len(block)) * tgrid.dt
        guard(n + 1, ts, block)
        first = -(n + 1) % stride                  # the first row whose step is a sample's
        times.extend(ts[first::stride])
        ys.extend(block[first::stride])
        n, t, y = n + len(block), ts[-1], block[-1]
    return np.asarray(times), ys


def check_coupling_dt(model: AtomFieldModel, space: CompositeSpace, dt: float) -> None:
    """Refuse dt * ||H_I|| > 0.05; ||H_I(t)|| is the same at every t, so check before evolving."""
    if dt * np.linalg.norm(interaction_hamiltonian(model, 0.0, space), 2) > 0.05:
        raise ValueError("dt * ||H_I|| exceeds 0.05; reduce dt")


def integrate_coupling(model: AtomFieldModel, Y0: np.ndarray,
                       tgrid: TimeGrid) -> tuple[np.ndarray, list]:
    """RK4 for dPsi/dt = -i H_I(t) Psi on Y shaped (d, n_max + 1), Psi = Y.ravel().

    H_I(t + s) = U0(t)+ H_I(s) U0(t), so the steps telescope to Psi_n =
    U0(t_n)+ G^n U0(t_start) Psi_0 with G = U0(dt) M, M the RK4 map from 0,
    and ||H_I(t)|| is the same at every t. Refuses a coarse dt (``check_coupling_dt``),
    then advances the iterate G^n U0(t_start) Psi_0 K steps at a time: one real GEMV
    against the stacked powers G, G^2, ..., G^K, sized by ``_BLOCK_MACS``, gives a block's
    iterates on the calling thread. Their Fock populations are those of Psi_n; the first
    row whose top-Fock population exceeds 1e-8, or whose total probability deviates from 1
    by more than ``NORM_TOL``, raises, naming its step and time. The samples are shaped
    like Y0; the first is Y0 itself, not a copy.
    """
    d, nf = Y0.shape
    D = d * nf
    space = CompositeSpace(d, FockBasis(nf - 1))
    check_coupling_dt(model, space, tgrid.dt)
    n = np.arange(nf)

    def U0(t):  # exp(-i (H_ato (x) 1 + omega 1 (x) a+a) t), atom index first
        return np.kron(atom_propagator(model, t), np.diag(np.exp(-1j * model.omega * t * n)))

    def guard(first, ts, block):
        p = (block.real ** 2 + block.imag ** 2).reshape(-1, d, nf)
        top, total = p[:, :, -1].sum(axis=1), p.sum(axis=(1, 2))
        bad = ~((top <= 1e-8) & (np.abs(total - 1.0) <= NORM_TOL))  # NaN fails both
        if not bad.any():
            return
        i = int(np.argmax(bad))
        step, t = first + i, float(ts[i])
        if not top[i] <= 1e-8:
            raise RuntimeError(f"probability {float(top[i])} at the truncation edge at step "
                               f"{step}, t={t}; raise n_max")
        raise RuntimeError(f"total probability {float(total[i])} deviates from 1 beyond "
                           f"{NORM_TOL} at step {step}, t={t}; dt too large")

    M = rk4_step(lambda s, X: -1j * interaction_hamiltonian(model, s, space) @ X,
                 0.0, np.eye(D, dtype=complex), tgrid.dt)
    K = max(1, min(64, _BLOCK_MACS // (4 * D * D), tgrid.n_steps))
    P = np.empty((K, D, D), dtype=complex)
    P[0] = U0(tgrid.dt) @ M
    for k in range(1, K):
        P[k] = P[0] @ P[k - 1]
    # y.view(float) @ R[:, :2Dk] == (P[:k] @ y).view(float): G^1 y, ..., G^K y in turn
    R = _real_form(P.transpose(2, 0, 1).reshape(D, K * D))

    def block(t, y, left):
        k = min(K, left)
        return (y.view(float) @ R[:, :2 * D * k]).view(complex).reshape(k, D)

    times, ys = integrate(block, U0(tgrid.t_start) @ Y0.ravel(), tgrid, guard)
    return times, [Y0] + [(U0(-t) @ y).reshape(d, nf) for t, y in zip(times[1:], ys[1:])]


def evolve_unitary(model: AtomFieldModel, psi0: CompositeState, grid: TimeGrid) -> Trajectory:
    """Integrate dPsi/dt = -i H_I(t) Psi and sample along the way, under the checks of
    ``integrate_coupling``; the first state is ``psi0`` itself."""
    times, ys = integrate_coupling(model, psi0.as_matrix(), grid)
    return Trajectory(times=times, states=[psi0] + [
        CompositeState(psi0.space, Y.ravel(), norm_tol=NORM_TOL) for Y in ys[1:]])
