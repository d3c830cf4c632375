"""Truncated Fock-space representation: spaces, sparse operators, canonical states.

All operators are sparse complex matrices on a tensor product of truncated
harmonic-oscillator mode spaces.  Truncation is hard: the creation operator
annihilates the top Fock level of each mode.  Canonical analytic states
(coherent, squeezed, cat) are renormalized on the truncated space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceLimitError
from .timedep import Term, TimeDependentOperator

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_DIM_CAP = 1_000_000
SOFT_LEAKAGE_TOL = 1e-6
HARD_LEAKAGE_CAP = 1e-3
EXP_DROP_TOL = 1e-14  # relative floor of position_exponential's entries

__all__ = [
    "FockSpace",
    "Operator",
    "StateVector",
    "DensityMatrix",
    "make_space",
    "destroy",
    "number",
    "position_quadrature",
    "position_exponential",
    "embed",
    "fock_state",
    "coherent_state",
    "cat_state",
    "two_mode_squeezed_state",
    "truncated_phase_state",
    "expectation",
    "partial_trace",
    "coherent_leakage",
]


class TruncationWarning(UserWarning):
    """Analytic state leaks non-negligibly out of the truncated basis."""


@dataclass(frozen=True)
class FockSpace:
    """Ordered list of per-mode truncation dimensions (tensor-product space)."""

    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nmodes(self) -> int:
        return len(self.dims)

    def occupations(self) -> np.ndarray:
        """(dim, nmodes) array mapping a flat basis index to mode occupations."""
        idx = np.arange(self.dim)
        occ = np.empty((self.dim, self.nmodes), dtype=np.int64)
        for j, n in enumerate(np.unravel_index(idx, self.dims)):
            occ[:, j] = n
        return occ

    def excitations(self) -> np.ndarray:
        """Each basis state's total excitation sum_j n_j."""
        return self.occupations().sum(axis=1)

    def flat_index(self, occupations) -> int:
        return int(np.ravel_multi_index(tuple(occupations), self.dims))


def make_space(dims) -> FockSpace:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one mode")
    if any(d < 2 for d in dims):
        raise ValueError(f"every mode dimension must be >= 2, got {dims}")
    total = 1
    for d in dims:
        total *= d
    if total > DEFAULT_DIM_CAP:
        raise ResourceLimitError(f"total dimension {total} exceeds cap {DEFAULT_DIM_CAP}")
    return FockSpace(dims)


class Operator(TimeDependentOperator):
    """A static operator: one constant sparse term and no frame."""

    def __init__(self, space: FockSpace, mat):
        super().__init__(space, [Term(mat)])

    @property
    def mat(self) -> sp.csr_matrix:
        return self.terms[0].matrix


class StateVector:
    """Pure state on a FockSpace; the 2-norm is cached at construction."""

    __slots__ = ("space", "amplitudes", "norm")

    def __init__(self, space: FockSpace, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
        if amplitudes.size != space.dim:
            raise ValueError("amplitude vector does not match space dimension")
        self.space = space
        self.amplitudes = amplitudes
        self.norm = float(np.linalg.norm(amplitudes))

    def normalized(self) -> "StateVector":
        if self.norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / self.norm)

    def projector(self) -> "DensityMatrix":
        psi = self.amplitudes
        return DensityMatrix(self.space, np.outer(psi, psi.conj()))

    def mode_population(self, mode: int) -> np.ndarray:
        """Marginal occupation distribution of one mode."""
        p = np.abs(self.amplitudes.reshape(self.space.dims)) ** 2
        axes = tuple(j for j in range(self.space.nmodes) if j != mode)
        return p.sum(axis=axes)

    def top_level_population(self) -> float:
        """Max over modes of the population in the top Fock level (truncation diagnostic)."""
        return max(float(self.mode_population(j)[-1]) for j in range(self.space.nmodes))


class DensityMatrix:
    """Trace-one positive matrix on a FockSpace (validity enforced where cheap)."""

    __slots__ = ("space", "entries")

    def __init__(self, space: FockSpace, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (space.dim, space.dim):
            raise ValueError("density matrix shape does not match space")
        self.space = space
        self.entries = entries

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def mode_population(self, mode: int) -> np.ndarray:
        others = [j for j in range(self.space.nmodes) if j != mode]
        reduced = partial_trace(self, others) if others else self
        return np.real(np.diagonal(reduced.entries).copy())

    def top_level_population(self) -> float:
        return max(float(self.mode_population(j)[-1]) for j in range(self.space.nmodes))


# ---------------------------------------------------------------------------
# elementary operators


def _single_mode_destroy(d: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.diags(np.sqrt(np.arange(1, d, dtype=float)), 1, format="csr", dtype=complex)


def embed(space: FockSpace, mode: int, small) -> sp.csr_matrix:
    """Tensor-embed a single-mode matrix at position `mode` (identity elsewhere).

    Each stored entry (n, m) of `small` becomes the entries
    ((i d + n) B + k, (i d + m) B + k) of I_A (x) small (x) I_B for every i < A
    and k < B, with d the mode's dimension and A, B the dimensions of the
    modes before and after it.
    """
    import scipy.sparse as sp

    if not 0 <= mode < space.nmodes:
        raise ValueError(f"mode index {mode} out of range for {space.nmodes} modes")
    small = sp.coo_matrix(small, dtype=complex)
    d = space.dims[mode]
    if small.shape != (d, d):
        raise ValueError("single-mode matrix does not match the mode dimension")
    before = np.arange(math.prod(space.dims[:mode]))[:, None, None] * d
    after = np.arange(math.prod(space.dims[mode + 1:]))
    rows = (before + small.row[:, None]) * after.size + after
    cols = (before + small.col[:, None]) * after.size + after
    data = np.broadcast_to(small.data[:, None], rows.shape)
    return sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(space.dim, space.dim))


def destroy(space: FockSpace, mode: int) -> Operator:
    """Annihilation operator b for one mode; b|n> = sqrt(n)|n-1>, hard truncation."""
    return Operator(space, embed(space, mode, _single_mode_destroy(space.dims[mode])))


def number(space: FockSpace, mode: int) -> Operator:
    return Operator(space, embed(space, mode, np.diag(np.arange(space.dims[mode], dtype=float))))


def position_quadrature(space: FockSpace, mode: int) -> Operator:
    """Dimensionless b + b† on one mode."""
    d = space.dims[mode]
    b = _single_mode_destroy(d)
    return Operator(space, embed(space, mode, b + b.getH()))


def position_exponential(d: int, scale: complex) -> np.ndarray:
    """The d x d dense exp(scale * X) of one mode, X = b + b†.

    X is real symmetric, so with X = V diag(lambda) V^T from its
    eigendecomposition exp(s X) = V diag(e^{s lambda}) V^T.  Entries below
    EXP_DROP_TOL times the largest are dropped.
    """
    b = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1)
    lam, v = np.linalg.eigh(b + b.T)
    u = (v * np.exp(complex(scale) * lam)) @ v.T
    mag = np.abs(u)
    u[mag < EXP_DROP_TOL * mag.max()] = 0.0
    return u


# ---------------------------------------------------------------------------
# canonical states


def fock_state(space: FockSpace, occupations) -> StateVector:
    occupations = tuple(int(n) for n in occupations)
    if len(occupations) != space.nmodes:
        raise ValueError("need one occupation per mode")
    for n, d in zip(occupations, space.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} out of range for mode dimension {d}")
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.flat_index(occupations)] = 1.0
    return StateVector(space, amp)


def coherent_leakage(alpha: complex, dim: int) -> float:
    """Poisson tail sum_{n >= dim} |alpha|^(2n) e^{-|alpha|^2} / n!.

    The terms are summed in log space, from n = dim on.  Past n = 2|alpha|^2
    each term is at most half the one before, so 60 terms beyond
    max(dim, 2|alpha|^2) leave out less than 2^-60 of the sum.
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    log_lam = math.log(lam)
    logs = [n * log_lam - lam - math.lgamma(n + 1)
            for n in range(dim, max(dim, math.ceil(2.0 * lam)) + 60)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def _coherent_column(alpha: complex, dim: int) -> np.ndarray:
    if alpha == 0:
        return np.eye(1, dim, dtype=complex)[0]
    n = np.arange(dim)
    logmag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha))
    phase = np.angle(complex(alpha))
    logfact = np.array([math.lgamma(k + 1) for k in range(dim)])
    return np.exp(logmag - 0.5 * logfact + 1j * n * phase)


def _product_amplitudes(space: FockSpace, columns: dict) -> np.ndarray:
    """Amplitudes of the product state with columns[j] on mode j, vacuum on modes not given."""
    total = np.ones(1, dtype=complex)
    for j, d in enumerate(space.dims):
        total = np.kron(total, columns[j] if j in columns else np.eye(1, d, dtype=complex)[0])
    return total


def _check_leakage(alpha: complex, dim: int, what: str):
    leak = coherent_leakage(alpha, dim)
    if leak > HARD_LEAKAGE_CAP:
        raise ValueError(
            f"{what}: truncation leakage {leak:.2e} for |alpha|={abs(alpha):.3f} at dim {dim} "
            f"exceeds hard cap {HARD_LEAKAGE_CAP}"
        )
    if leak > SOFT_LEAKAGE_TOL:
        warnings.warn(
            f"{what}: truncation leakage {leak:.2e} above tolerance {SOFT_LEAKAGE_TOL}",
            TruncationWarning,
            stacklevel=3,
        )


def coherent_state(space: FockSpace, mode_amplitudes) -> StateVector:
    """Product of coherent states, one amplitude per mode, renormalized on truncation."""
    amps = list(mode_amplitudes)
    if len(amps) != space.nmodes:
        raise ValueError("need one coherent amplitude per mode")
    columns = {}
    for j, (alpha, d) in enumerate(zip(amps, space.dims)):
        _check_leakage(alpha, d, "coherent_state")
        columns[j] = _coherent_column(alpha, d)
    return StateVector(space, _product_amplitudes(space, columns)).normalized()


def cat_state(space: FockSpace, alpha: complex, mode: int = 0) -> StateVector:
    """Even superposition of |alpha> and |-alpha> on one mode (vacuum elsewhere)."""
    d = space.dims[mode]
    _check_leakage(alpha, d, "cat_state")
    col = _coherent_column(alpha, d) + _coherent_column(-alpha, d)
    col[1::2] = 0.0  # the odd levels cancel; the rounding of e^{i pi n} would leave ~1e-16
    return StateVector(space, _product_amplitudes(space, {mode: col})).normalized()


def two_mode_squeezed_state(space: FockSpace, r: float) -> StateVector:
    """sum_m (-tanh r)^m / cosh r |m, m>, renormalized on the truncated space."""
    if space.nmodes != 2:
        raise ValueError("two-mode squeezed state requires a two-mode space")
    d = min(space.dims)
    t = math.tanh(r)
    # per-mode occupation distribution is thermal with nbar = sinh^2 r
    tail = t ** (2 * d)
    if tail > HARD_LEAKAGE_CAP:
        raise ValueError(
            f"two_mode_squeezed_state: leakage {tail:.2e} at dim {d} exceeds cap {HARD_LEAKAGE_CAP}"
        )
    nbar = math.sinh(r) ** 2
    sigma = math.sqrt(nbar * (nbar + 1.0))
    if nbar + 3.0 * sigma > d - 1:
        warnings.warn(
            f"two_mode_squeezed_state: nbar + 3 sigma = {nbar + 3 * sigma:.1f} exceeds mode dim {d}",
            TruncationWarning,
            stacklevel=2,
        )
    amp = np.zeros(space.dim, dtype=complex)
    for m in range(d):
        amp[space.flat_index((m, m))] = (-t) ** m / math.cosh(r)
    return StateVector(space, amp).normalized()


def truncated_phase_state(space: FockSpace, n_top: int, mode: int = 0) -> StateVector:
    """Uniform superposition of |0>..|n_top> on one mode (vacuum elsewhere)."""
    d = space.dims[mode]
    if n_top + 1 > d:
        raise ValueError(f"phase state needs {n_top + 1} levels but mode dim is {d}")
    col = np.zeros(d, dtype=complex)
    col[: n_top + 1] = 1.0 / math.sqrt(n_top + 1)
    return StateVector(space, _product_amplitudes(space, {mode: col}))


# ---------------------------------------------------------------------------
# expectations, partial trace


def expectation(op: Operator, state) -> complex:
    """<A> for a StateVector or DensityMatrix."""
    if not isinstance(state, (StateVector, DensityMatrix)):
        raise TypeError("state must be a StateVector or DensityMatrix")
    if op.space != state.space:
        raise ValueError("space mismatch")
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, op.mat @ state.amplitudes))
    return complex((op.mat @ state.entries).diagonal().sum())


def partial_trace(rho: DensityMatrix, trace_modes) -> DensityMatrix:
    """Trace out the listed modes, returning a density matrix on the rest."""
    trace_modes = sorted(set(int(m) for m in trace_modes))
    space = rho.space
    for m in trace_modes:
        if not 0 <= m < space.nmodes:
            raise ValueError(f"mode {m} out of range")
    keep = [j for j in range(space.nmodes) if j not in trace_modes]
    if not keep:
        raise ValueError("cannot trace out every mode")
    dims, n = space.dims, space.nmodes
    dk = int(np.prod([dims[j] for j in keep]))
    dt = int(np.prod([dims[j] for j in trace_modes]))
    perm = keep + trace_modes + [j + n for j in keep] + [j + n for j in trace_modes]
    r = np.transpose(rho.entries.reshape(dims + dims), perm).reshape(dk, dt, dk, dt)
    return DensityMatrix(FockSpace(tuple(dims[j] for j in keep)), np.einsum("itjt->ij", r))
