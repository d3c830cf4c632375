"""Time-dependent operators as sums of (envelope, oscillation, operator) terms in one frame.

H(t) = P(t) [sum_k  env_k(t) * exp(i * omega_k * t) * A_k] P(t)*

A static operator (`fock.Operator`) is one term with env = None, omega = 0 and no frame.
The frame is the interaction picture of free mode energies sum_j f_j n_j,
one diagonal phase P(t) = diag(exp(i t sum_j f_j n_j)) given by the
operator's per-mode frequencies `freqs`, set when the operator is built.  This
is exact for any operator on the space.

A is either a sparse matrix or a Kronecker product of dense per-mode
factors, A = kron_j u_j, which is applied one mode at a time (Van Loan, "The
ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 85 (2000)) and
never multiplied out.  All terms share one phase per apply, taken from the
frame's distinct Bohr levels.  Each term takes its own weighted input
x_k = c_k(t) P(t)* y, so coefficient and phase weigh every kind of term
alike, and the sparse terms, held side by side as one wide matrix, are
summed by one sparse product with the stacked inputs.

The apply of an operator of sparse terms can be restricted to some of the
basis states.  `excitation_blocks` is the one rule that chooses them from
the changes of the total excitation sum_j n_j that a run's operators make:
the states up to the input's top shell when none raises it, a given cap,
and the parities apart when every change is even.  On those states the
apply is bitwise the whole space's.

scipy.sparse is imported by the functions that build or combine a sparse
matrix, so an operator of factored terms alone never loads it.

Entries below FREQUENCY_FLOOR times an operator's largest entry set none of
its frequencies, so negligible far-off-resonant tails do not shrink the
integrator step; the apply still keeps them.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .fock import FockSpace

__all__ = ["Term", "TimeDependentOperator", "excitation_blocks"]

FREQUENCY_FLOOR = 1e-10


class Term:
    """One summand env(t) * exp(i omega t) * A, before the operator's frame phase.

    A is either a constant sparse `matrix` or, given `factors`, the Kronecker
    product of one dense matrix per mode.  For a factored term `matrix` is
    the product, built on first use and cached; the apply never reads it.
    """

    __slots__ = ("_matrix", "factors", "omega", "envelope")

    def __init__(self, matrix=None, omega: float = 0.0, envelope=None, *, factors=None):
        if (matrix is None) == (factors is None):
            raise ValueError("a term holds either a matrix or per-mode factors")
        self._matrix = None
        if matrix is not None:
            import scipy.sparse as sp

            self._matrix = sp.csr_matrix(matrix, dtype=complex)
        self.factors = None if factors is None else tuple(
            np.asarray(u, dtype=complex) for u in factors)
        self.omega = float(omega)
        self.envelope = envelope  # callable t -> complex, or None (constant 1)

    @property
    def matrix(self) -> sp.csr_matrix:
        """A, without coefficient or frame phase."""
        if self._matrix is None:
            self._matrix = _kron(self.factors)
        return self._matrix

    def coefficient(self, t: float) -> complex:
        c = np.exp(1j * self.omega * t) if self.omega else 1.0
        if self.envelope is not None:
            c = c * self.envelope(t)
        return complex(c)

    def kron_product(self, y: np.ndarray) -> np.ndarray:
        """(kron_j u_j) @ y of a factored term, y of shape (dim,) or (dim, k), one mode at a time.

        Each mode is one contraction: u times every (d, after) block of y,
        or, for the last mode of a vector, y's (before, d) rows times u.T.
        """
        shape, before, after = y.shape, 1, y.size
        for u in self.factors:
            d = u.shape[0]
            after //= d
            if after == 1:
                y = y.reshape(before, d) @ u.T
            else:
                y = u @ y.reshape(before, d, after)
            before *= d
        return y.reshape(shape)

    def max_entry(self) -> float:
        if self.factors is None:
            return float(abs(self.matrix.data).max()) if self.matrix.nnz else 0.0
        return float(np.prod([np.abs(u).max() for u in self.factors]))

    def max_frequency(self, space: FockSpace, freqs=None, floor: float = 0.0) -> float:
        """Largest |frequency| the term oscillates at in the frame of `freqs` (None: no frame).

        Only nonzero entries of magnitude at least `floor` count.  For a
        sparse term: the largest |omega + bohr(row) - bohr(col)| over its
        stored entries, bohr = sum_j f_j n_j.  For a factored term: the
        largest |omega + sum_j f_j k_j| over the diagonal offsets
        k_j = n_row - n_col, each with its largest product entry
        prod_j max |diag_kj(u_j)|.
        """
        freqs = np.asarray(freqs or np.zeros(space.nmodes))
        if self.factors is None:
            m = self.matrix.tocoo()
            size = np.abs(m.data)
            kept = (size > 0) & (size >= floor)
            bohr = space.occupations() @ freqs
            freq = self.omega + bohr[m.row[kept]] - bohr[m.col[kept]]
            return float(np.abs(freq).max(initial=0.0))
        freq, size = np.array(self.omega), np.array(1.0)
        for u, f in zip(self.factors, freqs):
            d = u.shape[0]
            offset = np.subtract.outer(np.arange(d), np.arange(d)) + d - 1
            peak = np.zeros(2 * d - 1)
            np.maximum.at(peak, offset.ravel(), np.abs(u).ravel())
            freq = np.add.outer(freq, f * np.arange(1 - d, d))
            size = np.multiply.outer(size, peak)
        kept = (size > 0) & (size >= floor)
        return float(np.abs(freq[kept]).max(initial=0.0))


def _kron(factors) -> sp.csr_matrix:
    import scipy.sparse as sp

    return functools.reduce(lambda a, b: sp.kron(a, b, format="csr"),
                            [sp.csr_matrix(u) for u in factors])


class TimeDependentOperator:
    """Sum of Terms on a common FockSpace, in one frame.  Immutable once built.

    Threads may share it: its compiled apply keeps the input weights and the
    phase of its last two times, replaced whole, and a buffer per thread.

    `freqs` are the per-mode frequencies f_j of the frame phase
    P(t) = diag(exp(i t sum_j f_j n_j)) that every term shares (None or all
    zero: no frame).  The sparse terms that share one (envelope, omega) are
    summed into one, the first matrix plus each later one in the order given;
    factored terms stay apart, in place.
    """

    def __init__(self, space: FockSpace, terms: list[Term], freqs=None):
        self.space = space
        self.terms, position = [], {}  # a sparse group's (envelope, omega) -> its index
        for t in terms:
            if t.factors is None:
                if t.matrix.shape != (space.dim, space.dim):
                    raise ValueError(f"matrix shape {t.matrix.shape} does not match space dim "
                                     f"{space.dim}")
                k = position.setdefault((id(t.envelope), t.omega), len(self.terms))
                if k < len(self.terms):
                    self.terms[k] = Term(self.terms[k].matrix + t.matrix, t.omega, t.envelope)
                    continue
            self.terms.append(t)
        if freqs is not None and np.shape(freqs) != (space.nmodes,):
            raise ValueError("need one frame frequency per mode")
        self.freqs = None if freqs is None or not np.any(freqs) else tuple(
            float(f) for f in freqs)
        self._compiled = None

    @functools.cached_property
    def max_frequency(self) -> float:
        """Largest |frequency| of any term, counting entries of at least
        FREQUENCY_FLOOR times the largest entry of any term.
        """
        floor = FREQUENCY_FLOOR * max((t.max_entry() for t in self.terms), default=0.0)
        return max((t.max_frequency(self.space, self.freqs, floor) for t in self.terms),
                   default=0.0)

    def merged(self) -> "TimeDependentOperator":
        """The operator itself: it is built merged."""
        return self

    def pruned(self, tol: float) -> "TimeDependentOperator":
        """Drop sparse matrix elements below tol relative to the largest element anywhere.

        Sparse terms left empty are removed; factored terms pass through
        unchanged.
        """
        ref = max((t.max_entry() for t in self.terms), default=0.0)
        if ref == 0.0 or tol <= 0.0:
            return self
        kept = []
        for t in self.terms:
            if t.factors is not None:
                kept.append(t)
                continue
            m = t.matrix.copy()
            m.data[np.abs(m.data) < tol * ref] = 0.0
            m.eliminate_zeros()
            if m.nnz:
                kept.append(Term(m, t.omega, t.envelope))
        return TimeDependentOperator(self.space, kept, self.freqs)

    def restricted(self, keep) -> "_CompiledApply":
        """The compiled apply on the increasing basis states `keep` alone, of length len(keep).

        Its frame phase keeps the whole space's Bohr-level offset, so on the
        kept states it is bitwise the whole operator's apply whenever no
        stored entry joins a kept state to a dropped one.  A factored term
        refuses: it is never multiplied out.
        """
        keep = np.asarray(keep, dtype=np.int64)
        if np.any(np.diff(keep) <= 0):
            raise ValueError("keep must be strictly increasing")
        if any(t.factors is not None for t in self.terms):
            raise ValueError("a factored term cannot be restricted")
        return _CompiledApply(self, keep)

    @functools.cached_property
    def _excitation_changes(self) -> np.ndarray | None:
        """The distinct changes of sum_j n_j, row minus column, over every term's
        stored entries; None when a term is factored."""
        if any(t.factors is not None for t in self.terms):
            return None
        total = self.space.excitations()
        top = int(total.max(initial=0))
        seen = np.zeros(2 * top + 1, dtype=bool)  # by change + top: no sort of every entry
        for m in (t.matrix.tocoo() for t in self.terms):
            seen[total[m.row] - total[m.col] + top] = True
        return np.flatnonzero(seen) - top

    def matrix(self, t: float) -> sp.csr_matrix:
        import scipy.sparse as sp

        out = sp.csr_matrix((self.space.dim, self.space.dim), dtype=complex)
        for term in self.terms:
            out = out + term.coefficient(t) * term.matrix
        if self.freqs is not None:
            levels, index = _frame_levels(self.space.occupations(), self.freqs)
            p = sp.diags(np.exp(1j * t * levels)[index])
            out = p @ out @ p.conj()
        return out

    def compiled(self) -> "_CompiledApply":
        if self._compiled is None:
            self._compiled = _CompiledApply(self)
        return self._compiled

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        """H(t) @ y for y of shape (space.dim,) or (space.dim, k)."""
        return self.compiled().apply(t, y)


def excitation_blocks(ops, occupied, excitation_cap: int | None = None) -> dict[str, np.ndarray]:
    """The blocks of basis states that a run under the operators ops evolves on, each alone.

    `occupied` marks the states that the run's input occupies.  Maps a block's
    name to its increasing state indices; empty when the run takes the whole
    space, as it does when an operator has a factored term, which refuses a cap
    (ValueError).  The states above
    the largest occupied sum_j n_j drop when no stored entry raises it (exact),
    and those above excitation_cap when one is given (inexact: the entries into
    them drop), which the input must not exceed (else ValueError).  When every
    change is even the rest splits into "even" and "odd" parity, each kept only
    if occupied; else it is one block, "both".
    """
    if any(op._excitation_changes is None for op in ops):
        if excitation_cap is not None:
            raise ValueError("an operator with a factored term cannot be capped")
        return {}
    changes = np.concatenate([op._excitation_changes for op in ops])
    total = ops[0].space.excitations()
    occupied = np.asarray(occupied, dtype=bool)
    kept = np.ones(total.size, dtype=bool)
    if not np.any(changes > 0):
        kept &= total <= total[occupied].max(initial=0)
    if excitation_cap is not None:
        if np.any(occupied & (total > excitation_cap)):
            raise ValueError(f"the input occupies states above the excitation cap {excitation_cap}")
        kept &= total <= excitation_cap
    if np.all(changes % 2 == 0):
        parts = (("even", kept & (total % 2 == 0)), ("odd", kept & (total % 2 == 1)))
        return {name: np.flatnonzero(part) for name, part in parts if np.any(occupied & part)}
    return {} if kept.all() else {"both": np.flatnonzero(kept)}


def _frame_levels(occ: np.ndarray, freqs) -> tuple[np.ndarray, np.ndarray]:
    """The distinct Bohr levels occ @ freqs of a frame and each basis state's index into them.

    The levels are measured from their midpoint: a constant phase cancels
    exactly in P A P*, and the shift halves the largest t * level, whose
    rounding is the phase error at long times.
    """
    levels, index = np.unique(occ @ np.asarray(freqs), return_inverse=True)
    return levels - 0.5 * (levels[0] + levels[-1]), index


class _CompiledApply:
    """H(t) y = P(t) [sum_k A_k x_k],  x_k = c_k(t) P(t)* y.

    The phase is exp(i t level), gathered from the frame's distinct Bohr
    levels.  Every term takes its own weighted input x_k, its coefficient
    and the conjugate phase in one product with y.  The sparse terms are
    held side by side as one wide matrix [A_1 ... A_K], so one sparse
    product of it with the stacked inputs sums them, row by row; each
    factored term adds its product one mode at a time.  The coefficients
    come from one vectorised phase and one call of each term's envelope.
    Given `keep`, the increasing basis states of a restriction, the sparse
    terms hold only their kept rows and columns and the phase is gathered at
    those states.

    The weights and the phase of the last two times applied at are kept: an
    RK4 step applies at t, twice at t + h/2 and at t + h, which is bit for
    bit the next step's t, so the envelopes and the phase run twice a step.
    The pair is replaced whole and read once per apply, and each thread
    weighs its inputs in a buffer of its own, so threads may share the apply.
    """

    def __init__(self, tdo: TimeDependentOperator, keep=None):
        sparse = [t for t in tdo.terms if t.factors is None]
        factored = [t for t in tdo.terms if t.factors is not None]
        self._levels = self._index = None
        if tdo.freqs is not None:
            self._levels, self._index = _frame_levels(tdo.space.occupations(), tdo.freqs)
            if keep is not None:
                self._index = self._index[keep]
        self._wide = None
        if sparse:
            import scipy.sparse as sp

            self._wide = sp.hstack([t.matrix if keep is None else t.matrix[keep][:, keep]
                                    for t in sparse], format="csr")
        self._nsparse = len(sparse)
        self._factored = list(enumerate(factored, start=len(sparse)))
        terms = sparse + factored
        self.omegas = np.array([t.omega for t in terms], dtype=float)
        self._envelopes = [(k, t.envelope) for k, t in enumerate(terms) if t.envelope is not None]
        self._recent = ()  # ((t, (w, p)), ...) of the last two times
        # each thread's weighted inputs, reused: a fresh array per apply made
        # glibc trim the heap top and fault it in again on every rho apply
        self._local = threading.local()

    def _at(self, t: float) -> tuple:
        """(w, p) at t: each term's input weight w_k, of shape (terms, 1), or
        (terms, states) in a frame, c_k(t) P(t)* with the coefficient
        c_k(t) = env_k(t) exp(i omega_k t); and the phase P(t), None without a
        frame."""
        recent = self._recent
        for seen, value in recent:
            if seen == t:
                return value
        c, p = np.exp(1j * self.omegas * t), None
        for k, env in self._envelopes:
            c[k] *= env(t)
        if self._levels is not None:
            p = np.exp(1j * t * self._levels)[self._index]
        value = (c[:, None] if p is None else np.multiply.outer(c, p.conj()), p)
        self._recent = (*recent[-1:], (t, value))
        return value

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        w, p = self._at(t)
        if not len(w):
            return np.zeros_like(y)
        column = (1,) * (y.ndim - 1)
        x = getattr(self._local, "x", None)
        if x is None or x.shape != w.shape[:1] + y.shape:
            x = self._local.x = np.empty(w.shape[:1] + y.shape, dtype=complex)
        np.multiply(w.reshape(w.shape + column), y, out=x)
        z = None
        if self._wide is not None:
            z = self._wide @ x[:self._nsparse].reshape((-1,) + y.shape[1:])
        for k, term in self._factored:
            part = term.kron_product(x[k])
            z = part if z is None else np.add(z, part, out=z)
        if p is not None:
            z *= p.reshape((-1,) + column)
        return z
