"""Time-dependent operators as sums of (envelope, oscillation, sparse matrix) terms.

H(t) = sum_k  env_k(t) * exp(i * omega_k * t) * A_k

A static operator is a single term with env = None and omega = 0.  Moving to a
rotating frame (interaction picture of the free mode energies) is done by
splitting each matrix into "bands" grouped by the Bohr frequency
sum_j f_j * (n_row_j - n_col_j) of its elements; each band then carries an
explicit phase factor.  This is exact for any operator on the space.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fock import FockSpace, Operator

__all__ = ["Term", "TimeDependentOperator", "split_bands"]

_FREQ_DECIMALS = 9


class Term:
    """One summand env(t) * exp(i omega t) * matrix."""

    __slots__ = ("matrix", "omega", "envelope")

    def __init__(self, matrix, omega: float = 0.0, envelope=None):
        self.matrix = sp.csr_matrix(matrix, dtype=complex)
        self.omega = float(omega)
        self.envelope = envelope  # callable t -> complex, or None (constant 1)

    def coefficient(self, t: float) -> complex:
        c = np.exp(1j * self.omega * t) if self.omega else 1.0
        if self.envelope is not None:
            c = c * self.envelope(t)
        return complex(c)


def split_bands(space: FockSpace, freqs, matrix) -> list[tuple[float, sp.csr_matrix]]:
    """Split a matrix by the Bohr frequency sum_j f_j (n_row_j - n_col_j) of its elements."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (space.nmodes,):
        raise ValueError("need one rotation frequency per mode")
    coo = sp.coo_matrix(matrix)
    if coo.nnz == 0:
        return []
    occ = space.occupations()  # (dim, nmodes)
    bohr = (occ @ freqs).astype(float)
    elem_freq = np.round(bohr[coo.row] - bohr[coo.col], _FREQ_DECIMALS)
    out = []
    for f in np.unique(elem_freq):
        mask = elem_freq == f
        band = sp.coo_matrix(
            (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=coo.shape
        ).tocsr()
        out.append((float(f), band))
    return out


class TimeDependentOperator:
    """Sum of Terms on a common FockSpace.  Immutable once built; thread-shareable."""

    def __init__(self, space: FockSpace, terms: list[Term]):
        self.space = space
        self.terms = list(terms)
        self._compiled = None

    @classmethod
    def static(cls, op: Operator) -> "TimeDependentOperator":
        return cls(op.space, [Term(op.mat)])

    def __add__(self, other: "TimeDependentOperator") -> "TimeDependentOperator":
        if self.space != other.space:
            raise ValueError("space mismatch")
        return TimeDependentOperator(self.space, self.terms + other.terms)

    @property
    def max_frequency(self) -> float:
        return max((abs(t.omega) for t in self.terms), default=0.0)

    def merged(self) -> "TimeDependentOperator":
        """Combine terms with identical (envelope, omega)."""
        groups: dict[tuple[int, float], Term] = {}
        order = []
        for t in self.terms:
            key = (id(t.envelope), t.omega)
            if key in groups:
                g = groups[key]
                groups[key] = Term(g.matrix + t.matrix, t.omega, t.envelope)
            else:
                groups[key] = Term(t.matrix.copy(), t.omega, t.envelope)
                order.append(key)
        return TimeDependentOperator(self.space, [groups[k] for k in order])

    def pruned(self, tol: float) -> "TimeDependentOperator":
        """Drop matrix elements below tol relative to the largest element anywhere.

        Trims exponentially small high-frequency bands, so the integrator
        step ends up set by the dynamically relevant oscillations rather
        than by negligible tails.  Terms left empty are removed.
        """
        ref = max((abs(t.matrix.data).max() for t in self.terms if t.matrix.nnz), default=0.0)
        if ref == 0.0 or tol <= 0.0:
            return self
        kept = []
        for t in self.terms:
            m = t.matrix.copy()
            m.data[np.abs(m.data) < tol * ref] = 0.0
            m.eliminate_zeros()
            if m.nnz:
                kept.append(Term(m, t.omega, t.envelope))
        return TimeDependentOperator(self.space, kept)

    def rotated(self, freqs) -> "TimeDependentOperator":
        """Interaction picture of H0 = sum_j f_j n_j: split every term into phase bands.

        The caller is responsible for having removed H0 itself from the terms.
        """
        new_terms = []
        for t in self.terms:
            for f, band in split_bands(self.space, freqs, t.matrix):
                new_terms.append(Term(band, t.omega + f, t.envelope))
        return TimeDependentOperator(self.space, new_terms).merged()

    def matrix(self, t: float) -> sp.csr_matrix:
        out = sp.csr_matrix((self.space.dim, self.space.dim), dtype=complex)
        for term in self.terms:
            out = out + term.coefficient(t) * term.matrix
        return out

    def hermiticity_defect(self, t: float) -> float:
        m = self.matrix(t)
        d = abs(m - m.getH())
        return float(d.max()) if d.nnz else 0.0

    def compiled(self) -> "_CompiledApply":
        if self._compiled is None:
            self._compiled = _CompiledApply(self)
        return self._compiled

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        return self.compiled().apply(t, vec)


class _CompiledApply:
    """Stacked-matrix evaluator: one sparse matvec + one small contraction over terms."""

    def __init__(self, tdo: TimeDependentOperator):
        merged = tdo.merged()
        self.space = tdo.space
        self.nterms = len(merged.terms)
        self.omegas = np.array([t.omega for t in merged.terms], dtype=float)
        self.envelopes = [t.envelope for t in merged.terms]
        self.static_mask = np.array(
            [t.envelope is None and t.omega == 0.0 for t in merged.terms], dtype=bool
        )
        self.stacked = sp.vstack([t.matrix for t in merged.terms], format="csr")
        # group terms by envelope object so each callable runs once per time
        env_groups: dict[int, tuple] = {}
        for k, env in enumerate(self.envelopes):
            if env is not None:
                env_groups.setdefault(id(env), (env, []))[1].append(k)
        self._env_groups = [(env, np.array(idx)) for env, idx in env_groups.values()]

    def coefficients(self, t: float) -> np.ndarray:
        c = np.exp(1j * self.omegas * t)
        for env, idx in self._env_groups:
            c[idx] *= env(t)
        return c

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        y = (self.stacked @ vec).reshape(self.nterms, -1)
        # scale-and-sum rather than a BLAS product: a BLAS call here wakes a
        # second OpenBLAS thread that keeps spinning between calls
        y *= self.coefficients(t)[:, None]
        return y.sum(axis=0)
