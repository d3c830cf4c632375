"""Time-dependent operators as sums of (envelope, oscillation, operator) terms.

H(t) = sum_k  env_k(t) * exp(i * omega_k * t) * A_k(t)

A static operator is a single term with env = None and omega = 0.  Moving to a
rotating frame (interaction picture of the free mode energies) is done by
splitting each sparse matrix into "bands" grouped by the Bohr frequency
sum_j f_j * (n_row_j - n_col_j) of its elements; each band then carries an
explicit phase factor.  This is exact for any operator on the space.

A term may instead hold its operator as a Kronecker product of dense per-mode
factors, A = kron_j u_j.  The frame then acts on it as a diagonal phase on
each mode, A(t) = kron_j P_j(t) u_j P_j(t)* with P_j(t) = diag(exp(i f_j n t)),
and it is applied one mode at a time (Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 123, 85 (2000)), never multiplied out.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .fock import FockSpace, Operator

__all__ = ["Term", "TimeDependentOperator", "split_bands"]

_FREQ_DECIMALS = 9


class Term:
    """One summand env(t) * exp(i omega t) * A(t).

    A is either a constant sparse `matrix` or, given `factors`, the Kronecker
    product of one dense matrix per mode, rotated at the per-mode frequencies
    `freqs` (zero: no rotation).  For a factored term `matrix` is the product
    at t = 0, built on first use and cached; the apply never reads it.
    Offsets whose largest entry lies below `cutoff` set no frequency.
    """

    __slots__ = ("_matrix", "factors", "freqs", "cutoff", "omega", "envelope")

    def __init__(self, matrix=None, omega: float = 0.0, envelope=None, *,
                 factors=None, freqs=None, cutoff: float = 0.0):
        if (matrix is None) == (factors is None):
            raise ValueError("a term holds either a matrix or per-mode factors")
        self._matrix = None if matrix is None else sp.csr_matrix(matrix, dtype=complex)
        self.factors = None if factors is None else tuple(
            np.asarray(u, dtype=complex) for u in factors)
        self.freqs = None if factors is None else (
            np.zeros(len(self.factors)) if freqs is None else np.asarray(freqs, dtype=float))
        self.cutoff = float(cutoff)
        self.omega = float(omega)
        self.envelope = envelope  # callable t -> complex, or None (constant 1)

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = _kron(self.factors)
        return self._matrix

    def coefficient(self, t: float) -> complex:
        c = np.exp(1j * self.omega * t) if self.omega else 1.0
        if self.envelope is not None:
            c = c * self.envelope(t)
        return complex(c)

    def _replace(self, **changes) -> "Term":
        """A factored term with some of its attributes changed."""
        kw = dict(omega=self.omega, envelope=self.envelope, factors=self.factors,
                  freqs=self.freqs, cutoff=self.cutoff)
        kw.update(changes)
        return Term(**kw)

    def phases(self, t: float):
        """Diagonal of P(t) = kron_j diag(exp(i f_j n t)) of a factored term; None if unrotated."""
        if not self.freqs.any():
            return None
        ps = [np.exp(1j * f * t * np.arange(u.shape[0])) for u, f in zip(self.factors, self.freqs)]
        return functools.reduce(np.multiply.outer, ps).ravel()

    def operator_at(self, t: float) -> sp.csr_matrix:
        """A(t) as a sparse matrix, without the coefficient."""
        p = None if self.factors is None else self.phases(t)
        if p is None:
            return self.matrix
        return (sp.diags(p) @ self.matrix @ sp.diags(p.conj())).tocsr()

    def kron_product(self, y: np.ndarray) -> np.ndarray:
        """(kron_j u_j) @ y of a factored term, y of shape (dim,) or (dim, k), one mode at a time."""
        shape, before, after = y.shape, 1, y.size
        for u in self.factors:
            d = u.shape[0]
            after //= d
            y = y.reshape(before, d) @ u.T if after == 1 else u @ y.reshape(before, d, after)
            before *= d
        return y.reshape(shape)

    def max_entry(self) -> float:
        if self.factors is None:
            return float(abs(self.matrix.data).max()) if self.matrix.nnz else 0.0
        return float(np.prod([np.abs(u).max() for u in self.factors]))

    def max_frequency(self) -> float:
        """Largest |frequency| the term oscillates at.

        For a factored term: the largest |omega + sum_j f_j k_j| over the
        diagonal offsets k_j = n_row - n_col whose largest product entry,
        prod_j max |diag_kj(u_j)|, is nonzero and at least `cutoff`.
        """
        if self.factors is None:
            return abs(self.omega)
        freq, size = np.array(self.omega), np.array(1.0)
        for u, f in zip(self.factors, self.freqs):
            d = u.shape[0]
            offset = np.subtract.outer(np.arange(d), np.arange(d)) + d - 1
            peak = np.zeros(2 * d - 1)
            np.maximum.at(peak, offset.ravel(), np.abs(u).ravel())
            freq = np.add.outer(freq, f * np.arange(1 - d, d))
            size = np.multiply.outer(size, peak)
        kept = (size > 0) & (size >= self.cutoff)
        return float(np.abs(freq[kept]).max(initial=0.0))


def _kron(factors) -> sp.csr_matrix:
    return functools.reduce(lambda a, b: sp.kron(a, b, format="csr"),
                            [sp.csr_matrix(u) for u in factors])


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
        return max((t.max_frequency() for t in self.terms), default=0.0)

    def merged(self) -> "TimeDependentOperator":
        """Combine sparse terms with identical (envelope, omega); factored terms stay apart."""
        groups: dict = {}
        order = []
        for t in self.terms:
            if t.factors is not None:
                groups[id(t)] = t
                order.append(id(t))
                continue
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
        than by negligible tails.  Sparse terms left empty are removed.  A
        factored term keeps every element, so its apply stays exact; the
        tolerance only stops its small offsets from setting max_frequency.
        """
        ref = max((t.max_entry() for t in self.terms), default=0.0)
        if ref == 0.0 or tol <= 0.0:
            return self
        kept = []
        for t in self.terms:
            if t.factors is not None:
                kept.append(t._replace(cutoff=tol * ref))
                continue
            m = t.matrix.copy()
            m.data[np.abs(m.data) < tol * ref] = 0.0
            m.eliminate_zeros()
            if m.nnz:
                kept.append(Term(m, t.omega, t.envelope))
        return TimeDependentOperator(self.space, kept)

    def rotated(self, freqs) -> "TimeDependentOperator":
        """Interaction picture of H0 = sum_j f_j n_j.

        Sparse terms are split into phase bands; a factored term takes the
        frequencies as per-mode phases.  The caller is responsible for
        having removed H0 itself from the terms.
        """
        new_terms = []
        for t in self.terms:
            if t.factors is not None:
                if len(freqs) != self.space.nmodes:
                    raise ValueError("need one rotation frequency per mode")
                new_terms.append(t._replace(freqs=t.freqs + np.asarray(freqs, dtype=float)))
                continue
            for f, band in split_bands(self.space, freqs, t.matrix):
                new_terms.append(Term(band, t.omega + f, t.envelope))
        return TimeDependentOperator(self.space, new_terms).merged()

    def matrix(self, t: float) -> sp.csr_matrix:
        out = sp.csr_matrix((self.space.dim, self.space.dim), dtype=complex)
        for term in self.terms:
            out = out + term.coefficient(t) * term.operator_at(t)
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
    """Stacked-matrix evaluator: one sparse matvec + one small contraction over the
    sparse terms, plus a per-mode product for each factored term."""

    def __init__(self, tdo: TimeDependentOperator):
        merged = tdo.merged()
        self.space = tdo.space
        groups: dict[tuple, list[Term]] = {}
        for t in merged.terms:
            if t.factors is not None:
                groups.setdefault(tuple(t.freqs), []).append(t)
        self._factored_groups = list(groups.values())
        bands = [t for t in merged.terms if t.factors is None]
        self.matrices = [t.matrix for t in bands]
        self.nterms = len(bands)
        self.omegas = np.array([t.omega for t in bands], dtype=float)
        self.envelopes = [t.envelope for t in bands]
        self.stacked = sp.vstack(self.matrices, format="csr") if bands else None
        # group terms by envelope object so each callable runs once per time
        env_groups: dict[int, tuple] = {}
        for k, env in enumerate(self.envelopes):
            if env is not None:
                env_groups.setdefault(id(env), (env, []))[1].append(k)
        self._env_groups = [(env, np.array(idx)) for env, idx in env_groups.values()]

    def coefficients(self, t: float) -> np.ndarray:
        """The coefficients of the sparse terms, in the order of `matrices`."""
        c = np.exp(1j * self.omegas * t)
        for env, idx in self._env_groups:
            c[idx] *= env(t)
        return c

    def apply_factored(self, t: float, y: np.ndarray):
        """Sum of the factored terms at t on y, (dim,) or (dim, k); None if there are none.

        Terms rotated at the same frequencies share one phase: P (sum_k c_k U_k) P* y.
        """
        out = None
        for terms in self._factored_groups:
            p = terms[0].phases(t)
            if p is not None:
                p = p.reshape(p.shape + (1,) * (y.ndim - 1))
            x = y if p is None else y * p.conj()
            z = terms[0].kron_product(x)
            z *= terms[0].coefficient(t)
            for term in terms[1:]:
                z += term.coefficient(t) * term.kron_product(x)
            if p is not None:
                z *= p
            out = z if out is None else out + z
        return out

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        out = self.apply_factored(t, vec)
        if self.stacked is None:
            return out if out is not None else np.zeros_like(vec)
        y = (self.stacked @ vec).reshape(self.nterms, -1)
        # scale-and-sum rather than a BLAS product: a BLAS call here wakes a
        # second OpenBLAS thread that keeps spinning between calls
        y *= self.coefficients(t)[:, None]
        y = y.sum(axis=0)
        return y if out is None else y + out
