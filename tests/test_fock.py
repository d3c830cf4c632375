"""Tests for the truncated Fock-space layer: spaces, operators, canonical states."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special

from motlight.errors import ResourceLimitError
from motlight.fock import (
    DensityMatrix,
    Operator,
    StateVector,
    TruncationWarning,
    cat_state,
    coherent_leakage,
    coherent_state,
    destroy,
    embed,
    expectation,
    fock_state,
    make_space,
    number,
    partial_trace,
    position_exponential,
    position_quadrature,
    truncated_phase_state,
    two_mode_squeezed_state,
)


# ---------------------------------------------------------------------------
# spaces


def test_space_basics():
    spc = make_space((4, 3))
    assert spc.dim == 12
    assert spc.nmodes == 2


def test_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_space(())
    with pytest.raises(ValueError):
        make_space((4, 1))


def test_space_dimension_cap():
    with pytest.raises(ResourceLimitError):
        make_space((1024, 1024, 1024))


def test_flat_index_occupations_roundtrip():
    spc = make_space((3, 4, 2))
    occ = spc.occupations()
    assert occ.shape == (24, 3)
    for k in range(spc.dim):
        assert spc.flat_index(occ[k]) == k
    # row-major ordering: last mode varies fastest
    assert spc.flat_index((0, 0, 1)) == 1
    assert spc.flat_index((1, 0, 0)) == 8


# ---------------------------------------------------------------------------
# elementary operators


def test_destroy_matrix_elements():
    spc = make_space((4,))
    b = destroy(spc, 0).mat.toarray()
    expected = np.zeros((4, 4))
    for n in range(1, 4):
        expected[n - 1, n] = math.sqrt(n)
    assert np.allclose(b, expected)


def test_commutator_on_interior():
    # [b, b+] = 1 except in the top level, where hard truncation breaks it
    spc = make_space((8,))
    b = destroy(spc, 0).mat
    comm = (b @ b.getH() - b.getH() @ b).toarray()
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert np.isclose(comm[-1, -1], -7.0)  # -(d-1) in the top level


def test_number_and_quadrature():
    spc = make_space((6, 5))
    for mode in (0, 1):
        b = destroy(spc, mode).mat
        n = number(spc, mode)
        x = position_quadrature(spc, mode)
        assert np.allclose((b.getH() @ b).toarray(), n.mat.toarray())
        assert np.allclose((b + b.getH()).toarray(), x.mat.toarray())
        for op in (n, x):
            assert (op.mat != op.mat.getH()).nnz == 0


def test_embed_acts_on_correct_mode():
    spc = make_space((3, 4))
    b1 = destroy(spc, 1)
    psi = fock_state(spc, (2, 3))
    out = b1.mat @ psi.amplitudes
    target = math.sqrt(3) * fock_state(spc, (2, 2)).amplitudes
    assert np.allclose(out, target)
    with pytest.raises(ValueError):
        embed(spc, 5, np.eye(3))


def _kron_chain(space, mode, small):
    """I (x) ... (x) small (x) ... (x) I as a chain of sparse Kronecker products."""
    out = sp.identity(1, format="csr", dtype=complex)
    for j, d in enumerate(space.dims):
        blk = sp.csr_matrix(small, dtype=complex) if j == mode else sp.identity(
            d, format="csr", dtype=complex)
        out = sp.kron(out, blk, format="csr")
    return out


@pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 4, 3), (3, 2, 4, 2)])
def test_embed_is_the_kron_chain(dims):
    # index arithmetic builds the same CSR arrays as the chain of products,
    # for every mode position, sparse and dense inputs alike
    spc = make_space(dims)
    rng = np.random.default_rng(len(dims))
    for mode, d in enumerate(dims):
        dense = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.random((d, d)) < 0.5)
        for small in (dense, sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr"),
                      position_exponential(d, 0.3j)):
            got, ref = embed(spc, mode, small), _kron_chain(spc, mode, small)
            assert got.has_canonical_format and ref.has_canonical_format
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), (mode, name)


def test_operator_space_mismatch():
    # an operator's expectation in a state of another space is refused
    n = number(make_space((4,)), 0)
    psi = fock_state(make_space((5,)), (1,))
    for state in (psi, psi.projector()):
        with pytest.raises(ValueError):
            expectation(n, state)


def test_position_exponential_unitary():
    u = position_exponential(12, 0.3j)
    assert np.allclose(u.conj().T @ u, np.eye(12), atol=1e-12)


def test_position_exponential_matches_full_space():
    spc = make_space((6, 5))
    x = position_quadrature(spc, 1)
    full = scipy.linalg.expm(0.2j * x.mat.toarray())
    cheap = embed(spc, 1, position_exponential(5, 0.2j)).toarray()
    assert np.allclose(full, cheap, atol=1e-12)


@pytest.mark.parametrize("d", [18, 48, 96])
def test_position_exponential_matches_expm(d):
    # the eigendecomposition of X against scipy's expm of the same single
    # mode at the scales the Hamiltonians use.  The entries dropped below
    # 1e-14 of the largest are kept by expm, so the comparison allows that
    # threshold on top of the rounding of either
    x = position_quadrature(make_space((d,)), 0).mat.toarray()
    for scale in (2j * 0.1, 1j * 0.1, 2j * 0.0707, 1j * 0.0577):
        u = position_exponential(d, scale)
        assert np.max(np.abs(u - scipy.linalg.expm(scale * x))) <= 2e-14


# ---------------------------------------------------------------------------
# states


def test_fock_state_basics():
    spc = make_space((4, 3))
    psi = fock_state(spc, (2, 1))
    assert np.isclose(psi.norm, 1.0)
    assert np.isclose(expectation(number(spc, 0), psi), 2.0)
    assert np.isclose(expectation(number(spc, 1), psi), 1.0)
    with pytest.raises(ValueError):
        fock_state(spc, (4, 0))


def test_coherent_state_statistics():
    spc = make_space((40,))
    alpha = 1.5 + 0.5j
    psi = coherent_state(spc, (alpha,))
    # [TRIVIAL] Poissonian moments: <n> = |alpha|^2, <b> = alpha
    assert np.isclose(expectation(number(spc, 0), psi), abs(alpha) ** 2, atol=1e-10)
    assert np.isclose(expectation(destroy(spc, 0), psi), alpha, atol=1e-10)


def test_coherent_leakage_tail():
    # [DERIVED] Poisson survival function: P(N >= 10) for lambda = 4
    # computed independently as 1 - sum_{n<10} e^-4 4^n/n! = 0.008132243...
    assert np.isclose(coherent_leakage(2.0, 10), 0.008132243, atol=1e-8)
    assert coherent_leakage(0.0, 5) == 0.0


def test_coherent_leakage_matches_gammainc():
    # the log-space tail sum against the regularized lower incomplete gamma
    # P(dim, |alpha|^2), which is the same Poisson tail
    cases = [(2.0, 10), (2.0, 12), (math.sqrt(10.0), 30)]
    cases += [(a, d) for a in np.linspace(0.05, 7.0, 40) for d in range(2, 100, 3)]
    checked = 0
    for alpha, dim in cases:
        ref = scipy.special.gammainc(dim, alpha**2)
        if ref < 1e-200:
            continue
        assert abs(coherent_leakage(alpha, dim) / ref - 1.0) <= 1e-12, (alpha, dim)
        checked += 1
    assert checked > 1000


def test_coherent_state_matches_gammaln_amplitudes():
    # amplitudes from math.lgamma against the closed form with scipy's gammaln,
    # entry by entry, down to amplitudes far below the state's largest
    dim = 170
    n = np.arange(dim)
    for alpha in (0.3, 2.0 - 1.0j, math.sqrt(10.0), 6.0j):
        col = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha))
                     - 0.5 * scipy.special.gammaln(n + 1) + 1j * n * np.angle(alpha))
        ref = col / np.linalg.norm(col)
        got = coherent_state(make_space((dim,)), (alpha,)).amplitudes
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_coherent_state_warns_then_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            coherent_state(make_space((12,)), (1.6,))
    with pytest.raises(ValueError):
        coherent_state(make_space((6,)), (3.0,))


def test_cat_state_parity():
    # the even cat fills even levels only, exactly, and is (|alpha> + |-alpha>) normalized
    spc = make_space((30,))
    even = cat_state(spc, 2.0)
    occ = np.arange(30)
    assert not np.any(even.amplitudes[occ % 2 == 1])
    assert np.isclose(np.linalg.norm(even.amplitudes), 1.0)
    plus, minus = coherent_state(spc, (2.0,)), coherent_state(spc, (-2.0,))
    expected = (plus.amplitudes + minus.amplitudes) / np.linalg.norm(plus.amplitudes
                                                                     + minus.amplitudes)
    assert np.allclose(even.amplitudes, expected, atol=1e-14)
    assert np.allclose(cat_state(spc, 0.0).amplitudes, fock_state(spc, (0,)).amplitudes)


def test_two_mode_squeezed_state():
    spc = make_space((35, 35))
    r = 1.0
    psi = two_mode_squeezed_state(spc, r)
    # [TRIVIAL] each mode is thermal with nbar = sinh^2 r; occupations perfectly correlated
    nbar = math.sinh(r) ** 2
    assert np.isclose(expectation(number(spc, 0), psi), nbar, atol=1e-7)
    assert np.isclose(expectation(number(spc, 1), psi), nbar, atol=1e-7)
    diff = number(spc, 0).mat - number(spc, 1).mat
    assert np.isclose(expectation(Operator(spc, diff @ diff), psi), 0.0,
                      atol=1e-12)
    with pytest.raises(ValueError):
        two_mode_squeezed_state(make_space((35, 35, 2)), 1.0)


def test_truncated_phase_state():
    spc = make_space((16, 3))
    psi = truncated_phase_state(spc, 10, mode=0)
    p = psi.mode_population(0)
    assert np.allclose(p[:11], 1.0 / 11.0)
    assert np.allclose(p[11:], 0.0)
    with pytest.raises(ValueError):
        truncated_phase_state(make_space((8,)), 10)


def test_mode_population_and_top_level():
    spc = make_space((4, 3))
    psi = StateVector(spc, np.zeros(12))
    amp = np.zeros(12, dtype=complex)
    amp[spc.flat_index((3, 0))] = 1.0
    psi = StateVector(spc, amp)
    assert psi.top_level_population() == 1.0
    assert np.allclose(psi.mode_population(0), [0, 0, 0, 1])


# ---------------------------------------------------------------------------
# expectations and partial trace


def test_expectation_density_matrix():
    spc = make_space((10,))
    psi = coherent_state(spc, (1.2,))
    rho = psi.projector()
    n = number(spc, 0)
    assert np.isclose(expectation(n, rho), expectation(n, psi), atol=1e-12)
    assert np.isclose(rho.trace, 1.0)
    assert rho.hermiticity_defect() < 1e-14


def test_partial_trace_pure_product():
    spc = make_space((4, 5))
    psi = fock_state(spc, (2, 3))
    red = partial_trace(psi.projector(), [1])
    assert red.space.dims == (4,)
    assert np.isclose(red.entries[2, 2].real, 1.0)
    assert np.isclose(red.trace, 1.0)


def test_partial_trace_entangled_purity():
    # tracing half of a two-mode squeezed state gives a thermal (mixed) mode
    spc = make_space((30, 30))
    psi = two_mode_squeezed_state(spc, 0.8)
    red = partial_trace(psi.projector(), [0])
    purity = float(np.trace(red.entries @ red.entries).real)
    # [DERIVED] thermal-state purity 1/(2 nbar + 1) with nbar = sinh^2(0.8)
    assert np.isclose(purity, 1.0 / (2.0 * math.sinh(0.8) ** 2 + 1.0), atol=1e-6)


def test_partial_trace_density_matrix_path():
    spc = make_space((3, 4, 2))
    psi = fock_state(spc, (1, 2, 0))
    rho = psi.projector()
    red = partial_trace(rho, [0, 2])
    assert red.space.dims == (4,)
    assert np.isclose(red.entries[2, 2].real, 1.0)
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 1, 2])


def test_density_matrix_mode_population():
    spc = make_space((4, 3))
    rho = fock_state(spc, (2, 1)).projector()
    assert np.allclose(rho.mode_population(1), [0, 1, 0])
    assert np.isclose(rho.top_level_population(), 0.0)
