"""Tests for time-dependent operators and their rotating frames."""

import functools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from motlight.fock import (
    destroy,
    fock_state,
    make_space,
    number,
    position_quadrature,
)
from motlight.timedep import Term, TimeDependentOperator, excitation_blocks


def test_term_coefficient():
    m = sp.identity(2, dtype=complex)
    t = Term(m, omega=3.0, envelope=lambda s: 2.0 * s)
    assert np.isclose(t.coefficient(0.5), 1.0 * np.exp(1.5j))
    assert np.isclose(Term(m).coefficient(7.0), 1.0)


def test_rotated_matches_explicit_interaction_picture():
    # exp(i H0 t) A exp(-i H0 t) must equal the band expansion for any A
    spc = make_space((4, 3))
    freqs = np.array([3.0, 1.3])
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = TimeDependentOperator(spc, [Term(sp.csr_matrix(a))], freqs)
    n0 = number(spc, 0).mat.toarray()
    n1 = number(spc, 1).mat.toarray()
    h0 = freqs[0] * n0 + freqs[1] * n1
    for t in (0.0, 0.31, -1.7):
        u = np.diag(np.exp(1j * np.diag(h0) * t))
        expected = u @ a @ u.conj().T
        assert np.allclose(h.matrix(t).toarray(), expected, atol=1e-12)


def test_merged_combines_matching_terms():
    # the constructor sums the sparse terms of one (envelope, omega) into the
    # first one's place, the first matrix plus each later one in order
    spc = make_space((6,))
    rng = np.random.default_rng(11)
    a, b, c, d = (sp.csr_matrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
                  for _ in range(4))
    env = lambda t: np.cos(t)
    terms = [Term(a, 2.0, env), Term(b, 5.0, env), Term(c, 2.0, env), Term(d, 2.0, None),
             Term(a, 2.0, env)]
    h = TimeDependentOperator(spc, terms)
    assert [(t.omega, t.envelope) for t in h.terms] == [(2.0, env), (5.0, env), (2.0, None)]
    assert np.array_equal(h.terms[0].matrix.toarray(), ((a + c) + a).toarray())
    assert h.terms[1] is terms[1] and h.terms[2] is terms[3]  # a lone term is kept, not copied
    assert h.merged() is h
    for t in (0.0, 0.4):
        by_hand = sum(term.coefficient(t) * term.matrix for term in terms)
        assert abs(h.matrix(t) - by_hand).max() < 1e-14


def test_factored_term_listed_twice_stays_two_terms():
    spc = make_space((3, 2))
    rng = np.random.default_rng(12)
    u = Term(factors=(rng.normal(size=(3, 3)), rng.normal(size=(2, 2))), omega=1.0)
    n = Term(number(spc, 0).mat, 1.0)
    h = TimeDependentOperator(spc, [u, n, u])
    assert h.terms == [u, n, u]
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    expected = (2.0 * u.matrix + n.matrix) @ v * np.exp(0.3j)
    assert np.allclose(h.apply(0.3, v), expected, atol=1e-12)


def test_frame_of_the_wrong_length_is_refused_at_construction():
    spc = make_space((4, 3))
    terms = [Term(number(spc, 0).mat)]
    for freqs in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="one frame frequency per mode"):
            TimeDependentOperator(spc, terms, freqs)


def test_max_frequency_scans_the_terms_once(monkeypatch):
    spc = make_space((4, 3))
    h = TimeDependentOperator(spc, [Term(position_quadrature(spc, 0).mat, 1.0),
                                    Term(number(spc, 1).mat, 2.0)], (3.0, 0.5))
    scans = []
    scan = Term.max_frequency
    monkeypatch.setattr(Term, "max_frequency", lambda t, *a: scans.append(t) or scan(t, *a))
    assert h.max_frequency == h.max_frequency == 4.0
    assert len(scans) == 2


def test_pruned_drops_small_bands():
    # a band below 1e-10 of the operator's largest entry (2, of n on three
    # levels) sets no frequency, pruned or not; pruned drops its elements
    spc = make_space((3,))
    big = number(spc, 0).mat
    x = position_quadrature(spc, 0).mat
    h = TimeDependentOperator(spc, [Term(big, 0.0), Term(1e-12 * x, 50.0)])
    assert h.max_frequency == 0.0
    assert h.terms[1].max_frequency(spc) == 50.0  # the band alone, with no floor
    assert TimeDependentOperator(spc, h.terms[1:]).max_frequency == 50.0  # its own scale
    # a band at or above the floor still counts
    assert TimeDependentOperator(spc, [Term(big, 0.0), Term(1e-9 * x, 50.0)]).max_frequency == 50.0
    g = h.pruned(1e-10)
    assert len(g.terms) == 1
    assert g.max_frequency == 0.0
    # pruning with zero tolerance is a no-op
    assert len(h.pruned(0.0).terms) == 2


def test_compiled_apply_matches_matrix():
    spc = make_space((4, 3))
    rng = np.random.default_rng(11)
    terms = [
        Term(sp.csr_matrix(rng.normal(size=(12, 12)) + 0j), 2.0, np.sin),
        Term(sp.csr_matrix(rng.normal(size=(12, 12)) + 0j), -1.5, None),
        Term(number(spc, 0).mat, 0.0, None),
    ]
    h = TimeDependentOperator(spc, terms)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    for t in (0.0, 0.2, -3.4):
        assert np.allclose(h.apply(t, v), h.matrix(t) @ v, atol=1e-12)


def test_each_term_evaluates_its_envelope_once():
    # the constructor merges the sparse terms of one (envelope, omega), so an
    # envelope runs once per apply for each omega it is shared at
    spc = make_space((3,))
    calls = []

    def env(t):
        calls.append(t)
        return 1.0

    m = number(spc, 0).mat
    h = TimeDependentOperator(spc, [Term(m, 1.0, env), Term(m, 1.0, env), Term(m, 2.0, env)])
    assert len(h.terms) == 2
    h.apply(0.5, np.ones(3, dtype=complex))
    assert calls == [0.5, 0.5]


def test_static_and_summed_terms():
    spc = make_space((3,))
    h = number(spc, 0)
    assert isinstance(destroy(spc, 0), TimeDependentOperator)
    assert len(h.terms) == 1 and h.freqs is None and h.max_frequency == 0.0
    g = TimeDependentOperator(spc, h.terms + [Term(position_quadrature(spc, 0).mat, 4.0)])
    assert len(g.terms) == 2
    assert g.max_frequency == 4.0
    m0, m1 = g.matrix(0.0), g.matrix(0.1)
    assert abs(m0 - m0.getH()).max() < 1e-15
    assert abs(m1 - m1.getH()).max() > 0.1  # single band alone is non-Hermitian


def test_sparse_term_must_match_the_space():
    # a 5 x 5 term on a 3 x 2 space is refused at construction, not at apply
    spc = make_space((3, 2))
    with pytest.raises(ValueError, match="does not match space dim 6"):
        TimeDependentOperator(spc, [Term(sp.identity(5, dtype=complex))])
    with pytest.raises(ValueError, match="does not match space dim 6"):
        TimeDependentOperator(spc, [Term(sp.identity(6, dtype=complex)),
                                    Term(sp.identity(5, dtype=complex), 2.0)])
    # a factored term is one dense factor per mode, never a 6 x 6 matrix
    TimeDependentOperator(spc, [Term(factors=(np.eye(3), np.eye(2)))])


def test_rotated_free_evolution_is_identity_frame():
    # rotating a's own free Hamiltonian away: b picks up exp(-i nu t)
    spc = make_space((6,))
    nu = 2.5
    b = destroy(spc, 0)
    h = TimeDependentOperator(spc, b.terms, [nu])
    assert len(h.terms) == 1
    assert h.freqs == (nu,) and h.terms[0].omega == 0.0
    assert h.max_frequency == nu
    assert TimeDependentOperator(spc, b.terms, [0.0]).freqs is None  # an all-zero frame is none
    psi = fock_state(spc, (3,))
    out = h.matrix(1.1) @ psi.amplitudes
    assert np.allclose(out, np.exp(-1j * nu * 1.1) * (b.mat @ psi.amplitudes))


def test_factored_term_matches_its_product():
    # a three-mode Kronecker term, rotated, against the same operator
    # multiplied out as a sparse term in the same frame
    spc = make_space((3, 4, 2))
    rng = np.random.default_rng(3)
    factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in spc.dims]
    env = lambda t: np.cos(0.3 * t)
    freqs = (1.0, 2.5, 0.7)
    fac = TimeDependentOperator(spc, [Term(factors=factors, omega=1.5, envelope=env)])
    band = TimeDependentOperator(
        spc, [Term(sp.csr_matrix(functools.reduce(np.kron, factors)), 1.5, env)])
    assert abs(fac.terms[0].matrix - band.terms[0].matrix).max() == 0.0
    fac, band = (TimeDependentOperator(spc, op.terms, freqs) for op in (fac, band))
    assert len(fac.terms) == 1
    assert np.isclose(fac.max_frequency, band.max_frequency)
    block = rng.normal(size=(spc.dim, 3)) + 1j * rng.normal(size=(spc.dim, 3))
    for t in (0.0, 0.4, -1.3):
        m = band.matrix(t)
        assert np.allclose(fac.matrix(t).toarray(), m.toarray(), atol=1e-12)
        assert np.allclose(fac.apply(t, block[:, 0]), m @ block[:, 0], atol=1e-12)
        # a block of columns, as the master equation applies it
        assert np.allclose(fac.apply(t, block), m @ block, atol=1e-12)


def test_apply_mixes_sparse_and_factored_terms():
    # sparse and factored terms share the operator's one frame phase, with
    # or without a frame, on vectors and on blocks
    spc = make_space((3, 4))
    rng = np.random.default_rng(4)
    rand = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    unframed = TimeDependentOperator(spc, [
        Term(sp.csr_matrix(rand(12, 12)), 0.5, np.cos),
        Term(factors=(rand(3, 3), rand(4, 4)), omega=-1.0),
        Term(sp.csr_matrix(rand(12, 12)), 1.5),
    ])
    block = rand(12, 2)
    for h in (unframed, TimeDependentOperator(spc, unframed.terms, (2.0, 0.3))):
        assert len(h.terms) == 3
        for t in (0.0, 0.8, -2.6):
            m = h.matrix(t)
            assert np.allclose(h.apply(t, block[:, 1]), m @ block[:, 1], atol=1e-12)
            assert np.allclose(h.apply(t, block), m @ block, atol=1e-12)


def test_diagonal_unframed_term_joins_a_frame():
    # fig4's H_eff: the rotated site plus the decay -i kappa a†a, which
    # commutes with the frame phase, so evolve_master puts it in h's frame
    from motlight.hamiltonians import AtomCavityParams, build_atom_cavity

    spc = make_space((30, 5))
    p = AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1, g0_sq_over_det=0.2,
                         kappa=1.0, g0_EA_over_det=1.0)
    h = build_atom_cavity(p, spc)
    a = destroy(spc, 1).mat
    decay = TimeDependentOperator(spc, [Term(-1j * (a.getH() @ a))])
    h_eff = TimeDependentOperator(spc, h.terms + decay.terms, h.freqs)
    compiled = h_eff.compiled()
    assert compiled._levels is not None  # the frame's phase
    assert len(compiled.omegas) == 1  # the decay merged into the static term
    rng = np.random.default_rng(5)
    block = rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150))
    for t in np.linspace(0.0, 1.0, 5):
        separate = h.apply(t, block) + decay.apply(t, block)
        joined = h_eff.apply(t, block)
        assert np.abs(joined - separate).max() <= 1e-13 * np.abs(separate).max()


def _offset_drive(size):
    """A factored identity with one entry of `size` two quanta up on mode 0
    (Bohr frequency 2 * 5), and the same operator multiplied out, both rotated."""
    spc = make_space((3, 3))
    u = np.eye(3, dtype=complex)
    u[2, 0] = size
    factored = TimeDependentOperator(spc, [Term(factors=(u, np.eye(3)))], (5.0, 1.0))
    band = TimeDependentOperator(spc, [Term(sp.csr_matrix(np.kron(u, np.eye(3))))], (5.0, 1.0))
    return factored, band


def test_pruned_factored_term_keeps_its_entries():
    h, band = _offset_drive(1e-12)
    # the offset lies below the floor in either form, pruned or not
    assert h.max_frequency == band.max_frequency == 0.0
    assert h.terms[0].max_frequency(h.space, h.freqs) == 10.0  # with no floor
    assert all(op.max_frequency == 10.0 for op in _offset_drive(1e-9))
    # pruned passes a factored term through and drops the sparse element
    g = h.pruned(1e-10)
    assert g.terms == h.terms
    v = np.arange(9, dtype=complex)
    for t in (0.0, 0.7):
        assert np.array_equal(g.apply(t, v), h.apply(t, v))
    assert band.terms[0].matrix.nnz == 12 and band.pruned(1e-10).terms[0].matrix.nnz == 9


def test_term_needs_matrix_or_factors():
    with pytest.raises(ValueError):
        Term()
    with pytest.raises(ValueError):
        Term(sp.identity(2), factors=(np.eye(2),))


def _parity_keeping_operator():
    """A framed two-mode operator that keeps the parity of n0 + n1: b0† b1 + b0 b1 and n0^2."""
    spc = make_space((5, 4))
    b0, b1, n0 = destroy(spc, 0).mat, destroy(spc, 1).mat, number(spc, 0).mat
    pair = (b0.getH() @ b1 + b0 @ b1).tocsr()
    h = TimeDependentOperator(spc, [Term(pair + pair.getH(), envelope=lambda t: 1.0 + t),
                                    Term(0.3j * (n0 @ n0), omega=2.0)], (1.7, 0.4))
    return spc, h


def test_restricted_apply_is_the_whole_space_apply_bitwise():
    # on either parity sector, for a vector and a block, at several times
    spc, h = _parity_keeping_operator()
    rng = np.random.default_rng(3)
    psi = rng.normal(size=spc.dim) + 1j * rng.normal(size=spc.dim)
    sectors = excitation_blocks([h], psi != 0)
    assert list(sectors) == ["even", "odd"]
    assert sum(map(len, sectors.values())) == spc.dim
    for keep in sectors.values():
        part = h.restricted(keep)
        for y in (psi, np.stack([psi, 2j * psi], axis=1)):
            inside = np.zeros_like(y)
            inside[keep] = y[keep]
            for t in (0.0, 0.37, -5.1, 123.4):
                assert np.array_equal(part.apply(t, y[keep]), h.apply(t, inside)[keep])
    assert excitation_blocks([h], fock_state(spc, (2, 1)).amplitudes != 0).keys() == {"odd"}


def test_a_block_of_columns_is_its_lone_columns_bitwise():
    # mcwf_ensemble steps its trajectories as one block, split across
    # processes, so each column of a block apply must be that column's apply
    spc, h = _parity_keeping_operator()
    b1 = destroy(spc, 1).mat
    h = TimeDependentOperator(spc, h.terms[:1] + [
        Term(h.terms[1].matrix, omega=2.0, envelope=np.cos),
        Term(0.7 * (b1.getH() @ b1))], h.freqs)  # two envelopes and a static term
    assert len(h.terms) == 3 and h.freqs is not None
    even = np.flatnonzero(spc.excitations() % 2 == 0)
    rng = np.random.default_rng(6)
    for apply, n in ((h.apply, spc.dim), (h.restricted(even).apply, even.size)):
        block = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        for t in (0.0, 0.37, -5.1):
            out = apply(t, block)
            for j in range(block.shape[1]):
                assert np.array_equal(out[:, j], apply(t, block[:, j]))


def test_threads_sharing_an_apply_each_get_their_own_times_values():
    # the compiled apply keeps the input weights and the phase of its last two
    # times; threads applying it at interleaved times, switched as often as
    # the interpreter allows, each get bitwise a fresh operator's result
    spc, h = _parity_keeping_operator()
    rng = np.random.default_rng(4)
    y = rng.normal(size=spc.dim) + 1j * rng.normal(size=spc.dim)
    times = [0.0, 0.37, -5.1, 123.4, 2.5]
    expected = {t: TimeDependentOperator(spc, h.terms, h.freqs).apply(t, y) for t in times}
    shared, wrong, start = h.compiled(), [], threading.Barrier(4)

    def worker(seed):
        start.wait(timeout=60)
        for t in np.random.default_rng(seed).choice(times, 1000):
            if not np.array_equal(shared.apply(t, y), expected[t]):
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_restriction_refusals():
    spc, h = _parity_keeping_operator()
    # X = b + b† flips the parity: the operator has no sectors
    joined = TimeDependentOperator(spc, h.terms + [Term(position_quadrature(spc, 0).mat)], h.freqs)
    assert excitation_blocks([joined], np.ones(spc.dim, dtype=bool)) == {}
    with pytest.raises(ValueError, match="increasing"):
        h.restricted([3, 1])
    factored = TimeDependentOperator(spc, [Term(factors=[np.eye(5), np.eye(4)])])
    assert excitation_blocks([factored], np.ones(spc.dim, dtype=bool)) == {}
    with pytest.raises(ValueError, match="factored"):
        factored.restricted([0, 2])


def test_excitation_cap_and_bound():
    spc, h = _parity_keeping_operator()
    total = spc.excitations()
    # a capped sector holds its states up to the cap, and the state may not exceed it
    occupied = fock_state(spc, (2, 1)).amplitudes != 0
    (keep,) = excitation_blocks([h], occupied, excitation_cap=4).values()
    assert np.array_equal(keep, np.flatnonzero((total <= 4) & (total % 2 == 1)))
    with pytest.raises(ValueError, match="above the excitation cap 2"):
        excitation_blocks([h], occupied, excitation_cap=2)
    # b0† b1 + b0 b1 + h.c. raises n0 + n1 (b0† b1†): its odd sector is not bounded;
    # the hop and a lowering pair do not, so theirs ends at the input's n0 + n1 = 3
    (keep,) = excitation_blocks([h], occupied).values()
    assert np.array_equal(keep, np.flatnonzero(total % 2 == 1))
    b0, b1 = destroy(spc, 0).mat, destroy(spc, 1).mat
    hop = (b0.getH() @ b1).tocsr()
    lowering = TimeDependentOperator(spc, [Term(hop + hop.getH()), Term(-1j * (b0 @ b1))],
                                     (1.7, 0.4))
    (keep,) = excitation_blocks([lowering], occupied).values()
    assert np.array_equal(keep, np.flatnonzero((total <= 3) & (total % 2 == 1)))
    factored = TimeDependentOperator(spc, [Term(factors=[np.eye(5), np.eye(4)])])
    assert excitation_blocks([lowering, factored], occupied) == {}


def test_excitation_blocks_rule():
    # (case, ops, the occupied states, cap, {block: its states} or the ValueError message)
    spc, h = _parity_keeping_operator()
    total = spc.excitations()
    b0, b1 = destroy(spc, 0).mat, destroy(spc, 1).mat
    op = lambda m: TimeDependentOperator(spc, [Term(m)])  # noqa: E731
    hop = op(b0.getH() @ b1 + b1.getH() @ b0)
    lower, x0 = op(b0), op(position_quadrature(spc, 0).mat)
    factored = TimeDependentOperator(spc, [Term(factors=[np.eye(5), np.eye(4)])])
    odd, even = total % 2 == 1, total % 2 == 0
    cases = [
        # every change even: each occupied parity alone
        ("parity", [h], [(2, 1)], None, {"odd": odd}),
        ("both parities", [h], [(2, 1), (1, 1)], None, {"even": even, "odd": odd}),
        # no change raises sum_j n_j: exact, up to the input's top shell
        ("bound and parity", [hop], [(1, 0)], None, {"odd": odd & (total <= 1)}),
        ("bound", [hop, lower], [(2, 0), (0, 1)], None, {"both": total <= 2}),
        # the cap: inexact, and an input above it is refused
        ("cap and parity", [h], [(2, 1)], 5, {"odd": odd & (total <= 5)}),
        ("cap", [h, x0], [(0, 0)], 3, {"both": total <= 3}),
        ("above the cap", [h], [(2, 1)], 2, "above the excitation cap 2"),
        ("factored and a cap", [h, factored], [(2, 1)], 3, "factored term cannot be capped"),
        # the whole space: a factored term, or one block of every state
        ("factored", [h, factored], [(2, 1)], None, {}),
        ("whole space", [h, x0], [(1, 0)], None, {}),
        ("bound at the top", [hop, lower], [(4, 3)], None, {}),
    ]
    for name, ops, states, cap, expected in cases:
        occupied = np.zeros(spc.dim, dtype=bool)
        occupied[[spc.flat_index(s) for s in states]] = True
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                excitation_blocks(ops, occupied, cap)
            continue
        blocks = excitation_blocks(ops, occupied, cap)
        assert list(blocks) == list(expected), name
        for block, mask in expected.items():
            assert np.array_equal(blocks[block], np.flatnonzero(mask)), name


def _built_the_old_way(space, terms, freqs):
    """The operator as it was made before the constructor merged: built without
    a frame, then given the frame's frequencies and merged, each sparse group's
    first matrix copied and each later one added."""
    merged, position = [], {}
    for t in terms:
        key = (id(t.envelope), t.omega)
        if t.factors is not None:
            merged.append(t)
        elif key in position:
            k = position[key]
            merged[k] = Term(merged[k].matrix + t.matrix, t.omega, t.envelope)
        else:
            position[key] = len(merged)
            merged.append(Term(t.matrix.copy(), t.omega, t.envelope))
    ref = TimeDependentOperator(space, merged, freqs)
    assert ref.terms == merged  # no two of them merge again
    return ref


def _assert_same_csr(a, b):
    for attr in ("shape", "indptr", "indices", "data"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


def _bench_operators(monkeypatch):
    """(operator, the terms and frame its constructor was given, times) of the
    bench's table2 row (18x4x4x18, eta 0.1, nu 10, drive 8, +-4/Gamma) and
    fig4's site and H_eff (30x5, eta 0.1)."""
    from motlight import hamiltonians
    from motlight.hamiltonians import AtomCavityParams, build_atom_cavity, build_cascaded_effective
    from motlight.pulses import PulseSchedule

    given = []

    def recorded(space, terms, freqs=None):
        given.append((list(terms), freqs))
        return TimeDependentOperator(space, terms, freqs)

    monkeypatch.setattr(hamiltonians, "TimeDependentOperator", recorded)
    site = AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1, g0_sq_over_det=0.2, kappa=1.0)
    pulses = PulseSchedule.pair((0.1 * 8.0) ** 2, halfwidth=4.0)
    table2, _ = build_cascaded_effective(site, pulses, make_space((18, 4, 4, 18)))
    window = (pulses[0].t_start, -0.7, 0.0, 2.3, pulses[0].t_end)
    fig4_space = make_space((30, 5))
    fig4 = build_atom_cavity(AtomCavityParams(nu_x=10.0, delta_cA=10.0, eta_x=0.1,
                                              g0_sq_over_det=0.2, kappa=1.0, g0_EA_over_det=1.0),
                             fig4_space)
    (table2_terms, table2_freqs), (fig4_terms, fig4_freqs) = given
    a = destroy(fig4_space, 1).mat
    decay = [Term(-1j * (a.getH() @ a))]
    fig4_eff = TimeDependentOperator(fig4_space, fig4.terms + decay, fig4.freqs)
    fig4_times = (0.0, 0.3, 1.0)
    return [(table2, table2_terms, table2_freqs, window),
            (fig4, fig4_terms, fig4_freqs, fig4_times),
            (fig4_eff, fig4_terms + decay, fig4_freqs, fig4_times)]


def test_constructor_is_the_old_build_then_merge_bitwise(monkeypatch):
    # the terms, the whole-space apply and, on the table2 row's even sector,
    # the restricted apply, on vectors and blocks, against the old path
    rng = np.random.default_rng(13)
    for h, terms, freqs, times in _bench_operators(monkeypatch):
        ref = _built_the_old_way(h.space, terms, freqs)
        assert h.freqs == ref.freqs and len(h.terms) == len(ref.terms)
        for got, want in zip(h.terms, ref.terms):
            assert (got.omega, got.envelope) == (want.omega, want.envelope)
            _assert_same_csr(got.matrix, want.matrix)
        dim = h.space.dim
        applies = [(h.apply, ref.apply, dim)]
        if h.space.nmodes == 4:
            even = np.flatnonzero(h.space.excitations() % 2 == 0)
            applies.append((h.restricted(even).apply, ref.restricted(even).apply, even.size))
        for got, want, n in applies:
            block = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            for t in times:
                assert np.array_equal(got(t, block[:, 0]), want(t, block[:, 0]))
                assert np.array_equal(got(t, block), want(t, block))
