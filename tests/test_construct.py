import cmath
import json
import random
from math import lcm, sqrt

import numpy as np
import pytest

from hadforge import catalog, construct
from hadforge.analyze import assignment_search
from hadforge.construct import (
    BlockAssignment,
    MonomializationError,
    MUPreconditionError,
    exact_product_equals,
    theorem1_build,
    trivial_family,
)
from hadforge.cyclotomic import sums_vanish, vanishes
from hadforge.matrices import (
    ComplexMatrix,
    ExponentMatrix,
    add_mod,
    butson_min_root,
    dephase,
    is_unitary,
    to_complex,
)
from hadforge.mub import IdentityBasis, complete_mub_set, fourier


def asn(p, q, K, L):
    return BlockAssignment.from_labels(p, q, K, L)


def test_sqrt_exponents_square_to_q():
    for q in (2, 3, 5, 7, 11, 13):
        e = construct._sqrt_exponents(q)
        # the q^2 products of two terms, and -q as q terms omega^(2q) = -1
        square = (e[:, None] + e).ravel()
        assert sums_vanish(1, 0, np.append(square, [2 * q] * q), 4 * q).all()
        assert not sums_vanish(1, 0, np.append(square, [2 * q] * (q - 1)), 4 * q).any()
        assert abs(np.exp(2j * np.pi * e / (4 * q)).sum() - q**0.5) < 1e-9


class TestBlockAssignment:
    def test_from_labels_roundtrip(self):
        a = asn(3, 5, ("I", "H1", "H2"), ("F", "H3", "H4"))
        assert BlockAssignment.from_json(a.to_json()).K_labels == a.K_labels
        assert a.d == 15

    def test_shared_hadamard_label_rejected(self):
        a = asn(2, 5, ("I", "H2"), ("F", "H2"))
        with pytest.raises(MUPreconditionError) as ei:
            a.validate()
        assert ei.value.pair == (1, 1)

    def test_shared_label_also_caught_without_labels(self):
        s = complete_mub_set(5)
        a = BlockAssignment(2, 5, (s["I"], s["H2"]), (s["F"], s["H2"]))
        with pytest.raises(MUPreconditionError):
            a.validate()

    def test_complex_basis_is_refused(self):
        s = complete_mub_set(3)
        for third in (to_complex(s["H1"]), ComplexMatrix(3, np.eye(3, dtype=complex))):
            with pytest.raises(TypeError):
                BlockAssignment(2, 3, (s["I"], third), (s["F"], s["H2"]))
            with pytest.raises(TypeError):
                BlockAssignment(2, 3, (s["I"], s["H2"]), (s["F"], third))


def reference_factors(a):
    """Reference: B1 (block-diagonal in the K's) and B2 (block (i, n) is
    omega_p^(in) L_n / sqrt(p)) as complex arrays, straight from the
    definition; B1^dagger B2 is the matrix the build claims."""
    p, q = a.p, a.q
    U = [np.eye(q) if isinstance(b, IdentityBasis) else to_complex(b).entries for b in (*a.K, *a.L)]
    B1 = np.zeros((a.d, a.d), dtype=complex)
    B2 = np.zeros((a.d, a.d), dtype=complex)
    for m in range(p):
        B1[m * q : (m + 1) * q, m * q : (m + 1) * q] = U[m]
        for n in range(p):
            phase = cmath.exp(2j * cmath.pi * m * n / p) / sqrt(p)
            B2[m * q : (m + 1) * q, n * q : (n + 1) * q] = phase * U[p + n]
    return B1, B2


class TestTheorem1Build:
    def test_exact_equals_float(self):
        a = asn(2, 5, ("I", "H1"), ("F", "H2"))
        He = theorem1_build(a)
        B1, B2 = reference_factors(a)
        assert isinstance(He, ExponentMatrix)
        assert np.max(np.abs(to_complex(He).entries - B1.conj().T @ B2)) < 1e-12

    def test_auto_picks_exact_for_label_input(self):
        H = theorem1_build(asn(2, 3, ("I", "H1"), ("F", "H2")))
        assert isinstance(H, ExponentMatrix)

    def test_unitary_across_orders(self):
        for p, q, K, L in [
            (2, 3, ("I", "H1"), ("F", "H2")),
            (3, 3, ("I", "I", "H1"), ("F", "F", "H2")),
            (2, 7, ("I", "H3"), ("F", "H5")),
        ]:
            assert is_unitary(theorem1_build(asn(p, q, K, L)))

    def test_product_certificate(self):
        a = asn(3, 3, ("I", "I", "H1"), ("F", "F", "H2"))
        H = theorem1_build(a)
        assert exact_product_equals(a, H)
        # and it really distinguishes: a different assignment's matrix fails
        other = theorem1_build(asn(3, 3, ("I", "I", "H2"), ("F", "F", "H1")))
        assert not exact_product_equals(a, other)


def test_factorization_reproduces_product():
    a = asn(2, 5, ("I", "H1"), ("F", "H3"))
    B1, B2 = reference_factors(a)
    H = to_complex(theorem1_build(a))
    assert np.max(np.abs(B1.conj().T @ B2 - H.entries)) < 1e-12
    for U in (B1, B2):
        assert np.max(np.abs(U.conj().T @ U - np.eye(10))) < 1e-12


def all_identity(p, q):
    return BlockAssignment(p, q, (IdentityBasis(q),) * p, (fourier(q),) * p)


def reference_trivial_family(p, q, params):
    """Reference: the family as a sum of (p-1)(q-1) direction matrices, each
    a unit phase on the in-block row k of block column n."""
    params = np.asarray(params, dtype=float).reshape(p - 1, q - 1)
    base = to_complex(theorem1_build(all_identity(p, q)))
    d = p * q
    R = np.zeros((d, d))
    for n in range(1, p):
        for k in range(1, q):
            Rm = np.zeros((d, d))
            Rm[np.ix_([i * q + k for i in range(p)], range(n * q, (n + 1) * q))] = 1.0
            R = R + params[n - 1, k - 1] * Rm
    return ComplexMatrix(d, base.entries * np.exp(1j * R))


class TestFamilies:
    def test_trivial_family_parameter_count(self):
        H = trivial_family(3, 5, np.linspace(0.1, 0.8, 8))
        assert H.d == 15 and is_unitary(H)
        with pytest.raises(ValueError):
            trivial_family(3, 5, np.zeros(9))

    def test_member_at_zero_is_base(self):
        m = trivial_family(2, 3, [[0.0, 0.0]])
        base = to_complex(theorem1_build(all_identity(2, 3)))
        assert np.array_equal(m.entries, base.entries)

    def test_members_stay_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            H = trivial_family(2, 5, rng.uniform(0, 2 * np.pi, size=4))
            assert is_unitary(H)

    def test_param_shape_checked(self):
        with pytest.raises(ValueError):
            trivial_family(2, 3, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "p,q", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (3, 5), (5, 3), (4, 7)]
    )
    def test_matches_reference_bit_for_bit(self, p, q):
        rng = np.random.default_rng(p * 100 + q)
        for scale in (0.0, 1.0, 2 * np.pi, 50.0):
            params = rng.uniform(-scale, scale, size=(p - 1, q - 1))
            got, ref = trivial_family(p, q, params), reference_trivial_family(p, q, params)
            assert got.entries.tobytes() == ref.entries.tobytes()


def test_dephased_build_matches_catalog_grid():
    from hadforge import catalog

    built = theorem1_build(asn(3, 3, ("I", "I", "H1"), ("F", "F", "H2")))
    reduced = butson_min_root(dephase(built)[0])[1]
    assert reduced == catalog.entry("S9").literal


# ----------------------------------------------------------------------
# the exact build and product certificate against the squaring references
# ----------------------------------------------------------------------

# sums of r-th roots of unity as length-r coefficient rows: the product is
# a cyclic convolution, and a root of order r is one of order m * r at the
# m-th multiple of its exponent

def cyclic_product(a, b):
    r = len(a)
    return np.append(np.convolve(a, b), 0).reshape(2, r).sum(axis=0)


def rescaled(a, r_new):
    out = np.zeros(r_new, dtype=np.int64)
    out[:: r_new // len(a)] = a
    return out


def reference_sqrt_as_cyclotomic(q):
    """Reference: the Gauss sum built one coefficient at a time, at root 4q."""
    if q == 1:
        return np.array([1, 0, 0, 0])
    if q == 2:
        z = np.zeros(8, dtype=np.int64)
        z[[1, 7]] = 1  # omega_8 + omega_8^7
        return z
    r = 4 * q
    g = np.zeros(r, dtype=np.int64)
    for k in range(q):
        g[(4 * (k * k)) % r] += 1
    if q % 4 == 1:
        return g
    return np.roll(g, 3 * q)  # times omega^(3q) = -i


def reference_monomialize(z, q, R):
    """Reference: e with z = sqrt(q) * omega_R^e, from z^2 = q omega^(2e)
    plus a float sign check; z is a coefficient row."""
    if R % len(z) != 0:
        raise ValueError("target root must be a multiple of the operand root")
    zc = (z * np.exp(2j * np.pi * np.arange(len(z)) / len(z))).sum()
    if abs(abs(zc) ** 2 - q) > 1e-6 * q:
        raise MonomializationError(f"|z|^2 = {abs(zc)**2:.6f} != {q}")
    e = round(cmath.phase(zc) * R / (2 * cmath.pi)) % R
    target = cmath.exp(2j * cmath.pi * e / R) * sqrt(q)
    if abs(zc - target) > 1e-6 * sqrt(q):
        raise MonomializationError("argument does not round to a root of unity")
    z2 = rescaled(cyclic_product(z, z), R)
    z2[(2 * e) % R] -= q
    if not vanishes([z2], R)[0]:
        raise MonomializationError("z^2 != q * omega^(2e): entry is not monomial")
    return e


def reference_block_exponents(Ki, Lj, q, R, cache):
    """Reference: block exponents, one `reference_monomialize` per new cell."""
    if isinstance(Ki, IdentityBasis):
        return Lj.rescaled(R).exp
    if isinstance(Lj, IdentityBasis):
        return -Ki.rescaled(R).exp.T % R
    rz = lcm(Ki.r, Lj.r)
    terms = (Lj.rescaled(rz).exp[:, None, :] - Ki.rescaled(rz).exp[:, :, None]) % rz
    out = []
    for cell in np.sort(terms.reshape(q, q * q), axis=0).T.tolist():
        key = (R, rz, tuple(cell))
        e = cache.get(key)
        if e is None:
            counts = np.bincount(cell, minlength=rz)
            e = cache[key] = reference_monomialize(counts, q, R)
        out.append(e)
    return np.array(out, dtype=np.int64).reshape(q, q)


def reference_exact_product_equals(a, H):
    """Reference: one `vanishes` call per block on dense coefficient rows."""
    p, q = a.p, a.q
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    R = lcm(p, 4 * q, H.r, *roots)
    E = H.rescaled(R).exp
    g = rescaled(reference_sqrt_as_cyclotomic(q), R)
    ks = np.arange(R)
    rootq = g[(ks[None, :] - ks[:, None]) % R]  # row e: sqrt(q) * omega^e
    cells = np.arange(q * q).reshape(q, q)
    for m, Km in enumerate(a.K):
        for n, Ln in enumerate(a.L):
            ph = (m * n) % p * (R // p)
            if isinstance(Km, IdentityBasis) and isinstance(Ln, IdentityBasis):
                acc = np.zeros((q, q, R), dtype=np.int64)
                acc[np.arange(q), np.arange(q), ph] = q
            elif isinstance(Km, IdentityBasis):
                acc = rootq[add_mod(ph, Ln.rescaled(R).exp, R)]
            elif isinstance(Ln, IdentityBasis):
                acc = rootq[(ph - Km.rescaled(R).exp.T) % R]
            else:
                Ke, Le = Km.rescaled(R).exp, Ln.rescaled(R).exp
                e = add_mod(ph, (Le[:, None, :] - Ke[:, :, None]) % R, R)
                acc = np.bincount((cells * R + e).ravel(), minlength=q * q * R)
            expect = rootq[E[m * q : (m + 1) * q, n * q : (n + 1) * q]]
            diff = acc.reshape(q * q, R) - expect.reshape(q * q, R)
            if not vanishes(diff, R).all():
                return False
    return True


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 11, 13])
def test_sqrt_exponents_match_reference(q):
    got = np.bincount(construct._sqrt_exponents(q), minlength=4 * q)
    assert np.array_equal(got, reference_sqrt_as_cyclotomic(q))


def build_root(a):
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    return lcm(a.p, 4 * a.q, *roots)


RECIPES = [n for n in catalog.names() if catalog.entry(n).recipe is not None]


@pytest.mark.parametrize("name", RECIPES)
def test_block_exponents_match_reference_on_catalog_recipes(name):
    a = catalog.assignment(name)
    R, cache, ref_cache = build_root(a), {}, {}
    for i, Ki in enumerate(a.K):
        for j, Lj in enumerate(a.L):
            got = construct._block_exponents(i, j, Ki, Lj, a.q, R, cache)
            ref = reference_block_exponents(Ki, Lj, a.q, R, ref_cache)
            assert got.dtype == np.int64 and np.array_equal(got, ref), (i, j)
    assert cache == ref_cache
    assert exact_product_equals(a, theorem1_build(a))


def negated_entry(H, rng):
    """H with one entry times -1 (exponent + r/2; r is even for every build)."""
    E = H.exp.copy()
    x, y = rng.randrange(H.d), rng.randrange(H.d)
    E[x, y] = (E[x, y] + H.r // 2) % H.r
    return ExponentMatrix(H.d, H.r, E)


def shifted_entry(H, rng):
    E = H.exp.copy()
    E[rng.randrange(H.d), rng.randrange(H.d)] += rng.randrange(1, H.r)
    return ExponentMatrix(H.d, H.r, E)


def random_assignment(rng, p, q, mub):
    k_pool = ["I"] + [f"H{j}" for j in range(1, q)]
    l_pool = ["F"] + [f"H{j}" for j in range(1, q)]
    while True:
        K = ("I",) + tuple(rng.choice(k_pool) for _ in range(p - 1))
        L = ("F",) + tuple(rng.choice(l_pool) for _ in range(p - 1))
        if not {x for x in K if x[0] == "H"} & set(L):
            return BlockAssignment.from_labels(p, q, K, L, mub=mub)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 5), (3, 5), (2, 7), (3, 7)])
def test_build_and_product_match_references_on_random_assignments(p, q):
    rng = random.Random(p * 100 + q)
    mub = complete_mub_set(q)
    cache, ref_cache = {}, {}
    for _ in range(8):
        a = random_assignment(rng, p, q, mub)
        H = theorem1_build(a, _cache=cache)
        R = build_root(a)
        ref = np.vstack([
            np.hstack([
                add_mod(reference_block_exponents(Ki, Lj, q, R, ref_cache), (i * j) % p * (R // p), R)
                for j, Lj in enumerate(a.L)
            ])
            for i, Ki in enumerate(a.K)
        ])
        assert H.r == R and np.array_equal(H.exp, ref)
        for G in (H, negated_entry(H, rng), shifted_entry(H, rng)):
            assert exact_product_equals(a, G) == reference_exact_product_equals(a, G)
        assert exact_product_equals(a, H)


@pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (5, 3), (2, 7), (3, 7)])
def test_search_builds_with_the_pair_cache_match_builds_block_by_block(p, q):
    # one cache for the whole search, as `assignment_search` keeps it,
    # against a grid whose blocks each come from a cache of their own
    cache = {}
    reps = assignment_search(p, q).representatives
    for a in reps:
        H = theorem1_build(a, _cache=cache)
        R = build_root(a)
        ref = np.vstack([
            np.hstack([
                add_mod(construct._block_exponents(i, j, Ki, Lj, q, R, {}), (i * j) % p * (R // p), R)
                for j, Lj in enumerate(a.L)
            ])
            for i, Ki in enumerate(a.K)
        ])
        assert H.r == R and np.array_equal(H.exp, ref)
    met = {(build_root(a), id(Ki), id(Lj)) for a in reps for Ki in a.K for Lj in a.L}
    blocks = [v for k, v in cache.items() if k[0] == "pair"]
    assert len(blocks) == len(met)  # each basis pair looked up once per root
    assert all(not block.flags.writeable for _, _, block in blocks)


def test_product_certificate_refuses_a_negated_entry():
    # a negated entry keeps its modulus and its square; only its sign is wrong
    rng = random.Random(7)
    for p, q, K, L in [
        (3, 3, ("I", "I", "H1"), ("F", "F", "H2")),
        (2, 5, ("I", "H1"), ("F", "H2")),
        (2, 2, ("I", "H1"), ("F", "F")),
    ]:
        a = asn(p, q, K, L)
        H = theorem1_build(a)
        for _ in range(5):
            G = negated_entry(H, rng)
            assert not exact_product_equals(a, G)
            assert not reference_exact_product_equals(a, G)


def test_product_certificate_with_identity_on_both_sides():
    # U1^dagger U2 over I on both sides is omega_p^(mn) q I per block; at
    # q = 1 that is F_p itself, for q = 3 no grid matches its zeros
    a = BlockAssignment(2, 1, (IdentityBasis(1),) * 2, (IdentityBasis(1),) * 2)
    F2 = ExponentMatrix(2, 4, [[0, 0], [0, 2]])
    assert exact_product_equals(a, F2) and reference_exact_product_equals(a, F2)
    G = ExponentMatrix(2, 4, [[0, 0], [0, 0]])
    assert not exact_product_equals(a, G) and not reference_exact_product_equals(a, G)
    s = complete_mub_set(3)
    a = BlockAssignment(1, 3, (s["I"],), (s["I"],))
    H = ExponentMatrix(3, 12, np.zeros((3, 3), dtype=np.int64))
    assert not exact_product_equals(a, H) and not reference_exact_product_equals(a, H)


def test_build_refuses_a_candidate_off_by_a_sign(monkeypatch):
    candidate = construct._candidate_exponents
    monkeypatch.setattr(
        construct, "_candidate_exponents", lambda z, rz, R: (candidate(z, rz, R) + R // 2) % R
    )
    with pytest.raises(MonomializationError):
        theorem1_build(asn(2, 5, ("I", "H1"), ("F", "H2")))


def test_build_refuses_a_non_monomial_entry():
    # H1^dagger H1 = 3 I: its entries are 3 and 0, not sqrt(3) times a root
    H1 = complete_mub_set(3)["H1"]
    with pytest.raises(MonomializationError):
        construct._block_exponents(1, 1, H1, H1, 3, 12, {})
