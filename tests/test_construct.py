import cmath
import json
import random
import warnings
from math import lcm, sqrt

import numpy as np
import pytest

from hadforge import catalog, construct
from hadforge.construct import (
    BlockAssignment,
    MonomializationError,
    MUPreconditionError,
    affine_member,
    dita_build,
    dita_parameter_count,
    exact_product_equals,
    factor_b1_b2,
    hosoya_suzuki_build,
    product_basis_view,
    sqrt_as_cyclotomic,
    theorem1_build,
    trivial_affine_family,
    trivial_family,
)
from hadforge.cyclotomic import CyclotomicInteger, vanishes
from hadforge.matrices import (
    ComplexMatrix,
    ExponentMatrix,
    add_mod,
    as_complex,
    butson_min_root,
    dephase,
    is_unitary,
    to_complex,
)
from hadforge.mub import IdentityBasis, complete_mub_set, fourier


def asn(p, q, K, L):
    return BlockAssignment.from_labels(p, q, K, L)


def test_sqrt_as_cyclotomic_squares_to_q():
    for q in (2, 3, 5, 7, 11, 13):
        z = sqrt_as_cyclotomic(q)
        sq = z * z
        assert (sq - CyclotomicInteger.from_integer(q, sq.r)).is_zero()
        assert abs(z.to_complex() - q**0.5) < 1e-9


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

    def test_non_mu_float_pair_rejected(self):
        eye = ComplexMatrix(3, np.eye(3, dtype=complex))
        a = BlockAssignment(2, 3, (complete_mub_set(3)["I"], eye),
                            (complete_mub_set(3)["F"], eye))
        with pytest.raises(MUPreconditionError):
            a.validate()


class TestTheorem1Build:
    def test_exact_equals_float(self):
        a = asn(2, 5, ("I", "H1"), ("F", "H2"))
        He = theorem1_build(a, mode="exact")
        Hf = theorem1_build(a, mode="float")
        assert isinstance(He, ExponentMatrix)
        assert np.max(np.abs(to_complex(He).entries - Hf.entries)) < 1e-12

    def test_auto_picks_exact_for_label_input(self):
        H = theorem1_build(asn(2, 3, ("I", "H1"), ("F", "H2")))
        assert isinstance(H, ExponentMatrix)

    def test_exact_mode_refuses_float_blocks(self):
        s = complete_mub_set(3)
        third = to_complex(s["H1"])
        a = BlockAssignment(2, 3, (s["I"], third), (s["F"], s["H2"]))
        with pytest.raises(ValueError):
            theorem1_build(a, mode="exact")

    def test_auto_degrades_with_warning(self):
        s = complete_mub_set(3)
        a = BlockAssignment(2, 3, (s["I"], to_complex(s["H1"])), (s["F"], s["H2"]))
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            H = theorem1_build(a)
        assert isinstance(H, ComplexMatrix)
        assert any("float" in str(x.message) for x in w)

    def test_unitary_across_orders(self):
        for p, q, K, L in [
            (2, 3, ("I", "H1"), ("F", "H2")),
            (3, 3, ("I", "I", "H1"), ("F", "F", "H2")),
            (2, 7, ("I", "H3"), ("F", "H5")),
        ]:
            assert is_unitary(theorem1_build(asn(p, q, K, L), mode="exact"))

    def test_product_certificate(self):
        a = asn(3, 3, ("I", "I", "H1"), ("F", "F", "H2"))
        H = theorem1_build(a, mode="exact")
        assert exact_product_equals(a, H)
        # and it really distinguishes: a different assignment's matrix fails
        other = theorem1_build(asn(3, 3, ("I", "I", "H2"), ("F", "F", "H1")), mode="exact")
        assert not exact_product_equals(a, other)


def test_factorization_reproduces_product():
    a = asn(2, 5, ("I", "H1"), ("F", "H3"))
    pair = factor_b1_b2(a)
    H = theorem1_build(a, mode="float")
    prod = pair.b1.entries.conj().T @ pair.b2.entries
    assert np.max(np.abs(prod - H.entries)) < 1e-12
    for U in (pair.b1.entries, pair.b2.entries):
        assert np.max(np.abs(U.conj().T @ U - np.eye(10))) < 1e-12


def test_product_basis_views_are_the_factor_columns():
    a = asn(2, 3, ("I", "H1"), ("F", "H2"))
    pair = factor_b1_b2(a)
    v1, v2 = product_basis_view(a)
    assert np.allclose(v1.assemble().entries, pair.b1.entries)
    assert np.allclose(v2.assemble().entries, pair.b2.entries)
    # cross-Gram is flat: the two product bases are themselves MU
    g = np.abs(v1.assemble().entries.conj().T @ v2.assemble().entries) ** 2
    assert np.max(np.abs(g - 1 / 6)) < 1e-12


class TestFamilies:
    def test_trivial_family_parameter_count(self):
        fam = trivial_affine_family(3, 5)
        assert fam.n_params == 8
        assert is_unitary(fam.base)

    def test_member_at_zero_is_base(self):
        fam = trivial_affine_family(2, 3)
        m = affine_member(fam, [0.0] * fam.n_params)
        base = as_complex(fam.base)
        assert np.allclose(m.entries, base.entries)

    def test_members_stay_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            H = trivial_family(2, 5, rng.uniform(0, 2 * np.pi, size=4))
            assert is_unitary(H)

    def test_param_shape_checked(self):
        with pytest.raises(ValueError):
            trivial_family(2, 3, [0.1, 0.2, 0.3])


class TestOtherConstructions:
    def test_dita_matches_trivial_at_zero(self):
        H = dita_build(fourier(2), [fourier(3), fourier(3)], np.zeros((1, 2)))
        G = H.entries
        assert np.max(np.abs(G @ G.conj().T - np.eye(6))) < 1e-12

    def test_dita_parameter_count(self):
        assert dita_parameter_count(2, 3) == 2
        assert dita_parameter_count(4, 2, m=1, n=(1, 0, 2, 0)) == 7

    def test_dita_with_phases_is_unitary(self):
        rng = np.random.default_rng(0)
        H = dita_build(
            fourier(2),
            [fourier(5), to_complex(fourier(5))],
            rng.uniform(0, 2 * np.pi, (1, 4)),
        )
        assert is_unitary(H)

    def test_hosoya_suzuki_block_form(self):
        F2, F3 = fourier(2), fourier(3)
        H = hosoya_suzuki_build([F2, F2, F2], [F3, F3])
        assert H.entries.shape == (6, 6)
        assert is_unitary(H)


def test_dephased_build_matches_catalog_grid():
    from hadforge import catalog

    built = theorem1_build(asn(3, 3, ("I", "I", "H1"), ("F", "F", "H2")), mode="exact")
    reduced = butson_min_root(dephase(built)[0])[1]
    assert reduced == catalog.entry("S9").literal


# ----------------------------------------------------------------------
# the exact build and product certificate against the squaring references
# ----------------------------------------------------------------------

def reference_sqrt_as_cyclotomic(q):
    """Reference: the Gauss sum built one coefficient at a time."""
    if q == 1:
        return CyclotomicInteger.one(4)
    if q == 2:
        z = CyclotomicInteger(8)
        z.coeffs[1] += 1
        z.coeffs[7] += 1
        return z
    r = 4 * q
    g = CyclotomicInteger(r)
    for k in range(q):
        g.coeffs[(4 * (k * k)) % r] += 1
    if q % 4 == 1:
        return g
    return g.shifted(3 * q)


def reference_monomialize(z, q, R):
    """Reference: e with z = sqrt(q) * omega_R^e, from z^2 = q omega^(2e)
    plus a float sign check."""
    if R % z.r != 0:
        raise ValueError("target root must be a multiple of the operand root")
    zc = z.to_complex()
    if abs(abs(zc) ** 2 - q) > 1e-6 * q:
        raise MonomializationError(f"|z|^2 = {abs(zc)**2:.6f} != {q}")
    e = round(cmath.phase(zc) * R / (2 * cmath.pi)) % R
    target = cmath.exp(2j * cmath.pi * e / R) * sqrt(q)
    if abs(zc - target) > 1e-6 * sqrt(q):
        raise MonomializationError("argument does not round to a root of unity")
    z2 = (z * z).rescaled(R) if z.r != R else z * z
    check = CyclotomicInteger(R)
    check.coeffs[(2 * e) % R] = q
    if not (z2 - check).is_zero():
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
            counts = np.bincount(cell, minlength=rz).tolist()
            e = cache[key] = reference_monomialize(CyclotomicInteger(rz, counts), q, R)
        out.append(e)
    return np.array(out, dtype=np.int64).reshape(q, q)


def reference_exact_product_equals(a, H):
    """Reference: one `vanishes` call per block on dense coefficient rows."""
    p, q = a.p, a.q
    roots = [b.r for b in (*a.K, *a.L) if isinstance(b, ExponentMatrix)]
    R = lcm(p, 4 * q, H.r, *roots)
    E = H.rescaled(R).exp
    g = np.array(reference_sqrt_as_cyclotomic(q).rescaled(R).coeffs)
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
def test_sqrt_as_cyclotomic_matches_reference(q):
    got, ref = sqrt_as_cyclotomic(q), reference_sqrt_as_cyclotomic(q)
    assert got.r == ref.r and got.coeffs == ref.coeffs
    assert all(type(c) is int for c in got.coeffs)


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
    assert exact_product_equals(a, theorem1_build(a, mode="exact"))


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
        H = theorem1_build(a, mode="exact", _cache=cache)
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


def test_product_certificate_refuses_a_negated_entry():
    # a negated entry keeps its modulus and its square; only its sign is wrong
    rng = random.Random(7)
    for p, q, K, L in [
        (3, 3, ("I", "I", "H1"), ("F", "F", "H2")),
        (2, 5, ("I", "H1"), ("F", "H2")),
        (2, 2, ("I", "H1"), ("F", "F")),
    ]:
        a = asn(p, q, K, L)
        H = theorem1_build(a, mode="exact")
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
        theorem1_build(asn(2, 5, ("I", "H1"), ("F", "H2")), mode="exact")


def test_build_refuses_a_non_monomial_entry():
    # H1^dagger H1 = 3 I: its entries are 3 and 0, not sqrt(3) times a root
    H1 = complete_mub_set(3)["H1"]
    with pytest.raises(MonomializationError):
        construct._block_exponents(1, 1, H1, H1, 3, 12, {})
