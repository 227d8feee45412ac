import numpy as np
import pytest

from hadforge import catalog, mub
from hadforge.matrices import ExponentMatrix, is_unitary, to_complex
from hadforge.mub import (
    IdentityBasis,
    NotPrimeError,
    complete_mub_set,
    fourier,
    is_mu_pair,
    standard_diagonal,
    triangular_diagonal,
)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_complete_set_has_q_plus_one_members(q):
    s = complete_mub_set(q)
    assert len(s.bases) == q + 1
    assert s.labels[0] == "I" and s.labels[1] == "F"
    assert isinstance(s[("I")], IdentityBasis)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_all_pairs_mutually_unbiased(q):
    s = complete_mub_set(q)
    for i, a in enumerate(s.bases):
        for b in s.bases[i + 1:]:
            assert is_mu_pair(a, b)


def test_identity_pair_is_not_mu():
    assert not is_mu_pair(IdentityBasis(3), IdentityBasis(3))


def test_mu_pair_float_cross_check():
    # |<k_i, l_j>|^2 = 1/q for every Hadamard pair in the set
    s = complete_mub_set(5)
    mats = [to_complex(b).entries for _, b in s.hadamard_members()]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            g = np.abs(mats[i].conj().T @ mats[j]) ** 2
            assert np.max(np.abs(g - 1 / 5)) < 1e-12


def test_fixed_diagonals_for_small_primes():
    assert standard_diagonal(3) == (0, 1, 1)
    assert standard_diagonal(5) == (0, 1, 4, 4, 1)
    assert standard_diagonal(7) == (0, 0, 1, 3, 6, 3, 1)


def test_triangular_rule():
    assert triangular_diagonal(5) == (0, 0, 1, 3, 1)
    assert triangular_diagonal(7) == standard_diagonal(7)
    with pytest.raises(NotPrimeError):
        triangular_diagonal(2)


def test_triangular_variant_still_verifies_for_q5():
    s = complete_mub_set(5, diagonal="triangular")
    assert len(s.bases) == 6


def test_q2_third_basis_is_diag_1_i_times_f2():
    s = complete_mub_set(2)
    assert s["H1"] == ExponentMatrix(2, 4, ((0, 0), (1, 3)))


def test_fanned_bases_are_unitary():
    s = complete_mub_set(7)
    for _, b in s.hadamard_members():
        assert is_unitary(b)


def test_composite_dimension_rejected():
    with pytest.raises(NotPrimeError):
        complete_mub_set(6)


def test_unknown_label_raises():
    with pytest.raises(KeyError):
        complete_mub_set(3)["H9"]


def test_to_json_shape():
    obj = complete_mub_set(3).to_json()
    assert obj["q"] == 3
    assert [b["label"] for b in obj["bases"]] == ["I", "F", "H1", "H2"]
    assert obj["bases"][0]["matrix"] is None


def test_fourier_exponents():
    assert fourier(3) == ExponentMatrix(3, 3, ((0, 0, 0), (0, 1, 2), (0, 2, 1)))


@pytest.mark.parametrize("q,differ", [(3, True), (5, True), (7, False), (11, False), (13, False)])
def test_triangular_set_differs_only_at_3_and_5(q, differ):
    standard, triangular = complete_mub_set(q), complete_mub_set(q, "triangular")
    assert (standard_diagonal(q) != triangular_diagonal(q)) == differ
    assert (standard.bases != triangular.bases) == differ
    assert standard.labels == triangular.labels


def test_sets_are_built_once_per_q_and_diagonal():
    assert complete_mub_set(7) is complete_mub_set(7)
    assert complete_mub_set(5, "triangular") is complete_mub_set(5, "triangular")
    assert complete_mub_set(5, "triangular") is not complete_mub_set(5)


def test_catalog_builds_verify_their_set_once(monkeypatch):
    verified = []
    verify = mub._verify_set
    monkeypatch.setattr(mub, "_SETS", {})
    monkeypatch.setattr(mub, "_verify_set", lambda s: (verified.append(s.q), verify(s))[1])
    assert catalog.build("S91") == catalog.build("S91")
    assert verified == [13]


# ----------------------------------------------------------------------
# the set's verification: the form H_j = D^j F and q - 1 pairs
# ----------------------------------------------------------------------

def changed(s, label, cell, by):
    """s with the exponent of one entry of basis `label` moved by `by`."""
    i = s.labels.index(label)
    B = s.bases[i]
    E = B.exp.copy()
    E[cell] += by
    return mub.MubSet(s.q, s.labels, s.bases[:i] + (ExponentMatrix(B.d, B.r, E),) + s.bases[i + 1:])


def fanned(q, diag):
    """{I, F, D^j F} for the diagonal exponents diag at root q."""
    bases = (IdentityBasis(q), fourier(q)) + tuple(mub._fanned_basis(q, j, diag) for j in range(1, q))
    return mub.MubSet(q, ("I", "F") + tuple(f"H{j}" for j in range(1, q)), bases)


def verifies(s):
    try:
        mub._verify_set(s)
    except mub.MubConstructionError:
        return False
    return True


def every_pair_verifies(s):
    """The check the form replaces: every basis unitary, every pair MU."""
    return all(is_unitary(b) for _, b in s.hadamard_members()) and all(
        is_mu_pair(a, b) for i, a in enumerate(s.bases) for b in s.bases[i + 1:]
    )


@pytest.mark.parametrize("q", [5, 7, 11])
def test_one_changed_entry_in_h3_is_rejected(q):
    s = complete_mub_set(q)
    assert verifies(s)
    with pytest.raises(mub.MubConstructionError):
        mub._verify_set(changed(s, "H3", (2, 1), 1))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_form_check_agrees_with_every_pair(q):
    rng = np.random.default_rng(q)
    sets = [complete_mub_set(q)]
    if q > 2:
        sets.append(complete_mub_set(q, "triangular"))
        # fanned sets whose diagonal is not quadratic: the form holds, and
        # the q - 1 pairs with F decide as all pairs do
        sets += [fanned(q, tuple(rng.integers(0, q, q).tolist())) for _ in range(3)]
    base = sets[0]
    for label in base.labels[1:]:
        cell = tuple(rng.integers(0, q, 2).tolist())
        sets.append(changed(base, label, cell, int(rng.integers(1, base[label].r))))
    verdicts = [(verifies(s), every_pair_verifies(s)) for s in sets]
    assert all(a == b for a, b in verdicts), verdicts
    assert verdicts[0] == (True, True)
    assert all(v == (False, False) for v in verdicts[len(sets) - q :])


@pytest.mark.parametrize("q", [5, 7])
def test_a_complete_set_not_of_the_form_is_rejected(q):
    """Every pair of these sets is MU, but H_j = D^j F fails, on which the
    q - 1 pair tests rest: H_2 and H_3 swapped, or one column of H_3 times
    a root of unity."""
    s = complete_mub_set(q)
    i, j = s.labels.index("H2"), s.labels.index("H3")
    swapped = list(s.bases)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    E = s["H3"].exp.copy()
    E[:, 1] += 1
    column = list(s.bases)
    column[j] = ExponentMatrix(q, q, E)
    for bases in (swapped, column):
        t = mub.MubSet(q, s.labels, tuple(bases))
        assert every_pair_verifies(t)
        with pytest.raises(mub.MubConstructionError):
            mub._verify_set(t)


@pytest.mark.parametrize("q", [5, 7])
def test_a_complete_set_on_a_permuted_fourier_matrix_is_rejected(q):
    """Every pair of this set is MU and H_j = D^j F' holds, but F' is F with
    two rows swapped, not the Fourier grid on which the circulant argument
    of the q - 1 tested rows rests."""
    s = complete_mub_set(q)
    rows = list(range(q))
    rows[1], rows[2] = rows[2], rows[1]
    bases = [s.bases[0]] + [ExponentMatrix(q, b.r, b.exp[rows]) for b in s.bases[1:]]
    t = mub.MubSet(q, s.labels, tuple(bases))
    assert every_pair_verifies(t)
    with pytest.raises(mub.MubConstructionError, match="Fourier"):
        mub._verify_set(t)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_sliced_modulus_check_matches_the_one_shot_check(q, monkeypatch):
    """The inner-product rows of every pair of the set and of a planted
    biased basis (the last one with one entry moved), tested in slices of
    one row and of two, against all rows in one piece."""
    s = complete_mub_set(q)
    biased = changed(s, s.labels[-1], (1, 1), 1)
    members = [b for _, b in s.hadamard_members()] + [biased.bases[-1]]
    R = np.lcm.reduce([b.r for b in members])
    E = [b.rescaled(R).exp for b in members]
    z = np.concatenate([
        (B[:, None, :] - A[:, :, None]).transpose(1, 2, 0).reshape(q * q, q)
        for i, A in enumerate(E)
        for B in E[i + 1:]
    ])
    monkeypatch.setattr(mub, "_PAIR_TERMS", 10**9)
    whole = mub._modulus_is_sqrt_q(z, R)
    verdicts = (verifies(s), verifies(biased), is_mu_pair(members[1], members[-1]))
    assert whole.any() and not whole.all()
    assert verdicts == (True, False, False)
    for bound in (1, 3 * q * (q - 1) - 1):
        monkeypatch.setattr(mub, "_PAIR_TERMS", bound)
        assert np.array_equal(mub._modulus_is_sqrt_q(z, R), whole)
        assert (verifies(s), verifies(biased), is_mu_pair(members[1], members[-1])) == verdicts
