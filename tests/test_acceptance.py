"""End-to-end certification run for the whole package.

Nine headline checks, each printing one `criterion N (...): PASS/FAIL` line
(visible even under captured output), so a full run doubles as a transcript
of what was certified and how long it took.  Budgets are wall-clock seconds
on a single CPU; every numeric expectation here was frozen from an
independent computation before the implementation existed.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from hadforge import catalog
from hadforge.analyze import (
    assignment_search,
    defect,
    fingerprint,
    inequivalent_by_invariants,
)
from hadforge.construct import (
    BlockAssignment,
    exact_product_equals,
    theorem1_build,
    trivial_family,
)
from hadforge.matrices import (
    apply_equivalence,
    butson_min_root,
    dephase,
    equivalence_search_small,
    is_unitary,
    random_move,
    tensor,
)
from hadforge.mub import complete_mub_set, fourier, is_mu_pair, standard_diagonal


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(n, label):
        t0 = time.monotonic()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {n} ({label}): FAIL [{time.monotonic() - t0:.1f}s]")
            raise
        with capsys.disabled():
            print(f"criterion {n} ({label}): PASS [{time.monotonic() - t0:.1f}s]")

    return _criterion


def test_criterion_1_isolated_small_orders(criterion):
    with criterion(1, "small isolated entries: defect 0 exact, right roots"):
        for name, root in [
            ("S9", 6), ("S10", 5), ("S14", 7), ("S15", 30), ("B10", 5), ("B14", 7),
        ]:
            H = catalog.load(name)
            assert butson_min_root(H)[0] == root, name

            t0 = time.monotonic()
            assert defect(H, mode="float").defect == 0, name
            assert time.monotonic() - t0 < 10.0, f"{name}: float budget"

            t0 = time.monotonic()
            rep = defect(H, mode="exact")
            assert rep.defect == 0 and rep.mode == "exact", name
            assert time.monotonic() - t0 < 300.0, f"{name}: exact budget"


def test_criterion_2_unisolated_diagonal_variants(criterion):
    with criterion(2, "variant diagonals: exact defects 8 and 12"):
        for name, expected in [("Sp10", 8), ("Sp14", 12)]:
            t0 = time.monotonic()
            rep = defect(catalog.load(name), mode="exact")
            elapsed = time.monotonic() - t0
            assert rep.defect == expected and rep.mode == "exact", name
            assert elapsed < 5.0, f"{name}: {elapsed:.1f}s"


def test_criterion_3_large_isolated_orders(criterion):
    with criterion(3, "orders 25..91: exact unitarity, defect 0"):
        for name in ["S25", "S35", "S49", "S77", "S91"]:
            H = catalog.load(name)
            assert is_unitary(H), name  # exact: exponent-form input

            t0 = time.monotonic()
            rep = defect(H, mode="exact")
            elapsed = time.monotonic() - t0
            assert rep.defect == 0 and rep.mode == "exact", name
            if name == "S91":
                assert elapsed < 600.0, f"S91 defect took {elapsed:.0f}s"


def _random_assignment(rng, p, q, mub):
    k_pool = ["I"] + [f"H{j}" for j in range(1, q)]
    l_pool = ["F"] + [f"H{j}" for j in range(1, q)]
    while True:
        K = ("I",) + tuple(rng.choice(k_pool) for _ in range(p - 1))
        L = ("F",) + tuple(rng.choice(l_pool) for _ in range(p - 1))
        shared = {x for x in K if x[0] == "H"} & {x for x in L if x[0] == "H"}
        if not shared:
            return BlockAssignment.from_labels(p, q, K, L, mub=mub)


def test_criterion_4_random_assignments_build_exactly(criterion):
    with criterion(4, "200 random assignments: unitary, product certified"):
        rng = random.Random(20260825)
        checked = 0
        for p, q in [(2, 3), (2, 5), (3, 5), (2, 7), (3, 7)]:
            mub = complete_mub_set(q)
            cache: dict = {}
            for _ in range(40):
                a = _random_assignment(rng, p, q, mub)
                H = theorem1_build(a, mode="exact", _cache=cache)
                assert is_unitary(H), a.to_json()
                assert exact_product_equals(a, H), a.to_json()
                checked += 1
        assert checked == 200


def test_criterion_5_complete_mub_sets(criterion):
    with criterion(5, "complete MU sets for q up to 13, fixed diagonals"):
        for q in [2, 3, 5, 7, 11, 13]:
            s = complete_mub_set(q)
            assert len(s.bases) == q + 1
            for a, b in itertools.combinations(s.bases, 2):
                assert is_mu_pair(a, b), q
        assert standard_diagonal(7) == (0, 0, 1, 3, 6, 3, 1)
        assert standard_diagonal(11) == (0, 0, 1, 3, 6, 10, 4, 10, 6, 3, 1)
        assert standard_diagonal(13) == (0, 0, 1, 3, 6, 10, 2, 8, 2, 10, 6, 3, 1)


def test_criterion_6_invariance_under_random_moves(criterion):
    with criterion(6, "invariants stable over 100 moves per entry"):
        rng = random.Random(6)
        for name in ["S6", "S9", "S10", "Sp10", "B10", "S14", "Sp14", "B14", "S15"]:
            e = catalog.entry(name)
            H = catalog.load(name)
            fp = fingerprint(H)
            for _ in range(100):
                moved = apply_equivalence(H, random_move(H.d, 2 * H.r, rng))
                assert fingerprint(moved) == fp, name
                # the move's own phases wash out only after dephasing
                assert butson_min_root(dephase(moved)[0])[0] == e.expected_root, name
                assert defect(moved, mode="float").defect == e.expected_defect, name


def test_criterion_7_trivial_family_and_witness(criterion):
    with criterion(7, "trivial 4x4 family: defect 1 members, product witness"):
        rng = random.Random(7)
        for _ in range(50):
            H = trivial_family(2, 2, [rng.uniform(0.0, 2.0 * 3.141592653589793)])
            assert is_unitary(H)
            assert defect(H, mode="float").defect == 1

        base = dephase(
            theorem1_build(
                BlockAssignment.from_labels(2, 2, ("I", "I"), ("F", "F")),
                mode="exact",
            )
        )[0]
        target = tensor(fourier(2), fourier(2))
        witness = equivalence_search_small(base, target)
        assert witness is not None
        assert apply_equivalence(base, witness) == target


def test_criterion_8_invariant_screening_verdicts(criterion):
    with criterion(8, "screening separates or abstains as expected"):
        S9, S15 = catalog.load("S9"), catalog.load("S15")
        F3 = fourier(3)
        inequivalent = [
            (S9, fourier(9)),
            (S9, tensor(F3, F3)),
            (S15, fourier(15)),
        ]
        for A, B in inequivalent:
            assert inequivalent_by_invariants(A, B) == "inequivalent"
        inconclusive = [
            (catalog.load("S10"), catalog.load("B10")),
            (catalog.load("S14"), catalog.load("B14")),
        ]
        for A, B in inconclusive:
            assert inequivalent_by_invariants(A, B) == "inconclusive"


def test_criterion_9_search_recovers_isolated_matrices(criterion):
    with criterion(9, "search finds the known isolated classes"):
        res33 = assignment_search(3, 3, budget=1000)
        assert fingerprint(catalog.load("S9")) in {
            f.fingerprint for f in res33.findings
        }

        t0 = time.monotonic()
        res37 = assignment_search(3, 7, budget=10_000, time_limit=1500.0)
        elapsed = time.monotonic() - t0
        assert len(res37.findings) >= 1
        assert elapsed < 1800.0, f"{elapsed:.0f}s"
