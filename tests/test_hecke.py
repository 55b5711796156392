import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspnorm import hecke
from cuspnorm.arith import divisors, squarefree_split
from cuspnorm.counting import in_delta_entries
from cuspnorm.cusps import cusp_denominator
from cuspnorm.cli import run
from cuspnorm.errors import BudgetExceeded, InvalidM, PrereqFailed
from cuspnorm.hecke import (
    conjugation_invariance,
    coset_count_invariance,
    coset_reps_delta,
    _row_block,
    _scalars,
    sl2_lift_from_row,
)
from cuspnorm.modgroup import Mat2, complete_first_column
from oracles import (
    _canonical_row,
    canonical_rows,
    conjugation_class_passes,
    coset_key,
    coset_walk_pairs,
    delta_member,
    hermite_matrices,
    hnf_decompose,
    mat2_conjugation_invariance,
    mat2_gamma0nm_word,
    rand_det_matrix,
    rand_sl2,
    same_coset,
)


def sigma1(l):
    return sum(a for a in range(1, l + 1) if l % a == 0)


def test_coset_reps_at_level_one_are_the_hermite_matrices():
    # Gamma0(1; 1) = SL2(Z), whose right cosets in the determinant-l
    # matrices are the Hermite matrices, in the table's order
    assert [g.entries() for g in hermite_matrices(2)] == [
        (1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1)
    ]
    for l in range(1, 31):
        reps = coset_reps_delta(l, 1, 1).reps
        assert reps == hermite_matrices(l), l
        assert len(reps) == sigma1(l), l


def test_row_blocks_match_canonical_row_oracle():
    """The blocks, concatenated over c, against the orbit minimum of every
    primitive row, for every N <= 120 and M | N; the scalars act freely on
    primitive rows."""
    for n in range(1, 121):
        n_primitive = sum(
            gcd(gcd(c, d), n) == 1 for c in range(n) for d in range(n)
        )
        for m in divisors(n):
            rows = [(c, d) for c in range(n) for d in _row_block(c, n, m)]
            assert rows == canonical_rows(n, m), (n, m)
            if n > 1:
                assert len(rows) * len(_scalars(n, m)) == n_primitive, (n, m)


def test_canonical_rows_oracle_is_canonical_row():
    for n in range(1, 41):
        primitive = [
            (c, d) for c in range(n) for d in range(n) if gcd(gcd(c, d), n) == 1
        ]
        for m in divisors(n):
            want = sorted({_canonical_row(c, d, n, m) for c, d in primitive})
            assert canonical_rows(n, m) == want, (n, m)


def test_hnf_decompose_roundtrip_and_uniqueness():
    rng = random.Random(41)
    for _ in range(1000):
        l = rng.randint(1, 30)
        g = rand_det_matrix(rng, l)
        u, h = hnf_decompose(g)
        assert u.is_sl2()
        assert (u * h).entries() == g.entries()
        assert h.c == 0 and h.a > 0 and h.d > 0 and 0 <= h.b < h.d
        assert h.a * h.d == l
    # no two HNF representatives are SL2-left-equivalent
    for l in (2, 4, 6):
        reps = hermite_matrices(l)
        for i, h1 in enumerate(reps):
            for h2 in reps[i + 1 :]:
                # h1 h2^-1 in SL2(Z) would mean equivalence
                prod = h1 * h2.adjugate()
                d = h2.det
                if all(e % d == 0 for e in prod.entries()):
                    q = Mat2(*(e // d for e in prod.entries()))
                    assert q.det != 1


def test_sl2_lift_from_row():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 60)
        c, d = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(c, d), n) != 1:
            continue
        ua, ub, uc, ud = sl2_lift_from_row(c, d, n)
        assert ua * ud - ub * uc == 1
        assert uc % n == c % n and ud % n == d % n


def test_sl2_lift_from_row_rejects_non_primitive_rows():
    # no u in SL2(Z) has a bottom row with gcd(c, d, N) > 1; the search for
    # a coprime d0 in d + N Z never ended on such a row
    with pytest.raises(ValueError, match="not primitive"):
        sl2_lift_from_row(2, 2, 4)
    for n in range(2, 31):
        for c in range(-n, n):
            for d in range(-n, n):
                if gcd(gcd(c, d), n) != 1:
                    with pytest.raises(ValueError):
                        sl2_lift_from_row(c, d, n)


def test_coset_walk_matches_the_all_rows_oracle():
    # every l <= 36, gcd(l, N) > 1 included, so rows with c != 0 pass too
    off_c_zero = 0
    for n in range(1, 61):
        for m in divisors(n):
            for l in range(1, 37):
                walk = hecke._coset_walk(l, n, m)
                assert all(ua * ud - ub * uc == 1 for (ua, ub, uc, ud), _a1 in walk)
                got = [((u[2] % n, u[3] % n), a1) for u, a1 in walk]
                assert got == coset_walk_pairs(l, n, m), (l, n, m)
                off_c_zero += any(c for (c, _d), _a1 in got)
    assert off_c_zero


def test_coset_examples():
    assert coset_reps_delta(1, 12, 2).count == 1
    assert coset_reps_delta(3, 4, 2).count == 4
    assert coset_reps_delta(4, 9, 3).count == 7
    with pytest.raises(InvalidM):
        coset_reps_delta(3, 4, 3)


def test_coset_reps_valid_and_inequivalent():
    cases = [(3, 4, 2), (4, 9, 3), (5, 6, 1), (2, 8, 2), (6, 5, 1)]
    for l, n, m in cases:
        table = coset_reps_delta(l, n, m)
        for g in table.reps:
            assert delta_member(g, l, n, m)
        # pairwise inequivalent under the direct group test
        for i, g1 in enumerate(table.reps):
            for g2 in table.reps[i + 1 :]:
                assert not same_coset(g1, g2, n, m)


def test_coset_reps_complete_on_bounded_box():
    # every small-entry member of Delta(l, N; M) is equivalent to exactly
    # one representative
    rng = random.Random(43)
    for l, n, m in [(2, 4, 2), (3, 4, 1), (4, 9, 3)]:
        table = coset_reps_delta(l, n, m)
        for _ in range(300):
            g = rand_sl2(rng, 4)
            # force membership: gamma = u * h with suitable congruences
            cand = None
            for h in hermite_matrices(l):
                trial = g * h
                if delta_member(trial, l, n, m):
                    cand = trial
                    break
            if cand is None:
                continue
            matches = [r for r in table.reps if same_coset(cand, r, n, m)]
            assert len(matches) == 1


def test_absorption():
    # Gamma0(N; M) * rep stays inside Delta(l, N; M)
    rng = random.Random(44)
    for l, n, m in [(3, 4, 2), (4, 9, 3), (6, 6, 1)]:
        table = coset_reps_delta(l, n, m)
        for _ in range(100):
            g = mat2_gamma0nm_word(n, m, rng)
            rep = table.reps[rng.randrange(table.count)]
            assert delta_member(g * rep, l, n, m)


def test_coset_count_sigma1_when_coprime():
    for n in (4, 9, 12, 25):
        n0 = squarefree_split(n)[1]
        for m in divisors(n0):
            for l in range(1, 13):
                if gcd(l, n) != 1:
                    continue
                assert coset_reps_delta(l, n, m).count == sigma1(l), (l, n, m)


def test_count_invariance_examples():
    assert coset_count_invariance(1, 7, 1).equal
    r = coset_count_invariance(3, 4, 2)
    assert (r.count_nm, r.count_n, r.equal) == (4, 4, True)
    r = coset_count_invariance(4, 9, 3)
    assert (r.count_nm, r.count_n, r.equal) == (7, 7, True)


def test_count_invariance_walks_once_at_m_one(monkeypatch):
    walked = []
    walk = hecke._coset_walk
    monkeypatch.setattr(hecke, "_coset_walk", lambda *a: walked.append(a) or walk(*a))
    r = coset_count_invariance(7, 10, 1)
    assert (r.count_nm, r.count_n, walked) == (8, 8, [(7, 10, 1)])
    walked.clear()
    assert coset_count_invariance(4, 9, 3).equal and walked == [(4, 9, 3), (4, 9, 1)]


def test_count_invariance_can_fail_off_the_good_range():
    # with gcd(l, N) > 1 and l != 1 (mod M) the family genuinely shrinks,
    # so the count comparison reports inequality rather than masking it
    r = coset_count_invariance(2, 4, 2)
    assert (r.count_nm, r.count_n, r.equal) == (2, 4, False)
    # but l == 1 (mod M) keeps equality even for l sharing factors with N
    assert coset_count_invariance(9, 4, 2).equal
    assert coset_count_invariance(4, 9, 3).equal


def test_conjugation_invariance_examples():
    # identity sigma always passes (M = 1)
    res = conjugation_invariance(Mat2(1, 0, 9, 1), 5, 9, 1, budget=40)
    assert res.passed
    res = conjugation_invariance(Mat2(1, 0, 3, 1), 4, 9, 3, budget=200)
    assert res.passed and res.witness is None
    # l != 1 mod M: the theory asserts nothing; either outcome is legal but
    # the note must say so
    res = conjugation_invariance(Mat2(1, 0, 3, 1), 2, 9, 3, budget=60)
    assert "not asserted" in res.note
    with pytest.raises(PrereqFailed):
        conjugation_invariance(Mat2(1, 0, 1, 1), 4, 9, 3)
    with pytest.raises(PrereqFailed):
        conjugation_invariance(Mat2(1, 0, 3, 1), 4, 12, 3)
    # a budget below 0 is refused, after the prerequisites and the table
    with pytest.raises(ValueError, match="budget = -1 is negative"):
        conjugation_invariance(Mat2(1, 0, 3, 1), 4, 9, 3, budget=-1)


def test_conjugated_reps_form_rep_system():
    # {sigma gamma sigma^-1} is again a full system of pairwise
    # inequivalent representatives when l == 1 (mod M)
    cases = [(4, 9, 3), (3, 4, 2), (5, 16, 2), (11, 25, 5)]
    for l, n, m in cases:
        assert l % m == 1 % m
        sigma = Mat2(1, 0, n // m, 1)
        table = coset_reps_delta(l, n, m)
        keys = {coset_key(g, n, m) for g in table.reps}
        conj_keys = {
            coset_key(sigma * g * sigma.adjugate(), n, m)
            for g in table.reps
        }
        assert keys == conj_keys
        assert len(conj_keys) == table.count


def test_coset_key_constant_on_cosets():
    rng = random.Random(45)
    for l, n, m in [(3, 4, 2), (4, 9, 3)]:
        table = coset_reps_delta(l, n, m)
        for rep in table.reps:
            for _ in range(20):
                g = mat2_gamma0nm_word(n, m, rng)
                assert coset_key(g * rep, n, m) == coset_key(rep, n, m)


# (N, M) with M^2 | N and N <= 60: the levels where the conjugation check runs
POWERFUL_PAIRS = [(n, m) for n in range(1, 61) for m in range(1, 8) if n % (m * m) == 0]


@st.composite
def conjugation_cases(draw):
    """(sigma, l, N, M, budget, seed): sigma = (1, 0; N/M, 1) or a
    non-standard sigma with lower-left entry (N/M) k, gcd(k, M) = 1, so
    C(sigma) = N/M either way."""
    n, m = draw(st.sampled_from(POWERFUL_PAIRS))
    if draw(st.booleans()):
        sigma = Mat2(1, 0, n // m, 1)
    else:
        k = draw(st.integers(-6, 6).filter(lambda k: k and gcd(k, m) == 1))
        c = n // m * k
        a = draw(st.integers(-30, 30).filter(lambda a: gcd(a, c) == 1))
        sigma = complete_first_column(a, c) * Mat2(1, draw(st.integers(-3, 3)), 0, 1)
    assert cusp_denominator(sigma, n) == n // m
    l = draw(st.integers(1, 13))
    return sigma, l, n, m, draw(st.integers(0, 60)), draw(st.integers(0, 2**32))


@settings(max_examples=120, deadline=None)
@given(conjugation_cases())
def test_conjugation_invariance_matches_the_mat2_oracle(case):
    sigma, l, n, m, budget, seed = case
    got = conjugation_invariance(sigma, l, n, m, budget=budget, seed=seed)
    reps = coset_reps_delta(l, n, m).reps
    assert got.to_json() == mat2_conjugation_invariance(sigma, reps, l, n, m, budget, seed)


def test_conjugation_invariance_matches_the_mat2_oracle_where_it_fails():
    # l != 1 (mod M), for the standard sigma and a non-standard one.  Under
    # the prerequisites sigma normalises Gamma0(N; M), so a failure shows on
    # a representative first
    failures = 0
    for n in (4, 8, 9, 16, 25, 27, 36):
        for m in range(2, 7):
            if n % (m * m):
                continue
            for sigma in (Mat2(1, 0, n // m, 1), complete_first_column(7, -(n // m))):
                for l in range(2, 14):
                    if l % m == 1:
                        continue
                    got = conjugation_invariance(sigma, l, n, m, budget=30, seed=l)
                    reps = coset_reps_delta(l, n, m).reps
                    want = mat2_conjugation_invariance(sigma, reps, l, n, m, 30, l)
                    assert got.to_json() == want, (sigma, l, n, m)
                    failures += not got.passed
    assert failures


def width_one_sigma(a, k, t, n, m):
    """complete_first_column(a, (N/M) k) * T^t, assumed to exist and to have
    C(sigma) = N/M.  Every sigma in SL2(Z) with C(sigma) = N/M has such a
    lower-left entry, with gcd(k, M) = 1."""
    c = n // m * k
    assume(gcd(a, c) == 1)
    sigma = complete_first_column(a, c) * Mat2(1, t, 0, 1)
    assume(cusp_denominator(sigma, n) == n // m)
    return sigma


def test_conjugation_invariance_tests_both_conjugates_in_order(monkeypatch):
    # on a real table the two conjugates of a representative share their
    # verdict, so both are seen to be tested, sigma's first, only on a
    # matrix outside Delta(15, 9; 3): sigma r sigma^-1 passes for
    # sigma = (-7, 2; 3, -1) and fails for its inverse
    r = (-2, -3, 3, -3)
    monkeypatch.setattr(hecke, "_coset_entries", lambda l, n, m: [r])
    got = conjugation_invariance(Mat2(-7, 2, 3, -1), 15, 9, 3, budget=4)
    assert (got.passed, got.witness, got.checked) == (False, Mat2(*r), 2)
    got = conjugation_invariance(Mat2(-1, -2, -3, -7), 15, 9, 3, budget=4)
    assert (got.passed, got.witness, got.checked) == (False, Mat2(*r), 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-5, 5),
    st.sampled_from(POWERFUL_PAIRS),
)
def test_width_one_conjugators_normalise_gamma0nm(a, k, t, pair):
    # the lemma the conjugation check rests on, read off the class oracle
    # alone: with C(sigma) = N/M and M^2 | N, sigma w sigma^-1 and
    # sigma^-1 w sigma lie in Delta(1, N; M) for every w in Gamma0(N; M)
    n, m = pair
    sigma = width_one_sigma(a, k, t, n, m)
    assert conjugation_class_passes(sigma, [Mat2.identity()], 1, n, m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-5, 5),
    st.sampled_from(POWERFUL_PAIRS),
    st.integers(1, 13),
    st.integers(0, 40),
    st.integers(0, 2**32),
)
@example(1, 3, 0, (36, 2), 12, 39, 3542410537)  # l != 1 (mod M): fails
def test_conjugation_invariance_matches_the_mat2_oracle_for_any_sigma(
    a, k, t, pair, l, budget, seed
):
    # any sigma in SL2(Z) with C(sigma) = N/M, against the oracle that
    # draws `budget` random translates after the representatives
    n, m = pair
    sigma = width_one_sigma(a, k, t, n, m)
    got = conjugation_invariance(sigma, l, n, m, budget=budget, seed=seed)
    reps = coset_reps_delta(l, n, m).reps
    assert got.to_json() == mat2_conjugation_invariance(sigma, reps, l, n, m, budget, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-5, 5),
    st.sampled_from(POWERFUL_PAIRS),
    st.integers(1, 13),
)
@example(1, 3, 0, (36, 2), 13)  # (1, 0; 54, 1): passes
@example(1, 3, 0, (36, 2), 12)  # l != 1 (mod M): fails
def test_conjugation_decision_matches_the_class_oracle(a, k, t, pair, l):
    # the verdict on the representatives is the verdict on every translate
    # of every representative.  Each conjugate of a representative
    # (A, B; C, D) passes iff M | A - D, and A == 1, D == l (mod M), so
    # both are l == 1 (mod M)
    n, m = pair
    sigma = width_one_sigma(a, k, t, n, m)
    got = conjugation_invariance(sigma, l, n, m, budget=5, seed=0)
    reps = coset_reps_delta(l, n, m).reps
    assert got.passed == conjugation_class_passes(sigma, reps, l, n, m)
    assert got.passed == (l % m == 1 % m)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.integers(-40, 40)] * 4),
    st.sampled_from(POWERFUL_PAIRS),
    st.integers(-13, 13),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_in_delta_entries_agrees_with_delta_member(entries, pair, l, forced):
    # forced: det == l, N | c and a == 1 (mod M), each made to hold or left
    # to chance
    n, m = pair
    a, b, c, d = entries
    if forced[1]:
        c *= n
    if forced[2]:
        a = 1 + m * a
    if forced[0]:
        l = a * d - b * c
    member = delta_member(Mat2(a, b, c, d), l, n, m)
    assert in_delta_entries(a, b, c, d, l, n, m) == member


def test_coset_budget(monkeypatch):
    # each block is charged the rows it sweeps: M for c = 0 (one per unit
    # residue mod M) and N for every other admissible c.  Delta(4, 9; 3)
    # walks the c = 0 block alone (3 rows) and has 7 cosets; l = 3 at N = 9
    # walks c in {0, 3, 6} (3 + 9 + 9 = 21 rows)
    monkeypatch.setattr(hecke, "COSET_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match=r"Delta\(4, 9; 3\) walks 3 rows"):
        coset_reps_delta(4, 9, 3)
    with pytest.raises(BudgetExceeded, match=r"Delta\(4, 9; 3\) walks 3 rows"):
        coset_count_invariance(4, 9, 3)
    res = run(["hecke", "--level", "9", "--m", "3", "--l", "4"])
    assert res.exit_code == 1
    assert res.payload["error"]["type"] == "BudgetExceeded"
    # at budget 3 the walk fits but the 7 cosets do not; the count builds
    # no table
    monkeypatch.setattr(hecke, "COSET_BUDGET", 3)
    assert coset_count_invariance(4, 9, 3).count_nm == 7
    with pytest.raises(BudgetExceeded, match=r"Delta\(4, 9; 3\) has 7 cosets"):
        coset_reps_delta(4, 9, 3)
    monkeypatch.setattr(hecke, "COSET_BUDGET", 7)
    assert coset_reps_delta(4, 9, 3).count == 7
    monkeypatch.setattr(hecke, "COSET_BUDGET", 20)
    with pytest.raises(BudgetExceeded, match=r"Delta\(3, 9; 3\) walks 21 rows"):
        coset_count_invariance(3, 9, 3)
    monkeypatch.setattr(hecke, "COSET_BUDGET", 21)
    assert coset_reps_delta(3, 9, 3).count == 3
    # at N = 1 the one row fits, but sigma_1(64) = 127 cosets do not;
    # the count comparison builds no table, so it still runs
    monkeypatch.setattr(hecke, "COSET_BUDGET", 126)
    with pytest.raises(BudgetExceeded, match="has 127 cosets"):
        coset_reps_delta(64, 1, 1)
    with pytest.raises(BudgetExceeded, match="has 127 cosets"):
        conjugation_invariance(Mat2(1, 0, 1, 1), 64, 1, 1)
    assert coset_count_invariance(64, 1, 1).count_nm == 127
    monkeypatch.setattr(hecke, "COSET_BUDGET", 127)
    assert coset_reps_delta(64, 1, 1).count == 127


def test_coset_budget_charges_the_c_zero_block_its_units():
    # with gcd(l, N) = 1 only the c = 0 block is walked, M rows, so a prime
    # level past COSET_BUDGET still answers
    n = 1_000_003
    assert n > hecke.COSET_BUDGET
    assert coset_reps_delta(1, n, 1).reps == [Mat2(1, 0, n, 1)]
    assert coset_count_invariance(2, n, 1).count_nm == 3
    # at l = N every c = 0..N-1 is admissible
    with pytest.raises(BudgetExceeded, match=f"walks {1 + (n - 1) * n} rows"):
        coset_reps_delta(n, n, 1)


def test_tables_at_large_level():
    # N^2 = 1048576 rows mod 1024, but only the blocks of admissible c are
    # walked: c = 0 for l = 3, and c in {0, 512} for l = 2
    res = run(["hecke", "--level", "1024", "--l", "3", "--m", "2"])
    assert res.exit_code == 0
    assert res.payload["count"] == sigma1(3)
    assert res.payload["count_invariance"]["equal"] is True
    walk = [((u[2] % 1024, u[3] % 1024), a1) for u, a1 in hecke._coset_walk(2, 1024, 1)]
    assert walk == [((0, 1), 1), ((0, 1), 2), ((512, 1), 2)]
    # at M = 2 no a1 = 2 pair passes, as that needs gcd(a1, M) = 1
    r = coset_count_invariance(2, 1024, 2)
    assert (r.count_n, r.count_nm) == (4, 2)
    n = 10**5
    assert coset_reps_delta(3, n, 10).count == sigma1(3)
    r = coset_count_invariance(3, n, 10)
    assert (r.count_nm, r.count_n, r.equal) == (4, 4, True)
