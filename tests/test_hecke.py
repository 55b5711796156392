import random
from math import gcd
from types import SimpleNamespace
from unittest import mock

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
from test_same_outputs import CONJUGATION_DIGEST, _json_digest


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
    # a budget below 0 is refused by islice, on a table the forms pass too
    with pytest.raises(ValueError, match="islice"):
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


class _BoundedRandom(random.Random):
    """A Random whose getrandbits gives up after 10,000 draws, so a redraw
    that never ends fails the test instead of hanging it."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        if self.draws > 10_000:
            raise RuntimeError("the draws do not end")
        return super().getrandbits(k)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(POWERFUL_PAIRS),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.integers(1, 300),
)
def test_random_words_match_the_mat2_oracle(pair, seed, words, nreps):
    # equal words and representative indices from equal draws, and the
    # generators end in the same state
    n, m = pair
    rng, ref = random.Random(seed), random.Random(seed)
    translates = hecke._translates(n, m, nreps, rng)
    for _ in range(words):
        wa, wb, wc, wd, i = next(translates)
        want = mat2_gamma0nm_word(n, m, ref).entries(), ref.randrange(nreps)
        assert ((wa, wb, wc, wd), i) == want
    assert rng.getstate() == ref.getstate()


def test_below_matches_randrange_draw_for_draw():
    # the representative index: the stdlib draws k = n.bit_length() bits
    # and redraws at or above n
    ns = list(range(1, 301)) + [2**k + e for k in range(1, 41) for e in (-1, 0, 1)]
    for seed in (0, 1, 7, 2**40 + 3):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in ns:
            *word, i = next(hecke._translates(1, 1, n, rng))
            assert tuple(word) == mat2_gamma0nm_word(1, 1, ref).entries()
            assert i == ref.randrange(n), (seed, n)
        assert rng.getstate() == ref.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            next(hecke._translates(1, 1, n, _BoundedRandom()))


def test_conjugation_invariance_refuses_an_empty_table(monkeypatch):
    # with no representative to translate, the draw of its index raises
    # instead of redrawing for ever
    monkeypatch.setattr(hecke, "_coset_entries", lambda l, n, m: [])
    monkeypatch.setattr(hecke, "random", SimpleNamespace(Random=_BoundedRandom))
    assert conjugation_invariance(Mat2(1, 0, 3, 1), 4, 9, 3, budget=0).passed
    with pytest.raises(ValueError, match="no representatives"):
        conjugation_invariance(Mat2(1, 0, 3, 1), 4, 9, 3, budget=1)


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


def test_conjugation_witnesses_off_the_prerequisites_match_the_mat2_oracle(monkeypatch):
    # with C(sigma) = N/M waived, sigma need not normalise Gamma0(N; M).
    # (1, 0; 1, 1) keeps the one representative of Delta(1, 4; 1) but moves
    # translates out, so the witness is a random translate.  At N = 4,
    # M = 2, l = 2 the first conjugate by (-8, 1; -33, 4) to fail has N | c
    # and fails on a == 1 (mod M) alone
    cases = [(Mat2(1, 0, 1, 1), 1, 4, 1, False), (Mat2(-8, 1, -33, 4), 2, 4, 2, True)]
    for sigma, l, n, m, on_a_rep in cases:
        monkeypatch.setattr(hecke, "cusp_denominator", lambda tau, n, m=m: n // m)
        reps = coset_reps_delta(l, n, m).reps
        for seed in range(20):
            got = conjugation_invariance(sigma, l, n, m, budget=10, seed=seed)
            want = mat2_conjugation_invariance(sigma, reps, l, n, m, 10, seed)
            assert got.to_json() == want, (sigma, seed)
            assert not got.passed and (got.witness in reps) == on_a_rep


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
@example(-18, 25, -1, (4, 2), 12, 39, 3542410537)
def test_conjugation_invariance_matches_the_mat2_oracle_for_any_sigma(
    a, c, t, pair, l, budget, seed
):
    # any sigma in SL2(Z), with C(sigma) = N/M waived, so the witness may be
    # a random translate as well as a representative.  In the example the
    # first conjugate to fail has N | c and fails on a == 1 (mod M) alone
    assume(gcd(a, c) == 1)
    sigma = complete_first_column(a, c) * Mat2(1, t, 0, 1)
    n, m = pair
    with mock.patch.object(hecke, "cusp_denominator", lambda tau, n: n // m):
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
    st.booleans(),
)
@example(-18, 25, -1, (4, 2), 12, False)  # fails
@example(1, 5, 0, (25, 1), 1, False)  # N | c1, c0 + c3, not c0 (u^2 - 1) at u = 2
@example(1, 3, 0, (36, 2), 13, True)  # (1, 0; 18, 1): passes
@example(1, 3, 0, (36, 2), 12, True)  # l != 1 (mod M): fails
def test_conjugation_decision_matches_the_class_oracle(a, c, t, pair, l, normal):
    # the sampler is skipped exactly when every translate of every
    # representative passes.  sigma is any element of SL2(Z) with
    # C(sigma) = N/M waived, or, if normal, has lower-left entry (N/M) c
    # with gcd(c, M) = 1, so that cases that pass are drawn too
    n, m = pair
    if normal:
        c = n // m * c
    assume(gcd(a, c) == 1 and (not normal or gcd(c // (n // m), m) == 1))
    sigma = complete_first_column(a, c) * Mat2(1, t, 0, 1)
    calls, translates = [], hecke._translates
    with mock.patch.object(hecke, "cusp_denominator", lambda tau, n: n // m), \
            mock.patch.object(hecke, "_translates",
                              lambda *args: calls.append(args) or translates(*args)):
        got = conjugation_invariance(sigma, l, n, m, budget=5, seed=0)
    reps = coset_reps_delta(l, n, m).reps
    decided = not calls
    assert decided == conjugation_class_passes(sigma, reps, l, n, m)
    assert got.passed or not decided  # a decided pass is the sampled result


def test_c7_conjugation_grid_draws_no_translate(monkeypatch):
    # every op of the C7 conjugation grid is decided on its forms, with the
    # JSON that drawing all 150 translates gives
    def no_draws(*args):
        raise AssertionError(f"a translate was drawn: {args}")

    monkeypatch.setattr(hecke, "_translates", no_draws)
    docs = []
    for n in (4, 8, 9, 16, 25, 27, 36):
        for m in range(1, n + 1):
            if n % (m * m):
                continue
            for l in range(1, 14):
                if l % m == 1 % m:
                    res = conjugation_invariance(
                        Mat2(1, 0, n // m, 1), l, n, m, budget=150, seed=7
                    )
                    nreps = coset_reps_delta(l, n, m).count
                    assert res.passed and res.checked == 2 * (nreps + 150), (n, m, l)
                    docs.append(res.to_json())
    assert _json_digest(docs) == CONJUGATION_DIGEST


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
