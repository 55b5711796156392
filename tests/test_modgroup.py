import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspnorm.errors import NotUnimodular
from cuspnorm.modgroup import (
    Mat2,
    PointH,
    fd_reduce,
    lattice_rows,
    mobius_act,
    point_pair_u,
)
from oracles import (
    S,
    T,
    _fraction_fd_reduce,
    ellipse_rows,
    fraction_mobius_act,
    rand_det_matrix,
    rand_point,
    rand_sl2_bounded,
)


def test_mobius_examples():
    z = PointH(Fraction(1, 3), Fraction(2, 5))
    assert mobius_act(Mat2.identity(), z) == z
    assert mobius_act(T, PointH(0, 1)) == PointH(1, 1)
    assert mobius_act(S, PointH(0, 2)) == PointH(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        mobius_act(Mat2(1, 0, 0, -1), z)  # det < 0 is not an action on H


points = st.builds(
    PointH,
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
    st.builds(Fraction, st.integers(1, 50), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-20, 20)] * 4), st.integers(1, 6), points)
def test_mobius_act_matches_fraction_oracle(entries, t, z):
    # integer matrices and their integer multiples: a positive scalar leaves
    # the action, and the error, unchanged
    for g in (Mat2(*entries), Mat2(*(t * e for e in entries))):
        if g.det > 0:
            assert mobius_act(g, z) == fraction_mobius_act(g, z)
            assert mobius_act(g, z) == mobius_act(Mat2(*entries), z)
        else:
            with pytest.raises(ValueError) as ours:
                mobius_act(g, z)
            with pytest.raises(ValueError) as oracle:
                fraction_mobius_act(g, z)
            assert str(ours.value) == str(oracle.value)


def test_mobius_imaginary_part_formula():
    rng = random.Random(1)
    for _ in range(100):
        g = rand_det_matrix(rng, rng.randint(1, 6))
        z = rand_point(rng)
        w = mobius_act(g, z)
        den = (g.c * z.x + g.d) ** 2 + (g.c * z.y) ** 2
        assert w.y == g.det * z.y / den


def test_point_pair_u_examples():
    i = PointH(0, 1)
    assert point_pair_u(i, i) == 0
    assert point_pair_u(i, PointH(1, 1)) == Fraction(1, 4)
    # parabolic pin: u(T z', z') = t^2 / (4 l y'^2) with t = 1, l = 1
    assert point_pair_u(mobius_act(T, i), i) == Fraction(1, 4)


def test_point_pair_u_symmetry_positivity():
    rng = random.Random(2)
    for _ in range(200):
        z, w = rand_point(rng), rand_point(rng)
        u = point_pair_u(z, w)
        assert u == point_pair_u(w, z)
        assert u >= 0
        assert (u == 0) == (z == w)


def test_point_pair_u_invariance():
    rng = random.Random(3)
    for _ in range(200):
        det = rng.choice([1, 2, 3])
        g = rand_det_matrix(rng, det)
        z, w = rand_point(rng), rand_point(rng)
        assert point_pair_u(mobius_act(g, z), mobius_act(g, w)) == point_pair_u(z, w)


def test_u_identity_polynomial():
    # |-c z^2 + (a-d) z + b|^2 == 4 l y^2 u(gamma z, z), exactly
    rng = random.Random(4)
    for _ in range(300):
        l = rng.randint(1, 100)
        g = rand_det_matrix(rng, l)
        z = rand_point(rng, den_max=32)
        x, y = z.x, z.y
        re = -g.c * (x * x - y * y) + (g.a - g.d) * x + g.b
        im = -2 * g.c * x * y + (g.a - g.d) * y
        lhs = re * re + im * im
        assert lhs == 4 * l * y * y * point_pair_u(mobius_act(g, z), z)


def test_fd_reduce_examples():
    assert fd_reduce(PointH(0, 1)) == (Mat2.identity(), PointH(0, 1))
    tau, z0 = fd_reduce(PointH(0, Fraction(1, 2)))
    assert tau == Mat2(0, -1, 1, 0) and z0 == PointH(0, 2)
    tau, z0 = fd_reduce(PointH(5, 1))
    assert tau == Mat2(1, 5, 0, 1) and z0 == PointH(0, 1)


def test_fd_reduce_postconditions():
    rng = random.Random(5)
    for _ in range(300):
        z = rand_point(rng)
        tau, z0 = fd_reduce(z)
        assert tau.is_sl2()
        assert mobius_act(tau, z0) == z
        assert Fraction(-1, 2) < z0.x <= Fraction(1, 2)
        assert z0.x * z0.x + z0.y * z0.y >= 1
        assert z0.y * z0.y * 4 >= 3  # hence y0 >= sqrt(3)/2
        if z0.x * z0.x + z0.y * z0.y == 1:
            assert z0.x >= 0


def test_fd_reduce_idempotent():
    rng = random.Random(6)
    for _ in range(100):
        _, z0 = fd_reduce(rand_point(rng))
        tau2, z1 = fd_reduce(z0)
        assert z1 == z0
        # the stabilizer step is at most a sign
        assert tau2 in (Mat2.identity(), -Mat2.identity()) or z0.x in (
            Fraction(1, 2),
            Fraction(-1, 2),
        ) or z0.x * z0.x + z0.y * z0.y == 1


def test_three_quarters_lemma():
    # Im(z0) >= (3/4) Im(gamma n z0) for fd-reduced z0, any gamma, any shift
    rng = random.Random(7)
    for _ in range(200):
        _, z0 = fd_reduce(rand_point(rng))
        gamma = rand_sl2_bounded(rng, 50)
        shift = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        moved = mobius_act(gamma, PointH(z0.x + shift, z0.y))
        assert z0.y * 4 >= 3 * moved.y


def test_mat2_basics():
    g = Mat2(2, 1, 1, 1)
    assert g.det == 1
    assert g.adjugate() == Mat2(1, -1, -1, 2)
    assert g * g.adjugate() == Mat2.identity()
    h = Mat2(2, 0, 0, 3)
    assert h * h.adjugate() == Mat2(6, 0, 0, 6)
    assert not h.is_sl2()
    with pytest.raises(Exception):
        Mat2(1, 2, 3, 4).require_sl2()


def test_require_sl2_rejects_entries_that_are_not_int():
    # det 1 is not enough: a Fraction, a float or a bool entry is not an
    # integer matrix, even when its value is integral
    for g in (Mat2(Fraction(1), 0, 0, 1), Mat2(1.0, 0, 0, 1), Mat2(True, 0, 0, 1)):
        assert g.det == 1 and not g.is_sl2()
        with pytest.raises(NotUnimodular):
            g.require_sl2()


def test_point_serialization_roundtrip():
    z = PointH(Fraction(-3, 7), Fraction(22, 5))
    assert PointH.parse(z.serialize()) == z
    assert z.serialize() == "-3/7,22/5"
    with pytest.raises(ValueError):
        PointH(0, 0)


@st.composite
def ellipse_cases(draw):
    """(px, py, q, r_num, r_den, c_step); in half of them a lattice point
    (c, d) with (c px + d q)^2 + (c py)^2 = L lies exactly on the boundary
    (R = L), inside it by less than one (L < R < L + 1) or just outside it
    (R = L - 1/r_den)."""
    px, py = draw(st.integers(-40, 40)), draw(st.integers(1, 8))
    q = draw(st.integers(1, 15))
    r_den, c_step = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        c = c_step * draw(st.integers(1, 3))
        d = -(c * px) // q + draw(st.integers(-3, 3))
        edge = (c * px + d * q) ** 2 + (c * py) ** 2
        r_num = edge * r_den + draw(st.sampled_from([0, r_den - 1, -1]))
    else:
        r_num = draw(st.integers(0, 5000))
    return px, py, q, r_num, r_den, c_step


@settings(max_examples=300, deadline=None)
@given(ellipse_cases())
@example((1, 1, 2, 3, 2, 1))  # z = (1 + i)/2, R = 3/2: the one row c = 1 is empty
@example((0, 1, 1, 2, 1, 1))  # z = i, R = 2: (1, -1) and (1, 1) on the boundary
@example((3, 2, 5, 0, 1, 2))  # R = 0: no row
def test_lattice_rows_are_the_ellipse_rows(case):
    rows = list(lattice_rows(*case))
    expected = ellipse_rows(*case)
    assert [c for c, _lo, _hi in rows] == list(expected)
    for c, d_lo, d_hi in rows:
        assert list(range(d_lo, d_hi + 1)) == expected[c], (c, d_lo, d_hi)


def _canonical_fd(z: PointH) -> tuple[Mat2, PointH]:
    """oracles._fraction_fd_reduce moved onto the package's representative:
    x0 = -1/2 goes to 1/2 by T, a point of the unit arc with x0 < 0 goes to
    -x0 by S, and tau is taken with c > 0, or c = 0 and a > 0."""
    (a, b, c, d), x0, y0 = _fraction_fd_reduce(z.x, z.y)
    if x0 == Fraction(-1, 2):
        x0, b, d = x0 + 1, b - a, d - c  # k T^-1
    if x0 < 0 and x0 * x0 + y0 * y0 == 1:
        x0, a, b, c, d = -x0, b, -a, d, -c  # k S, which acts as k S^-1
    if c < 0 or (c == 0 and a < 0):
        a, b, c, d = -a, -b, -c, -d
    return Mat2(a, b, c, d), PointH(x0, y0)


@st.composite
def fd_special_points(draw):
    """A point that the reduction must treat with care (on the unit arc
    with x < 0, from the rational parametrisation ((1 - t^2) + 2t i)/(1 + t^2)
    with t > 1; at x = +-1/2 and any height; or i), moved by a word in S and
    T through the Fraction action."""
    kind = draw(st.sampled_from(("arc", "half", "i")))
    if kind == "arc":
        t = Fraction(draw(st.integers(2, 60)), draw(st.integers(1, 20)))
        assume(t > 1)
        z0 = PointH((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
    elif kind == "half":
        y = Fraction(draw(st.integers(1, 200)), draw(st.integers(1, 40)))
        z0 = PointH(draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 2)))), y)
    else:
        z0 = PointH(0, 1)
    g = Mat2.identity()
    for e in draw(st.lists(st.integers(-4, 4), max_size=6)):
        g = g * Mat2(1, e, 0, 1) * S
    return fraction_mobius_act(g, z0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(points, fd_special_points()))
@example(PointH(Fraction(-3, 5), Fraction(4, 5)))  # on the unit arc, x < 0
@example(PointH(Fraction(-1, 2), Fraction(1, 2)))  # x = -1/2 below the arc
@example(PointH(Fraction(1, 2), Fraction(7, 3)))  # x = 1/2 above it
def test_fd_reduce_matches_fraction_oracle(z):
    tau, z0 = fd_reduce(z)
    expected_tau, expected_z0 = _canonical_fd(z)
    assert z0 == expected_z0
    if z0 == PointH(0, 1):  # i is fixed by S, so tau is defined up to S
        assert tau in (expected_tau, expected_tau * S, -(expected_tau * S))
    else:
        assert tau == expected_tau


@settings(max_examples=200, deadline=None)
@given(points, st.integers(2, 30))
def test_a_scaled_triple_is_the_same_point(z, k):
    x, y = z.x, z.y
    q = x.denominator * y.denominator  # a common denominator, not always the least
    w = PointH.from_triple(
        k * x.numerator * y.denominator, k * y.numerator * x.denominator, k * q
    )
    assert w == z and hash(w) == hash(z)
    assert (w.px, w.py, w.q) == (z.px, z.py, z.q)
    assert w.q > 0 and w.py > 0 and gcd(gcd(w.px, w.py), w.q) == 1
    assert (Fraction(w.px, w.q), Fraction(w.py, w.q)) == (x, y)
    assert PointH.parse(z.serialize()) == z
