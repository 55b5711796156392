"""Exact 2x2 integer matrices, the Moebius action on rational points of the
upper half-plane, completion of a primitive column to SL2(Z), the point-pair
invariant u, the lattice rows (c, d) with |cz + d|^2 below a bound, and
fundamental-domain reduction.

A point is held as its cleared triple z = (px + i py)/q, and every
geometric predicate is decided on those integers; irrational thresholds such
as sqrt(3)/2 are compared by squaring both (positive) sides.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import bezout
from .errors import NotUnimodular


class Mat2:
    """2x2 matrix; its entries must be Python ints, as `mobius_act` reads
    them as ints and `is_sl2` fails a Fraction or float entry."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def trace(self):
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def is_sl2(self) -> bool:
        """int entries and determinant one; a Fraction or float entry fails
        even when its value is an integer."""
        return (type(self.a) is int and type(self.b) is int and type(self.c) is int
                and type(self.d) is int and self.det == 1)

    def require_sl2(self) -> "Mat2":
        if not self.is_sl2():
            raise NotUnimodular(f"expected SL2(Z), got {self!r} with det {self.det}")
        return self

    def to_json(self):
        return [[self.a, self.b], [self.c, self.d]]


def complete_first_column(a: int, c: int) -> Mat2:
    """A matrix of SL2(Z) with first column (a, c), for gcd(a, c) = 1:
    (a, -t; c, s) with s*a + t*c = 1 from extended Euclid."""
    s, t = bezout(a, c)
    return Mat2(a, -t, c, s)


class PointH:
    """Exact rational point z = (px + i py)/q of the upper half-plane, held
    as its cleared triple: q > 0, py > 0 and gcd(px, py, q) = 1.  The triple
    is canonical, so equality and hashing compare it; x and y are its
    Fraction coordinates."""

    __slots__ = ("px", "py", "q")

    def __init__(self, x, y):
        x = x if isinstance(x, (int, Fraction)) else Fraction(x)
        y = y if isinstance(y, (int, Fraction)) else Fraction(y)
        yn, xd, yd = y.numerator, x.denominator, y.denominator
        if yn <= 0:
            raise ValueError(f"point must have y > 0, got y = {y}")
        # for x and y in lowest terms, no prime divides q, px and py at once
        q = lcm(xd, yd)
        self.px, self.py, self.q = x.numerator * (q // xd), yn * (q // yd), q

    @classmethod
    def from_triple(cls, px: int, py: int, q: int) -> "PointH":
        """The point (px + i py)/q for ints with py, q > 0, reduced to its
        canonical triple."""
        g = gcd(px, py, q)
        z = object.__new__(cls)
        z.px, z.py, z.q = px // g, py // g, q // g
        return z

    x = property(lambda self: Fraction(self.px, self.q), doc="Re z as a Fraction")
    y = property(lambda self: Fraction(self.py, self.q), doc="Im z as a Fraction")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointH):
            return NotImplemented
        return self.px == other.px and self.py == other.py and self.q == other.q

    def __hash__(self):
        return hash((self.px, self.py, self.q))

    def __repr__(self):
        return f"PointH({self.x}, {self.y})"

    def serialize(self) -> str:
        """"x_num/x_den,y_num/y_den" wire format."""
        x, y = self.x, self.y
        return f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}"

    @classmethod
    def parse(cls, text: str) -> "PointH":
        xs, ys = text.split(",")
        return cls(Fraction(xs), Fraction(ys))


def mobius_act(g: Mat2, z: PointH) -> PointH:
    """Exact Moebius action (az+b)/(cz+d) for det(g) > 0 on the triple
    z = (px + i py)/q: with e = c px + d q, the image is the triple
    ((a px + b q) e + a c py^2, det py q, e^2 + (c py)^2), and no Fraction
    is built.  The error names det(g) as str(det)."""
    a, b, c, d = g.a, g.b, g.c, g.d
    det = a * d - b * c
    if det <= 0:
        raise ValueError(f"mobius_act needs det > 0, got {det}")
    px, py, q = z.px, z.py, z.q
    e = c * px + d * q
    return PointH.from_triple(
        (a * px + b * q) * e + a * c * py * py, det * py * q, e * e + (c * py) ** 2
    )


def lattice_c_max(py: int, r_num: int, r_den: int) -> int:
    """The largest c >= 0 with (c py)^2 <= r_num / r_den, for r_num >= 0."""
    return isqrt(r_num // (py * py * r_den))


def lattice_rows(px: int, py: int, q: int, r_num: int, r_den: int, c_step: int):
    """The rows of the ellipse |cz + d|^2 <= R / q^2 around z = (px + i py)/q,
    with R = r_num / r_den >= 0: yield (c, d_lo, d_hi) for c = c_step,
    2 c_step, ... up to lattice_c_max(py, r_num, r_den), ascending, where
    the d with (c px + d q)^2 + (c py)^2 <= R are exactly d_lo <= d <= d_hi
    (a row may be empty, d_lo > d_hi).  As c px + d q is an integer, the
    condition is |c px + d q| <= isqrt((r_num - (c py)^2 r_den) // r_den)."""
    for c in range(c_step, lattice_c_max(py, r_num, r_den) + 1, c_step):
        cpx = c * px
        rd = isqrt((r_num - (c * py) ** 2 * r_den) // r_den)
        yield c, -((cpx + rd) // q), (rd - cpx) // q


def point_pair_u(z: PointH, w: PointH) -> Fraction:
    """Point-pair invariant u(z, w) = |z - w|^2 / (4 Im z Im w), from the
    triples: with z = (px + i py)/q and w = (rx + i ry)/s it is
    ((px s - rx q)^2 + (py s - ry q)^2) / (4 py ry q s)."""
    dx, dy = z.px * w.q - w.px * z.q, z.py * w.q - w.py * z.q
    return Fraction(dx * dx + dy * dy, 4 * z.py * w.py * z.q * w.q)


def fd_reduce(z: PointH) -> tuple[Mat2, PointH]:
    """Reduce z into the standard fundamental domain: z = tau * z0.

    Gauss reduction on the triple z = (px + i py)/q, tau kept as four ints:
    translate x into (-1/2, 1/2], invert by (px, py, q) <- (-px q, py q,
    px^2 + py^2) over its gcd while px^2 + py^2 < q^2, and on the arc
    |z0| = 1 choose x0 >= 0.  Terminates on exact rationals (each inversion
    strictly increases y within a discrete set of attainable heights).
    """
    px, py, q = z.px, z.py, z.q
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = -((q - 2 * px) // (2 * q))  # shift into (-1/2, 1/2]
        if n:
            px -= n * q
            b, d = a * n + b, c * n + d  # tau <- tau * T^n, point <- T^-n point
        norm = px * px + py * py
        if norm >= q * q:
            break
        # apply S: z <- -1/z, tau <- tau * S^-1
        g = gcd(q * gcd(px, py), norm)  # the gcd of the new triple
        px, py, q = -px * q // g, py * q // g, norm // g
        a, b, c, d = -b, a, -d, c
    if px < 0 and px * px + py * py == q * q:
        px = -px  # S acts as x -> -x on the unit arc
        a, b, c, d = -b, a, -d, c
    tau = Mat2(a, b, c, d)  # +-tau act identically; pin the sign for determinism
    return (-tau if c < 0 or (c == 0 and a < 0) else tau), PointH.from_triple(px, py, q)
