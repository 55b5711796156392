"""Exact 2x2 integer matrices, the Moebius action on rational points of the
upper half-plane, completion of a primitive column to SL2(Z), the point-pair
invariant u, the lattice rows (c, d) with |cz + d|^2 below a bound, and
fundamental-domain reduction.

All geometric predicates are decided over Q; irrational thresholds such as
sqrt(3)/2 are compared by squaring both (positive) sides.
"""

from fractions import Fraction
from math import ceil, isqrt, lcm

from .arith import bezout
from .errors import NotUnimodular


class Mat2:
    """2x2 matrix with Python int entries."""

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
        return all(type(e) is int for e in self.entries()) and self.det == 1

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
    """Exact rational point x + iy of the upper half-plane (y > 0)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x if type(x) is Fraction else Fraction(x)
        self.y = y if type(y) is Fraction else Fraction(y)
        if self.y <= 0:
            raise ValueError(f"point must have y > 0, got y = {self.y}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointH):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"PointH({self.x}, {self.y})"

    def cleared(self) -> tuple[int, int, int]:
        """(px, py, q) with z = (px + i py)/q, q the lcm of the denominators."""
        xd, yd = self.x.denominator, self.y.denominator
        q = lcm(xd, yd)
        return self.x.numerator * (q // xd), self.y.numerator * (q // yd), q

    def serialize(self) -> str:
        """"x_num/x_den,y_num/y_den" wire format."""
        return (
            f"{self.x.numerator}/{self.x.denominator},"
            f"{self.y.numerator}/{self.y.denominator}"
        )

    @classmethod
    def parse(cls, text: str) -> "PointH":
        xs, ys = text.split(",")
        return cls(Fraction(xs), Fraction(ys))


def mobius_act(g: Mat2, z: PointH) -> PointH:
    """Exact Moebius action (az+b)/(cz+d) for det(g) > 0.

    z is cleared to (px + i py)/q.  With e = c px + d q and
    D = e^2 + (c py)^2 = q^2 |cz + d|^2 > 0, the image is
    x' = ((a px + b q) e + a c py^2) / D and y' = det py q / D, so exactly
    two Fractions are built.  The error names det(g) as str(det).
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    det = a * d - b * c
    if det <= 0:
        raise ValueError(f"mobius_act needs det > 0, got {det}")
    px, py, q = z.cleared()
    e = c * px + d * q
    den = e * e + (c * py) ** 2
    new_x = Fraction((a * px + b * q) * e + a * c * py * py, den)
    return PointH(new_x, Fraction(det * py * q, den))


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
    """Point-pair invariant u(z, w) = |z - w|^2 / (4 Im z Im w)."""
    return ((z.x - w.x) ** 2 + (z.y - w.y) ** 2) / (4 * z.y * w.y)


def fd_reduce(z: PointH) -> tuple[Mat2, PointH]:
    """Reduce z into the standard fundamental domain: z = tau * z0.

    Gauss reduction: translate to x in (-1/2, 1/2], invert while |z| < 1;
    on the boundary arc |z0| = 1 the representative with x0 >= 0 is chosen.
    Terminates on exact rationals (each inversion strictly increases y
    within a discrete set of attainable heights).
    """
    x, y = z.x, z.y
    tau = Mat2.identity()
    while True:
        n = ceil(x - Fraction(1, 2))  # shift into (-1/2, 1/2]
        if n:
            x -= n
            tau = tau * Mat2(1, n, 0, 1)  # tau <- tau * T^n, point <- T^-n point
        norm = x * x + y * y
        if norm >= 1:
            break
        # apply S: z <- -1/z, tau <- tau * S^-1
        x, y = -x / norm, y / norm
        tau = tau * Mat2(0, 1, -1, 0)
    if x < 0 and x * x + y * y == 1:
        x = -x  # S acts as x -> -x on the unit arc
        tau = tau * Mat2(0, 1, -1, 0)
    if tau.c < 0 or (tau.c == 0 and tau.a < 0):
        tau = -tau  # +-tau act identically; pin the sign for determinism
    return tau, PointH(x, y)
