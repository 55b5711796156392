"""Symbolic exponent calculus over the parameters (N, M, Lambda, y, N0, L):
max-of-monomials envelopes tracked modulo N^epsilon, exact domination
certificates via vertex enumeration over small constraint polytopes, the
two-branch Fourier-expansion sup bound, the counting envelopes with their
numeric evaluator, and the final exponent pipelines.

A monomial N^eN M^eM Lambda^eL y^ey N0^e0 L^el is identified with its
exponent vector; taking log base N turns domination questions into exact
linear programs over the variables

    mu = log_N M,  eta = -log_N y,  nu = log_N N0,  alpha = log_N Lambda,
    ell = log_N L.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, prod

from .arith import factor, n_over_m_squared, squarefree_split
from .errors import (
    ConfigError,
    InfeasibleConstraints,
    OutOfRange,
    UnboundedPolytope,
)
from .precision import working_precision

PARAMS = ("N", "M", "Lam", "y", "N0", "L")
_VAR_OF_PARAM = {"M": "mu", "y": "eta", "N0": "nu", "Lam": "alpha", "L": "ell"}
_SIGN_OF_PARAM = {"M": 1, "y": -1, "N0": 1, "Lam": 1, "L": 1}


@dataclass(frozen=True)
class ExponentVector:
    """Exact rational exponents for one monomial in (N, M, Lam, y, N0, L)."""

    exps: tuple[Fraction, ...]

    def __getitem__(self, param: str) -> Fraction:
        return self.exps[PARAMS.index(param)]

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        return ExponentVector(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        parts = []
        for p, e in zip(PARAMS, self.exps):
            if e == 0:
                continue
            parts.append(p if e == 1 else f"{p}^({e})")
        return "*".join(parts) if parts else "1"

    def as_functional(self, variables: tuple[str, ...]):
        """(constant, coefficient vector) of log_N(monomial) over `variables`."""
        const = self["N"]
        coeffs = [Fraction(0)] * len(variables)
        for p in PARAMS[1:]:
            e = self[p]
            if e == 0:
                continue
            var = _VAR_OF_PARAM[p]
            if var not in variables:
                raise ConfigError(
                    f"monomial {self} involves {p} but the polytope has no {var}"
                )
            coeffs[variables.index(var)] += _SIGN_OF_PARAM[p] * e
        return const, tuple(coeffs)


def monomial(**kw) -> ExponentVector:
    unknown = set(kw) - set(PARAMS)
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)}")
    return ExponentVector(tuple(Fraction(kw.get(p, 0)) for p in PARAMS))


def substitute(v: ExponentVector, param: str, replacement: ExponentVector):
    """Replace param by the monomial `replacement`: an exponent e of param
    contributes e * replacement.  A replacement involving param would be
    circular and is rejected."""
    if replacement[param] != 0:
        raise ConfigError(f"replacement for {param} must not involve {param}")
    idx = PARAMS.index(param)
    e = v.exps[idx]
    return ExponentVector(
        tuple((0 if i == idx else x) + e * r
              for i, (x, r) in enumerate(zip(v.exps, replacement.exps)))
    )


@dataclass
class ConstraintSet:
    """Linear inequalities sum_i coeffs[i] * x_i <= rhs over named variables.

    The feasible region must be a bounded nonempty polytope.
    """

    variables: tuple[str, ...]
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)

    def le(self, coeffs: dict, rhs) -> "ConstraintSet":
        row = tuple(Fraction(coeffs.get(v, 0)) for v in self.variables)
        self.rows.append((row, Fraction(rhs)))
        return self

    def ge(self, coeffs: dict, rhs) -> "ConstraintSet":
        return self.le({v: -Fraction(c) for v, c in coeffs.items()}, -Fraction(rhs))

    def box(self, var: str, lo, hi) -> "ConstraintSet":
        self.ge({var: 1}, lo)
        self.le({var: 1}, hi)
        return self


def _rref(rows, d):
    """Exact reduced row echelon form over the first d columns: (matrix,
    pivots), where row i has its leading 1 in column pivots[i], alone there."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(d):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def _null_direction(mat, pivots, d):
    """A nonzero v with rows * v = 0, read off the reduced form (mat, pivots)
    of rows over d columns; rank < d is required."""
    free = next(c for c in range(d) if c not in pivots)
    v = [Fraction(0)] * d
    v[free] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -mat[r][free]
    return tuple(v)


def vertices(cs: ConstraintSet) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope, by solving the d x d boundary subsystems.

    Raises UnboundedPolytope when the recession cone {A v <= 0} is nonzero,
    and InfeasibleConstraints when no feasible vertex exists.  Each distinct
    system is enumerated once per process.
    """
    return list(_vertices(len(cs.variables), tuple(cs.rows)))


@lru_cache(maxsize=64)
def _vertices(d: int, system) -> tuple[tuple[Fraction, ...], ...]:
    rows = [r for r, _ in system]
    mat, pivots = _rref(rows, d)
    if len(pivots) < d:
        v = _null_direction(mat, pivots, d) if rows else tuple([Fraction(1)] * d)
        raise UnboundedPolytope(
            f"constraint matrix has rank < {d}; free direction {v}"
        )
    # pointedness: look for a nonzero v with A v <= 0 among (d-1)-face rays
    for subset in combinations(range(len(rows)), d - 1):
        mat, pivots = _rref([rows[i] for i in subset], d)
        if len(pivots) != d - 1:
            continue
        v = _null_direction(mat, pivots, d)
        for cand in (v, tuple(-x for x in v)):
            if all(sum(c * x for c, x in zip(row, cand)) <= 0 for row in rows):
                raise UnboundedPolytope(f"recession direction {cand}")
    verts = set()
    for subset in combinations(range(len(rows)), d):
        mat, pivots = _rref([system[i][0] + (system[i][1],) for i in subset], d)
        if len(pivots) < d:
            continue
        sol = tuple(row[d] for row in mat)
        if all(sum(c * x for c, x in zip(row, sol)) <= b for row, b in system):
            verts.add(sol)
    if not verts:
        raise InfeasibleConstraints("no feasible vertex")
    return tuple(sorted(verts))


@dataclass
class MonomialMax:
    monomial: ExponentVector
    max_value: Fraction
    argmax: tuple[Fraction, ...]


@dataclass
class DominationResult:
    """Per-monomial maxima of log_N(monomial / target) over the polytope;
    ok iff every maximum is <= 0."""

    target: ExponentVector
    per_monomial: list[MonomialMax]

    @property
    def ok(self) -> bool:
        return all(mm.max_value <= 0 for mm in self.per_monomial)


def maximize(vec: ExponentVector, cs: ConstraintSet) -> MonomialMax:
    """Exact maximum of log_N(monomial) over the polytope."""
    const, coeffs = vec.as_functional(cs.variables)
    best = None
    arg = None
    for v in vertices(cs):
        val = const + sum(c * x for c, x in zip(coeffs, v))
        if best is None or val > best:
            best, arg = val, v
    return MonomialMax(vec, best, arg)


def dominated_by(
    monomials: Sequence[ExponentVector], target: ExponentVector, cs: ConstraintSet
) -> DominationResult:
    """Decide max-of-monomials <= target over the polytope, exactly, for the
    exponent vectors in the order given (duplicates are checked again).

    The certificate lists, per monomial, the maximizing vertex and the
    margin; a positive margin is a failure witness.
    """
    per = []
    for vec in monomials:
        diff = vec + ExponentVector(tuple(-e for e in target.exps))
        mm = maximize(diff, cs)
        per.append(MonomialMax(vec, mm.max_value, mm.argmax))
    return DominationResult(target, per)


# ---------------------------------------------------------------------------
# Fourier-expansion sup bound
# ---------------------------------------------------------------------------


# The two branches in order, low then high: (N y)^(-1/2) and
# M^(1/2) N^(-1/2) y^(-1/4).  Their ratio low/high is (M^2 y)^(-1/4), so the
# bound is the larger branch, low for 1/N <= y <= 1/M^2 and high above.
FOURIER_BRANCHES = {
    "low": monomial(N=Fraction(-1, 2), y=Fraction(-1, 2)),
    "high": monomial(M=Fraction(1, 2), N=Fraction(-1, 2), y=Fraction(-1, 4)),
}


@dataclass
class FourierBound:
    """The two-branch bound at concrete (N, M, y): the larger branch of
    FOURIER_BRANCHES, low on the tie y = 1/M^2, and the exact rational fourth
    power of its value, so branch agreement can be asserted with no rounding."""

    branch: str
    fourth_power: Fraction


def fourier_sup_bound(n: int, m: int, y) -> FourierBound:
    """The two-branch bound at (N, M, y), for y >= 1/N."""
    n_over_m_squared(n, m)
    y = Fraction(y)
    if y * n < 1:
        raise OutOfRange(f"y = {y} below 1/N = 1/{n}")
    point = {"N": Fraction(n), "M": Fraction(m), "y": y}
    fourth = {
        branch: prod(v ** (4 * vec[p]) for p, v in point.items())
        for branch, vec in FOURIER_BRANCHES.items()
    }
    branch = max(fourth, key=fourth.get)  # the first maximal branch on a tie
    return FourierBound(branch, fourth[branch])


def fourier_branch_exponents(mu: Fraction, h: Fraction) -> dict[str, Fraction]:
    """Both branch exponents at M = N^mu, y = N^h, in FOURIER_BRANCHES order."""
    mu, h = Fraction(mu), Fraction(h)
    return {
        branch: vec["N"] + vec["M"] * mu + vec["y"] * h
        for branch, vec in FOURIER_BRANCHES.items()
    }


# ---------------------------------------------------------------------------
# miscellaneous closed forms
# ---------------------------------------------------------------------------


def smooth_count(x: int, n: int) -> int:
    """#{t <= x : every prime of t divides n}, by bounded DFS over the
    prime powers of n."""
    if x < 1:
        raise ValueError(f"smooth_count expects x >= 1, got {x}")
    primes = [p for p, _ in factor(n)]

    def dfs(idx: int, value: int) -> int:
        if idx == len(primes):
            return 1
        total = 0
        v = value
        while v <= x:
            total += dfs(idx + 1, v)
            v *= primes[idx]
        return total

    return dfs(0, 1)


# ---------------------------------------------------------------------------
# counting envelopes
# ---------------------------------------------------------------------------


def evaluate_terms(terms, **values) -> Decimal:
    """Sum of the monomials `terms` at positive rational parameter values
    (keywords named as in PARAMS), as a Decimal rounded at working_precision():
    default_dps() (CUSPNORM_PRECISION) plus 10 guard digits.

    Every exponent must be a multiple of 1/2, so each monomial is exactly
    (r_num / r_den) * sqrt(s) with integers r_num, r_den, s.  The terms
    whose s is a perfect square are summed as one exact Fraction, rounded
    once at the end, so an exact decimal tie reaches nstr unrounded; every
    other term costs one rounded division, square root and product.
    """
    exact = Fraction(0)
    with working_precision():
        total = Decimal(0)
        for vec in terms:
            r_num = r_den = s = 1
            for param, e in zip(PARAMS, vec.exps):
                if not e:
                    continue
                twice, rem = divmod(2 * e.numerator, e.denominator)
                if rem:
                    raise ConfigError(f"exponent {e} of {param} is not in Z/2")
                k, half = divmod(twice, 2)
                v = values[param]
                num, den = v.numerator, v.denominator
                if k > 0:
                    r_num *= num**k
                    r_den *= den**k
                elif k < 0:
                    r_num *= den**-k
                    r_den *= num**-k
                if half:  # sqrt(num/den) = sqrt(num*den) / den
                    s *= num * den
                    r_den *= den
            root = isqrt(s)
            if root * root == s:
                exact += Fraction(r_num * root, r_den)
            else:
                total += Decimal(r_num) / r_den * Decimal(s).sqrt()
        return total + Decimal(exact.numerator) / exact.denominator


# the amplifier envelope, in display order
AMPL_RHS_TERMS = (
    monomial(Lam=1, M=-1),
    monomial(Lam=2, y=1, N0=1, M=-3),
    monomial(Lam=Fraction(5, 2), M=-2, N=Fraction(-1, 2)),
    monomial(Lam=4, M=-1, N=-1),
)

# The right-hand side of each counting estimate, in display order, with the
# N^epsilon factors set to 1.  L is the length of the determinant range
# (for "para" the determinant itself; its envelope is the constant term
# alone when L is not a square, since then no matrix is parabolic).
ENVELOPES = {
    "eq1": (
        monomial(L=1, M=-1, N=-1, y=-1),
        monomial(L=Fraction(3, 2), M=-2, N=Fraction(-1, 2)),
        monomial(L=2, M=-2, N=-1),
    ),
    "eq2": (
        monomial(L=1, N=-1, y=-1),
        monomial(L=2, M=-1, N=Fraction(-1, 2)),
        monomial(L=3, M=-1, N=-1),
    ),
    "eq3": (
        monomial(L=Fraction(3, 2), N=-1, y=-1),
        monomial(L=3, M=-1, N=Fraction(-1, 2)),
        monomial(L=Fraction(9, 2), M=-1, N=-1),
    ),
    "eq4": (
        monomial(L=1, M=-1),
        monomial(L=2, y=1, N=Fraction(1, 2), M=-2),
        monomial(L=3, y=1, M=-2),
    ),
    "eq5": (
        monomial(L=1, M=-1),
        monomial(L=Fraction(5, 2), y=1, N=Fraction(1, 2), M=-2),
        monomial(L=4, y=1, M=-2),
    ),
    "eq6": (
        monomial(),
        monomial(L=2, y=1, N=Fraction(1, 2), M=-1),
        monomial(L=4, y=1, M=-1),
    ),
    "eq7": (
        monomial(),
        monomial(L=Fraction(1, 2), y=1, N=Fraction(1, 2), M=-1),
        monomial(L=1, y=1, M=-1),
    ),
    "para": (
        monomial(),
        monomial(L=Fraction(1, 2), y=1, N0=1, M=-1),
        monomial(L=Fraction(1, 2), N0=1, N=-1),
    ),
    "ampl": AMPL_RHS_TERMS,
}


def bound_rhs_ampl(n: int, m: int, lam: int, y):
    """Four-term envelope Lambda/M + Lambda^2 y N0 / M^3
    + Lambda^(5/2) / (M^2 sqrt(N)) + Lambda^4 / (M N), evaluated at the
    precision of evaluate_terms (CUSPNORM_PRECISION)."""
    n_over_m_squared(n, m)
    n0 = squarefree_split(n)[1]
    return evaluate_terms(AMPL_RHS_TERMS, N=n, M=m, Lam=lam, y=Fraction(y), N0=n0)


# ---------------------------------------------------------------------------
# exponent pipelines
# ---------------------------------------------------------------------------

# the amplifier envelope as displayed: the max of its distinct monomials
AMPL_RHS = "max(" + ", ".join(
    str(v) for v in sorted(set(AMPL_RHS_TERMS), key=lambda v: v.exps)
) + ")"

LAMBDA_CHOICE = monomial(N=Fraction(1, 3))


@dataclass
class DerivationStep:
    op: str
    inputs: dict
    output: object
    certificate: object = None

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, ExponentVector):
                return str(v)
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, MonomialMax):
                return {
                    "monomial": str(v.monomial),
                    "max": str(v.max_value),
                    "argmax": [str(x) for x in v.argmax],
                }
            if isinstance(v, DominationResult):
                return {
                    "target": str(v.target),
                    "ok": v.ok,
                    "per_monomial": [enc(mm) for mm in v.per_monomial],
                }
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            return v

        out = {"op": self.op, "inputs": enc(self.inputs), "output": enc(self.output)}
        if self.certificate is not None:
            out["certificate"] = enc(self.certificate)
        return out


@dataclass
class DerivationReport:
    case: str
    steps: list[DerivationStep]
    sup_norm_exponent: object  # Fraction, or list of ExponentVector for a max
    ok: bool

    def exponent_at(self, nu) -> Fraction:
        """Concrete exponent at N0 = N^nu; both derivations hold only for
        0 <= nu <= 1/2, that is N0^2 | N."""
        nu = Fraction(nu)
        if not 0 <= nu <= Fraction(1, 2):
            raise OutOfRange(f"nu = {nu} outside 0 <= nu <= 1/2")
        if isinstance(self.sup_norm_exponent, Fraction):
            return self.sup_norm_exponent
        vals = [
            vec["N"] + vec["N0"] * nu for vec in self.sup_norm_exponent
        ]
        return max(vals)

    def to_json(self) -> dict:
        if isinstance(self.sup_norm_exponent, Fraction):
            expo = str(self.sup_norm_exponent)
        else:
            expo = "max(" + ", ".join(str(v) for v in self.sup_norm_exponent) + ")"
        return {
            "case": self.case,
            "ok": self.ok,
            "sup_norm_exponent": expo,
            "steps": [s.to_json() for s in self.steps],
        }

    def render_text(self) -> str:
        """Human-readable derivation transcript."""
        doc = self.to_json()
        lines = [
            f"derivation case: {doc['case']}",
            f"all checks hold: {doc['ok']}",
            f"sup-norm exponent: {doc['sup_norm_exponent']}",
            "",
        ]
        for i, step in enumerate(doc["steps"], start=1):
            lines.append(f"step {i}: {step['op']}")
            for key in ("inputs", "output", "certificate"):
                if key in step:
                    lines.append(f"  {key}: {step[key]}")
        return "\n".join(lines) + "\n"


def _suffices_bound() -> list[ExponentVector]:
    """M^2/Lam + y N0 + M Lam^(1/2) N^(-1/2) + M^2 Lam^2 / N, assembled from
    the amplifier envelope times the spectral prefactor M^2/Lam^2 and the
    norm factor M (listed in display order, duplicates kept separate)."""
    prefactor = monomial(M=3, Lam=-2)  # M^2/Lam^2 from the amplifier, M from <g,g>
    return [v + prefactor for v in AMPL_RHS_TERMS]


def _fourier_step(thr: Fraction) -> DerivationStep:
    """For M >= N^thr, y' >= M^2/N = N^(2 thr - 1) at worst; each branch is
    evaluated at its extreme point of that range."""
    branches = fourier_branch_exponents(thr, 2 * thr - 1)
    return DerivationStep(
        "fourier_large_M",
        {"M_threshold": thr, "y_floor": 2 * thr - 1},
        {**branches, "exponent": max(branches.values())},
    )


def theorem_pipeline(case: str = "main", nu=None) -> DerivationReport:
    """Replay the final optimization: a Fourier branch for large M and an
    amplification branch for small M, joined by an exact domination check.

    case "main": exponent -1/12.  case "case2" (no square divisor M^2 with
    1 < M < N^(1/6)): exponent max(-1/6, -1/4 + nu/4) over N0 = N^nu,
    nu <= 1/2; worst case -1/8.
    """
    if case == "main":
        thr = Fraction(1, 12)
        steps = [_fourier_step(thr)]
        fourier_exp = steps[0].output["exponent"]
        terms = _suffices_bound()
        steps.append(
            DerivationStep(
                "suffices_inequality",
                {"amplifier_rhs": AMPL_RHS, "prefactor": "M^3/Lam^2"},
                terms,
            )
        )
        terms_sub = [substitute(t, "Lam", LAMBDA_CHOICE) for t in terms]
        steps.append(
            DerivationStep("choose_lambda", {"Lam": LAMBDA_CHOICE}, terms_sub)
        )
        cs = ConstraintSet(("mu", "eta", "nu"))
        cs.box("mu", 0, thr)
        cs.ge({"eta": 1}, Fraction(5, 6))
        cs.le({"eta": 1, "mu": 2}, 1)  # y >= M^2/N
        cs.box("nu", 0, Fraction(1, 2))
        target = monomial(N=-Fraction(1, 6))
        dom = dominated_by(terms_sub, target, cs)
        per_term = [maximize(t, cs) for t in terms_sub]
        steps.append(
            DerivationStep(
                "domination",
                {"target": target, "constraints": "0<=mu<=1/12, 5/6<=eta<=1-2mu, 0<=nu<=1/2"},
                [mm.max_value for mm in per_term],
                certificate=dom,
            )
        )
        # |g'|^2 << M^-1 N^-1/6 and <g,g> <= M give |g| << N^-1/12
        ampl_exp = -Fraction(1, 12)
        ok = dom.ok and fourier_exp == -Fraction(1, 12)
        final = max(fourier_exp, ampl_exp)
        steps.append(
            DerivationStep(
                "conclude",
                {"fourier": fourier_exp, "amplification": ampl_exp},
                final,
            )
        )
        return DerivationReport("main", steps, final, ok)

    if case == "case2":
        steps = [
            _fourier_step(Fraction(1, 6)),
            DerivationStep(
                "hypothesis", {"no_square_divisor_below": "N^(1/6)"}, "M = 1"
            ),
            # Fourier finishes unless y' <= (N N0)^(-1/2); symbolic in nu
            DerivationStep(
                "fourier_y_large",
                {"y_floor": "(N N0)^(-1/2)"},
                "exponent -(1 - nu)/4 = -1/4 + nu/4 on the low branch",
            ),
        ]
        terms = [substitute(substitute(t, "M", monomial()), "Lam", LAMBDA_CHOICE)
                 for t in _suffices_bound()]
        steps.append(
            DerivationStep("choose_lambda", {"Lam": LAMBDA_CHOICE, "M": 1}, terms)
        )
        cs = ConstraintSet(("eta", "nu"))
        cs.box("nu", 0, Fraction(1, 2))
        cs.le({"eta": 1}, 1)  # y >= 1/N
        # y <= (N N0)^(-1/2): eta >= 1/2 + nu/2
        cs.ge({"eta": 1, "nu": -Fraction(1, 2)}, Fraction(1, 2))
        targets = [
            monomial(N=-Fraction(1, 3)),
            monomial(N=-Fraction(1, 2), N0=Fraction(1, 2)),
        ]
        assignment = []
        for t in terms:
            doms = [dominated_by([t], tg, cs) for tg in targets]
            hit = next((i for i, d in enumerate(doms) if d.ok), None)
            assignment.append((t, hit, doms[hit] if hit is not None else doms[0]))
        ok = all(hit is not None for _, hit, _ in assignment)
        steps.append(
            DerivationStep(
                "domination_max_targets",
                {"targets": targets,
                 "constraints": "0<=nu<=1/2, 1/2+nu/2<=eta<=1"},
                [(str(t), i) for t, i, _ in assignment],
                certificate=[d for _, _, d in assignment],
            )
        )
        # square roots of the two targets, joined with the Fourier branches
        final_vectors = [
            monomial(N=-Fraction(1, 6)),
            monomial(N=-Fraction(1, 4), N0=Fraction(1, 4)),
        ]
        steps.append(
            DerivationStep(
                "conclude",
                {"amplification": targets, "fourier": "-1/4 + nu/4"},
                final_vectors,
            )
        )
        report = DerivationReport("case2", steps, final_vectors, ok)
        if nu is not None:
            steps.append(
                DerivationStep("evaluate_nu", {"nu": Fraction(nu)},
                               report.exponent_at(nu))
            )
        return report

    raise ConfigError(f"unknown case {case!r}; expected 'main' or 'case2'")
