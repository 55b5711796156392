"""Exact-arithmetic toolkit for the cusp geometry of Gamma0(N): cusp/width
tables, Atkin-Lehner conjugation to width-one cusps, a certified gap
principle, complete matrix counting near a point, Hecke coset
combinatorics on Gamma0(N; M), and a symbolic exponent optimizer.

The package exports its documented entry points; everything else lives in
the submodules (`cuspnorm.bounds`, `cuspnorm.hecke`, ...)."""

from .conjugation import gap_reduce
from .counting import count_delta_near, enumerate_delta_near
from .modgroup import Mat2, PointH

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "PointH",
    "count_delta_near",
    "enumerate_delta_near",
    "gap_reduce",
]
