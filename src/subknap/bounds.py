"""Worst-case robustness factor as a function of curvature.

For curvature c the guarantee is alpha = (1-x)/(2-(2-c)x) where x balances
the increasing prefix bound (1/c)(1-exp(-cz)) against the decreasing
overflow bound (1-z)/(2-(2-c)z) on [0,1].  The crossing is unique, so plain
bisection on a guaranteed bracket beats anything fancier here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

#: best previously known deterministic factor for fully curved objectives
KAWASE_DETERMINISTIC = 2.0 * (1.0 - 1.0 / math.e) / 21.0

#: optimal factor in the modular case
MODULAR_OPTIMUM = 0.5

# below this, evaluate the analytic c -> 0 limit instead of risking
# catastrophic cancellation in (1/c)(1 - exp(-cz))
_C_LIMIT = 1e-9

_WIDTH = 1e-12


@dataclass(frozen=True)
class BoundResult:
    c: float
    x: float
    alpha: float


def _check_c(c: float) -> float:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"curvature must lie in [0, 1], got {c!r}")
    return float(c)


def prefix_bound(c: float, z: float) -> float:
    """The prefix bound (1/c)(1 - exp(-cz)) of Theorem 6, or its analytic
    limit z as c -> 0 for c <= _C_LIMIT."""
    if c <= _C_LIMIT:
        return z
    return (1.0 - math.exp(-c * z)) / c


def _gap(c: float, z: float) -> float:
    return prefix_bound(c, z) - (1.0 - z) / (2.0 - (2.0 - c) * z)


def solve_x(c: float) -> float:
    """Unique balance point of the two bounds on [0, 1].

    The gap function is negative at 0 and positive at 1 with a single
    crossing, so bisect to interval width 1e-12; in the modular limit the
    balance equation degenerates to z = 1/2.
    """
    c = _check_c(c)
    if c <= _C_LIMIT:
        return 0.5
    lo, hi = 0.0, 1.0
    while hi - lo > _WIDTH:
        mid = 0.5 * (lo + hi)
        if _gap(c, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha(c: float) -> float:
    """Robustness factor guaranteed at curvature c."""
    c = _check_c(c)
    x = solve_x(c)
    return (1.0 - x) / (2.0 - (2.0 - c) * x)


@dataclass(frozen=True)
class BoundTable:
    results: tuple[BoundResult, ...]
    kawase_deterministic: float = KAWASE_DETERMINISTIC
    modular_optimum: float = MODULAR_OPTIMUM

    def to_csv(self) -> str:
        lines = ["c,x,alpha"]
        for r in self.results:
            lines.append(f"{r.c!r},{r.x!r},{r.alpha!r}")
        lines.append(f"# kawase_deterministic={self.kawase_deterministic!r}")
        lines.append(f"# modular_optimum={self.modular_optimum!r}")
        return "\n".join(lines) + "\n"


def bound_table(c_grid: Iterable[float]) -> BoundTable:
    """One (c, x, alpha) row per grid point plus the reference constants."""
    return BoundTable(tuple(BoundResult(c, solve_x(c), alpha(c))
                            for c in map(_check_c, c_grid)))
