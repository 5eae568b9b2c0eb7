"""Seeded random generators for sweeps; deterministic given the Random instance."""

from __future__ import annotations

from .froblift import AffineChartLift
from .polyalg import Poly
from .witt2 import FiniteField


def random_poly(rng, ring, nvars: int, max_deg: int, max_terms: int) -> Poly:
    """Sparse random polynomial of total degree <= max_deg (no Laurent)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            if sum(exps) <= max_deg:
                break
        c = ring.random(rng)
        if not c.is_zero():
            terms[exps] = c
    return Poly(ring, nvars, terms)


def random_chart_lift(rng, field: FiniteField, nvars: int) -> AffineChartLift:
    """Random polynomial-chart lift: up to 4 correction terms each, degrees <= p."""
    corrections = tuple(random_poly(rng, field, nvars, field.p, 4) for _ in range(nvars))
    return AffineChartLift(field, nvars, (False,) * nvars, corrections)


def random_exponent_matrix(rng, p: int, m: int, n: int):
    return [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(m)]
