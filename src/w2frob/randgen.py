"""Seeded random generators for sweeps; deterministic given the Random instance.

Every draw goes through ``witt2.draw_below``, which gives the value of
``random.Random.randrange`` and leaves the same generator state, so
``randint(a, b)`` is ``a + draw_below(rng, b - a + 1)`` draw for draw.
"""

from __future__ import annotations

from .errors import RangeError
from .froblift import AffineChartLift
from .polyalg import Poly
from .witt2 import FiniteField, draw_below


def random_poly(rng, ring, nvars: int, max_deg: int, max_terms: int) -> Poly:
    """Sparse random polynomial of total degree <= max_deg (no Laurent).

    It draws a term count in [0, max_terms], then per term an exponent
    tuple (each entry in [0, max_deg], the whole tuple redrawn until its
    sum is <= max_deg) and a coefficient; a later term at the same
    monomial replaces an earlier one, and a zero coefficient adds nothing.
    """
    if max_deg < 0 or max_terms < 0:
        raise RangeError(f"random_poly needs max_deg >= 0 and max_terms >= 0, "
                         f"got {max_deg} and {max_terms}")
    count = draw_below(rng, max_terms + 1)
    if not count:
        return Poly.zero(ring, nvars)
    random_int, wrap = ring.random_int, ring.wrap
    bound = max_deg + 1
    terms = {}
    for _ in range(count):
        while True:
            # a loop: a comprehension would add a frame per term (Python 3.11)
            exps = ()
            for _ in range(nvars):
                exps += (draw_below(rng, bound),)
            if sum(exps) <= max_deg:
                break
        n = random_int(rng)
        if n:
            # the element, not its int: Poly reads a bare int as an integer
            terms[exps] = wrap(n)
    return Poly(ring, nvars, terms)


def random_chart_lift(rng, field: FiniteField, nvars: int) -> AffineChartLift:
    """Random polynomial-chart lift: up to 4 correction terms each, degrees <= p."""
    corrections = tuple(random_poly(rng, field, nvars, field.p, 4) for _ in range(nvars))
    return AffineChartLift(field, nvars, (False,) * nvars, corrections)


def random_exponent_matrix(rng, p: int, m: int, n: int):
    return [[draw_below(rng, p) for _ in range(n)] for _ in range(m)]
