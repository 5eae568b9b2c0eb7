"""The seeded generators draw exactly what their randint/randrange versions drew."""

import random
import signal

import pytest
from oracles import (
    randint_exponent_matrix,
    randint_random_poly,
    randrange_field_draw,
    randrange_witt_draw,
)

from w2frob import GF, W2, RangeError, ShapeError
from w2frob.randgen import random_chart_lift, random_exponent_matrix, random_poly
from w2frob.witt2 import draw_below

QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (17, 1)]  # q in {2,3,4,5,7,8,9,17}


def _rings():
    """(id, ring, its randrange draw, draw -> canonical int) for F_q and W2(F_q).

    Under its other name Z/p^2, W2(F_p) reads a draw (a0, a1) as the residue
    a0^p + p*a1 mod p^2 in plain ints rather than through ``pair``.
    """
    for p, m in QS:
        F = GF(p, m)
        yield repr(F), F, randrange_field_draw(p, m), lambda c, F=F: F.elem(list(c)).n
        W = W2(p, m)
        yield repr(W), W, randrange_witt_draw(p, m), lambda c, W=W: W.pair(list(c[0]), list(c[1])).n
    for p in (2, 3, 5, 17):
        residue = lambda c, p=p: (c[0][0] ** p + p * c[1][0]) % (p * p)
        yield f"Z/{p}^2", W2(p), randrange_witt_draw(p, 1), residue


RINGS = [pytest.param(*case, id=name) for name, *case in _rings()]


class _BoundedRandom(random.Random):
    """A Random that fails its test instead of hanging after ``limit`` draws."""

    def __init__(self, seed, limit=10_000):
        super().__init__(seed)
        self.draws, self.limit = 0, limit

    def getrandbits(self, k):
        self.draws += 1
        if self.draws > self.limit:
            raise RuntimeError(f"more than {self.limit} draws")
        return super().getrandbits(k)


def test_draw_below_is_randrange_draw_for_draw():
    ours, theirs = random.Random(20130902), random.Random(20130902)
    powers = [2**k + d for k in range(1, 41) for d in (-1, 0, 1)]
    for n in [*range(1, 1101), *powers]:
        for _ in range(3):
            assert draw_below(ours, n) == theirs.randrange(n), n
            assert ours.getstate() == theirs.getstate(), n


@pytest.mark.parametrize("n", [0, -1, -7])
def test_draw_below_rejects_an_empty_range_without_drawing(n):
    rng = _BoundedRandom(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        draw_below(rng, n)
    assert rng.draws == 0 and rng.getstate() == state


@pytest.mark.parametrize("ring, draw, to_int", RINGS)
def test_ring_random_is_the_randrange_draw(ring, draw, to_int):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(8):
            u = ring.random(ours)
            assert u is ring.wrap(to_int(draw(theirs))), seed
            assert ring.random_int(ours) == to_int(draw(theirs)), seed
        assert ours.random() == theirs.random(), seed


@pytest.mark.parametrize("ring, draw, to_int", RINGS)
def test_random_poly_is_the_randint_generator(ring, draw, to_int):
    # every shape at one seed each: 100 to 700 seeds per ring; three polynomials
    # in a row, so that each must leave the generator where the old one did
    seed = 0
    for nvars in range(4):
        for max_deg in range(2 * ring.p + 1):
            for max_terms in range(5):
                seed += 1
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    f = random_poly(ours, ring, nvars, max_deg, max_terms)
                    old = randint_random_poly(theirs, draw, nvars, max_deg, max_terms)
                    assert f.ring is ring and f.nvars == nvars
                    assert f.terms == {m: to_int(c) for m, c in old.items()}, (seed, old)
                assert ours.random() == theirs.random(), seed
    assert seed >= 50


def test_random_exponent_matrix_is_the_randint_generator():
    for seed in range(60):
        ours, theirs = random.Random(seed), random.Random(seed)
        for p in (2, 3, 5, 17):
            m, n = 1 + seed % 4, 1 + seed // 15
            assert random_exponent_matrix(ours, p, m, n) == randint_exponent_matrix(theirs, p, m, n)
        assert ours.random() == theirs.random(), seed


@pytest.mark.parametrize(
    "nvars, max_deg, max_terms", [(0, -1, 3), (2, -1, 3), (1, 2, -1), (0, 0, -1), (3, -5, -5)]
)
def test_random_poly_rejects_negative_bounds_before_drawing(nvars, max_deg, max_terms):
    # with no variables and max_deg = -1 a redraw loop would spin without
    # drawing, so the alarm, not the draw bound, ends it
    def expire(signum, frame):
        raise TimeoutError("random_poly did not return within 5 s")

    rng = _BoundedRandom(3)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(RangeError):
            random_poly(rng, GF(3), nvars, max_deg, max_terms)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rng.draws == 0


@pytest.mark.parametrize(
    "nvars, max_deg, max_terms",
    [
        (1.5, 2, 3), ("2", 2, 3), (True, 2, 3), (None, 2, 3), (-1, 2, 3),
        (1, 2.0, 3), (1, 2, 2.0), (1, True, 3), (1, 2, False), (1, "2", 3), (2, 2, None),
        (1, -1.0, 3), (1.5, -1, -1),
    ],
)
def test_random_poly_rejects_non_int_arguments_before_drawing(nvars, max_deg, max_terms):
    # the type is checked before the term count is drawn, so the error is the
    # same at every seed, and a bool is not read as 0 or 1
    for seed in range(4):
        rng = _BoundedRandom(seed)
        with pytest.raises(ShapeError):
            random_poly(rng, GF(3), nvars, max_deg, max_terms)
        assert rng.draws == 0, seed


def test_random_poly_keeps_zero_bounds():
    rng = _BoundedRandom(5)
    for _ in range(20):
        f = random_poly(rng, GF(3), 0, 0, 2)
        assert set(f.terms) <= {()}
        assert not random_poly(rng, GF(3), 2, 4, 0).terms


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])  # q in {2,3,4,5,9}
def test_random_chart_lift_is_the_randint_generator(p, m):
    # one randint polynomial per correction, x_1's first, up to 4 terms of degree <= p
    F, draw = GF(p, m), randrange_field_draw(p, m)
    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        for nvars in (1, 2, 3):
            lift = random_chart_lift(ours, F, nvars)
            assert lift.field is F and lift.nvars == nvars
            assert lift.laurent_mask == (False,) * nvars
            for f in lift.corrections:
                old = randint_random_poly(theirs, draw, nvars, max_deg=p, max_terms=4)
                assert f.ring is F and f.nvars == nvars
                assert f.terms == {e: F.elem(list(c)).n for e, c in old.items()}, (seed, old)
        assert ours.random() == theirs.random(), seed
