from random import Random

import pytest

from parastd import sampling
from parastd.polyring import AScalar, rational_roots
from parastd.sampling import variety_points


@pytest.mark.parametrize("m", [1, 2, 3])
def test_constant_condition_has_no_points(m):
    three = AScalar.const(3, m)
    assert variety_points([three], m, Random(0), 3) == []
    assert variety_points([AScalar.var(0, m), three], m, Random(0), 3) == []



# Sample points pinned byte for byte: the points, the rational_roots calls and
# the next value of the rng stream after each call, for fixed seeds. A change
# to sampling or root finding that moves any of them moves the results of
# every command that samples, for a given seed.

def _scalars(m):
    return [AScalar.var(i, m) for i in range(m)], AScalar.one(m)


def _m1_avoid():
    (a,), one = _scalars(1)
    two = one + one
    return [(a - one) * (a + two) * (two * a - one) * a], [a - one]


def _m2_top_cancels():
    # the b^2 coefficient vanishes when a = 1 is drawn
    (a, b), one = _scalars(2)
    return [(a - one) * b * b + b - one - one], []


def _m2_free_variable():
    # all coefficients in b vanish when a = 1 is drawn: b is free
    (a, b), one = _scalars(2)
    return [(a - one) * (b * b + one)], []


def _m2_constant_after_substitution():
    # a nonzero constant in b when a = 1 is drawn: no root
    (a, b), one = _scalars(2)
    return [(a - one) * b + one], [b + one]


@pytest.mark.parametrize("case, m, seed, points, calls, next_random", [
    (_m1_avoid, 1, 0, [("-2",), ("0",), ("1/2",)], 1, 0.8444218515250481),
    (_m2_top_cancels, 2, 4, [("7", "1/2"), ("1", "2"), ("7/8", "4"), ("43/49", "7/2")],
     8, 0.36024490950020127),
    (_m2_top_cancels, 2, 6, [("2", "-2"), ("2", "1"), ("4", "-1"), ("1", "2")],
     3, 0.6628185628837676),
    (_m2_free_variable, 2, 4, [("1", "1/2"), ("1", "2"), ("1", "4"), ("1", "7/2")],
     7, 0.36024490950020127),
    (_m2_free_variable, 2, 8, [("1", "3"), ("1", "1/2"), ("1", "3/2"), ("1", "1")],
     11, 0.701161811253186),
    (_m2_constant_after_substitution, 2, 6,
     [("8/9", "9"), ("-4", "1/5"), ("-1/2", "2/3"), ("5", "-1/4")], 6, 0.9105726967625708),
    (_m2_constant_after_substitution, 2, 46,
     [("6/5", "-5"), ("-5/3", "3/8"), ("3/4", "4"), ("-1", "1/2")], 8, 0.974363891074215),
])
def test_variety_points_pinned(monkeypatch, case, m, seed, points, calls, next_random):
    seen = []

    def counted(s):
        seen.append(s)
        return rational_roots(s)

    monkeypatch.setattr(sampling, "rational_roots", counted)
    conditions, avoid = case()
    rng = Random(seed)
    got = variety_points(conditions, m, rng, 4, avoid=avoid)
    assert [tuple(str(v) for v in p) for p in got] == points
    assert len(seen) == calls
    assert rng.random() == next_random
