from random import Random

import pytest

from parastd.polyring import AScalar
from parastd.sampling import variety_points


@pytest.mark.parametrize("m", [1, 2, 3])
def test_constant_condition_has_no_points(m):
    three = AScalar.const(3, m)
    assert variety_points([three], m, Random(0), 3) == []
    assert variety_points([AScalar.var(0, m), three], m, Random(0), 3) == []

