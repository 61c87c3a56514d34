import numpy as np
import pytest

from dispersat.cnf import CapabilityError, evaluate
from dispersat.generators import planted_kcnf, separated_planted_instance


def test_keys_wider_than_63_bits_are_refused():
    rng = np.random.default_rng(0)
    with pytest.raises(CapabilityError):
        planted_kcnf(64, 3, 10, rng)
    with pytest.raises(CapabilityError):
        separated_planted_instance(64, 3, 10, 1, rng)
    with pytest.raises(CapabilityError):
        separated_planted_instance(64, 3, 10, 2, rng)
    formula, planted = planted_kcnf(63, 3, 10, rng)
    assert evaluate(formula, planted[0])
