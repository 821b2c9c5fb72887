import numpy as np
import pytest

from semicav.unitary import AtomFieldModel


@pytest.fixture
def three_level_model():
    """Random explicit 3-level model, weak enough to stay clear of the n_max = 10 edge."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    j = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return AtomFieldModel(3, h_ato=A + A.conj().T, j=j, omega=1.3)
