"""Random test data shared by the entrywise and acceptance suites."""

from typing import Optional

import numpy as np

from poscert.entrywise import SymMatrix


def random_psd(n: int, rng: np.random.Generator, rank: Optional[int] = None) -> SymMatrix:
    """Gram matrix of random Gaussian vectors."""
    r = rank if rank is not None else int(rng.integers(1, n + 1))
    x = rng.standard_normal((n, r))
    return SymMatrix(n, x @ x.T)
