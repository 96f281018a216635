"""Random-number-generator normalization.

Every stochastic entry point in the library accepts a ``seed`` argument
that may be ``None``, an integer, or an existing
:class:`numpy.random.Generator`; this module provides the single
conversion point so results are reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: ``numpy.random`` is named as a string: it loads only when a generator is
#: first built, not with every module that accepts a seed.
SeedLike = Union[None, int, "np.random.Generator"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged (so callers can
    thread one generator through a pipeline); an integer builds a fresh
    PCG64 generator; ``None`` draws OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list:
    """Split ``rng`` into ``count`` statistically independent children.

    Useful when simulating P processors that each need a private stream
    whose draws do not depend on processor execution order.
    """
    bit_gen = rng.bit_generator
    seeds = bit_gen.seed_seq.spawn(count)
    return [np.random.Generator(type(bit_gen)(s)) for s in seeds]
