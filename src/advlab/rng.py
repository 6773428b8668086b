"""Deterministic random streams built on the Philox counter-based generator.

Every random draw in this package comes from numpy's Philox4x64 bit
generator, keyed by a user-supplied seed in [0, 2**128). Independent uses
of the same seed are separated by placing each use at a distinct start
position in Philox's 256-bit counter space:

    counter = domain << 128 | step << 64

``domain`` tags the consumer (batch schedule, weight init, split, ...) and
``step`` indexes repeated uses inside a domain (the training iteration for
batch draws, the batch number for noise collection, ...). Each (domain,
step) pair owns 2**64 counter blocks, far more than any single draw
consumes, so streams never overlap and replaying any (seed, domain, step)
triple reproduces the exact same values on every platform.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SEED_LIMIT = 1 << 128  # a Philox key is 128 bits
STEP_LIMIT = 1 << 64   # the steps of one (seed, domain) stream

# a domain's number fixes its streams' bits, so none is renumbered; 4 is unused
DOMAIN_BATCH = 0
DOMAIN_INIT = 1
DOMAIN_SPLIT = 2
DOMAIN_NOISE = 3
DOMAIN_BLOBS = 5


class _Key(ISeedSequence):
    """A Philox key handed over as the seed source ``Philox`` reads it from (as two
    64-bit words), so no ``SeedSequence`` is built from OS entropy and dropped,
    as under ``Philox(key=...)``."""

    def __init__(self, seed: int):
        self.words = np.array([seed % (1 << 64), seed >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def stream(seed: int, domain: int, step: int = 0) -> np.random.Generator:
    """Fresh generator positioned at the (seed, domain, step) stream start. ``config.check_seed``
    checks the seed where it enters (numpy raises ``OverflowError`` past its 128 bits); the
    step is checked here, because step 2**64 would shift silently into the next domain."""
    if not 0 <= step < STEP_LIMIT:
        raise ValueError(f"stream step out of range: {step}")
    counter = (domain << 128) | (step << 64)
    return np.random.Generator(np.random.Philox(_Key(seed), counter=counter))
