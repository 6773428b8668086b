import numpy as np
import pytest

from advlab import rng


@pytest.mark.parametrize("seed, domain, step", [
    (0, rng.DOMAIN_BATCH, 0), (1, rng.DOMAIN_BATCH, 5), (7, rng.DOMAIN_NOISE, 199),
    (12345678901234567890123, rng.DOMAIN_INIT, 2 ** 63),
    (2 ** 128 - 1, rng.DOMAIN_BLOBS, 2 ** 64 - 1),
])
def test_stream_is_the_philox_keyed_by_seed_at_domain_and_step(seed, domain, step):
    got = rng.stream(seed, domain, step)
    want = np.random.Generator(np.random.Philox(key=seed, counter=domain << 128 | step << 64))
    for draw in (lambda g: g.random(9), lambda g: g.permutation(50),
                 lambda g: g.standard_normal(7), lambda g: g.integers(0, 7, 5, dtype=np.uint32)):
        assert draw(got).tobytes() == draw(want).tobytes()


@pytest.mark.parametrize("step", [-1, 2 ** 64])
def test_step_outside_the_philox_range_is_rejected(step):
    with pytest.raises(ValueError, match="step"):
        rng.stream(0, rng.DOMAIN_BATCH, step)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_the_philox_key_cannot_make_a_stream(seed):
    # config.check_seed rejects such a seed first; numpy still cannot take it as a key
    with pytest.raises(OverflowError):
        rng.stream(seed, rng.DOMAIN_BATCH, 0)
