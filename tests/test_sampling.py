import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from filexlab.sampling import categorical_counts
from filexlab.seeding import make_rng


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=64).filter(lambda w: sum(w) > 0),
       st.integers(0, 2000), st.integers(0, 2**64 - 1))
def test_counts_property_cover_every_draw(weights, n_draws, seed):
    counts = categorical_counts(np.array(weights), n_draws, make_rng(seed))
    assert counts.shape == (len(weights),)
    assert np.all(counts >= 0)
    assert counts.sum() == n_draws

