"""Tests for deterministic random-number helpers."""

import numpy as np
import pytest

from repro.sim import DEFAULT_SEED, derive_seed, make_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_default_seed_is_deterministic(self):
        assert make_rng().random() == make_rng().random()

    def test_default_is_the_documented_seed(self):
        assert make_rng().integers(2**32, size=8).tolist() == (
            make_rng(DEFAULT_SEED).integers(2**32, size=8).tolist()
        )

    def test_seed_zero_is_not_the_default(self):
        # Only ``None`` selects DEFAULT_SEED; a falsy seed is a seed.
        assert make_rng(0).random() != make_rng().random()

    def test_returns_a_numpy_generator(self):
        assert isinstance(make_rng(7), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_depends_on_base_seed(self):
        assert derive_seed(7, 1) != derive_seed(8, 1)

    def test_depends_on_keys(self):
        assert derive_seed(7, 1) != derive_seed(7, 2)

    def test_key_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_per_index_seeds_are_distinct(self):
        # Shards and churn members draw ``derive_seed(seed, index)`` each.
        assert len({derive_seed(7, index) for index in range(1000)}) == 1000

    def test_numpy_integers_match_python_ints(self):
        # Sweep grids may hand over numpy scalars; the seed must not change.
        assert derive_seed(np.int64(7), np.int32(3)) == derive_seed(7, 3)

    @pytest.mark.parametrize("base", [0, 1, DEFAULT_SEED, 2**62])
    def test_is_a_valid_non_negative_int63(self, base):
        seed = derive_seed(base, 5)
        assert isinstance(seed, int)
        assert 0 <= seed < 2**63 - 1
        make_rng(seed)  # usable as a generator seed
