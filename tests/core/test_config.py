"""Tests for VerifierConfig."""

import pytest

from repro.core.config import VerifierConfig


class TestVerifierConfig:
    def test_defaults_valid(self):
        config = VerifierConfig()
        assert config.delta > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": -1.0},
            {"timeout": 0.0},
            {"max_depth": 0},
            {"min_split_fraction": 0.0},
            {"min_split_fraction": 0.5},
            {"delta": float("nan")},
            {"timeout": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            VerifierConfig(**kwargs)

    def test_delta_positivity_is_documented_requirement(self):
        # Theorem 5.2 needs delta > 0; the error message should say why.
        with pytest.raises(ValueError, match="Theorem"):
            VerifierConfig(delta=0.0)
