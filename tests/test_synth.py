import numpy as np
import pytest

from goldseason import (
    ADDITIVE,
    MULTIPLICATIVE,
    DataError,
    GeneratorSpec,
    MonthStamp,
    decompose,
    generate_series,
)

from conftest import make_series
from reference_decompose import reference_decompose


def spec_with(**kwargs):
    base = dict(
        model=MULTIPLICATIVE,
        intercept=200.0,
        slope=1.0,
        indices=tuple(1 + 0.02 * np.sin(np.arange(12))),
        length=120,
        seed=1,
        start=MonthStamp(1990, 1),
    )
    base.update(kwargs)
    return GeneratorSpec(**base)


class TestGeneratorSpec:
    def test_indices_auto_normalized(self):
        spec = spec_with(indices=(2.0,) * 12)
        assert spec.indices == (1.0,) * 12
        spec = spec_with(model=ADDITIVE, indices=(3.0,) * 12)
        assert spec.indices == (0.0,) * 12

    def test_validation(self):
        with pytest.raises(DataError, match="length"):
            spec_with(length=23)
        with pytest.raises(DataError, match="noise_sd"):
            spec_with(noise_sd=-0.1)
        with pytest.raises(DataError, match="12 seasonal"):
            spec_with(indices=(1.0,) * 11)
        with pytest.raises(DataError, match="positive"):
            spec_with(indices=(-1.0,) + (1.0,) * 11)
        with pytest.raises(DataError, match="model"):
            spec_with(model="mult")

    @pytest.mark.parametrize("noise_sd", [0.0, 0.1])
    def test_negative_seed_rejected_with_or_without_noise(self, noise_sd):
        with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
            spec_with(seed=-1, noise_sd=noise_sd)

    @pytest.mark.parametrize("field, value", [
        ("intercept", float("nan")), ("intercept", float("inf")), ("slope", float("-inf")),
        ("noise_sd", float("nan")), ("noise_sd", float("inf")), ("indices", (float("nan"),) + (1.0,) * 11),
    ])
    def test_non_finite_parameter_rejected(self, field, value):
        name = "seasonal indices" if field == "indices" else field
        with pytest.raises(DataError, match=f"^{name} must be finite"):
            spec_with(**{field: value})


class TestGenerateSeries:
    def test_flat_spec_is_constant(self):
        spec = spec_with(intercept=100.0, slope=0.0, indices=(1.0,) * 12, length=36)
        series = generate_series(spec)
        assert (series.prices() == 100.0).all()
        assert series.start == MonthStamp(1990, 1)
        assert len(series) == 36

    def test_seed_determinism(self):
        a = generate_series(spec_with(noise_sd=0.05, seed=42))
        b = generate_series(spec_with(noise_sd=0.05, seed=42))
        assert a == b
        c = generate_series(spec_with(noise_sd=0.05, seed=43))
        assert a != c

    def test_additive_noise_is_gaussian_about_trend(self):
        spec = spec_with(model=ADDITIVE, intercept=1000.0, slope=0.0,
                         indices=(0.0,) * 12, noise_sd=5.0, length=1200, seed=9)
        prices = generate_series(spec).prices()
        assert abs(prices.mean() - 1000.0) < 1.0
        assert abs(prices.std() - 5.0) < 0.5

    def test_multiplicative_noise_has_unit_median(self):
        spec = spec_with(intercept=100.0, slope=0.0, indices=(1.0,) * 12,
                         noise_sd=0.05, length=2400, seed=11)
        ratios = generate_series(spec).prices() / 100.0
        assert abs(np.median(ratios) - 1.0) < 0.01

    def test_nonpositive_generation_rejected(self):
        spec = spec_with(model=ADDITIVE, intercept=10.0, slope=-1.0,
                         indices=(0.0,) * 12, length=24)
        with pytest.raises(DataError, match="non-positive"):
            generate_series(spec)

    @pytest.mark.parametrize("model, flat", [(MULTIPLICATIVE, 1.0), (ADDITIVE, 0.0)])
    def test_overflowing_value_rejected_without_a_warning(self, model, flat):
        spec = spec_with(model=model, intercept=1e308, slope=1e308, indices=(flat,) * 12)
        with pytest.raises(DataError, match=f"^generated value inf at 1990-01 is not finite [(]{model} model[)]$"):
            generate_series(spec)  # the suite turns a RuntimeWarning into an error

    def test_round_trip_with_published_trend_parameters(self):
        # additive specs round-trip exactly through the decomposition
        spec = spec_with(model=ADDITIVE, intercept=117.2, slope=2.09,
                         indices=tuple(np.sin(np.arange(12)) * 5), length=240)
        result = decompose(generate_series(spec), model=ADDITIVE)
        assert result.trend.intercept == pytest.approx(117.2, rel=1e-6)
        assert result.trend.slope == pytest.approx(2.09, rel=1e-6)
        np.testing.assert_allclose(result.indices.values, spec.indices, atol=1e-9)


class TestReferenceDecompose:
    def test_constant_series_matches_decompose(self):
        series = make_series([5.0] * 48)
        assert reference_decompose(series) == decompose(series)

    @pytest.mark.parametrize("model", [MULTIPLICATIVE, ADDITIVE])
    @pytest.mark.parametrize("aggregator", ["median", "mean"])
    def test_agreement_on_noisy_series(self, model, aggregator, rng):
        n = 150
        spec = spec_with(model=model, length=n, seed=int(rng.integers(1, 1 << 30)),
                         noise_sd=0.03 if model == MULTIPLICATIVE else 3.0,
                         intercept=300.0, slope=0.8,
                         indices=tuple(1 + 0.03 * np.cos(np.arange(12))) if model == MULTIPLICATIVE
                         else tuple(np.cos(np.arange(12)) * 4))
        series = generate_series(spec)
        fast = decompose(series, model=model, aggregator=aggregator)
        naive = reference_decompose(series, model=model, aggregator=aggregator)
        np.testing.assert_allclose(fast.indices.values, naive.indices.values, atol=1e-9)
        assert fast.trend.intercept == pytest.approx(naive.trend.intercept, abs=1e-9)
        assert fast.trend.slope == pytest.approx(naive.trend.slope, abs=1e-9)
        for name in ("mape", "mad", "msd"):
            a, b = getattr(fast.accuracy, name), getattr(naive.accuracy, name)
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9)

    def test_same_error_contract(self):
        with pytest.raises(DataError, match="at least 24"):
            reference_decompose(make_series([1.0] * 23))


class TestNoiseMonotonicity:
    def test_mape_grows_with_noise(self):
        # non-strict statistical check across seeds: average fit error
        # must not decrease when the noise level rises
        levels = [0.005, 0.02, 0.08]
        means = []
        for sd in levels:
            mapes = []
            for seed in range(50):
                spec = spec_with(noise_sd=sd, seed=seed, length=120,
                                 intercept=400.0, slope=0.5)
                result = decompose(generate_series(spec))
                mapes.append(result.accuracy.mape)
            means.append(np.mean(mapes))
        assert means[0] <= means[1] <= means[2]
