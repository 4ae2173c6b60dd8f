"""Deterministic synthetic series generation.

`generate_series` realizes trend * season * noise (or trend + season +
noise) forward from explicit parameters, so decomposition tests can treat
those parameters as ground truth. Randomness comes from numpy's PCG64
generator seeded from the spec, which makes every series a pure function
of its spec and reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decompose import MULTIPLICATIVE, SeasonalIndices, _check_model
from .errors import DataError
from .series import MonthStamp, PriceSeries


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic monthly series.

    Indices are normalized at construction (mean 1 for multiplicative,
    sum 0 for additive). noise_sd is the standard deviation of the noise:
    lognormal with median 1 and log-sd noise_sd for multiplicative,
    Gaussian with mean 0 and sd noise_sd for additive.
    """

    model: str
    intercept: float
    slope: float
    indices: tuple[float, ...]
    noise_sd: float = 0.0
    length: int = 240
    seed: int = 0
    start: MonthStamp = field(default_factory=lambda: MonthStamp(2000, 1))
    currency: str = "SYN"

    def __post_init__(self) -> None:
        _check_model(self.model)
        if self.length < 24:
            raise DataError(f"length must be at least 24, got {self.length}")
        if self.start.index() + self.length - 1 > MonthStamp(9999, 12).index():
            raise DataError(f"{self.length} months from {self.start} end at {self.start.shift(self.length - 1)}, "
                            "after 9999-12, the last month a stamp can name")
        for name in ("intercept", "slope", "noise_sd"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if not np.isfinite(self.indices).all():
            raise DataError(f"seasonal indices must be finite, got {list(self.indices)}")
        if self.noise_sd < 0.0:
            raise DataError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        normalized = SeasonalIndices.from_values(self.model, self.indices).values
        if self.model == MULTIPLICATIVE and min(self.indices) <= 0.0:
            raise DataError("multiplicative indices must be positive")
        object.__setattr__(self, "indices", normalized)


def generate_series(spec: GeneratorSpec) -> PriceSeries:
    """Generate the monthly series described by a GeneratorSpec.

    The same spec (including seed) always yields a bit-identical series.
    Raises DataError when a generated value is not finite or not strictly
    positive, since a PriceSeries cannot hold it.
    """
    t = np.arange(1, spec.length + 1, dtype=float)
    slots = spec.start.calendar_slots(spec.length)
    season = np.broadcast_to(spec.indices, slots.shape)[slots]

    with np.errstate(over="ignore", invalid="ignore"):  # values that are not finite are rejected below
        trend = spec.intercept + spec.slope * t
        multiplicative = spec.model == MULTIPLICATIVE
        values = trend * season if multiplicative else trend + season
        if spec.noise_sd > 0.0:
            noise = np.random.Generator(np.random.PCG64(spec.seed)).normal(0.0, spec.noise_sd, spec.length)
            values = values * np.exp(noise) if multiplicative else values + noise

    if not np.isfinite(values).all():
        bad = int(np.argmax(~np.isfinite(values)))
        raise DataError(f"generated value {values[bad]} at {spec.start.shift(bad)} is not finite ({spec.model} model)")
    if (values <= 0.0).any():
        bad = int(np.argmax(values <= 0.0))
        raise DataError(
            f"generated non-positive value {values[bad]:.6g} at {spec.start.shift(bad)} "
            f"({spec.model} model); raise the intercept or reduce the noise"
        )
    return PriceSeries(spec.currency, spec.start, values)
