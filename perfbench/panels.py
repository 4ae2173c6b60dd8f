"""Seeded monthly price panels for the benchmark.

Each panel models a common gold factor times a per-currency exchange-rate
random walk, with a mild 12-month seasonal shared by every currency:

    log p[t, k] = level[k] + gold[t] + fx[t, k] + season[month(t)]

Prices are written the way the World Gold Council files carry them, with
three decimals; full 17-digit reprs would make parsing cost more than it
does on real input. The generator uses numpy's PCG64 and nothing from the
program under test, so the same seed gives the same bytes whatever the
program does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PanelShape:
    currencies: int
    months: int
    start_year: int = 1979
    start_month: int = 1


@dataclass(frozen=True)
class Panel:
    """A generated panel: its CSV bytes and the prices exactly as parsed back."""

    csv: bytes
    codes: tuple[str, ...]
    prices: np.ndarray  # (months, currencies), float64
    start_index: int  # year * 12 + month - 1 of the first row

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()

    def stamp(self, row: int) -> str:
        year, month0 = divmod(self.start_index + row, 12)
        return f"{year:04d}-{month0 + 1:02d}"

    def months(self) -> np.ndarray:
        """Calendar month (1..12) of every row."""
        return (self.start_index + np.arange(self.prices.shape[0])) % 12 + 1


def _codes(rng: np.random.Generator, k: int) -> tuple[str, ...]:
    drawn = rng.choice(26 ** 3, size=k, replace=False)
    letters = []
    for value in drawn:
        a, rest = divmod(int(value), 26 * 26)
        b, c = divmod(rest, 26)
        letters.append("".join(chr(ord("A") + i) for i in (a, b, c)))
    return tuple(letters)


def make_panel(shape: PanelShape, seed: int) -> Panel:
    """Generate one panel; the same shape and seed always give the same bytes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, k = shape.months, shape.currencies
    codes = _codes(rng, k)
    # Price levels are spread evenly over 10^2..10^4.5 and every walk is
    # centred on its column's level, so the byte size of the CSV, and the
    # parse cost that follows it, barely depends on the seed.
    level = np.log(10.0) * (2.0 + 2.5 * (rng.permutation(k) + rng.uniform(size=k)) / k)
    gold = np.cumsum(rng.normal(0.004, 0.045, size=n))
    fx = np.cumsum(rng.normal(0.0, 1.0, size=(n, k)) * rng.uniform(0.005, 0.03, size=k), axis=0)
    season = rng.normal(0.0, 0.01, size=12)
    start_index = shape.start_year * 12 + shape.start_month - 1
    month0 = (start_index + np.arange(n)) % 12
    prices = np.exp(level + (gold - gold.mean())[:, None] + (fx - fx.mean(axis=0)) + season[month0][:, None])

    lines = ["date," + ",".join(codes)]
    for t in range(n):
        year, m0 = divmod(start_index + t, 12)
        lines.append(f"{year:04d}-{m0 + 1:02d}," + ",".join(f"{p:.3f}" for p in prices[t]))
    text = "\n".join(lines) + "\n"
    # Parse the written cells back with float(), as the program does, so the
    # oracles see exactly the doubles the program sees.
    parsed = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    if not (parsed > 0.0).all():
        raise ValueError(f"seed {seed} produced a price that rounds to zero")
    return Panel(text.encode("ascii"), codes, parsed, start_index)
