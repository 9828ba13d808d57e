"""Per-agent incremental private values over stock holdings.

An agent's preference vector holds one entry per tradable unit index
q in {-q_max+1, ..., q_max}, drawn i.i.d. normal and sorted descending so
each additional unit is valued no more than the one before.  The total
valuation of a unit is the projected final fundamental plus the relevant
entry: selling from holdings q uses index q, buying uses index q+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class HoldingsLimitError(ValueError):
    """Requested unit index falls outside the tradable range."""


@dataclass(frozen=True)
class PrivateValues:
    q_max: int
    values: tuple[float, ...]  # descending; values[0] corresponds to q = -q_max + 1

    def __post_init__(self) -> None:
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
        if len(self.values) != 2 * self.q_max:
            raise ValueError("preference vector must have exactly 2 * q_max entries")

    @classmethod
    def draw(cls, q_max: int, sigma_pv_sq: float, rng: np.random.Generator) -> "PrivateValues":
        """``2 * q_max`` i.i.d. normal draws, sorted descending; ``ZiParams``
        checks both arguments."""
        draws = rng.normal(0.0, np.sqrt(sigma_pv_sq), size=2 * q_max)
        ordered = tuple(sorted((float(x) for x in draws), reverse=True))
        return cls(q_max=q_max, values=ordered)

    def theta(self, q: int) -> float:
        """Incremental value of unit index q; offset = q + q_max - 1."""
        index = q + self.q_max - 1
        if not 0 <= index < len(self.values):
            raise HoldingsLimitError(f"unit index {q} outside [{1 - self.q_max}, {self.q_max}]")
        return self.values[index]

    def realized(self, q: int) -> float:
        """Private value realized by holding q units: the entries of units 1..q,
        or minus those of q+1..0 when short.  Units past q_max realize
        nothing; the slices stop at the vector's ends."""
        values, m = self.values, self.q_max
        return sum(values[m:m + q]) if q >= 0 else -sum(values[max(m + q, 0):m])

    def buy_valuation(self, q_held: int, r_hat: float) -> float:
        return r_hat + self.theta(q_held + 1)

    def sell_valuation(self, q_held: int, r_hat: float) -> float:
        return r_hat + self.theta(q_held)

    def can_buy(self, q_held: int) -> bool:
        return q_held < self.q_max

    def can_sell(self, q_held: int) -> bool:
        return q_held > -self.q_max
