"""Acceleration strategies, their effect on a generation run, and cost math.

Four strategy families act on the steps after the decision point:

* ``none``: run everything;
* ``skip(n)``: stop n steps early and bilinear-upsample the last image;
* ``uncond_replace(n)``: reuse the conditional branch as the unconditional
  one for the final n steps, halving their per-step cost;
* ``hybrid(skip_n, uncond_n)``: uncond replacement on the steps immediately
  before a skipped tail block.

Costs are modeled, not measured: each step costs 2*w_k at baseline (one pass
per branch), w_k when its unconditional pass is replaced, and 0 when
skipped.  Speedup is baseline / (accelerated + overhead * baseline), with a
small configurable decision overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import StepTrace, TraceConfig, decode_final

_KINDS = ("none", "skip", "uncond", "hybrid")


@dataclass(frozen=True)
class Strategy:
    kind: str
    skip_n: int = 0
    uncond_n: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "none" and (self.skip_n or self.uncond_n):
            raise ValueError("'none' takes no step counts")
        if self.kind == "skip" and (self.skip_n < 1 or self.uncond_n):
            raise ValueError("skip needs skip_n >= 1 and no uncond_n")
        if self.kind == "uncond" and (self.uncond_n < 1 or self.skip_n):
            raise ValueError("uncond needs uncond_n >= 1 and no skip_n")
        if self.kind == "hybrid" and (self.skip_n < 1 or self.uncond_n < 1):
            raise ValueError("hybrid needs skip_n >= 1 and uncond_n >= 1")

    @staticmethod
    def none() -> "Strategy":
        return Strategy("none")

    @staticmethod
    def skip(n: int) -> "Strategy":
        return Strategy("skip", skip_n=n)

    @staticmethod
    def uncond(n: int) -> "Strategy":
        return Strategy("uncond", uncond_n=n)

    @staticmethod
    def hybrid(skip_n: int, uncond_n: int) -> "Strategy":
        return Strategy("hybrid", skip_n=skip_n, uncond_n=uncond_n)

    @property
    def ident(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "skip":
            return f"skip_{self.skip_n}"
        if self.kind == "uncond":
            return f"uncond_{self.uncond_n}"
        return f"hybrid_{self.skip_n}_{self.uncond_n}"

    @property
    def affected_steps(self) -> int:
        """Number of trailing steps the strategy modifies."""
        return self.skip_n + self.uncond_n

    def validate_for(self, steps: int) -> None:
        if self.kind == "skip" and self.skip_n > steps - 1:
            raise ValueError(f"skip_{self.skip_n} leaves no steps for a {steps}-step run")
        if self.kind == "uncond" and self.uncond_n > steps:
            raise ValueError(f"uncond_{self.uncond_n} exceeds the {steps}-step run")
        if self.kind == "hybrid" and self.skip_n + self.uncond_n > steps - 1:
            raise ValueError(
                f"hybrid_{self.skip_n}_{self.uncond_n} must touch at most {steps - 1} steps"
            )


def parse_strategy(ident: str) -> Strategy:
    """Inverse of Strategy.ident ('none', 'skip_3', 'uncond_2', 'hybrid_2_2')."""
    parts = ident.split("_")
    try:
        if parts == ["none"]:
            return Strategy.none()
        if parts[0] == "skip" and len(parts) == 2:
            return Strategy.skip(int(parts[1]))
        if parts[0] == "uncond" and len(parts) == 2:
            return Strategy.uncond(int(parts[1]))
        if parts[0] == "hybrid" and len(parts) == 3:
            return Strategy.hybrid(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"malformed strategy identifier {ident!r}") from exc
    raise ValueError(f"malformed strategy identifier {ident!r}")


DEFAULT_LADDER = (
    Strategy.skip(3),
    Strategy.skip(2),
    Strategy.skip(1),
    Strategy.uncond(3),
    Strategy.uncond(2),
    Strategy.uncond(1),
    Strategy.none(),
)


@dataclass(frozen=True)
class CostModel:
    """Normalized per-step weights plus the decision-overhead fraction."""

    weights: tuple[float, ...]
    overhead: float = 0.005

    def __post_init__(self) -> None:
        if abs(math.fsum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.overhead < 0.0:
            raise ValueError(f"overhead must be >= 0, got {self.overhead}")

    @property
    def steps(self) -> int:
        return len(self.weights)

    def step_multipliers(self, strategy: Strategy) -> list[int]:
        """Branch passes executed per step: 2 baseline, 1 replaced, 0 skipped."""
        strategy.validate_for(self.steps)
        k = self.steps
        mult = [2] * k
        if strategy.kind in ("skip", "hybrid"):
            for i in range(k - strategy.skip_n, k):
                mult[i] = 0
        if strategy.kind == "uncond":
            for i in range(k - strategy.uncond_n, k):
                mult[i] = 1
        elif strategy.kind == "hybrid":
            for i in range(k - strategy.skip_n - strategy.uncond_n, k - strategy.skip_n):
                mult[i] = 1
        return mult

    @property
    def baseline_cost(self) -> float:
        return math.fsum(2.0 * w for w in self.weights)

    def strategy_cost(self, strategy: Strategy) -> float:
        mult = self.step_multipliers(strategy)
        return math.fsum(m * w for m, w in zip(mult, self.weights))


def speedup(cm: CostModel, strategy: Strategy) -> float:
    """Modeled speedup: baseline / (accelerated + overhead * baseline)."""
    frac = cm.strategy_cost(strategy) / cm.baseline_cost
    return 1.0 / (frac + cm.overhead)


def ladder_order(cm: CostModel, ladder: tuple[Strategy, ...] | list[Strategy]) -> list[Strategy]:
    """Sort strategies from most to least aggressive (descending speedup).

    Ties prefer skip over hybrid over uncond replacement, then larger step
    counts; 'none' always sorts last.
    """
    ladder = list(ladder)
    if not ladder:
        raise ValueError("ladder must not be empty")
    if not any(s.kind == "none" for s in ladder):
        raise ValueError("ladder must contain the 'none' strategy")
    kind_rank = {"skip": 0, "hybrid": 1, "uncond": 2, "none": 3}

    def key(s: Strategy):
        return (
            1 if s.kind == "none" else 0,
            -speedup(cm, s),
            kind_rank[s.kind],
            -s.affected_steps,
        )

    return sorted(ladder, key=key)


def output_key(strategy: Strategy, steps: int) -> tuple[int, bool]:
    """Which image a strategy emits: its stop step, and whether that step's
    unconditional branch is replaced by the conditional one.

    The branch construction is step-local, so strategies with equal keys
    emit bit-identical images (every ``uncond_n`` emits the same one);
    ``generator.decode_final(trace, *key)`` is that image.
    """
    stop = steps - strategy.skip_n if strategy.kind in ("skip", "hybrid") else steps
    return stop, strategy.kind in ("uncond", "hybrid")


def apply_strategy(
    target: np.ndarray, cfg: TraceConfig, strategy: Strategy
) -> tuple[np.ndarray, float]:
    """Run the toy generator under a strategy.

    Returns the full-resolution output image and the modeled cost (without
    decision overhead).  Only the emitting step named by :func:`output_key`
    is built, on a fresh trace; results are bit-identical to running the
    full trace.
    """
    strategy.validate_for(cfg.steps)
    cm = CostModel(weights=cfg.cost_weights, overhead=0.0)
    return decode_final(StepTrace(target, cfg), *output_key(strategy, cfg.steps)), cm.strategy_cost(strategy)
