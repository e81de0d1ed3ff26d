"""Acceleration strategies, their effect on a generation run, and cost math.

A strategy is a plan over the trailing steps of a K-step run, in branch
passes per step (:meth:`Strategy.passes`)::

    [2] * (K - skip_n - uncond_n) + [1] * uncond_n + [0] * skip_n

2 runs both branches, 1 reuses the conditional branch as the unconditional
one, 0 skips the step.  The kind names the non-zero counts: ``none``,
``skip`` (stop early and bilinear-upsample the last image), ``uncond`` or
``hybrid``.  A plan fits a run when it touches at most K steps and leaves a
full step if it skips any.  The image is emitted at the last step run.
Costs are modeled, not measured: a step of p passes costs p*w_k, and
speedup is baseline / (accelerated + overhead * baseline), where the
decision overhead is the fixed :data:`DECISION_OVERHEAD` of the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .generator import StepTrace, TraceConfig, decode_final
from .metrics import ssim_maps

# the family a strategy belongs to, by (skips any step, replaces any branch)
_KIND_OF = {(False, False): "none", (True, False): "skip", (False, True): "uncond", (True, True): "hybrid"}


def _at_least_one(name: str, n: int) -> int:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class Strategy:
    """Skip the last ``skip_n`` steps; run the ``uncond_n`` steps before them
    on the conditional branch only."""

    skip_n: int = 0
    uncond_n: int = 0

    def __post_init__(self) -> None:
        if self.skip_n < 0 or self.uncond_n < 0:
            raise ValueError(f"step counts must be >= 0, got skip_n={self.skip_n} uncond_n={self.uncond_n}")

    @staticmethod
    def none() -> "Strategy":
        return Strategy()

    @staticmethod
    def skip(n: int) -> "Strategy":
        return Strategy(skip_n=_at_least_one("skip_n", n))

    @staticmethod
    def uncond(n: int) -> "Strategy":
        return Strategy(uncond_n=_at_least_one("uncond_n", n))

    @staticmethod
    def hybrid(skip_n: int, uncond_n: int) -> "Strategy":
        return Strategy(_at_least_one("skip_n", skip_n), _at_least_one("uncond_n", uncond_n))

    @property
    def kind(self) -> str:
        return _KIND_OF[self.skip_n > 0, self.uncond_n > 0]

    @property
    def ident(self) -> str:
        """'none', 'skip_3', 'uncond_2' or 'hybrid_2_2': the kind, then its
        non-zero counts."""
        return "_".join([self.kind, *(str(n) for n in (self.skip_n, self.uncond_n) if n)])

    @property
    def affected_steps(self) -> int:
        """Number of trailing steps the strategy modifies."""
        return self.skip_n + self.uncond_n

    def validate_for(self, steps: int) -> None:
        """Raise ValueError unless the plan fits a ``steps``-step run: it
        touches at most ``steps`` steps, and leaves a full step if it skips."""
        full = steps - self.affected_steps
        if full < 0 or (self.skip_n and full < 1):
            raise ValueError(f"{self.ident} does not fit {steps} steps (a skip must leave a full step)")

    def passes(self, steps: int) -> list[int]:
        """Branch passes run at each step: 2 baseline, 1 replaced, 0 skipped."""
        self.validate_for(steps)
        return [2] * (steps - self.affected_steps) + [1] * self.uncond_n + [0] * self.skip_n


# kind -> (factory, number of counts its identifier carries)
_FACTORIES = {
    "none": (Strategy.none, 0),
    "skip": (Strategy.skip, 1),
    "uncond": (Strategy.uncond, 1),
    "hybrid": (Strategy.hybrid, 2),
}


def parse_strategy(ident: str) -> Strategy:
    """Inverse of Strategy.ident ('none', 'skip_3', 'uncond_2', 'hybrid_2_2')."""
    kind, *counts = ident.split("_")
    factory, arity = _FACTORIES.get(kind, (None, -1))
    if len(counts) != arity:
        raise ValueError(f"malformed strategy identifier {ident!r}")
    try:
        return factory(*map(int, counts))
    except ValueError as exc:
        raise ValueError(f"malformed strategy identifier {ident!r}") from exc


DEFAULT_LADDER = (
    Strategy.skip(3),
    Strategy.skip(2),
    Strategy.skip(1),
    Strategy.uncond(3),
    Strategy.uncond(2),
    Strategy.uncond(1),
    Strategy.none(),
)


# the modeled cost of the decision, as a fraction of the baseline cost
DECISION_OVERHEAD = 0.005


@dataclass(frozen=True)
class CostModel:
    """Normalized per-step weights plus the decision-overhead fraction
    (0.0 prices a plan without a decision)."""

    weights: tuple[float, ...]
    overhead: float = DECISION_OVERHEAD

    def __post_init__(self) -> None:
        for i, w in enumerate(self.weights):
            if not w > 0.0:
                raise ValueError(f"weights[{i}] must be > 0, got {w}")
        if abs(math.fsum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if not 0.0 <= self.overhead < math.inf:
            raise ValueError(f"overhead must be finite and >= 0, got {self.overhead}")

    @property
    def steps(self) -> int:
        return len(self.weights)

    @property
    def baseline_cost(self) -> float:
        return math.fsum(2.0 * w for w in self.weights)

    def strategy_cost(self, strategy: Strategy) -> float:
        return math.fsum(p * w for p, w in zip(strategy.passes(self.steps), self.weights))


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
    """Which image a strategy emits: its last step run, and whether that
    step's unconditional branch is replaced by the conditional one.

    The branch construction is step-local, so strategies with equal keys
    emit bit-identical images (every ``uncond_n`` emits the same one);
    ``generator.decode_final(trace, *key)`` is that image.
    """
    return steps - strategy.skip_n, strategy.uncond_n > 0


def score_outputs(trace: StepTrace, keys: Iterable[tuple[int, bool]]) -> Iterator[np.ndarray]:
    """SSIM map against ``trace.final`` of each distinct output key's image,
    yielded lazily in the order given from one ``ssim_maps`` pass.

    The reference and its moments are taken on the call, and step K is
    released then if no key reads it; each other step once its last key is
    decoded, before that image is scored.  Keys are decoded as their maps
    are asked for, so a caller that stops early builds no later key's step.
    """
    keys = list(dict.fromkeys(keys))
    last_read = {stop: i for i, (stop, _) in enumerate(keys)}
    reference = trace.final
    if trace.config.steps not in last_read:
        trace.release(trace.config.steps)

    def decoded(i: int) -> np.ndarray:
        stop, replaced = keys[i]
        image = decode_final(trace, stop, replaced)
        if last_read[stop] == i:
            trace.release(stop)
        return image

    return ssim_maps(reference, map(decoded, range(len(keys))))


def apply_strategy(
    target: np.ndarray, cfg: TraceConfig, strategy: Strategy
) -> tuple[np.ndarray, float]:
    """Run the toy generator under a strategy.

    Returns the full-resolution output image and the modeled cost (without
    decision overhead).  Only the emitting step named by :func:`output_key`
    is built, on a fresh trace; results are bit-identical to running the
    full trace.

    The strategy is checked only to fit the K-step run
    (:meth:`Strategy.validate_for`), not the decision window
    (``PipelineConfig.check_rung``): no decision step is taken here.
    ``pipeline.run_accelerated``, ``labeling.label_sample`` and ``freqskip
    run`` apply the window.
    """
    cost = CostModel(weights=cfg.cost_weights).strategy_cost(strategy)
    return decode_final(StepTrace(target, cfg), *output_key(strategy, cfg.steps)), cost
