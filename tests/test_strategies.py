import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FROZEN_TRACE
from freqskip.generator import StepTrace, TargetSpec, TraceConfig, decode_final, synth_target
from freqskip.metrics import ssim, ssim_map
from freqskip.strategies import (
    DEFAULT_LADDER,
    CostModel,
    Strategy,
    apply_strategy,
    ladder_order,
    output_key,
    parse_strategy,
    score_outputs,
    speedup,
)


@pytest.fixture(scope="module")
def cfg():
    return TraceConfig(seed=3)


@pytest.fixture(scope="module")
def cost_model(cfg):
    return CostModel(weights=cfg.cost_weights, overhead=0.005)


@pytest.fixture(scope="module")
def blob_target():
    return synth_target(TargetSpec(seed=7, blobs=3, blob_sigma=40.0, blob_amp=0.3), 256)


class TestStrategyType:
    @pytest.mark.parametrize(
        "ident,kind",
        [("none", "none"), ("skip_3", "skip"), ("uncond_2", "uncond"), ("hybrid_2_2", "hybrid")],
    )
    def test_parse_round_trip(self, ident, kind):
        s = parse_strategy(ident)
        assert s.kind == kind
        assert s.ident == ident

    @pytest.mark.parametrize("bad", ["skip", "skip_0", "uncond_-1", "hybrid_2", "warp_3", "skip_x"])
    def test_malformed_identifiers(self, bad):
        with pytest.raises(ValueError):
            parse_strategy(bad)

    def test_bounds_validation(self):
        Strategy.skip(11).validate_for(12)
        with pytest.raises(ValueError):
            Strategy.skip(12).validate_for(12)
        with pytest.raises(ValueError):
            Strategy.hybrid(6, 6).validate_for(12)

    @given(n=st.integers(1, 11))
    def test_ident_parse_inverse(self, n):
        for s in (Strategy.skip(n), Strategy.uncond(n)):
            assert parse_strategy(s.ident) == s

    def test_hybrid_ident_parse_inverse(self):
        for skip_n in range(1, 14):
            for uncond_n in range(1, 14):
                s = Strategy.hybrid(skip_n, uncond_n)
                assert parse_strategy(s.ident) == s

    @pytest.mark.parametrize("bad", [(0,), (-1,)], ids=["zero", "negative"])
    def test_factories_reject_counts_below_one(self, bad):
        for factory in (Strategy.skip, Strategy.uncond):
            with pytest.raises(ValueError):
                factory(*bad)
        with pytest.raises(ValueError):
            Strategy.hybrid(1, *bad)
        with pytest.raises(ValueError):
            Strategy.hybrid(*bad, 1)

    @pytest.mark.parametrize("kwargs", [{"skip_n": -1}, {"uncond_n": -2}], ids=["skip_n", "uncond_n"])
    def test_constructor_rejects_negative_counts(self, kwargs):
        with pytest.raises(ValueError, match="step counts must be >= 0"):
            Strategy(**kwargs)


def reference_plan(skip_n: int, uncond_n: int, steps: int):
    """The per-kind rules of a strategy tagged with its kind: its kind,
    whether it fits ``steps``, its branch passes per step (None when it does
    not fit), and its output key."""
    kind = {(False, False): "none", (True, False): "skip", (False, True): "uncond"}.get(
        (skip_n > 0, uncond_n > 0), "hybrid"
    )
    fits = {
        "none": True,
        "skip": skip_n <= steps - 1,
        "uncond": uncond_n <= steps,
        "hybrid": skip_n + uncond_n <= steps - 1,
    }[kind]
    stop = steps - skip_n if kind in ("skip", "hybrid") else steps
    key = (stop, kind in ("uncond", "hybrid"))
    if not fits:
        return kind, fits, None, key
    mult = [2] * steps
    if kind in ("skip", "hybrid"):
        for i in range(steps - skip_n, steps):
            mult[i] = 0
    if kind == "uncond":
        for i in range(steps - uncond_n, steps):
            mult[i] = 1
    elif kind == "hybrid":
        for i in range(steps - skip_n - uncond_n, steps - skip_n):
            mult[i] = 1
    return kind, fits, mult, key


class TestPassPlanEquivalence:
    @pytest.mark.parametrize("steps", range(4, 14))
    def test_plan_matches_per_kind_rules(self, steps):
        factories = {
            "none": lambda s, u: Strategy.none(),
            "skip": lambda s, u: Strategy.skip(s),
            "uncond": lambda s, u: Strategy.uncond(u),
            "hybrid": Strategy.hybrid,
        }
        for skip_n in range(14):
            for uncond_n in range(14):
                kind, fits, mult, key = reference_plan(skip_n, uncond_n, steps)
                s = factories[kind](skip_n, uncond_n)
                assert (s.kind, s.skip_n, s.uncond_n) == (kind, skip_n, uncond_n)
                assert output_key(s, steps) == key
                if fits:
                    s.validate_for(steps)
                    assert s.passes(steps) == mult
                else:
                    with pytest.raises(ValueError):
                        s.validate_for(steps)
                    with pytest.raises(ValueError):
                        s.passes(steps)


class TestCostModel:
    def test_baseline_is_two(self, cost_model):
        assert cost_model.baseline_cost == pytest.approx(2.0, abs=1e-12)

    def test_multipliers(self, cost_model):
        assert Strategy.none().passes(cost_model.steps) == [2] * 12
        assert Strategy.skip(3).passes(cost_model.steps)[-3:] == [0, 0, 0]
        assert Strategy.uncond(2).passes(cost_model.steps)[-2:] == [1, 1]
        hybrid = Strategy.hybrid(2, 2).passes(cost_model.steps)
        assert hybrid[-4:] == [1, 1, 0, 0]

    def test_cost_additivity_exact(self, cost_model):
        w = cost_model.weights
        for a, b in [(1, 1), (2, 2), (3, 2), (1, 3)]:
            got = cost_model.strategy_cost(Strategy.hybrid(a, b))
            k = len(w)
            terms = [2.0 * x for x in w]
            terms += [-2.0 * w[i] for i in range(k - a, k)]
            terms += [-1.0 * w[i] for i in range(k - a - b, k - a)]
            assert got == math.fsum(terms)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            CostModel(weights=(0.5, 0.6))
        for overhead in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CostModel(weights=(0.5, 0.5), overhead=overhead)

    @pytest.mark.parametrize(
        "weights, index, value",
        [((1.5, -0.5), 1, -0.5), ((0.0, 1.0), 0, 0.0), ((0.5, 0.5, 0.0), 2, 0.0), ((float("nan"), 1.0), 0, float("nan"))],
    )
    def test_non_positive_weight_rejected_by_index(self, weights, index, value):
        # (1.5, -0.5) sums to 1, and would rank skip_1 (speedup 0.667) ahead of none
        with pytest.raises(ValueError, match=rf"weights\[{index}\] must be > 0, got {value}"):
            CostModel(weights=weights, overhead=0.0)


class TestSpeedup:
    def test_none_with_zero_overhead(self, cfg):
        cm = CostModel(weights=cfg.cost_weights, overhead=0.0)
        assert speedup(cm, Strategy.none()) == 1.0

    def test_none_with_default_overhead_exact(self, cost_model):
        assert speedup(cost_model, Strategy.none()) == 1.0 / 1.005

    def test_skip3_calibrated(self, cost_model):
        assert speedup(cost_model, Strategy.skip(3)) == pytest.approx(3.175, abs=0.01)

    def test_uncond2_formula(self, cost_model):
        w = cost_model.weights
        expected = 1.0 / (1.0 - (w[10] + w[11]) / 2.0 + 0.005)
        assert speedup(cost_model, Strategy.uncond(2)) == pytest.approx(expected, rel=1e-12)

    def test_every_real_strategy_beats_none(self, cost_model):
        base = speedup(cost_model, Strategy.none())
        for s in DEFAULT_LADDER:
            if s.kind != "none":
                assert speedup(cost_model, s) > base


class TestLadderOrder:
    def test_default_ladder_order(self, cost_model):
        ordered = [s.ident for s in ladder_order(cost_model, DEFAULT_LADDER)]
        assert ordered[0] == "skip_3"
        assert ordered[-1] == "none"
        spds = [speedup(cost_model, parse_strategy(i)) for i in ordered[:-1]]
        assert all(a >= b for a, b in zip(spds, spds[1:]))

    def test_single_entry_ladder(self, cost_model):
        assert ladder_order(cost_model, [Strategy.none()]) == [Strategy.none()]

    def test_tie_prefers_skip(self):
        cm = CostModel(weights=(0.25, 0.25, 0.25, 0.25), overhead=0.0)
        # skip_1 and uncond_2 both save 0.5 cost units
        ordered = ladder_order(cm, [Strategy.uncond(2), Strategy.skip(1), Strategy.none()])
        assert [s.ident for s in ordered] == ["skip_1", "uncond_2", "none"]

    def test_requires_none(self, cost_model):
        with pytest.raises(ValueError):
            ladder_order(cost_model, [Strategy.skip(1)])
        with pytest.raises(ValueError, match="must not be empty"):
            ladder_order(cost_model, [])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_speedup_non_increasing_along_order(self, data):
        steps = data.draw(st.integers(1, 13), label="steps")
        raw = data.draw(st.lists(st.floats(0.01, 10.0), min_size=steps, max_size=steps), label="raw")
        weights = tuple(v / math.fsum(raw) for v in raw)
        cm = CostModel(weights=weights, overhead=data.draw(st.floats(0.0, 0.1), label="overhead"))
        fitting = [
            Strategy(s, u)
            for s in range(steps)
            for u in range(steps + 1)
            if s + u <= steps and (s == 0 or s + u < steps) and s + u > 0
        ]
        rungs = data.draw(st.lists(st.sampled_from(fitting), unique=True, max_size=8), label="rungs")
        ladder = data.draw(st.permutations([*rungs, Strategy.none()]), label="ladder")
        ordered = ladder_order(cm, ladder)
        assert sorted(s.ident for s in ordered) == sorted(s.ident for s in ladder)
        assert ordered[-1] == Strategy.none()
        spds = [speedup(cm, s) for s in ordered]
        assert all(a >= b for a, b in zip(spds, spds[1:])), [(s.ident, v) for s, v in zip(ordered, spds)]


class TestApplyStrategy:
    def test_none_matches_trace_final(self, blob_target, cfg):
        trace = StepTrace(blob_target, cfg)
        out, cost = apply_strategy(blob_target, cfg, Strategy.none())
        assert np.array_equal(out, trace.final)
        assert cost == pytest.approx(2.0, abs=1e-12)

    def test_uncond_alpha_zero_bit_identical_half_cost(self, blob_target):
        cfg0 = TraceConfig(seed=3, gap_alpha=0.0)
        base, base_cost = apply_strategy(blob_target, cfg0, Strategy.none())
        out, cost = apply_strategy(blob_target, cfg0, Strategy.uncond(11))
        assert np.array_equal(out, base)
        w = cfg0.cost_weights
        assert cost == pytest.approx(base_cost - math.fsum(w[1:]), abs=1e-12)

    def test_skip3_blob_keeps_fidelity(self, blob_target, cfg):
        base, _ = apply_strategy(blob_target, cfg, Strategy.none())
        out, cost = apply_strategy(blob_target, cfg, Strategy.skip(3))
        assert ssim(base, out) >= 0.95
        assert cost == pytest.approx(0.62, abs=1e-12)

    def test_fidelity_dominance_uncond_over_skip(self, cfg):
        specs = [
            TargetSpec(seed=s, blobs=2, blob_amp=0.25, noise_amp=0.2, noise_scale=0.7, noise_octaves=4, noise_persistence=p)
            for s, p in [(1, 0.6), (2, 1.0), (3, 1.6), (4, 2.4)]
        ]
        for spec in specs:
            target = synth_target(spec, 256)
            base, _ = apply_strategy(target, cfg, Strategy.none())
            for n in (1, 2, 3):
                s_skip = ssim(base, apply_strategy(target, cfg, Strategy.skip(n))[0])
                s_unc = ssim(base, apply_strategy(target, cfg, Strategy.uncond(n))[0])
                assert s_unc >= s_skip

    def test_skip_monotone_in_n(self, cfg):
        target = synth_target(
            TargetSpec(seed=5, blobs=2, noise_amp=0.15, noise_scale=0.8, noise_octaves=4, noise_persistence=1.0), 256
        )
        base, _ = apply_strategy(target, cfg, Strategy.none())
        vals = [ssim(base, apply_strategy(target, cfg, Strategy.skip(n))[0]) for n in (1, 2, 3)]
        assert all(a >= b - 1e-4 for a, b in zip(vals, vals[1:]))

    def test_hybrid_output_between(self, blob_target, cfg):
        out_h, cost_h = apply_strategy(blob_target, cfg, Strategy.hybrid(2, 2))
        out_s, cost_s = apply_strategy(blob_target, cfg, Strategy.skip(2))
        assert out_h.shape == out_s.shape
        assert cost_h < cost_s

    def test_invalid_bounds(self, blob_target, cfg):
        with pytest.raises(ValueError):
            apply_strategy(blob_target, cfg, Strategy.skip(12))


class TestOutputKey:
    def test_equal_keys_emit_bit_identical_images(self, frozen_targets):
        # the default ladder plus two hybrids that stop at step 11 with the
        # branch replaced; only the key decides which image is emitted
        ladder = DEFAULT_LADDER + (Strategy.hybrid(1, 1), Strategy.hybrid(1, 2))
        groups = collections.defaultdict(list)
        for strategy in ladder:
            groups[output_key(strategy, FROZEN_TRACE.steps)].append(strategy)
        shared = sorted(s.ident for group in groups.values() if len(group) > 1 for s in group)
        assert shared == ["hybrid_1_1", "hybrid_1_2", "uncond_1", "uncond_2", "uncond_3"]
        for target in frozen_targets[:3]:
            images = {key: [apply_strategy(target, FROZEN_TRACE, s)[0] for s in group] for key, group in groups.items()}
            for outs in images.values():
                assert all(np.array_equal(out, outs[0]) for out in outs[1:])
            assert len({outs[0].tobytes() for outs in images.values()}) == len(groups)


class TestScoreOutputs:
    def test_stopping_after_the_first_map_builds_no_later_step(self, frozen_targets, step_builds):
        maps = score_outputs(StepTrace(frozen_targets[0], FROZEN_TRACE), [(9, False), (10, False)])
        assert step_builds == [12]  # the reference
        next(maps)
        assert step_builds == [12, 9]

    def test_each_map_is_the_ssim_map_of_its_decoded_key(self, frozen_targets):
        # repeated keys are scored once, in the order of their first mention
        keys = [(12, True), (11, False), (12, True), (9, False), (12, False), (11, True), (9, False)]
        distinct = [(12, True), (11, False), (9, False), (12, False), (11, True)]
        for target in frozen_targets[:3]:
            maps = list(score_outputs(StepTrace(target, FROZEN_TRACE), keys))
            oracle = StepTrace(target, FROZEN_TRACE)
            assert len(maps) == len(distinct)
            for key, smap in zip(distinct, maps):
                assert np.array_equal(smap, ssim_map(oracle.final, decode_final(oracle, *key)))

    def test_steps_are_released_after_their_last_key(self, frozen_targets, step_builds):
        trace = StepTrace(frozen_targets[0], FROZEN_TRACE)
        for _ in score_outputs(trace, [(11, False), (11, True), (9, False)]):
            pass
        # step 12 gives the reference only; step 11 serves both of its keys
        assert step_builds == [12, 11, 9]
        for k in (11, 9, 12):
            trace.step(k)
        assert step_builds == [12, 11, 9, 11, 9, 12]
