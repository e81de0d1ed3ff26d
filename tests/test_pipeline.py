import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FROZEN_PIPELINE, FROZEN_TRACE, MIB, traced_peak
from freqskip import metrics, strategies
from freqskip.corpus import default_corpus, family_a, family_b
from freqskip.decision import Standardizer, TrainedModel, predict
from freqskip.features import decision_features
from freqskip.generator import StepTrace, TargetSpec, TraceConfig, synth_target
from freqskip.labeling import SENSITIVITY_PROBE, assign_label, label_sample, ordered_ladder_ids
from freqskip.metrics import ssim, ssim_hf
from freqskip.pipeline import (
    PipelineConfig,
    _evaluate_spec,
    evaluate,
    feature_reliability,
    generalization_check,
    run_accelerated,
    train_from_samples,
)
from freqskip.strategies import Strategy, apply_strategy, parse_strategy


TARGET_ENTRIES = {
    "run_accelerated": lambda t: run_accelerated(t, FROZEN_TRACE, FROZEN_PIPELINE, None, Strategy.skip(3)),
    "decision_features": lambda t: decision_features(
        t, FROZEN_TRACE, FROZEN_PIPELINE.decision_step, FROZEN_PIPELINE.analysis_size, FROZEN_PIPELINE.hf
    ),
    "apply_strategy": lambda t: apply_strategy(t, FROZEN_TRACE, Strategy.skip(3)),
    "label_sample": lambda t: label_sample(t, FROZEN_TRACE, FROZEN_PIPELINE, 0.84),
}


@pytest.mark.parametrize("entry", sorted(TARGET_ENTRIES))
@pytest.mark.parametrize(
    "shape", [(300, 300), (256, 300), (200, 200), (256, 256, 3)], ids=lambda shape: "x".join(map(str, shape))
)
def test_entry_points_reject_targets_that_are_not_full_size(entry, shape):
    target = np.full(shape, 0.5)
    with pytest.raises(ValueError, match="target"):
        TARGET_ENTRIES[entry](target)


def constant_model(ident: str) -> TrainedModel:
    """A logreg that always answers `ident` (single-class softmax)."""
    return TrainedModel(
        kind="logreg",
        classes=(ident,),
        standardizer=Standardizer((0.0, 0.0), (1.0, 1.0), (False, False)),
        weights=np.zeros((1, 2)),
        biases=np.zeros(1),
    )


@pytest.fixture(scope="module")
def mini_model(frozen_records):
    order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)

    class _S:
        def __init__(self, features, label):
            self.features = features
            self.label = label

    samples = [_S(r.features, assign_label(r.ssims, order, 0.84)) for r in frozen_records[:80]]
    return train_from_samples(samples, tuple(FROZEN_PIPELINE.ladder_ids()), "logreg")


class TestPipelineConfig:
    def test_defaults_validate(self):
        FROZEN_PIPELINE.validate_for(FROZEN_TRACE)

    def test_decision_step_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(decision_step=1).validate_for(FROZEN_TRACE)
        with pytest.raises(ValueError):
            PipelineConfig(decision_step=12).validate_for(FROZEN_TRACE)

    def test_analysis_must_fit_cached_step(self):
        with pytest.raises(ValueError, match="analysis_size"):
            PipelineConfig(analysis_size=160).validate_for(FROZEN_TRACE)

    def test_analysis_size_below_three_rejected(self):
        with pytest.raises(ValueError, match="analysis_size must be >= 3"):
            PipelineConfig(analysis_size=2)

    @pytest.mark.parametrize("decision_step", [1, 13])
    def test_features_need_a_step_of_the_run_after_the_first(self, decision_step):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        with pytest.raises(ValueError, match="decision_step must be in 2..12"):
            decision_features(target, FROZEN_TRACE, decision_step, 128, FROZEN_PIPELINE.hf)

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'svm'"):
            train_from_samples([], tuple(FROZEN_PIPELINE.ladder_ids()), "svm")

    def test_ladder_must_fit_eligible_steps(self):
        with pytest.raises(ValueError, match="eligible"):
            PipelineConfig(ladder=(Strategy.skip(4), Strategy.none())).validate_for(FROZEN_TRACE)

    @pytest.mark.parametrize(
        "decision_step, fits, outside",
        [(8, Strategy.skip(4), Strategy.uncond(5)), (10, Strategy.hybrid(1, 1), Strategy.skip(3))],
        ids=["step_8", "step_10"],
    )
    def test_window_is_the_steps_after_the_decision_step(self, decision_step, fits, outside):
        pcfg = PipelineConfig(decision_step=decision_step, analysis_size=96)
        pcfg.check_rung(fits, FROZEN_TRACE)
        with pytest.raises(ValueError, match=f"only the {12 - decision_step} after decision step"):
            pcfg.check_rung(outside, FROZEN_TRACE)

    def test_ladder_requires_none(self):
        with pytest.raises(ValueError, match="none"):
            PipelineConfig(ladder=(Strategy.skip(1),))


class TestRunAccelerated:
    def test_none_model_reproduces_baseline(self):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        trace = StepTrace(target, FROZEN_TRACE)
        out, report = run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, constant_model("none"))
        assert np.array_equal(out, trace.final)
        assert report.strategy == "none"
        assert report.speedup == 1.0 / 1.005

    def test_alpha_zero_uncond_bit_identical_cheaper(self):
        cfg = TraceConfig(seed=4, gap_alpha=0.0)
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        base, base_report = run_accelerated(target, cfg, FROZEN_PIPELINE, constant_model("none"))
        out, report = run_accelerated(target, cfg, FROZEN_PIPELINE, constant_model("uncond_3"))
        assert np.array_equal(out, base)
        assert report.cost < base_report.cost

    def test_force_strategy_overrides_model(self):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        out_forced, report = run_accelerated(
            target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=Strategy.skip(3)
        )
        out_direct, _ = apply_strategy(target, FROZEN_TRACE, Strategy.skip(3))
        assert np.array_equal(out_forced, out_direct)
        assert report.strategy == "skip_3"

    def test_needs_model_or_forced_strategy(self):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        with pytest.raises(ValueError, match="decision model or a forced strategy"):
            run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, None)

    def test_cost_audit_exact(self):
        target = synth_target(TargetSpec(seed=6, blobs=2), 256)
        cm = FROZEN_PIPELINE.cost_model(FROZEN_TRACE)
        for strategy in FROZEN_PIPELINE.ladder:
            _, report = run_accelerated(
                target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=strategy
            )
            executed = math.fsum(
                m * w for m, w in zip(strategy.passes(cm.steps), cm.weights)
            )
            assert report.cost == executed + FROZEN_PIPELINE.overhead * cm.baseline_cost

    def test_speedup_floor(self, mini_model):
        target = synth_target(TargetSpec(seed=8, blobs=2, noise_amp=0.2, noise_scale=0.6), 256)
        _, report = run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        assert report.speedup >= 1.0 / (1.0 + FROZEN_PIPELINE.overhead)

    def test_deterministic_report(self, mini_model):
        spec = TargetSpec(seed=9, blobs=2, noise_amp=0.15, noise_scale=0.8)
        target = synth_target(spec, 256)
        r1 = run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        r2 = run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]
        e1 = evaluate([spec], FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        e2 = evaluate([spec], FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        assert e1 == e2
        assert e1.reports == [r1[1]]

    @pytest.mark.parametrize(
        "strategy", [Strategy.skip(5), Strategy.hybrid(6, 5), Strategy.uncond(4)], ids=lambda s: s.ident
    )
    def test_forced_strategy_outside_window_rejected(self, strategy, step_builds):
        # the decision at step 9 can only act on steps 10-12
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        with pytest.raises(ValueError, match="eligible"):
            run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=strategy)
        assert step_builds == []

    def test_model_ladder_mismatch(self):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        with pytest.raises(ValueError, match="outside the ladder"):
            run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, constant_model("skip_9"))

    def test_safety_floor_bounded_by_most_aggressive(self, frozen_corpus, frozen_records, mini_model):
        result = evaluate(frozen_corpus[:40], FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        for record, value in zip(frozen_records[:40], result.ssims, strict=True):
            assert value >= record.ssims["skip_3"] - 1e-4

    def test_baseline_scores_come_from_one_map(self, frozen_corpus, frozen_targets, monkeypatch):
        # the chosen output's map gives SSIM and SSIM-HF; the probe, when it
        # is another image (uncond_3, none), is scored in the same pass of
        # the one scorer, strategies.score_outputs
        calls = []
        original = metrics.ssim_maps

        def counted(reference, images, params=metrics.SsimParams()):
            calls.append(1)
            return original(reference, images, params)

        monkeypatch.setattr(metrics, "ssim_maps", counted)
        monkeypatch.setattr(strategies, "ssim_maps", counted)
        for spec, target in zip(frozen_corpus[:3], frozen_targets[:3]):
            baseline, _ = apply_strategy(target, FROZEN_TRACE, Strategy.none())
            for ident in ("skip_3", "uncond_3", "none"):
                calls.clear()
                result = evaluate([spec], FROZEN_TRACE, FROZEN_PIPELINE, constant_model(ident))
                assert len(calls) == 1
                out, _ = apply_strategy(target, FROZEN_TRACE, parse_strategy(ident))
                assert result.ssims == [ssim(baseline, out, FROZEN_PIPELINE.ssim)]
                assert result.ssim_hfs == [ssim_hf(baseline, out, FROZEN_PIPELINE.ssim)]


class TestStepBuilds:
    """Each sample's run reads its generator steps from one trace: the
    features build steps 9 and 8, the output and baseline reuse them."""

    @pytest.mark.parametrize(
        "strategy, expected", [(Strategy.skip(3), [8, 9]), (Strategy.uncond(3), [8, 9, 12])], ids=["skip_3", "uncond_3"]
    )
    def test_run_builds_each_step_once(self, step_builds, strategy, expected):
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=strategy)
        assert sorted(step_builds) == expected

    @pytest.mark.parametrize("ident", ["skip_3", "uncond_3"])
    def test_evaluate_builds_each_step_once(self, step_builds, ident):
        # the probe (skip_3) and the baseline (step 12) come from the same trace
        evaluate(default_corpus(1, seed=0), FROZEN_TRACE, FROZEN_PIPELINE, constant_model(ident))
        assert sorted(step_builds) == [8, 9, 12]


# Largest warm peak of one sample's evaluation over frozen samples 4-11, in
# MiB, by chosen strategy, since synth_target builds its terms in place
# (skip_3, uncond_3 and none peaked inside it at 4.87 MiB before, skip_2 at
# 5.25 elsewhere).  Without the scorer's releases (strategies.score_outputs,
# and the features releasing the step before the decision step) each bound
# is exceeded: skip_3 and none peaked at 5.65 MiB, skip_2 at 7.00, uncond_3
# at 6.15.
EVALUATE_PEAK_MIB = {"skip_3": 4.28, "skip_2": 5.25, "uncond_3": 4.78, "none": 4.28}


@pytest.mark.parametrize("ident", sorted(EVALUATE_PEAK_MIB))
def test_evaluate_spec_peak_memory(frozen_corpus, ident):
    model = constant_model(ident)
    for spec in frozen_corpus[:2]:
        _evaluate_spec(spec, FROZEN_TRACE, FROZEN_PIPELINE, model)
    for spec in frozen_corpus[4:12]:
        peak = traced_peak(lambda: _evaluate_spec(spec, FROZEN_TRACE, FROZEN_PIPELINE, model))
        assert peak <= EVALUATE_PEAK_MIB[ident] * MIB


# Largest warm peak of one forced run over frozen samples 4-11, in MiB.
# uncond_3 emits step 12's conditional branch, which is the target itself;
# it peaked at 2.59 MiB while resize_area copied an image at its own size.
RUN_PEAK_MIB = {"skip_3": 2.28, "uncond_3": 2.09}


@pytest.mark.parametrize("ident", sorted(RUN_PEAK_MIB))
def test_run_accelerated_peak_memory(frozen_targets, ident):
    strategy = parse_strategy(ident)

    def run(target):
        run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=strategy)

    for target in frozen_targets[:2]:
        run(target)
    for target in frozen_targets[4:12]:
        assert traced_peak(lambda: run(target)) <= RUN_PEAK_MIB[ident] * MIB


class TestAreaResizes:
    def test_run_makes_no_identity_resize(self, area_resizes):
        # steps 8 (128) and 9 (160) from the 256 target, then 9 to the
        # 128 analysis size; step 8 is already that size and is returned as
        # it is, never copied
        target = synth_target(TargetSpec(seed=4, blobs=3), 256)
        run_accelerated(target, FROZEN_TRACE, FROZEN_PIPELINE, None, force_strategy=Strategy.skip(3))
        resized = sorted((shape, size) for shape, size, _ in area_resizes if shape != size)
        assert resized == [((160, 160), (128, 128)), ((256, 256), (128, 128)), ((256, 256), (160, 160))]
        identity = [returned for shape, size, returned in area_resizes if shape == size]
        assert identity and all(identity)


class TestFixedHybridSchedule:
    def test_hybrid_runs_with_earlier_decision_step(self):
        # skip the final two steps, replace the unconditional branch on the
        # two before them; needs the decision moved ahead of the touched range
        pcfg = PipelineConfig(
            decision_step=8,
            analysis_size=96,
            ladder=(Strategy.hybrid(2, 2), Strategy.none()),
            hf=FROZEN_PIPELINE.hf,
        )
        pcfg.validate_for(FROZEN_TRACE)
        target = synth_target(TargetSpec(seed=1, blobs=3), 256)
        out, report = run_accelerated(
            target, FROZEN_TRACE, pcfg, None, force_strategy=Strategy.hybrid(2, 2)
        )
        assert out.shape == (256, 256)
        assert report.strategy == "hybrid_2_2"
        assert report.speedup > 2.5  # both tail steps skipped, two halved


def run_evaluate_script(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter after imports for ``evaluate`` and
    a one-class ``model``; the script must exit 0."""
    script = (
        "import numpy as np\n"
        "from freqskip.corpus import default_corpus\n"
        "from freqskip.decision import Standardizer, TrainedModel\n"
        "from freqskip.generator import TraceConfig\n"
        "from freqskip.pipeline import PipelineConfig, evaluate\n"
        "model = TrainedModel(kind='logreg', classes=('uncond_3',),"
        " standardizer=Standardizer((0.0, 0.0), (1.0, 1.0), (False, False)),"
        " weights=np.zeros((1, 2)), biases=np.zeros(1))\n"
    ) + body
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestEvaluate:
    def test_alpha_zero_corpus_mean_ssim_one(self):
        cfg = TraceConfig(seed=0, gap_alpha=0.0)
        specs = default_corpus(4, seed=1)
        result = evaluate(specs, cfg, FROZEN_PIPELINE, constant_model("uncond_3"))
        assert result.mean_ssim == 1.0

    def test_histogram_sums_to_corpus(self, mini_model):
        specs = default_corpus(8, seed=2)
        result = evaluate(specs, FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        assert sum(result.histogram.values()) == 8

    def test_csv_round_trip_consistency(self, tmp_path, mini_model):
        specs = default_corpus(6, seed=3)
        result = evaluate(specs, FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        path = tmp_path / "eval.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,strategy,hf_diff,hf_ratio,ssim,ssim_hf,cost,speedup"
        ssims = [float(line.split(",")[4]) for line in lines[1:]]
        assert float(np.mean(ssims)) == pytest.approx(result.mean_ssim, abs=1e-9)

    def test_probe_ssims_match_model_free_probe(self, mini_model):
        # mini_model picks skip_3 (the probe's own image) on some samples; the
        # constant uncond_3 model never does, so each probe is scored apart
        specs = default_corpus(4, seed=5)
        expect = []
        for spec in specs:
            target = synth_target(spec, 256)
            baseline, _ = apply_strategy(target, FROZEN_TRACE, Strategy.none())
            probe, _ = apply_strategy(target, FROZEN_TRACE, SENSITIVITY_PROBE)
            expect.append(ssim(baseline, probe))
        for model in (mini_model, constant_model("uncond_3")):
            result = evaluate(specs, FROZEN_TRACE, FROZEN_PIPELINE, model)
            assert result.probe_ssims == expect
            assert ("skip_3" in result.histogram) == (model is mini_model)

    def test_empty_corpus_rejected(self, mini_model):
        with pytest.raises(ValueError):
            evaluate([], FROZEN_TRACE, FROZEN_PIPELINE, mini_model)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
    def test_pool_workers_end_with_their_process(self):
        # the kept pool outlives each evaluate call, but not the process
        proc = run_evaluate_script(
            "import multiprocessing\n"
            "evaluate(default_corpus(2, seed=0), TraceConfig(seed=0), PipelineConfig(), model, jobs=2)\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
        )
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_scoring_leaves_numpy_ma_unimported(self):
        # np.quantile imports numpy.ma; hf_mean's cutoff is one partition
        proc = run_evaluate_script(
            "import sys\n"
            "from freqskip.frequency import HFParams\n"
            "from freqskip.pipeline import _evaluate_spec\n"
            "pcfg = PipelineConfig(hf=HFParams(rho=0.4))\n"
            "_evaluate_spec(default_corpus(1, seed=0)[0], TraceConfig(seed=0), pcfg, model)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert proc.stdout.split() == ["False"]

    def test_id_count_must_match_specs(self):
        with pytest.raises(ValueError, match="1 ids for 3 specs"):
            evaluate(default_corpus(3, seed=0), FROZEN_TRACE, FROZEN_PIPELINE, constant_model("none"), ids=["a"])


class TestSelectionAccuracy:
    def test_held_out_split_agreement(self, frozen_records):
        from freqskip.decision import split_train_val

        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)

        class _S:
            def __init__(self, features, label):
                self.features = features
                self.label = label

        samples = [_S(r.features, assign_label(r.ssims, order, 0.84)) for r in frozen_records]
        train_idx, val_idx = split_train_val(len(samples), 0.8, seed=0)
        model = train_from_samples([samples[i] for i in train_idx], tuple(FROZEN_PIPELINE.ladder_ids()), "logreg")
        agree = np.mean([predict(model, samples[i].features) == samples[i].label for i in val_idx])
        assert agree >= 0.8

    def test_robust_corpus_histogram_dominated_by_skips(self, mini_model):
        from freqskip.corpus import blob_corpus

        result = evaluate(blob_corpus(8, seed=0), FROZEN_TRACE, FROZEN_PIPELINE, mini_model)
        skips = sum(v for k, v in result.histogram.items() if k.startswith("skip_"))
        assert skips >= 7


class TestGeneralization:
    def test_same_family_warns_on_overlap(self):
        specs = family_a(16, seed=0)
        with pytest.warns(UserWarning, match="both corpora"):
            generalization_check(specs, specs, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)

    def test_cross_family_transfer(self):
        report = generalization_check(
            family_a(40, seed=0), family_b(40, seed=0), FROZEN_TRACE, FROZEN_PIPELINE, 0.84
        )
        assert report.label_agreement >= 0.7
        assert report.model_mean_ssim >= 0.84 - 0.05
        assert report.ssim_gap == pytest.approx(
            report.oracle_mean_ssim - report.model_mean_ssim, abs=1e-12
        )


class TestFeatureReliability:
    def test_step9_ratio_tracks_final(self):
        specs = default_corpus(24, seed=0)
        corr, pairs = feature_reliability(specs, FROZEN_TRACE, FROZEN_PIPELINE)
        assert pairs.shape == (24, 2)
        assert corr >= 0.9

    def test_features_match_labeling_path(self, frozen_records, frozen_targets):
        record, target = frozen_records[0], frozen_targets[0]
        feats = decision_features(
            target,
            FROZEN_TRACE,
            FROZEN_PIPELINE.decision_step,
            FROZEN_PIPELINE.analysis_size,
            FROZEN_PIPELINE.hf,
        )
        assert feats == record.features
