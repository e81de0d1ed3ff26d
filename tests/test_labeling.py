import collections
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FROZEN_PIPELINE, FROZEN_TAUS, FROZEN_TRACE, MIB, traced_peak
from freqskip.corpus import blob_corpus, default_corpus, default_ids, sample_ids
from freqskip.features import decision_features
from freqskip.generator import TargetSpec, synth_target
from freqskip.metrics import ssim
from freqskip.strategies import DEFAULT_LADDER, Strategy, apply_strategy
from freqskip.labeling import (
    FEATURES_HEADER,
    LABELS_HEADER,
    SENSITIVITY_PROBE,
    assign_label,
    build_dataset,
    label_sample,
    ordered_ladder_ids,
    read_feature_csv,
    split_by_probe,
    write_features_csv,
    write_labels_csv,
)

REACHABLE_CLASSES = ("skip_3", "skip_2", "uncond_3")


@pytest.mark.parametrize(
    "changes",
    [
        {"decision_step": 12},
        {"ladder": (Strategy.skip(4), Strategy.skip(3), Strategy.none())},
    ],
)
def test_label_sample_rejects_configs_the_run_loop_rejects(changes):
    pcfg = dataclasses.replace(FROZEN_PIPELINE, **changes)
    target = synth_target(TargetSpec(seed=2), FROZEN_TRACE.full_size)
    with pytest.raises(ValueError):
        pcfg.validate_for(FROZEN_TRACE)
    with pytest.raises(ValueError):
        label_sample(target, FROZEN_TRACE, pcfg, 0.84)


class TestAssignLabel:
    def test_first_above_threshold(self):
        ssims = {"skip_3": 0.80, "skip_2": 0.83, "uncond_3": 0.85, "uncond_2": 0.91, "none": 1.0}
        order = ["skip_3", "skip_2", "uncond_3", "uncond_2", "none"]
        assert assign_label(ssims, order, 0.84) == "uncond_3"

    def test_none_always_qualifies(self):
        ssims = {"skip_3": 0.2, "none": 1.0}
        assert assign_label(ssims, ["skip_3", "none"], 0.99) == "none"

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            assign_label({"none": 1.0}, ["none"], 0.0)


class TestLabelSample:
    def test_tau_one_labels_none_with_noise(self):
        target = synth_target(TargetSpec(seed=2, blobs=2), 256)
        sample = label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 1.0)
        assert sample.label == "none"

    def test_blob_target_gets_most_aggressive_skip(self):
        target = synth_target(TargetSpec(seed=7, blobs=3, blob_sigma=40.0, blob_amp=0.3), 256)
        sample = label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
        assert sample.label == "skip_3"

    def test_ssim_record_covers_ladder_and_none_is_exact(self):
        target = synth_target(TargetSpec(seed=3, blobs=2), 256)
        sample = label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
        assert set(sample.ssims) == set(FROZEN_PIPELINE.ladder_ids())
        assert sample.ssims["none"] == 1.0

    def test_fidelity_shared_between_equivalent_strategies(self):
        target = synth_target(TargetSpec(seed=5, blobs=2, noise_amp=0.2, noise_scale=0.7), 256)
        ssims = label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84).ssims
        # all uncond variants emit the same final image in this generator
        assert ssims["uncond_1"] == ssims["uncond_2"] == ssims["uncond_3"]


class TestOnePassLabeling:
    # the default ladder plus a hybrid stopping at step 11 with the branch
    # replaced, an output key the default ladder never asks for
    PCFG = dataclasses.replace(FROZEN_PIPELINE, ladder=DEFAULT_LADDER + (Strategy.hybrid(1, 1),))

    def test_scores_and_features_equal_one_strategy_at_a_time(self, frozen_targets):
        pcfg = self.PCFG
        for target in frozen_targets[:4]:
            sample = label_sample(target, FROZEN_TRACE, pcfg, 0.84)
            baseline, _ = apply_strategy(target, FROZEN_TRACE, Strategy.none())
            for strategy in pcfg.ladder:
                out, _ = apply_strategy(target, FROZEN_TRACE, strategy)
                assert sample.ssims[strategy.ident] == ssim(baseline, out, pcfg.ssim)
            assert list(sample.ssims) == pcfg.ladder_ids()
            assert sample.features == decision_features(
                target, FROZEN_TRACE, pcfg.decision_step, pcfg.analysis_size, pcfg.hf
            )

    def test_each_step_built_once(self, frozen_targets, step_builds):
        built = step_builds
        label_sample(frozen_targets[0], FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
        # baseline and uncond_n at 12, skip_1/2/3 at 11/10/9, features at 9 and 8
        assert sorted(built) == [8, 9, 10, 11, 12]


# In a fresh interpreter: warm label_sample up on 3 frozen targets, then
# print the mean minor page faults of the next 10 labels, or "unsupported"
# where ru_minflt does not count.
FAULT_SCRIPT = """
import resource
from freqskip.corpus import default_corpus
from freqskip.frequency import HFParams
from freqskip.generator import TraceConfig, synth_target
from freqskip.labeling import label_sample
from freqskip.pipeline import PipelineConfig
cfg, pcfg = TraceConfig(seed=0), PipelineConfig(hf=HFParams(rho=0.4))
targets = [synth_target(spec, cfg.full_size) for spec in default_corpus(13, seed=0)]
for target in targets[:3]:
    label_sample(target, cfg, pcfg, 0.84)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for target in targets[3:]:
    label_sample(target, cfg, pcfg, 0.84)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print("unsupported" if after == 0 else (after - before) / 10)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are read from Linux getrusage")
def test_label_sample_scores_without_fresh_pages():
    # the SSIM filters, moments and formula write into the thread's kept
    # workspace; before it, a label took ~1,300-1,700 faults of fresh pages
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "unsupported":
        pytest.skip("ru_minflt reads 0 on this system")
    assert float(proc.stdout) <= 700


def test_label_sample_peak_memory(frozen_targets):
    # 5.68 MiB is the largest warm peak over these samples; it was 6.05 MiB
    # while the features held the step before the decision step to the end,
    # and without strategies.score_outputs's releases a label peaks at 7.77 MiB
    for target in frozen_targets[:2]:
        label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
    for target in frozen_targets[4:12]:
        assert traced_peak(lambda: label_sample(target, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)) <= 5.69 * MIB


class TestLabelMonotonicity:
    def test_raising_tau_never_more_aggressive(self, frozen_records):
        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
        rank = {ident: i for i, ident in enumerate(order)}
        for record in frozen_records:
            labels = [assign_label(record.ssims, order, tau) for tau in sorted(FROZEN_TAUS)]
            ranks = [rank[lab] for lab in labels]  # taus ascending
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_skip3_label_implies_robust_at_same_threshold(self, frozen_records):
        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
        for record in frozen_records:
            for tau in FROZEN_TAUS:
                if assign_label(record.ssims, order, tau) == "skip_3":
                    assert record.ssims["skip_3"] >= tau  # robust under tau_s = tau


class TestFrozenCorpusCoverage:
    def test_reachable_classes_well_populated(self, frozen_records):
        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
        for tau in FROZEN_TAUS:
            counts = collections.Counter(assign_label(r.ssims, order, tau) for r in frozen_records)
            assert len(counts) >= 2
            for cls in REACHABLE_CLASSES:
                assert counts[cls] >= 5, f"{cls} underrepresented at tau={tau}: {counts}"

    def test_blob_corpus_dominated_by_most_aggressive_skip(self):
        cfg = FROZEN_TRACE
        specs = blob_corpus(12, seed=0)
        with pytest.warns(UserWarning, match="distinct labels"):
            samples = build_dataset(specs, cfg, FROZEN_PIPELINE, 0.84)
        counts = collections.Counter(s.label for s in samples)
        assert counts["skip_3"] >= len(specs) * 0.9


class TestBuildDataset:
    def test_csv_outputs(self, tmp_path):
        specs = default_corpus(6, seed=3)
        fpath, lpath = tmp_path / "features.csv", tmp_path / "labels.csv"
        samples = build_dataset(specs, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
        write_features_csv(samples, fpath)
        write_labels_csv(samples, lpath)
        assert len(samples) == 6
        flines = fpath.read_text().splitlines()
        llines = lpath.read_text().splitlines()
        assert flines[0] == FEATURES_HEADER
        assert llines[0] == LABELS_HEADER
        assert len(flines) == len(llines) == 7
        ids, feats, labels = read_feature_csv(lpath)
        assert labels == [s.label for s in samples]
        assert np.array_equal(feats[:, 0], [s.features.hf_diff for s in samples])

    def test_rerun_byte_identical(self, tmp_path):
        specs = default_corpus(4, seed=5)
        paths = [(tmp_path / f"f{i}.csv", tmp_path / f"l{i}.csv") for i in (1, 2)]
        for fpath, lpath in paths:
            samples = build_dataset(specs, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)
            write_features_csv(samples, fpath)
            write_labels_csv(samples, lpath)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            build_dataset([], FROZEN_TRACE, FROZEN_PIPELINE, 0.84)

    def test_single_label_warns(self):
        specs = blob_corpus(3, seed=1)
        with pytest.warns(UserWarning, match="distinct labels"):
            build_dataset(specs, FROZEN_TRACE, FROZEN_PIPELINE, 0.84)


class TestFidelityDominance:
    def test_uncond_replacement_beats_skipping_per_step_count(self, frozen_records):
        # replacement keeps the conditional refinement, so it should never
        # score below the skip of the same depth on this generator
        for n in (1, 2, 3):
            good = sum(r.ssims[f"uncond_{n}"] >= r.ssims[f"skip_{n}"] for r in frozen_records)
            assert good / len(frozen_records) >= 0.95


def probe_split(records, tau_s):
    """``split_by_probe`` of the records' ids and their probe SSIMs."""
    return split_by_probe([r.sample_id for r in records], [r.ssims[SENSITIVITY_PROBE.ident] for r in records], tau_s)


class TestSensitivitySplit:
    def test_endpoints(self, frozen_records):
        records = frozen_records[:4]
        sens, rob = probe_split(records, 0.0)
        assert sens == [] and len(rob) == 4
        sens, rob = probe_split(records, 1.0)
        assert rob == [] and len(sens) == 4

    def test_partition_exact(self, frozen_records):
        sens, rob = probe_split(frozen_records[:6], 0.85)
        assert sorted(sens + rob) == [f"s{i:04d}" for i in range(6)]
        assert sens and rob

    def test_split_by_probe_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="1 ids for 2 probe SSIMs"):
            split_by_probe(["a"], [0.5, 0.9], 0.85)

    @pytest.mark.parametrize("tau_s", [-0.1, 1.1, float("nan")])
    def test_split_by_probe_rejects_tau_outside_unit_interval(self, tau_s):
        with pytest.raises(ValueError, match="tau_s must be in"):
            split_by_probe(["a"], [0.5], tau_s)

    def test_recipe_groups_split_purely(self, frozen_corpus, frozen_records):
        # sensitivity derives from the same skip_3 probe the records hold
        tau_s = 0.85
        sensitive = {r.sample_id for r in frozen_records if r.ssims["skip_3"] < tau_s}
        robust = {r.sample_id for r in frozen_records if r.ssims["skip_3"] >= tau_s}
        smooth = {
            f"s{i:04d}"
            for i, sp in enumerate(frozen_corpus)
            if sp.noise_persistence >= 2.2 or sp.noise_amp < 0.04
        }
        fine = {
            f"s{i:04d}"
            for i, sp in enumerate(frozen_corpus)
            if sp.noise_persistence <= 0.72 and sp.noise_amp >= 0.10
        }
        assert len(smooth & robust) / len(smooth) >= 0.9
        assert len(fine & sensitive) / len(fine) >= 0.9


class TestSampleIds:
    def test_defaults_and_given_ids(self):
        specs = default_corpus(3, seed=0)
        assert sample_ids(specs, None) == default_ids(3) == ["s0000", "s0001", "s0002"]
        assert sample_ids(specs, ("a", "b", "c")) == ["a", "b", "c"]

    @pytest.mark.parametrize("n_specs, ids", [(0, None), (0, []), (3, ["a"]), (2, ["a", "b", "c"])])
    def test_rejects_empty_or_mismatched(self, n_specs, ids):
        with pytest.raises(ValueError):
            sample_ids(default_corpus(n_specs, seed=0), ids)
