"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (use ``pytest tests/test_acceptance.py -v -s``).

The heavy shared computation (per-strategy SSIM records for the frozen
200-sample corpus) lives in a session fixture; each criterion's own runtime
stays within its budget even with that cost included.
"""

import contextlib
import hashlib
import os
import time

import numpy as np

from conftest import FROZEN_PIPELINE, FROZEN_TAUS, FROZEN_TRACE
from freqskip.cli import main as cli_main
from freqskip.corpus import family_a, family_b
from freqskip.decision import (
    FeatureVector,
    ForestConfig,
    TreeConfig,
    load_model,
    logreg_loss_grad,
    predict,
    save_model,
    train_forest,
    train_logreg,
    train_tree,
    train_two_stage,
)
from freqskip.frequency import HFParams, dft2, hf_diff, hf_ratio
from freqskip.generator import StepTrace, TraceConfig, branch_gap, decode_final, default_cost_weights
from freqskip.labeling import assign_label, ordered_ladder_ids
from freqskip.metrics import l1_mean, ssim, ssim_hf
from freqskip.pipeline import evaluate, feature_reliability, generalization_check, train_from_samples
from freqskip.strategies import CostModel, Strategy, speedup

from oracles import hf_diff_naive, hf_ratio_naive, ssim_hf_naive, ssim_map_naive
from test_decision import brute_force_root_split, make_separable_set


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} runtime {elapsed:.1f}s over budget {budget_seconds}s"
    print(f"criterion {number:2d} [{name}]: PASS ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")


class _Sample:
    __slots__ = ("features", "label")

    def __init__(self, features, label):
        self.features = features
        self.label = label


def _models_per_tau(records):
    order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
    classes = tuple(FROZEN_PIPELINE.ladder_ids())
    models = {}
    for tau in FROZEN_TAUS:
        samples = [_Sample(r.features, assign_label(r.ssims, order, tau)) for r in records]
        models[tau] = train_from_samples(samples, classes, "logreg")
    return models


def test_criterion_1_formula_oracles(rng):
    with criterion(1, "formula oracles", 10.0):
        for trial in range(50):
            a = rng.random((32, 32))
            b = rng.random((32, 32))
            assert abs(hf_diff(a, b, 16) - hf_diff_naive(a, b, 16)) < 1e-6
            assert abs(hf_ratio(a) - hf_ratio_naive(a, 0.25, 1e-8)) < 1e-6
            assert np.abs(
                np.mean(ssim_map_naive(a, b)) - ssim(a, b)
            ) < 1e-6
            assert abs(ssim_hf(a, b) - ssim_hf_naive(a, b)) < 1e-6


def test_criterion_2_spectral_checks(rng):
    with criterion(2, "spectral checks", 1.0):
        img = rng.random((16, 16))
        coeffs = dft2(img)
        lhs = float((np.abs(coeffs) ** 2).sum())
        rhs = 256.0 * float((img * img).sum())
        assert abs(lhs - rhs) / rhs < 1e-6
        assert hf_ratio(np.full((32, 32), 0.5)) <= 1e-6
        checker = ((np.indices((128, 128)).sum(axis=0) % 2 == 0).astype(np.float64) * 2.0) - 1.0
        assert hf_ratio(checker, HFParams(rho=0.25)) >= 0.999


def test_criterion_3_classifier_correctness(rng, tmp_path):
    with criterion(3, "classifier correctness", 30.0):
        # analytic gradient vs central differences on random weights
        x = rng.normal(size=(30, 2))
        y_idx = rng.integers(0, 3, 30)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        _, grad_w, grad_b = logreg_loss_grad(w, b, x, y_idx, l2=1e-3)
        h = 1e-5
        for i in range(3):
            for j in range(2):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd = (logreg_loss_grad(wp, b, x, y_idx, 1e-3)[0] - logreg_loss_grad(wm, b, x, y_idx, 1e-3)[0]) / (2 * h)
                assert abs(grad_w[i, j] - fd) / max(abs(fd), 1e-8) <= 1e-4
        # perfect separation on the frozen synthetic set
        xs, ys = make_separable_set()
        logreg = train_logreg(xs, ys, ("skip_3", "none"))
        assert all(predict(logreg, FeatureVector(*row)) == lab for row, lab in zip(xs, ys))
        # tree root split equals exhaustive search on 20 random small sets
        classes4 = ("skip_3", "skip_2", "uncond_3", "none")
        for trial in range(20):
            n = int(rng.integers(12, 40))
            xt = rng.normal(size=(n, 2))
            yt_idx = rng.integers(0, 3, n)
            yt = [classes4[i] for i in yt_idx]
            model = train_tree(xt, yt, classes4, TreeConfig(max_depth=4, min_leaf=2))
            expected = brute_force_root_split(model.standardizer.apply(xt), list(yt_idx), 4, min_leaf=2)
            if expected is None:
                assert model.tree.leaf_class[0] >= 0
            else:
                assert model.tree.feature[0] == expected[0]
                assert abs(model.tree.threshold[0] - expected[1]) < 1e-12
        # serialization round trip preserves every prediction
        probes = [FeatureVector(*row) for row in rng.normal(3.0, 5.0, (60, 2))]
        trainers = {
            "logreg": train_logreg,
            "tree": train_tree,
            "forest": lambda *a: train_forest(*a, ForestConfig(n_trees=20)),
            "two_stage": train_two_stage,
        }
        x2 = np.vstack([rng.normal((0, 0), 0.5, (30, 2)), rng.normal((6, 6), 0.5, (30, 2))])
        y2 = ["skip_3"] * 30 + ["uncond_3"] * 30
        for kind, trainer in trainers.items():
            model = trainer(x2, y2, classes4)
            path = tmp_path / f"{kind}.json"
            save_model(model, path)
            back = load_model(path)
            assert all(predict(model, f) == predict(back, f) for f in probes)


def test_criterion_4_cost_model_arithmetic():
    with criterion(4, "cost-model arithmetic", 1.0):
        weights = default_cost_weights()
        assert (weights[-3] + weights[-2] + weights[-1]) == 0.69
        cm = CostModel(weights=weights, overhead=0.005)
        assert abs(speedup(cm, Strategy.skip(3)) - 3.175) <= 0.01
        assert speedup(cm, Strategy.none()) == 1.0 / 1.005


def test_criterion_5_toy_reproductions(frozen_targets):
    with criterion(5, "toy generator reproductions", 60.0):
        target = frozen_targets[0]
        for seed in range(20):
            trace = StepTrace(target, TraceConfig(seed=seed))
            gaps = [branch_gap(trace, k) for k in range(1, 13)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), f"seed {seed}: {gaps}"
        for target in frozen_targets:
            trace = StepTrace(target, FROZEN_TRACE)
            l1s = [l1_mean(decode_final(trace, k), trace.final) for k in range(1, 13)]
            assert all(a >= b for a, b in zip(l1s, l1s[1:]))


def test_criterion_6_threshold_monotonicity(frozen_records, frozen_corpus):
    with criterion(6, "labeling and threshold monotonicity", 300.0):
        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
        rank = {ident: i for i, ident in enumerate(order)}
        for record in frozen_records:
            labels = [assign_label(record.ssims, order, tau) for tau in sorted(FROZEN_TAUS)]
            ranks = [rank[lab] for lab in labels]
            assert all(a <= b for a, b in zip(ranks, ranks[1:])), record.sample_id
        models = _models_per_tau(frozen_records)
        results = {
            tau: evaluate(frozen_corpus, FROZEN_TRACE, FROZEN_PIPELINE, models[tau])
            for tau in FROZEN_TAUS
        }
        ssims = [results[tau].mean_ssim for tau in (0.88, 0.86, 0.84)]
        speedups = [results[tau].mean_speedup for tau in (0.88, 0.86, 0.84)]
        assert ssims[0] >= ssims[1] >= ssims[2], ssims
        assert speedups[0] <= speedups[1] <= speedups[2], speedups


def test_criterion_7_end_to_end_fidelity_floor(frozen_records, frozen_corpus):
    with criterion(7, "end-to-end fidelity floor", 300.0):
        order = ordered_ladder_ids(FROZEN_TRACE, FROZEN_PIPELINE)
        samples = [_Sample(r.features, assign_label(r.ssims, order, 0.84)) for r in frozen_records]
        model = train_from_samples(samples, tuple(FROZEN_PIPELINE.ladder_ids()), "logreg")
        result = evaluate(frozen_corpus, FROZEN_TRACE, FROZEN_PIPELINE, model)
        assert result.mean_ssim >= 0.84, result.summary()
        assert result.mean_speedup > 1.3, result.summary()


def test_criterion_8_feature_reliability(frozen_corpus):
    with criterion(8, "decision-step feature reliability", 120.0):
        corr, pairs = feature_reliability(frozen_corpus, FROZEN_TRACE, FROZEN_PIPELINE)
        assert pairs.shape == (len(frozen_corpus), 2)
        assert corr >= 0.9, corr


def test_criterion_9_generalization():
    with criterion(9, "cross-family generalization", 300.0):
        report = generalization_check(
            family_a(120, seed=0), family_b(120, seed=0), FROZEN_TRACE, FROZEN_PIPELINE, tau=0.84
        )
        assert report.model_mean_ssim >= 0.84 - 0.05, report
        assert report.label_agreement >= 0.70, report


def _digest_dir(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            digest.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism", 300.0):
        digests = {}
        for round_name in ("one", "two"):
            root = tmp_path / round_name
            corpus = root / "corpus"
            labels = root / "labels"
            model = root / "model"
            run = root / "run"
            ev = root / "eval"
            base = ["--corpus-size", "16"]
            assert cli_main(["corpus", *base, "-o", str(corpus)]) == 0
            assert cli_main(["label", *base, "--corpus", str(corpus), "-o", str(labels)]) == 0
            assert (
                cli_main(
                    [
                        "train",
                        *base,
                        "--features",
                        str(labels / "features.csv"),
                        "--labels",
                        str(labels / "labels.csv"),
                        "-o",
                        str(model),
                    ]
                )
                == 0
            )
            assert (
                cli_main(
                    [
                        "run",
                        *base,
                        "--model",
                        str(model / "model.json"),
                        "--target",
                        str(corpus / "s0003.f32"),
                        "-o",
                        str(run),
                    ]
                )
                == 0
            )
            assert (
                cli_main(
                    [
                        "evaluate",
                        *base,
                        "--model",
                        str(model / "model.json"),
                        "--corpus",
                        str(corpus),
                        "-o",
                        str(ev),
                        "--split-sensitivity",
                    ]
                )
                == 0
            )
            digests[round_name] = _digest_dir(root)
        assert digests["one"] == digests["two"]
