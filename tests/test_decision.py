import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqskip import decision
from freqskip.decision import (
    FeatureVector,
    ForestConfig,
    ModelFormatError,
    Standardizer,
    TrainedModel,
    TreeConfig,
    fit_standardizer,
    load_model,
    logreg_loss_grad,
    predict,
    predict_proba,
    save_model,
    split_train_val,
    train_forest,
    train_logreg,
    train_tree,
    train_two_stage,
)


def make_separable_set(seed=11, n_per_class=50):
    """Frozen two-cluster set; margin after standardization exceeds 2."""
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), 0.4, (n_per_class, 2))
    b = rng.normal((8.0, 8.0), 0.4, (n_per_class, 2))
    x = np.vstack([a, b])
    y = ["skip_3"] * n_per_class + ["none"] * n_per_class
    return x, y


CLASSES2 = ("skip_3", "none")
CLASSES4 = ("skip_3", "skip_2", "uncond_3", "none")


class TestStandardizer:
    def test_hand_example(self):
        std = fit_standardizer(np.array([[0.0, 0.0], [2.0, 1.0]]))
        assert std.means == (1.0, 0.5)
        assert std.stds == (1.0, 0.5)
        assert std.zero_variance == (False, False)

    def test_single_sample_zero_variance_rule(self):
        std = fit_standardizer(np.array([[3.0, 7.0]]))
        assert std.means == (3.0, 7.0)
        assert std.stds == (1.0, 1.0)
        assert std.zero_variance == (True, True)

    def test_standardized_set_has_zero_mean_unit_std(self, rng):
        x = rng.normal(5.0, 3.0, (40, 2))
        std = fit_standardizer(x)
        xs = std.apply(x)
        assert np.abs(xs.mean(axis=0)).max() < 1e-9
        assert np.abs(xs.std(axis=0) - 1.0).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((0, 2)))


class TestSplit:
    def test_exact_80_20(self):
        train, val = split_train_val(10, 0.8, seed=0)
        assert len(train) == 8 and len(val) == 2

    def test_deterministic_and_exact_partition(self):
        t1, v1 = split_train_val(37, 0.8, seed=5)
        t2, v2 = split_train_val(37, 0.8, seed=5)
        assert np.array_equal(t1, t2) and np.array_equal(v1, v2)
        assert sorted(np.concatenate([t1, v1]).tolist()) == list(range(37))

    def test_both_sides_nonempty(self):
        train, val = split_train_val(3, 0.01, seed=0)
        assert len(train) >= 1 and len(val) >= 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            split_train_val(1, 0.8, seed=0)

    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_ratio_outside_open_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="ratio must be in"):
            split_train_val(10, ratio, seed=0)

    @given(n=st.integers(2, 200), seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, seed):
        train, val = split_train_val(n, 0.8, seed)
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(n))


@pytest.mark.parametrize(
    "train, match",
    [
        (lambda: train_tree(np.zeros((2, 2)), ["none", "skip_9"], CLASSES2), "'skip_9' not in class list"),
        (lambda: train_logreg(np.zeros(4), ["none", "skip_3"] * 2, CLASSES2), r"non-empty \(n, d\) feature matrix"),
        (lambda: train_forest(np.zeros((0, 2)), [], CLASSES2), r"non-empty \(n, d\) feature matrix"),
        (lambda: train_two_stage(np.zeros((3, 2)), ["none"] * 2, CLASSES2), "2 labels for 3 samples"),
        (lambda: train_forest(np.zeros((2, 2)), ["none"] * 2, CLASSES2, ForestConfig(n_trees=0)), "n_trees must be"),
    ],
    ids=["unknown_label", "one_dim_x", "no_samples", "label_count", "no_trees"],
)
def test_bad_training_input_rejected(train, match):
    with pytest.raises(ValueError, match=match):
        train()


class TestLogReg:
    def test_zero_weight_binary_probability_half(self):
        model = TrainedModel(
            kind="logreg",
            classes=CLASSES2,
            standardizer=Standardizer((0.0, 0.0), (1.0, 1.0), (False, False)),
            weights=np.zeros((2, 2)),
            biases=np.zeros(2),
        )
        probs = predict_proba(model, FeatureVector(0.3, 0.9))
        assert probs[0] == 0.5 and probs[1] == 0.5
        # exact tie resolves to the less aggressive class
        assert predict(model, FeatureVector(0.3, 0.9)) == "none"

    def test_separable_set_perfect_training_accuracy(self):
        x, y = make_separable_set()
        std = fit_standardizer(x)
        xs = std.apply(x)
        centroid_gap = xs[:50].mean(axis=0) - xs[50:].mean(axis=0)
        direction = centroid_gap / np.linalg.norm(centroid_gap)
        proj = xs @ direction
        assert proj[:50].min() - proj[50:].max() >= 2.0  # frozen margin check
        model = train_logreg(x, y, CLASSES2)
        acc = np.mean([predict(model, FeatureVector(*row)) == lab for row, lab in zip(x, y)])
        assert acc == 1.0

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.normal(size=(25, 2))
        y_idx = rng.integers(0, 3, 25)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        _, grad_w, grad_b = logreg_loss_grad(w, b, x, y_idx, l2=1e-3)
        h = 1e-5
        for arr, grad in ((w, grad_w), (b, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus, minus = arr.copy(), arr.copy()
                plus[idx] += h
                minus[idx] -= h
                if arr is w:
                    lp = logreg_loss_grad(plus, b, x, y_idx, 1e-3)[0]
                    lm = logreg_loss_grad(minus, b, x, y_idx, 1e-3)[0]
                else:
                    lp = logreg_loss_grad(w, plus, x, y_idx, 1e-3)[0]
                    lm = logreg_loss_grad(w, minus, x, y_idx, 1e-3)[0]
                fd = (lp - lm) / (2 * h)
                assert abs(grad[idx] - fd) / max(abs(fd), 1e-8) <= 1e-4

    @pytest.mark.parametrize("train", [train_tree, train_forest, train_two_stage])
    def test_probabilities_need_a_logreg(self, train):
        x, y = make_separable_set()
        with pytest.raises(ValueError, match="predict_proba needs a logreg model"):
            predict_proba(train(x, y, CLASSES2), FeatureVector(0.3, 0.9))

    def test_probabilities_sum_to_one(self, rng):
        x, y = make_separable_set()
        model = train_logreg(x, y, CLASSES2)
        for row in rng.normal(4.0, 4.0, (20, 2)):
            assert predict_proba(model, FeatureVector(*row)).sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_logreg(np.zeros((5, 2)), ["none"] * 5, CLASSES2)

    def test_tolerance_stops_descent(self, monkeypatch):
        # on random labels the gradient falls below LOGREG_GRAD_TOL after a
        # few hundred epochs, so more epochs must change nothing
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        y = list(rng.choice(CLASSES4, size=200))
        stopped = train_logreg(x, y, CLASSES4)
        monkeypatch.setattr(decision, "LOGREG_MAX_EPOCHS", 10 * decision.LOGREG_MAX_EPOCHS)
        longer = train_logreg(x, y, CLASSES4)
        assert np.array_equal(stopped.weights, longer.weights)
        assert np.array_equal(stopped.biases, longer.biases)

    def test_deterministic(self):
        x, y = make_separable_set()
        m1 = train_logreg(x, y, CLASSES2)
        m2 = train_logreg(x, y, CLASSES2)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)


def brute_force_root_split(xs, y_idx, n_classes, min_leaf):
    """Independent exhaustive (feature, midpoint) search with the same
    tie rules: lower Gini, then lower feature index, then lower threshold."""
    n, d = xs.shape
    best = None
    for f in range(d):
        vals = sorted(set(xs[:, f].tolist()))
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            left = [y_idx[i] for i in range(n) if xs[i, f] <= thr]
            right = [y_idx[i] for i in range(n) if xs[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue

            def gini(ys):
                if not ys:
                    return 0.0
                return 1.0 - sum((ys.count(c) / len(ys)) ** 2 for c in range(n_classes))

            score = (len(left) * gini(left) + len(right) * gini(right)) / n
            if best is None or score < best[0]:
                best = (score, f, thr)
    return None if best is None else (best[1], best[2])


class TestTree:
    def test_pure_data_single_leaf(self):
        x = np.linspace(0, 1, 20).reshape(-1, 1) * np.array([1.0, 1.0])
        model = train_tree(x, ["skip_3"] * 20, CLASSES2)
        assert len(model.tree.feature) == 1
        assert model.classes[model.tree.leaf_class[0]] == "skip_3"

    def test_depth_zero_majority_stump(self):
        x, y = make_separable_set()
        model = train_tree(x, y + [], CLASSES2, TreeConfig(max_depth=0))
        assert len(model.tree.feature) == 1
        # 50/50 tie resolves to the less aggressive class
        assert predict(model, FeatureVector(0.0, 0.0)) == "none"

    def test_root_split_matches_brute_force(self, rng):
        for trial in range(20):
            n = int(rng.integers(12, 40))
            x = rng.normal(size=(n, 2))
            y_idx = rng.integers(0, 3, n)
            y = [CLASSES4[i] for i in y_idx]
            model = train_tree(x, y, CLASSES4, TreeConfig(max_depth=4, min_leaf=2))
            xs = model.standardizer.apply(x)
            expected = brute_force_root_split(xs, list(y_idx), len(CLASSES4), min_leaf=2)
            if expected is None:
                assert model.tree.leaf_class[0] >= 0
            else:
                assert model.tree.feature[0] == expected[0]
                assert model.tree.threshold[0] == pytest.approx(expected[1], abs=1e-12)

    def test_path_length_bounded_by_depth(self, rng):
        x = rng.normal(size=(200, 2))
        y = [CLASSES4[i] for i in rng.integers(0, 4, 200)]
        model = train_tree(x, y, CLASSES4, TreeConfig(max_depth=3, min_leaf=1))

        def depth(node, d):
            if model.tree.leaf_class[node] >= 0:
                return d
            return max(depth(model.tree.left[node], d + 1), depth(model.tree.right[node], d + 1))

        assert depth(0, 0) <= 3

    def test_training_samples_of_pure_leaves_reproduce_labels(self):
        x, y = make_separable_set()
        model = train_tree(x, y, CLASSES2)
        acc = np.mean([predict(model, FeatureVector(*row)) == lab for row, lab in zip(x, y)])
        assert acc == 1.0


class TestForest:
    def test_degenerate_forest_equals_tree(self):
        x, y = make_separable_set()
        tree = train_tree(x, y, CLASSES2)
        forest = train_forest(x, y, CLASSES2, ForestConfig(n_trees=1, bootstrap=False, n_features=2))
        probes = np.random.default_rng(0).normal(4.0, 4.0, (100, 2))
        for row in probes:
            fv = FeatureVector(*row)
            assert predict(forest, fv) == predict(tree, fv)

    def test_same_seed_identical_serialization(self, tmp_path):
        x, y = make_separable_set()
        m1 = train_forest(x, y, CLASSES2, ForestConfig(seed=4))
        m2 = train_forest(x, y, CLASSES2, ForestConfig(seed=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_accuracy_close_to_logreg_on_separable_set(self):
        x, y = make_separable_set()
        train_idx, val_idx = split_train_val(len(y), 0.8, seed=0)
        xt = x[train_idx]
        yt = [y[i] for i in train_idx]
        forest = train_forest(xt, yt, CLASSES2)
        logreg = train_logreg(xt, yt, CLASSES2)
        acc_f = np.mean([predict(forest, FeatureVector(*x[i])) == y[i] for i in val_idx])
        acc_l = np.mean([predict(logreg, FeatureVector(*x[i])) == y[i] for i in val_idx])
        assert acc_f >= acc_l - 0.05


class TestPredict:
    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(float("nan"), 0.5)
        with pytest.raises(ValueError):
            FeatureVector(0.5, float("inf"))

    def test_argmax_invariant_under_feature_rescaling(self):
        x, y = make_separable_set()
        model = train_logreg(x, y, CLASSES2)
        rescaled = x * np.array([13.0, 0.02]) + np.array([-4.0, 70.0])
        model_r = train_logreg(rescaled, y, CLASSES2)
        for row, row_r in zip(x, rescaled):
            assert predict(model, FeatureVector(*row)) == predict(model_r, FeatureVector(*row_r))

    def test_standardize_then_predict_equivalence(self):
        x, y = make_separable_set()
        model = train_logreg(x, y, CLASSES2)
        xs = model.standardizer.apply(x)
        bare = TrainedModel(
            kind="logreg",
            classes=model.classes,
            standardizer=Standardizer((0.0, 0.0), (1.0, 1.0), (False, False)),
            weights=model.weights,
            biases=model.biases,
        )
        for row, row_s in zip(x, xs):
            assert predict(model, FeatureVector(*row)) == predict(bare, FeatureVector(*row_s))


class TestTwoStage:
    def test_skip_answer_wins(self, rng):
        x = np.vstack(
            [rng.normal((0, 0), 0.3, (30, 2)), rng.normal((5, 5), 0.3, (30, 2)), rng.normal((10, 10), 0.3, (30, 2))]
        )
        y = ["skip_3"] * 30 + ["uncond_3"] * 30 + ["none"] * 30
        model = train_two_stage(x, y, CLASSES4)
        acc = np.mean([predict(model, FeatureVector(*row)) == lab for row, lab in zip(x, y)])
        assert acc >= 0.95

    def test_single_rest_class_falls_back(self, rng):
        x = np.vstack([rng.normal((0, 0), 0.3, (30, 2)), rng.normal((8, 8), 0.3, (30, 2))])
        y = ["skip_3"] * 30 + ["uncond_3"] * 30
        model = train_two_stage(x, y, CLASSES4)
        assert predict(model, FeatureVector(8.0, 8.0)) == "uncond_3"

    def test_no_skip_label_falls_back(self, rng, tmp_path):
        # every skip-stage label is 'none': that stage is a one-leaf tree
        x = np.vstack([rng.normal((0, 0), 0.3, (10, 2)), rng.normal((8, 8), 0.3, (10, 2))])
        y = ["uncond_3"] * 10 + ["none"] * 10
        model = train_two_stage(x, y, CLASSES4)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        answers = set()
        for row in rng.normal(4.0, 5.0, (50, 2)):
            fv = FeatureVector(*row)
            answers.add(predict(model, fv))
            assert predict(back, fv) == predict(model, fv)
        assert answers == {"uncond_3", "none"}

    def test_all_skip_or_no_none_class_rejected(self, rng):
        x = rng.normal(size=(20, 2))
        with pytest.raises(ValueError, match="non-skip"):
            train_two_stage(x, ["skip_3"] * 10 + ["skip_2"] * 10, CLASSES4)
        with pytest.raises(ValueError, match="'none'"):
            train_two_stage(x, ["skip_3"] * 10 + ["uncond_3"] * 10, ("skip_3", "uncond_3"))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["logreg", "tree", "forest", "two_stage"])
    def test_round_trip_preserves_predictions(self, kind, tmp_path, rng):
        x = np.vstack([rng.normal((0, 0), 0.5, (30, 2)), rng.normal((6, 6), 0.5, (30, 2))])
        y = ["skip_3"] * 30 + ["uncond_3"] * 30
        trainer = {
            "logreg": train_logreg,
            "tree": train_tree,
            "forest": train_forest,
            "two_stage": train_two_stage,
        }[kind]
        model = trainer(x, y, CLASSES4)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        probes = rng.normal(3.0, 5.0, (100, 2))
        for row in probes:
            fv = FeatureVector(*row)
            assert predict(model, fv) == predict(back, fv)

    def test_stage_class_outside_model_rejected(self, tmp_path, rng):
        x = np.vstack([rng.normal((0, 0), 0.5, (30, 2)), rng.normal((6, 6), 0.5, (30, 2))])
        path = tmp_path / "model.json"
        save_model(train_two_stage(x, ["skip_3"] * 30 + ["uncond_3"] * 30, CLASSES4), path)
        body = json.loads(path.read_text())
        skip_stage = body["params"]["skip"]
        skip_stage["classes"][skip_stage["classes"].index("skip_3")] = "skip_5"
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError, match="skip stage"):
            load_model(path)

    def test_forest_without_trees_rejected(self, tmp_path):
        x, y = make_separable_set()
        path = tmp_path / "model.json"
        save_model(train_forest(x, y, CLASSES2, ForestConfig(n_trees=2)), path)
        body = json.loads(path.read_text())
        body["params"]["trees"] = []
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError, match="no trees"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 99, "kind": "logreg", "classes": [], "standardizer": {}, "params": {}}')
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @staticmethod
    def _tree_model_json(tmp_path, rng):
        x = np.vstack([rng.normal((0, 0), 0.5, (30, 2)), rng.normal((6, 6), 0.5, (30, 2))])
        path = tmp_path / "model.json"
        save_model(train_tree(x, ["skip_3"] * 30 + ["uncond_3"] * 30, CLASSES4), path)
        return path, json.loads(path.read_text())

    def test_self_loop_tree_rejected(self, tmp_path, rng):
        path, body = self._tree_model_json(tmp_path, rng)
        tree = body["params"]["tree"]
        assert tree["leaf_class"][0] < 0
        tree["left"][0] = 0
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError, match="node 0"):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b.pop("classes"),
            lambda b: b.update(classes="skip_3"),
            lambda b: b["standardizer"].update(means=[0.0]),
            lambda b: b["standardizer"]["zero_variance"].__setitem__(0, 0),
            lambda b: b["params"].pop("tree"),
            lambda b: b["params"]["tree"]["threshold"].pop(),
            lambda b: b["params"]["tree"]["left"].__setitem__(0, len(b["params"]["tree"]["left"])),
            lambda b: b["params"]["tree"]["feature"].__setitem__(0, 2),
            lambda b: b["params"]["tree"]["leaf_class"].__setitem__(-1, 4),
            lambda b: b["params"]["tree"]["leaf_class"].__setitem__(-1, 1.0),
            lambda b: b["params"].update(tree={key: [] for key in b["params"]["tree"]}),
            lambda b: b.pop("version"),
            lambda b: b.update(kind="svm"),
        ],
        ids=[
            "no_classes",
            "classes_str",
            "means_short",
            "zero_variance_int",
            "no_tree",
            "threshold_short",
            "child_out_of_range",
            "feature_out_of_range",
            "leaf_class_out_of_range",
            "leaf_class_float",
            "no_nodes",
            "no_version",
            "unknown_kind",
        ],
    )
    def test_malformed_tree_model_rejected(self, tmp_path, rng, corrupt):
        path, body = self._tree_model_json(tmp_path, rng)
        corrupt(body)
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.update(weights=[[0.0, 0.0]]),
            lambda p: p["weights"].__setitem__(0, [0.0]),
            lambda p: p["weights"][0].__setitem__(0, "0"),
            lambda p: p.update(biases=None),
        ],
        ids=["rows_short", "row_short", "weight_str", "biases_null"],
    )
    def test_malformed_logreg_model_rejected(self, tmp_path, corrupt):
        model = TrainedModel(
            kind="logreg",
            classes=("skip_3", "none"),
            standardizer=Standardizer((0.0, 0.0), (1.0, 1.0), (False, False)),
            weights=np.zeros((2, 2)),
            biases=np.zeros(2),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        body = json.loads(path.read_text())
        corrupt(body["params"])
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, corrupt, field",
        [
            ("logreg", lambda b: b["params"]["weights"][1].__setitem__(0, float("nan")), "weights"),
            ("logreg", lambda b: b["params"]["biases"].__setitem__(0, float("nan")), "biases"),
            ("two_stage", lambda b: b["params"]["skip"]["params"]["biases"].__setitem__(0, float("inf")), "biases"),
            ("logreg", lambda b: b["standardizer"]["means"].__setitem__(1, float("inf")), "means"),
            ("tree", lambda b: b["standardizer"]["stds"].__setitem__(0, float("-inf")), "stds"),
            ("tree", lambda b: b["standardizer"]["stds"].__setitem__(1, 0.0), "stds"),
            ("forest", lambda b: b["standardizer"]["stds"].__setitem__(0, -1.0), "stds"),
            ("tree", lambda b: b["params"]["tree"]["threshold"].__setitem__(0, float("nan")), "threshold"),
        ],
        ids=["weight_nan", "bias_nan", "stage_bias_inf", "mean_inf", "std_inf", "std_zero", "std_negative", "threshold_nan"],
    )
    def test_non_finite_or_non_positive_field_rejected(self, tmp_path, rng, kind, corrupt, field):
        # NaN and Infinity are valid JSON floats to json.load
        x = np.vstack([rng.normal((0, 0), 0.5, (30, 2)), rng.normal((6, 6), 0.5, (30, 2))])
        trainer = {"logreg": train_logreg, "tree": train_tree, "forest": train_forest, "two_stage": train_two_stage}
        path = tmp_path / "model.json"
        save_model(trainer[kind](x, ["skip_3"] * 30 + ["none"] * 30, CLASSES4), path)
        body = json.loads(path.read_text())
        corrupt(body)
        path.write_text(json.dumps(body))
        with pytest.raises(ModelFormatError, match=f"'{field}'"):
            load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
