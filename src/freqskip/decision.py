"""Lightweight decision models over the two handcrafted frequency features.

Three classifier families are available: multinomial logistic regression
(full-batch gradient descent, deterministic zero init), a random forest of
CART trees (Gini impurity, midpoint thresholds, seeded bootstrap plus
per-split feature subsets), and a decision tree, which is the one-tree
forest grown on every sample and every feature; trees and forests predict
by the same vote.  A two-stage model asks a skip stage (every skip class
plus ``none``) and then, on ``none``, an uncond stage trained on the
non-skip samples; each stage is a logistic regression, or a one-leaf tree
when its samples share one label.  A fitted model carries its feature
standardizer and the class list it predicts over, in the order it was
trained with; ties anywhere resolve toward the later list position.  That
is the less aggressive class only when the list follows
``strategies.ladder_order``: ``freqskip train`` passes the config ladder as
written, so with the default ladder a tie between ``skip_1`` and
``uncond_3`` resolves to ``uncond_3``, the rung with the higher modeled
speedup.

Models serialize to a versioned JSON file; a round-trip preserves all
predictions bit-exactly.  Loading checks every field's type, that every
weight, bias, mean, std and threshold is finite and every std positive,
every tree's shape, that a forest has a tree, and that a two-stage model's
stages answer only with the model's own classes, so a malformed file raises
:class:`ModelFormatError`, and tree walks always end: each internal node's
children are later nodes.
"""

from __future__ import annotations

import json
import math
import os
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np

MODEL_FORMAT_VERSION = 1

# logistic regression: L2 penalty, descent step, and the stopping rule
LOGREG_L2 = 1e-3
LOGREG_LEARNING_RATE = 0.1
LOGREG_MAX_EPOCHS = 2000
LOGREG_GRAD_TOL = 1e-6


class ModelFormatError(ValueError):
    """Raised for unreadable or unsupported model files."""


@dataclass(frozen=True)
class FeatureVector:
    hf_diff: float
    hf_ratio: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hf_diff) and math.isfinite(self.hf_ratio)):
            raise ValueError(f"features must be finite, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.hf_diff, self.hf_ratio], dtype=np.float64)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature population mean/std; zero-variance features get std 1."""

    means: tuple[float, ...]
    stds: tuple[float, ...]
    zero_variance: tuple[bool, ...]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - np.array(self.means)) / np.array(self.stds)


def fit_standardizer(features: np.ndarray) -> Standardizer:
    """Fit per-feature mean and population standard deviation."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a non-empty (n, d) feature matrix, got shape {x.shape}")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    zero = stds == 0.0
    stds = np.where(zero, 1.0, stds)
    return Standardizer(
        tuple(float(v) for v in means),
        tuple(float(v) for v in stds),
        tuple(bool(z) for z in zero),
    )


def split_train_val(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle followed by a prefix split; returns index arrays.

    The split is exact (no overlap, full coverage) and both parts are kept
    non-empty.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(n)
    cut = min(max(int(n * ratio), 1), n - 1)
    return perm[:cut], perm[cut:]


# --------------------------------------------------------------------------
# model configs and containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 4
    min_leaf: int = 5


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 4
    min_leaf: int = 5
    bootstrap: bool = True
    n_features: int | None = None  # None -> floor(sqrt(d)), at least 1
    seed: int = 0


@dataclass(frozen=True)
class TreeNodes:
    """Flat node arrays; leaf nodes have feature -1 and a class index."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    leaf_class: tuple[int, ...]


@dataclass(frozen=True)
class TrainedModel:
    kind: str  # "logreg" | "tree" | "forest" | "two_stage"
    classes: tuple[str, ...]
    standardizer: Standardizer
    weights: np.ndarray | None = None  # logreg: (C, d)
    biases: np.ndarray | None = None  # logreg: (C,)
    trees: tuple[TreeNodes, ...] = ()  # tree: exactly one
    forest_seed: int = 0
    submodels: tuple["TrainedModel", ...] = ()  # two_stage: (skip, uncond)

    @property
    def tree(self) -> TreeNodes:
        """The one tree of a ``tree`` model."""
        return self.trees[0]


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def _encode_labels(y, classes: tuple[str, ...]) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([index[label] for label in y], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not in class list {classes}") from None


def _check_training_input(x, y) -> tuple[np.ndarray, list[str]]:
    x = np.asarray(x, dtype=np.float64)
    y = list(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) feature matrix, got shape {x.shape}")
    if len(y) != x.shape[0]:
        raise ValueError(f"{len(y)} labels for {x.shape[0]} samples")
    return x, y


def logreg_loss_grad(
    w: np.ndarray, b: np.ndarray, xs: np.ndarray, y_idx: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy + L2 loss and its analytic gradient.

    The bias is not regularized.  Exposed at module level so the gradient can
    be checked against finite differences.
    """
    n = xs.shape[0]
    logits = xs @ w.T + b
    logits = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / expz.sum(axis=1, keepdims=True)
    nll = -np.mean(np.log(probs[np.arange(n), y_idx]))
    loss = nll + 0.5 * l2 * float(np.sum(w * w))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y_idx] = 1.0
    grad_w = (probs - onehot).T @ xs / n + l2 * w
    grad_b = (probs - onehot).mean(axis=0)
    return float(loss), grad_w, grad_b


def train_logreg(x, y, classes: tuple[str, ...]) -> TrainedModel:
    """Multinomial logistic regression by deterministic full-batch descent."""
    x, y = _check_training_input(x, y)
    if len(set(y)) < 2:
        raise ValueError("logistic regression needs at least 2 distinct classes in the data")
    std = fit_standardizer(x)
    xs = std.apply(x)
    y_idx = _encode_labels(y, classes)
    n_classes, n_feat = len(classes), x.shape[1]
    w = np.zeros((n_classes, n_feat))
    b = np.zeros(n_classes)
    for _ in range(LOGREG_MAX_EPOCHS):
        _, grad_w, grad_b = logreg_loss_grad(w, b, xs, y_idx, LOGREG_L2)
        if max(np.abs(grad_w).max(), np.abs(grad_b).max()) < LOGREG_GRAD_TOL:
            break
        w = w - LOGREG_LEARNING_RATE * grad_w
        b = b - LOGREG_LEARNING_RATE * grad_b
    return TrainedModel(kind="logreg", classes=tuple(classes), standardizer=std, weights=w, biases=b)


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _last_argmax(values: np.ndarray) -> int:
    best = values.max()
    return int(np.max(np.where(values == best)[0]))


def _best_split(
    xs: np.ndarray, y_idx: np.ndarray, n_classes: int, min_leaf: int, features: np.ndarray
) -> tuple[int, float] | None:
    """Exhaustive (feature, midpoint) search minimizing weighted Gini.

    Ties break on lower feature index, then lower threshold, which the
    ascending iteration order realizes by keeping only strict improvements.
    """
    n = xs.shape[0]
    best: tuple[float, int, float] | None = None
    for f in features:
        values = np.unique(xs[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            mask = xs[:, f] <= thr
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            score = (
                n_left * _gini(np.bincount(y_idx[mask], minlength=n_classes))
                + (n - n_left) * _gini(np.bincount(y_idx[~mask], minlength=n_classes))
            ) / n
            if best is None or score < best[0]:
                best = (score, int(f), float(thr))
    if best is None:
        return None
    return best[1], best[2]


def _shift(children: tuple[int, ...], by: int) -> tuple[int, ...]:
    return tuple(c + by if c >= 0 else c for c in children)


def _grow(xs: np.ndarray, y_idx: np.ndarray, n_classes: int, max_depth: int, min_leaf: int, pick) -> TreeNodes:
    """CART tree in pre-order: the root, then its left and right subtrees.

    A node splits while it is impure, ``max_depth`` is positive and a split
    leaves ``min_leaf`` samples each side; a leaf holds its majority class,
    ties toward the later class index.  ``pick(d)`` names the features a
    split may use, and is called once per candidate node in pre-order.
    """
    split = None
    if np.unique(y_idx).size > 1 and max_depth > 0:
        split = _best_split(xs, y_idx, n_classes, min_leaf, pick(xs.shape[1]))
    if split is None:
        return TreeNodes((-1,), (0.0,), (-1,), (-1,), (_last_argmax(np.bincount(y_idx, minlength=n_classes)),))
    f, thr = split
    mask = xs[:, f] <= thr
    lo = _grow(xs[mask], y_idx[mask], n_classes, max_depth - 1, min_leaf, pick)
    hi = _grow(xs[~mask], y_idx[~mask], n_classes, max_depth - 1, min_leaf, pick)
    n_lo = len(lo.feature)
    return TreeNodes(
        feature=(f, *lo.feature, *hi.feature),
        threshold=(thr, *lo.threshold, *hi.threshold),
        left=(1, *_shift(lo.left, 1), *_shift(hi.left, 1 + n_lo)),
        right=(1 + n_lo, *_shift(lo.right, 1), *_shift(hi.right, 1 + n_lo)),
        leaf_class=(-1, *lo.leaf_class, *hi.leaf_class),
    )


def train_forest(x, y, classes: tuple[str, ...], cfg: ForestConfig = ForestConfig()) -> TrainedModel:
    """Bagged CART ensemble with per-split random feature subsets."""
    x, y = _check_training_input(x, y)
    if cfg.n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {cfg.n_trees}")
    std = fit_standardizer(x)
    xs = std.apply(x)
    y_idx = _encode_labels(y, classes)
    n, d = xs.shape
    n_feat = cfg.n_features if cfg.n_features is not None else max(1, math.isqrt(d))
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng((cfg.seed, t))
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)

        def pick(dim: int, rng=rng, k=n_feat) -> np.ndarray:
            return np.sort(rng.choice(dim, size=min(k, dim), replace=False))

        trees.append(_grow(xs[idx], y_idx[idx], len(classes), cfg.max_depth, cfg.min_leaf, pick))
    return TrainedModel(
        kind="forest",
        classes=tuple(classes),
        standardizer=std,
        trees=tuple(trees),
        forest_seed=cfg.seed,
    )


def train_tree(x, y, classes: tuple[str, ...], cfg: TreeConfig = TreeConfig()) -> TrainedModel:
    """CART with Gini impurity and midpoint candidate thresholds: the forest
    of one tree, grown on every sample and every feature."""
    x, y = _check_training_input(x, y)
    one_tree = ForestConfig(
        n_trees=1, max_depth=cfg.max_depth, min_leaf=cfg.min_leaf, bootstrap=False, n_features=x.shape[1]
    )
    return replace(train_forest(x, y, classes, one_tree), kind="tree")


def _fit_stage(x: np.ndarray, y: list[str], classes: tuple[str, ...]) -> TrainedModel:
    # logreg cannot fit a single class; a one-leaf tree is the same constant
    if len(set(y)) < 2:
        return train_tree(x, y, classes)
    return train_logreg(x, y, classes)


def train_two_stage(x, y, classes: tuple[str, ...]) -> TrainedModel:
    """Two independent stages queried in order: skip decisions, then uncond.

    The skip stage sees all samples with non-skip labels collapsed to
    'none' (so ``classes`` must hold ``none``); the uncond stage is trained
    on the non-skip samples only, so a corpus labelled all skip is rejected.
    At prediction time a skip answer wins outright, otherwise the uncond
    stage decides.  Each stage is a logistic regression, or a one-leaf tree
    when its samples share one label: with no skip label at all, the skip
    stage always answers 'none'.
    """
    x, y = _check_training_input(x, y)
    if "none" not in classes:
        raise ValueError(f"two-stage training needs 'none' in the class list, got {tuple(classes)}")
    skip_classes = tuple(c for c in classes if c.startswith("skip_")) + ("none",)
    rest_classes = tuple(c for c in classes if not c.startswith("skip_"))
    y_skip = [label if label.startswith("skip_") else "none" for label in y]
    rest_rows = [i for i, label in enumerate(y) if not label.startswith("skip_")]
    if not rest_rows:
        raise ValueError("two-stage training needs at least one non-skip sample")
    return TrainedModel(
        kind="two_stage",
        classes=tuple(classes),
        standardizer=fit_standardizer(x),
        submodels=(
            _fit_stage(x, y_skip, skip_classes),
            _fit_stage(x[rest_rows], [y[i] for i in rest_rows], rest_classes),
        ),
    )


# model kind -> trainer, each fitting ``(x, y, classes)`` with its default config
TRAINERS = {"logreg": train_logreg, "tree": train_tree, "forest": train_forest, "two_stage": train_two_stage}


# --------------------------------------------------------------------------
# prediction
# --------------------------------------------------------------------------

def predict_proba(model: TrainedModel, features: FeatureVector) -> np.ndarray:
    """Class probabilities (logreg only)."""
    if model.kind != "logreg":
        raise ValueError(f"predict_proba needs a logreg model, got {model.kind!r}")
    xs = model.standardizer.apply(features.as_array())
    logits = model.weights @ xs + model.biases
    logits = logits - logits.max()
    expz = np.exp(logits)
    return expz / expz.sum()


def _tree_class(nodes: TreeNodes, xs: np.ndarray) -> int:
    i = 0
    while nodes.leaf_class[i] < 0:
        i = nodes.left[i] if xs[nodes.feature[i]] <= nodes.threshold[i] else nodes.right[i]
    return nodes.leaf_class[i]


def predict(model: TrainedModel, features: FeatureVector) -> str:
    """Predicted strategy identifier; ties resolve to the later class in
    ``model.classes``."""
    if model.kind == "logreg":
        return model.classes[_last_argmax(predict_proba(model, features))]
    if model.kind in ("tree", "forest"):
        xs = model.standardizer.apply(features.as_array())
        votes = np.bincount([_tree_class(nodes, xs) for nodes in model.trees], minlength=len(model.classes))
        return model.classes[_last_argmax(votes)]
    if model.kind == "two_stage":
        skip_model, uncond_model = model.submodels
        answer = predict(skip_model, features)
        if answer != "none":
            return answer
        return predict(uncond_model, features)
    raise ValueError(f"unknown model kind {model.kind!r}")


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def json_fits(value: object, hint) -> bool:
    """Whether a loaded JSON value has the type ``hint``: a bool is only a
    bool, a float may be an int, and ``tuple[T, ...]`` is a list of ``T``."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(json_fits(v, typing.get_args(hint)[0]) for v in value)
    # JSON true/false load as bool, a subclass of int; they count only as bool
    return isinstance(value, (int, float) if hint is float else hint) and (hint is bool or not isinstance(value, bool))


def _field(obj: object, key: str, hint):
    """``obj[key]`` if it is JSON of the type ``hint``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not json_fits(value, hint):
        raise ModelFormatError(f"model field {key!r} is missing or has the wrong type")
    return value


def _finite(key: str, values: list) -> list:
    """``values`` if every number in it is finite: JSON loads NaN and
    Infinity as floats."""
    if not all(math.isfinite(v) for v in values):
        raise ModelFormatError(f"model field {key!r} holds a non-finite number")
    return values


def _same_length(what: str, *arrays: list) -> int:
    if len({len(a) for a in arrays}) != 1:
        raise ModelFormatError(f"{what} arrays differ in length")
    return len(arrays[0])


def _std_from_json(obj: dict) -> Standardizer:
    means = _finite("means", _field(obj, "means", tuple[float, ...]))
    stds = _finite("stds", _field(obj, "stds", tuple[float, ...]))
    if not all(v > 0.0 for v in stds):
        raise ModelFormatError("model field 'stds' holds a std that is not positive")
    zero_variance = _field(obj, "zero_variance", tuple[bool, ...])
    _same_length("standardizer", means, stds, zero_variance)
    return Standardizer(means=tuple(means), stds=tuple(stds), zero_variance=tuple(zero_variance))


def _tree_from_json(obj: dict, n_classes: int, n_features: int) -> TreeNodes:
    """The tree's node arrays, checked to be the pre-order ``_grow``
    writes: a leaf's class is in range, and an internal node (leaf class < 0)
    splits on a known feature into two later nodes."""
    arrays = {
        key: _field(obj, key, tuple[float, ...] if key == "threshold" else tuple[int, ...])
        for key in ("feature", "threshold", "left", "right", "leaf_class")
    }
    _finite("threshold", arrays["threshold"])
    n = _same_length("tree", *arrays.values())
    if n == 0:
        raise ModelFormatError("tree has no nodes")
    nodes = TreeNodes(**{key: tuple(values) for key, values in arrays.items()})
    for i in range(n):
        if nodes.leaf_class[i] >= n_classes:
            raise ModelFormatError(f"tree node {i}: leaf class {nodes.leaf_class[i]} is not one of {n_classes} classes")
        if nodes.leaf_class[i] < 0 and not (
            0 <= nodes.feature[i] < n_features and i < nodes.left[i] < n and i < nodes.right[i] < n
        ):
            raise ModelFormatError(f"tree node {i}: split must name a feature and two later nodes")
    return nodes


def _model_to_json(model: TrainedModel) -> dict:
    body = {
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "classes": list(model.classes),
        "standardizer": asdict(model.standardizer),
    }
    if model.kind == "logreg":
        body["params"] = {"weights": model.weights.tolist(), "biases": model.biases.tolist()}
    elif model.kind == "tree":
        body["params"] = {"tree": asdict(model.tree)}
    elif model.kind == "forest":
        body["params"] = {"seed": model.forest_seed, "trees": [asdict(t) for t in model.trees]}
    elif model.kind == "two_stage":
        body["params"] = {
            "skip": _model_to_json(model.submodels[0]),
            "uncond": _model_to_json(model.submodels[1]),
        }
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    return body


def _model_from_json(obj: dict) -> TrainedModel:
    if not isinstance(obj, dict) or "version" not in obj:
        raise ModelFormatError("not a model file (missing version field)")
    if obj["version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {obj['version']!r}")
    kind = _field(obj, "kind", str)
    classes = tuple(_field(obj, "classes", tuple[str, ...]))
    std = _std_from_json(_field(obj, "standardizer", dict))
    params = _field(obj, "params", dict)
    if kind == "logreg":
        weights = _field(params, "weights", tuple[tuple[float, ...], ...])
        for row in weights:
            _finite("weights", row)
        biases = _finite("biases", _field(params, "biases", tuple[float, ...]))
        _same_length("logreg class", classes, weights, biases)
        _same_length("logreg feature", std.means, *weights)
        return TrainedModel(
            kind=kind,
            classes=classes,
            standardizer=std,
            weights=np.array(weights, dtype=np.float64),
            biases=np.array(biases, dtype=np.float64),
        )
    if kind in ("tree", "forest"):
        trees = (_field(params, "tree", dict),) if kind == "tree" else _field(params, "trees", tuple[dict, ...])
        if not trees:
            raise ModelFormatError("forest has no trees")
        return TrainedModel(
            kind=kind,
            classes=classes,
            standardizer=std,
            trees=tuple(_tree_from_json(t, len(classes), len(std.means)) for t in trees),
            forest_seed=_field(params, "seed", int) if kind == "forest" else 0,
        )
    if kind == "two_stage":
        stages = tuple(_model_from_json(_field(params, key, dict)) for key in ("skip", "uncond"))
        for key, stage in zip(("skip", "uncond"), stages):
            if not set(stage.classes) <= set(classes):
                raise ModelFormatError(f"two-stage {key} stage classes {stage.classes} are not all in {classes}")
        return TrainedModel(kind=kind, classes=classes, standardizer=std, submodels=stages)
    raise ModelFormatError(f"unknown model kind {kind!r}")


def save_model(model: TrainedModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | os.PathLike) -> TrainedModel:
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{os.fspath(path)}: malformed JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{os.fspath(path)}: not ASCII text ({exc})") from exc
    return _model_from_json(obj)
