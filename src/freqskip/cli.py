"""Command-line workflow: corpus -> label -> train -> run -> evaluate.

Every command takes a flat JSON config file (``--config``) with optional
flag overrides and writes its artifacts under ``--out``.  :func:`main` does
what the commands share: it validates the config before any work, builds its
trace and pipeline configs once, hands them to the command's handler, then
writes ``manifest.json`` (the command, the config and its hash, plus the
handler's own keys) and prints one ``<command>: <summary>`` line.  Identical
config and flags produce byte-identical artifacts.

``run`` takes ``--model`` or ``--force-strategy``; a forced strategy needs no
model, and the model file is then not read.

Exit codes: 0 success, 2 usage or config error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .corpus import _map_jobs, blob_corpus, default_corpus, default_ids, family_a, family_b
from .decision import TRAINERS, FeatureVector, json_fits, load_model, predict, save_model, split_train_val
from .frequency import HFParams, hf_ratio
from .generator import TargetSpec, TraceConfig, synth_target
from .image import ImageFormatError, save_image
from .labeling import LabeledSample, build_dataset, read_feature_csv, split_by_probe, write_features_csv
from .labeling import write_labels_csv
from .pipeline import PipelineConfig, evaluate, run_accelerated, train_from_samples
from .strategies import parse_strategy


class ConfigError(ValueError):
    """Raised for invalid or inconsistent run configuration."""


_CORPUS_KINDS = {"default": default_corpus, "blob": blob_corpus, "family_a": family_a, "family_b": family_b}
_TRACE = TraceConfig()
_PIPELINE = PipelineConfig()


@dataclass
class RunConfig:
    """Flat, file-loadable configuration for the whole workflow.

    The defaults are the frozen experiment setup, taken from ``TraceConfig()``
    and ``PipelineConfig()``; every key can be set in the JSON config file and
    a few common ones also by command-line flags.  The scoring and pricing
    constants are not keys, since labels, tau and models mean something only
    under them: ``metrics.SsimParams()``, ``metrics.HF_MASK_QUANTILE``,
    ``frequency.HF_EPSILON`` and ``strategies.DECISION_OVERHEAD``.
    """

    seed: int = _TRACE.seed
    corpus_size: int = 200
    corpus_kind: str = "default"
    schedule: tuple[int, ...] = _TRACE.schedule
    guidance: float = _TRACE.guidance
    gap_alpha: float = _TRACE.gap_alpha
    gap_gamma: float = _TRACE.gap_gamma
    decision_step: int = _PIPELINE.decision_step
    analysis_size: int = _PIPELINE.analysis_size
    hf_rho: float = _PIPELINE.hf.rho
    ladder: tuple[str, ...] = tuple(_PIPELINE.ladder_ids())
    tau: float = 0.84
    tau_sensitivity: float = 0.85
    model_kind: str = "logreg"
    train_ratio: float = 0.8
    split_seed: int = 0

    @staticmethod
    def from_file(path: str | None) -> "RunConfig":
        cfg = RunConfig()
        if path is None:
            return cfg
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file ({exc})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        hints = typing.get_type_hints(RunConfig)
        for key, value in data.items():
            if key not in fields:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            if not json_fits(value, hints[key]):
                raise ConfigError(f"{path}: config key {key!r} must be {fields[key].type}, got {value!r}")
            if isinstance(value, list):
                value = tuple(value)
            setattr(cfg, key, value)
        return cfg

    def apply_overrides(self, args: argparse.Namespace) -> None:
        for name in ("seed", "corpus_size", "corpus_kind", "tau", "model_kind"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(self, name, value)

    def validate(self) -> tuple[TraceConfig, PipelineConfig]:
        """Check every key; returns the run's trace and pipeline configs."""
        try:
            tcfg = TraceConfig(
                schedule=tuple(self.schedule),
                guidance=self.guidance,
                gap_alpha=self.gap_alpha,
                gap_gamma=self.gap_gamma,
                seed=self.seed,
            )
            pcfg = PipelineConfig(
                decision_step=self.decision_step,
                analysis_size=self.analysis_size,
                hf=HFParams(rho=self.hf_rho),
                ladder=tuple(parse_strategy(ident) for ident in self.ladder),
            )
            pcfg.validate_for(tcfg)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        if self.corpus_kind not in _CORPUS_KINDS:
            raise ConfigError(f"corpus_kind must be one of {tuple(_CORPUS_KINDS)}, got {self.corpus_kind!r}")
        if self.corpus_size < 1:
            raise ConfigError(f"corpus_size must be >= 1, got {self.corpus_size}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 <= self.tau_sensitivity <= 1.0:
            raise ConfigError(f"tau_sensitivity must be in [0, 1], got {self.tau_sensitivity}")
        if self.model_kind not in TRAINERS:
            raise ConfigError(f"unknown model_kind {self.model_kind!r}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
        if self.split_seed < 0:
            raise ConfigError(f"split_seed must be >= 0, got {self.split_seed}")
        return tcfg, pcfg

    def corpus_specs(self) -> list[TargetSpec]:
        return _CORPUS_KINDS[self.corpus_kind](self.corpus_size, self.seed)

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, cfg: RunConfig, command: str, extra: dict) -> None:
    body = {"command": command, "config_hash": cfg.config_hash(), "config": json.loads(cfg.canonical_json())}
    body.update(extra)
    _write_json(body, os.path.join(out_dir, "manifest.json"))


# --------------------------------------------------------------------------
# commands: each takes (args, cfg, tcfg, pcfg), creates --out only once its
# inputs check out, and returns (manifest extra keys, stdout summary)
# --------------------------------------------------------------------------

def _corpus_sample(item: tuple[str, TargetSpec], out_dir: str, size: int, hf: HFParams) -> float:
    """Synthesize and save one corpus target; only its hf_ratio goes back."""
    sid, spec = item
    target = synth_target(spec, size)
    save_image(target, os.path.join(out_dir, f"{sid}.f32"), "rawf32")
    return hf_ratio(target, hf)


def cmd_corpus(args: argparse.Namespace, cfg: RunConfig, tcfg: TraceConfig, pcfg: PipelineConfig) -> tuple[dict, str]:
    specs = cfg.corpus_specs()
    ids = default_ids(len(specs))
    os.makedirs(args.out, exist_ok=True)
    worker = partial(_corpus_sample, out_dir=args.out, size=tcfg.full_size, hf=pcfg.hf)
    buckets = {"0.0-0.1": 0, "0.1-0.4": 0, "0.4-1.0": 0}
    for ratio in _map_jobs(worker, list(zip(ids, specs)), args.jobs):
        if ratio <= 0.1:
            buckets["0.0-0.1"] += 1
        elif ratio < 0.4:
            buckets["0.1-0.4"] += 1
        else:
            buckets["0.4-1.0"] += 1
    extra = {"ids": ids, "hf_ratio_histogram": buckets, "specs": [dataclasses.asdict(s) for s in specs]}
    return extra, f"wrote {len(ids)} targets to {args.out} (hf_ratio buckets {buckets})"


def _read_corpus(corpus_dir: str) -> tuple[list[str], list[TargetSpec]]:
    """Sample ids and file-backed target specs of a ``freqskip corpus`` directory.

    Each id names one file in the directory, so an id that is empty, ``.``,
    ``..`` or holds a path separator is rejected, and so is a repeated id.
    Ids are also fields of ASCII CSV files and entries of whitespace-separated
    lists, so one that holds a comma, whitespace, a control character or a
    non-ASCII character (JSON's ``\\u`` escapes) is rejected too.
    """
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ImageFormatError(f"{corpus_dir}: not a corpus directory ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ImageFormatError(f"{manifest_path}: not ASCII text ({exc})") from None
    ids = manifest.get("ids") if isinstance(manifest, dict) else None
    if not json_fits(ids, tuple[str, ...]):
        raise ImageFormatError(f"{manifest_path}: 'ids' must be a list of strings, got {ids!r}")
    seen: set[str] = set()
    for sid in ids:
        if sid in ("", ".", "..") or "/" in sid or os.sep in sid:
            raise ImageFormatError(f"{manifest_path}: sample id {sid!r} is not a file name in the corpus")
        if "," in sid or " " in sid or not (sid.isascii() and sid.isprintable()):
            raise ImageFormatError(f"{manifest_path}: sample id {sid!r} is not printable ASCII without comma or space")
        if sid in seen:
            raise ImageFormatError(f"{manifest_path}: sample id {sid!r} appears more than once")
        seen.add(sid)
    return list(ids), [TargetSpec(path=os.path.join(corpus_dir, f"{sid}.f32")) for sid in ids]


def cmd_label(args: argparse.Namespace, cfg: RunConfig, tcfg: TraceConfig, pcfg: PipelineConfig) -> tuple[dict, str]:
    ids, specs = _read_corpus(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    samples = build_dataset(specs, tcfg, pcfg, cfg.tau, ids=ids, jobs=args.jobs)
    write_features_csv(samples, os.path.join(args.out, "features.csv"))
    write_labels_csv(samples, os.path.join(args.out, "labels.csv"))
    histogram = dict(sorted(Counter(s.label for s in samples).items()))
    return {"tau": cfg.tau, "label_histogram": histogram}, f"{len(samples)} samples, histogram {histogram}"


def cmd_train(args: argparse.Namespace, cfg: RunConfig, tcfg: TraceConfig, pcfg: PipelineConfig) -> tuple[dict, str]:
    kind = cfg.model_kind
    feat_ids, x, _ = read_feature_csv(args.features)
    label_ids, label_x, labels = read_feature_csv(args.labels)
    if labels is None:
        raise ValueError(f"{args.labels}: missing label column")
    if feat_ids != label_ids:
        raise ValueError("feature and label CSVs disagree on sample ids")
    # labels made under other settings (another hf_rho, say) keep the ids
    # but not the features; NaN rows reach FeatureVector's own error
    if not np.array_equal(x, label_x, equal_nan=True):
        sid = next(s for s, a, b in zip(feat_ids, x, label_x) if not np.array_equal(a, b, equal_nan=True))
        raise ValueError(f"feature and label CSVs disagree on the features of sample {sid!r}")
    samples = [
        LabeledSample(sid, FeatureVector(*row), lab, ssims={})
        for sid, row, lab in zip(feat_ids, x, labels)
    ]
    train_idx, val_idx = split_train_val(len(samples), cfg.train_ratio, cfg.split_seed)
    model = train_from_samples([samples[i] for i in train_idx], tuple(pcfg.ladder_ids()), kind)
    train_acc = float(
        np.mean([predict(model, samples[i].features) == samples[i].label for i in train_idx])
    )
    val_acc = float(np.mean([predict(model, samples[i].features) == samples[i].label for i in val_idx]))
    os.makedirs(args.out, exist_ok=True)
    save_model(model, os.path.join(args.out, "model.json"))
    extra = {
        "kind": kind,
        "train_accuracy": train_acc,
        "val_accuracy": val_acc,
        "train_size": len(train_idx),
        "val_size": len(val_idx),
    }
    return extra, f"kind={kind} train_accuracy={train_acc:.4f} val_accuracy={val_acc:.4f}"


def cmd_run(args: argparse.Namespace, cfg: RunConfig, tcfg: TraceConfig, pcfg: PipelineConfig) -> tuple[dict, str]:
    force_strategy = None
    if args.force_strategy is not None:
        try:
            force_strategy = parse_strategy(args.force_strategy)
            pcfg.check_rung(force_strategy, tcfg)
        except ValueError as exc:
            raise ConfigError(f"--force-strategy: {exc}") from None
    elif args.model is None:
        raise ConfigError("run needs --model or --force-strategy")
    target = synth_target(TargetSpec(path=args.target), tcfg.full_size)
    model = load_model(args.model) if force_strategy is None else None
    out, report = run_accelerated(target, tcfg, pcfg, model, force_strategy=force_strategy)
    os.makedirs(args.out, exist_ok=True)
    save_image(out, os.path.join(args.out, "output.f32"), "rawf32")
    save_image(out, os.path.join(args.out, "output.pgm"), "pgm8")
    extra = {
        "strategy": report.strategy,
        "hf_diff": report.features.hf_diff,
        "hf_ratio": report.features.hf_ratio,
        "cost": report.cost,
        "speedup": report.speedup,
    }
    return extra, f"strategy={report.strategy} cost={report.cost:.4f} speedup={report.speedup:.3f}"


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig, tcfg: TraceConfig, pcfg: PipelineConfig) -> tuple[dict, str]:
    model = load_model(args.model)
    ids, specs = _read_corpus(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    result = evaluate(specs, tcfg, pcfg, model, ids=ids, jobs=args.jobs)
    result.write_csv(os.path.join(args.out, "evaluation.csv"))
    _write_json(result.summary(), os.path.join(args.out, "summary.json"))
    extra: dict = {"summary": result.summary()}
    if args.split_sensitivity:
        sensitive, robust = split_by_probe(ids, result.probe_ssims, cfg.tau_sensitivity)
        for name, bucket in (("sensitive", sensitive), ("robust", robust)):
            with open(os.path.join(args.out, f"{name}.txt"), "w", encoding="ascii", newline="\n") as fh:
                fh.writelines(f"{sid}\n" for sid in bucket)
        extra["sensitive"] = len(sensitive)
        extra["robust"] = len(robust)
    summary = (
        f"{len(ids)} samples mean_ssim={result.mean_ssim:.4f} "
        f"mean_speedup={result.mean_speedup:.3f} histogram={result.histogram}"
    )
    return extra, summary


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", help="JSON config file (defaults apply when omitted)")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--tau", type=float, help="override labeling SSIM threshold")
    common.add_argument("--corpus-size", dest="corpus_size", type=int, help="override corpus size")
    common.add_argument("--corpus-kind", dest="corpus_kind", choices=_CORPUS_KINDS, help="recipe family")
    common.add_argument("--model-kind", dest="model_kind", choices=TRAINERS)
    common.add_argument("--out", "-o", required=True)
    # only the commands that map over a corpus run a pool
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument(
        "--jobs", type=int, default=1, help="parallel workers, capped at the CPU count (default 1, bit-stable)"
    )

    parser = argparse.ArgumentParser(
        prog="freqskip",
        description="Sample-adaptive frequency-aware acceleration workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", parents=[common, pooled], help="materialize the frozen procedural corpus")
    p.set_defaults(handler=cmd_corpus)

    p = sub.add_parser("label", parents=[common, pooled], help="simulate strategies and emit feature/label CSVs")
    p.add_argument("--corpus", required=True)
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("train", parents=[common], help="fit a decision model from labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("run", parents=[common], help="accelerated generation for a single target image")
    p.add_argument("--model", help="decision model; not read with --force-strategy")
    p.add_argument("--target", required=True)
    p.add_argument("--force-strategy", dest="force_strategy")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("evaluate", parents=[common, pooled], help="evaluate a model over a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split-sensitivity", action="store_true")
    p.set_defaults(handler=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "jobs" in args and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        cfg = RunConfig.from_file(args.config)
        cfg.apply_overrides(args)
        tcfg, pcfg = cfg.validate()
        extra, summary = args.handler(args, cfg, tcfg, pcfg)
        _write_manifest(args.out, cfg, args.command, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ImageFormatError, ModelFormatError are ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
