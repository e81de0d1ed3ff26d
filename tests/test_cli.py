import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil

import numpy as np
import pytest

from freqskip.cli import RunConfig, _build_parser, main
from freqskip.corpus import _map_jobs
from freqskip.decision import Standardizer, TrainedModel, save_model
from freqskip.image import load_image, save_image
from freqskip.strategies import Strategy, apply_strategy


def run_cli(*args):
    return main(list(args))


def tree_digest(root):
    """Stable digest of every file under a directory."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(name.encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


def small_corpus(workspace, root, ids):
    """A corpus directory holding the given ids of the shared workspace corpus."""
    root.mkdir()
    for sid in ids:
        shutil.copy(workspace / "corpus" / f"{sid}.f32", root / f"{sid}.f32")
    (root / "manifest.json").write_text(json.dumps({"ids": ids}))
    return root


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small end-to-end workflow shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    labels = root / "labels"
    model = root / "model"
    assert run_cli("corpus", "--corpus-size", "16", "-o", str(corpus)) == 0
    assert run_cli("label", "--corpus-size", "16", "--corpus", str(corpus), "-o", str(labels)) == 0
    assert (
        run_cli(
            "train",
            "--features",
            str(labels / "features.csv"),
            "--labels",
            str(labels / "labels.csv"),
            "-o",
            str(model),
        )
        == 0
    )
    return root


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("corpus")  # missing --out
        assert exc.value.code == 2

    def test_unknown_config_key_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        assert run_cli("corpus", "-c", str(cfg), "-o", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("steps", 12),
            ("eligible_steps", 3),
            ("ssim_window", 11),
            ("ssim_sigma", 1.5),
            ("ssim_k1", 0.01),
            ("ssim_k2", 0.03),
            ("hf_mask_quantile", 0.75),
            ("hf_epsilon", 1e-8),
            ("overhead", 0.005),
        ],
    )
    def test_derived_config_key_is_2(self, tmp_path, key, value):
        # the step count is len(schedule) and the window follows decision_step;
        # the SSIM, the high-frequency mask, the spectral epsilon and the
        # decision overhead are module constants, even at their own values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli("corpus", "-c", str(cfg), "-o", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body",
        [
            '{"gap_gamma": 1.5}',
            '{"guidance": NaN}',
            '{"gap_alpha": Infinity}',
            '{"seed": -1}',
            '{"split_seed": -1}',
            '{"seed": ',
            "[1, 2]",
            '{"corpus_kind": "bogus"}',
            '{"corpus_size": 0}',
            '{"tau": 0}',
            '{"tau_sensitivity": 1.5}',
            '{"model_kind": "svm"}',
            '{"train_ratio": 1}',
        ],
        ids=[
            "gap_gamma",
            "guidance_nan",
            "gap_alpha_inf",
            "seed_negative",
            "split_seed_negative",
            "malformed_json",
            "not_an_object",
            "corpus_kind",
            "corpus_size_zero",
            "tau_zero",
            "tau_sensitivity",
            "model_kind",
            "train_ratio_one",
        ],
    )
    def test_invalid_config_value_is_2(self, tmp_path, body):
        # json reads NaN and Infinity; no run can use them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        assert run_cli("corpus", "-c", str(cfg), "-o", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body",
        [
            {"corpus_size": 2.5},
            {"tau": "0.8"},
            {"seed": 1.5},
            {"seed": True},
            {"corpus_kind": 3},
            {"schedule": [8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224, 256.0]},
            {"ladder": "skip_3"},
            {"ladder": ["skip_3", 2, "none"]},
        ],
        ids=["int_float", "float_str", "seed_float", "int_bool", "str_int", "tuple_item", "tuple_str", "ladder_item"],
    )
    def test_mistyped_config_value_is_2(self, tmp_path, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert run_cli("corpus", "-c", str(cfg), "-o", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ident", ["skip_5", "hybrid_6_5", "uncond_4", "skip_x", "bogus"])
    def test_bad_forced_strategy_is_2_before_reading_inputs(self, tmp_path, ident):
        # neither file exists: reading either would exit 3
        argv = ["run", "--model", str(tmp_path / "no_model.json"), "--target", str(tmp_path / "no_target.f32")]
        assert run_cli(*argv, "-o", str(tmp_path / "out"), "--force-strategy", ident) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_corpus_is_3(self, tmp_path):
        assert run_cli("label", "--corpus", str(tmp_path / "nope"), "-o", str(tmp_path / "out")) == 3

    @pytest.mark.parametrize("manifest", ['{"ids": 5}', "[1, 2]", '{"ids": ["s0000", 7]}'])
    def test_malformed_corpus_manifest_is_3(self, workspace, tmp_path, manifest):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.json").write_text(manifest)
        model = str(workspace / "model" / "model.json")
        assert run_cli("label", "--corpus", str(corpus), "-o", str(tmp_path / "labels")) == 3
        assert run_cli("evaluate", "--model", model, "--corpus", str(corpus), "-o", str(tmp_path / "ev")) == 3
        assert not (tmp_path / "labels").exists() and not (tmp_path / "ev").exists()

    @pytest.mark.parametrize(
        "ids",
        [["../corp/s0001", "s0000", "s0000"], ["s0000", "s0000"], [""], ["."], [".."], ["corp/s0001"]],
        ids=["outside_and_repeated", "repeated", "empty", "dot", "dotdot", "subpath"],
    )
    def test_sample_id_that_is_not_one_corpus_file_is_3(self, workspace, tmp_path, ids):
        # the targets exist: a sibling corpus holds s0001, this one s0000
        small_corpus(workspace, tmp_path / "corp", ["s0000", "s0001"])
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000"])
        (corpus / "manifest.json").write_text(json.dumps({"ids": ids}))
        model = str(workspace / "model" / "model.json")
        assert run_cli("label", "--corpus", str(corpus), "-o", str(tmp_path / "labels")) == 3
        assert run_cli("evaluate", "--model", model, "--corpus", str(corpus), "-o", str(tmp_path / "ev")) == 3
        assert not (tmp_path / "labels").exists() and not (tmp_path / "ev").exists()

    @pytest.mark.parametrize(
        "sid",
        ["a,b", "a b", "a\tb", "a\x01b", "a\x7f", "a\u00e9"],
        ids=["comma", "space", "tab", "soh", "del", "non_ascii"],
    )
    def test_sample_id_that_breaks_a_csv_row_is_3(self, workspace, tmp_path, capsys, sid):
        # the target exists under that name, so only the id check stops it
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000"])
        shutil.copy(corpus / "s0000.f32", corpus / f"{sid}.f32")
        (corpus / "manifest.json").write_text(json.dumps({"ids": ["s0000", sid]}))
        model = str(workspace / "model" / "model.json")
        assert run_cli("label", "--corpus", str(corpus), "-o", str(tmp_path / "labels")) == 3
        assert run_cli("evaluate", "--model", model, "--corpus", str(corpus), "-o", str(tmp_path / "ev")) == 3
        assert f"sample id {sid!r} is not printable ASCII" in capsys.readouterr().err
        assert not (tmp_path / "labels").exists() and not (tmp_path / "ev").exists()

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 0, "tau": "\xff"}')
        assert run_cli("corpus", "-c", str(cfg), "-o", str(tmp_path / "out")) == 2
        assert f"config error: {cfg}: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_or_model_that_is_not_ascii_is_3_and_named(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "manifest.json"
        manifest.write_bytes(b'{"ids": ["s\xff"]}')
        assert run_cli("label", "--corpus", str(corpus), "-o", str(tmp_path / "labels")) == 3
        assert f"data error: {manifest}: not ASCII" in capsys.readouterr().err
        model = tmp_path / "model.json"
        model.write_bytes(b'{"kind": "\xff"}')
        target = str(workspace / "corpus" / "s0000.f32")
        assert run_cli("run", "--model", str(model), "--target", target, "-o", str(tmp_path / "run")) == 3
        assert f"data error: {model}: not ASCII" in capsys.readouterr().err
        assert not (tmp_path / "labels").exists() and not (tmp_path / "run").exists()

    def test_config_that_is_a_directory_is_2(self, tmp_path):
        assert run_cli("corpus", "-c", str(tmp_path), "-o", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_is_3(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert run_cli("corpus", "--corpus-size", "2", "-o", str(out)) == 3
        assert out.read_text() == "not a directory"

    def test_bad_model_file_is_3(self, tmp_path, workspace):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert (
            run_cli("run", "--model", str(bad), "--target", str(workspace / "corpus" / "s0000.f32"), "-o", str(tmp_path / "o"))
            == 3
        )

    def test_model_with_a_nan_threshold_is_3(self, tmp_path, workspace, capsys):
        # a NaN threshold sends every comparison right, so without the check
        # the run would exit 0 with another strategy
        labels = workspace / "labels"
        argv = ["train", "--features", str(labels / "features.csv"), "--labels", str(labels / "labels.csv")]
        assert run_cli(*argv, "--model-kind", "tree", "-o", str(tmp_path / "m")) == 0
        body = json.loads((tmp_path / "m" / "model.json").read_text())
        body["params"]["tree"]["threshold"][0] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        target = str(workspace / "corpus" / "s0000.f32")
        assert run_cli("run", "--model", str(bad), "--target", target, "-o", str(tmp_path / "o")) == 3
        assert "model field 'threshold' holds a non-finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_model_file_is_3(self, tmp_path, workspace):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        target = str(workspace / "corpus" / "s0000.f32")
        assert run_cli("run", "--model", str(bad), "--target", target, "-o", str(tmp_path / "o")) == 3

    def test_two_stage_class_outside_model_is_3(self, tmp_path, workspace):
        # a skip stage answering a rung outside the model's classes (and the ladder)
        labels = workspace / "labels"
        argv = ["train", "--features", str(labels / "features.csv"), "--labels", str(labels / "labels.csv")]
        assert run_cli(*argv, "--model-kind", "two_stage", "-o", str(tmp_path / "m")) == 0
        body = json.loads((tmp_path / "m" / "model.json").read_text())
        skip_stage = body["params"]["skip"]
        i = skip_stage["classes"].index("skip_3")
        skip_stage["classes"][i] = "skip_5"
        skip_stage["params"]["biases"][i] = 1e6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        target = str(workspace / "corpus" / "s0000.f32")
        assert run_cli("run", "--model", str(bad), "--target", target, "-o", str(tmp_path / "o")) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "header, stem",
        [
            (b"P5\n# no newline", "unterminated comment"),
            (b"P5\n4 4", "truncated header"),
            (b"P5\n4 x 255\n", "non-numeric header field"),
            (b"P6\n0 4 255\n", "invalid dimensions"),
            (b"SKVR1 2 2", "missing raw-float header line"),
            (b"SKVR1 2\n", "malformed raw-float header"),
            (b"SKVR1 2 y\n", "non-numeric raw-float dimensions"),
            (b"SKVR1 0 2\n", "invalid dimensions"),
            (b"SKVR1 1 1\n" + bytes(5), "1 trailing bytes"),
        ],
        ids=[
            "pnm_comment",
            "pnm_truncated",
            "pnm_non_numeric",
            "pnm_zero",
            "raw_no_header",
            "raw_header",
            "raw_non_numeric",
            "raw_zero",
            "raw_trailing",
        ],
    )
    def test_malformed_target_file_is_3(self, tmp_path, capsys, header, stem):
        target = tmp_path / "target.img"
        target.write_bytes(header)
        argv = ["run", "--force-strategy", "skip_3", "--target", str(target), "-o", str(tmp_path / "run")]
        assert run_cli(*argv) == 3
        assert f"data error: {target}: {stem}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "name, edit, stem",
        [
            ("labels", lambda lines: [ln.rsplit(",", 1)[0] for ln in lines], "missing label column"),
            ("labels", lambda lines: [ln.replace("s0000", "x0000") for ln in lines], "sample ids"),
            ("labels", lambda lines: [ln.replace("s0002,", "s0002,9") for ln in lines], "sample 's0002'"),
            ("features", lambda lines: ["id,a,b", *lines[1:]], "unexpected CSV header"),
            ("labels", lambda lines: [ln.replace("s0001,", "s0001,,") for ln in lines], "malformed row"),
        ],
        ids=["no_label_column", "other_ids", "other_features", "bad_header", "malformed_row"],
    )
    def test_train_csv_fault_is_3(self, workspace, tmp_path, capsys, name, edit, stem):
        # other_features: labels from another labeling run (another hf_rho,
        # say) keep the ids but not the features
        paths = {key: workspace / "labels" / f"{key}.csv" for key in ("features", "labels")}
        lines = paths[name].read_text().splitlines()
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("".join(f"{line}\n" for line in edit(lines)))
        argv = ["train", "--features", str(paths["features"]), "--labels", str(paths["labels"])]
        assert run_cli(*argv, "-o", str(tmp_path / "m")) == 3
        assert stem in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_jobs_below_one_is_2(self, workspace, tmp_path):
        for jobs in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                run_cli("label", "--corpus", str(workspace / "corpus"), "--jobs", jobs, "-o", str(tmp_path / "out"))
            assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_corpus_is_3(self, workspace, tmp_path):
        corpus = small_corpus(workspace, tmp_path / "corpus", [])
        labels, ev = tmp_path / "labels", tmp_path / "eval"
        assert run_cli("label", "--corpus", str(corpus), "-o", str(labels)) == 3
        model = str(workspace / "model" / "model.json")
        assert run_cli("evaluate", "--model", model, "--corpus", str(corpus), "-o", str(ev)) == 3
        assert not list(labels.glob("*.csv")) and not list(ev.glob("*.csv"))

    def test_truncated_target_in_worker_is_3(self, workspace, tmp_path):
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000", "s0001"])
        data = (corpus / "s0001.f32").read_bytes()
        (corpus / "s0001.f32").write_bytes(data[: len(data) // 2])
        model = str(workspace / "model" / "model.json")
        assert run_cli("label", "--corpus", str(corpus), "--jobs", "2", "-o", str(tmp_path / "labels")) == 3
        assert (
            run_cli("evaluate", "--model", model, "--corpus", str(corpus), "--jobs", "2", "-o", str(tmp_path / "ev"))
            == 3
        )
        # the failed maps leave no broken pool behind: the next pooled call
        # writes what a serial one does
        good = small_corpus(workspace, tmp_path / "good", ["s0000", "s0001"])
        for jobs in ("2", "1"):
            argv = ["evaluate", "--model", model, "--corpus", str(good), "--jobs", jobs]
            assert run_cli(*argv, "-o", str(tmp_path / f"good{jobs}")) == 0
        assert tree_digest(tmp_path / "good2") == tree_digest(tmp_path / "good1")

    def test_out_of_range_target_is_3(self, workspace, tmp_path):
        img = load_image(workspace / "corpus" / "s0000.f32")
        img[5, 7] = 2.0
        save_image(img, tmp_path / "bright.f32", "rawf32")
        model = str(workspace / "model" / "model.json")
        assert run_cli("run", "--model", model, "--target", str(tmp_path / "bright.f32"), "-o", str(tmp_path / "run")) == 3
        assert not (tmp_path / "run").exists()

    def test_non_finite_target_in_worker_is_3(self, workspace, tmp_path, capsys):
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000", "s0001"])
        img = load_image(corpus / "s0001.f32")
        img[0, 0] = np.nan
        save_image(img, corpus / "s0001.f32", "rawf32")
        assert run_cli("label", "--corpus", str(corpus), "--jobs", "2", "-o", str(tmp_path / "labels")) == 3
        assert "s0001.f32" in capsys.readouterr().err
        assert not list((tmp_path / "labels").glob("*.csv"))

    def test_unknown_model_kind_is_2(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "train",
                "--features",
                str(workspace / "labels" / "features.csv"),
                "--labels",
                str(workspace / "labels" / "labels.csv"),
                "--model-kind",
                "svm",
                "-o",
                str(tmp_path / "m"),
            )
        assert exc.value.code == 2


class TestCorpusCommand:
    def test_outputs_and_manifest(self, workspace):
        corpus = workspace / "corpus"
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["command"] == "corpus"
        assert len(manifest["ids"]) == 16
        assert len(manifest["config_hash"]) == 64
        for sid in manifest["ids"]:
            assert (corpus / f"{sid}.f32").exists()

    def test_hf_ratio_buckets_non_empty(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli("corpus", "--corpus-size", "48", "-o", str(out)) == 0
        hist = json.loads((out / "manifest.json").read_text())["hf_ratio_histogram"]
        assert hist["0.0-0.1"] > 0
        assert hist["0.4-1.0"] > 0

    def test_different_seed_changes_targets(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("corpus", "--corpus-size", "4", "-o", str(a))
        run_cli("corpus", "--corpus-size", "4", "--seed", "9", "-o", str(b))
        assert (a / "s0000.f32").read_bytes() != (b / "s0000.f32").read_bytes()


class TestLabelCommand:
    def test_headers_and_row_counts(self, workspace):
        labels = workspace / "labels"
        flines = (labels / "features.csv").read_text().splitlines()
        llines = (labels / "labels.csv").read_text().splitlines()
        assert flines[0] == "sample_id,hf_diff,hf_ratio"
        assert llines[0] == "sample_id,hf_diff,hf_ratio,label"
        assert len(flines) == len(llines) == 17


class TestTrainCommand:
    def test_model_loads_back_and_reports_accuracy(self, workspace, capsys):
        from freqskip.decision import load_model

        model = load_model(workspace / "model" / "model.json")
        assert model.kind == "logreg"
        manifest = json.loads((workspace / "model" / "manifest.json").read_text())
        assert 0.0 <= manifest["val_accuracy"] <= 1.0

    def test_separable_features_reach_perfect_accuracy(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rows = []
        for i in range(40):
            rows.append((f"s{i:04d}", rng.normal(0.05, 0.01), rng.normal(0.2, 0.02), "skip_3"))
        for i in range(40, 80):
            rows.append((f"s{i:04d}", rng.normal(0.6, 0.01), rng.normal(0.8, 0.02), "uncond_3"))
        fpath, lpath = tmp_path / "f.csv", tmp_path / "l.csv"
        with open(fpath, "w") as fh:
            fh.write("sample_id,hf_diff,hf_ratio\n")
            fh.writelines(f"{sid},{a!r},{b!r}\n" for sid, a, b, _ in rows)
        with open(lpath, "w") as fh:
            fh.write("sample_id,hf_diff,hf_ratio,label\n")
            fh.writelines(f"{sid},{a!r},{b!r},{lab}\n" for sid, a, b, lab in rows)
        assert run_cli("train", "--features", str(fpath), "--labels", str(lpath), "-o", str(tmp_path / "m")) == 0
        out = capsys.readouterr().out
        assert "train_accuracy=1.0000" in out
        assert "val_accuracy=1.0000" in out

    def test_non_canonical_ladder_trains_canonical_classes(self, workspace, tmp_path):
        # "skip_03" parses as skip_3; the labels name canonical ids, so the
        # model's classes must be the canonical ids too
        ladder = ["skip_03" if s == "skip_3" else s for s in RunConfig().ladder]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ladder": ladder}))
        labels = workspace / "labels"
        out = tmp_path / "m"
        argv = ["train", "-c", str(cfg), "--features", str(labels / "features.csv"), "--labels", str(labels / "labels.csv")]
        assert run_cli(*argv, "-o", str(out)) == 0
        from freqskip.decision import load_model

        assert load_model(out / "model.json").classes == RunConfig().ladder
        assert (out / "model.json").read_bytes() == (workspace / "model" / "model.json").read_bytes()


class TestRunCommand:
    def test_emits_image_and_report(self, workspace, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run",
            "--model",
            str(workspace / "model" / "model.json"),
            "--target",
            str(workspace / "corpus" / "s0001.f32"),
            "-o",
            str(out),
        )
        assert code == 0
        assert (out / "output.f32").exists() and (out / "output.pgm").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["strategy"] in RunConfig().ladder

    def test_force_none_reproduces_baseline_hash(self, workspace, tmp_path):
        target_path = workspace / "corpus" / "s0002.f32"
        out = tmp_path / "run"
        run_cli(
            "run",
            "--model",
            str(workspace / "model" / "model.json"),
            "--target",
            str(target_path),
            "-o",
            str(out),
            "--force-strategy",
            "none",
        )
        target = load_image(target_path)
        baseline, _ = apply_strategy(target, RunConfig().validate()[0], Strategy.none())
        ref_path = tmp_path / "ref.f32"
        save_image(baseline, ref_path, "rawf32")
        assert (out / "output.f32").read_bytes() == ref_path.read_bytes()

    def test_force_strategy_needs_no_model(self, workspace, tmp_path):
        target = ["--target", str(workspace / "corpus" / "s0002.f32"), "--force-strategy", "none"]
        with_model, without = tmp_path / "with_model", tmp_path / "without"
        assert run_cli("run", "--model", str(workspace / "model" / "model.json"), *target, "-o", str(with_model)) == 0
        assert run_cli("run", *target, "-o", str(without)) == 0
        assert (without / "output.f32").read_bytes() == (with_model / "output.f32").read_bytes()

    def test_neither_model_nor_forced_strategy_is_2(self, tmp_path):
        # the target does not exist: reading it would exit 3
        assert run_cli("run", "--target", str(tmp_path / "no_target.f32"), "-o", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()


class TestManifests:
    BASE = {"command", "config_hash", "config"}

    def test_each_command_writes_its_manifest(self, workspace, tmp_path):
        model = str(workspace / "model" / "model.json")
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000", "s0001"])
        target = str(corpus / "s0000.f32")
        assert run_cli("run", "--model", model, "--target", target, "-o", str(tmp_path / "run")) == 0
        argv = ["evaluate", "--model", model, "--corpus", str(corpus)]
        assert run_cli(*argv, "-o", str(tmp_path / "evaluate")) == 0
        assert run_cli(*argv, "--split-sensitivity", "-o", str(tmp_path / "split")) == 0
        extras = {
            workspace / "corpus": ("corpus", {"ids", "hf_ratio_histogram", "specs"}),
            workspace / "labels": ("label", {"tau", "label_histogram"}),
            workspace / "model": ("train", {"kind", "train_accuracy", "val_accuracy", "train_size", "val_size"}),
            tmp_path / "run": ("run", {"strategy", "hf_diff", "hf_ratio", "cost", "speedup"}),
            tmp_path / "evaluate": ("evaluate", {"summary"}),
            tmp_path / "split": ("evaluate", {"summary", "sensitive", "robust"}),
        }
        for out, (command, keys) in extras.items():
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            assert set(manifest) == self.BASE | keys


class TestEvaluateCommand:
    def test_summary_matches_csv_and_histogram(self, workspace, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            "--model",
            str(workspace / "model" / "model.json"),
            "--corpus",
            str(workspace / "corpus"),
            "-o",
            str(out),
            "--split-sensitivity",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        lines = (out / "evaluation.csv").read_text().splitlines()
        ssims = [float(line.split(",")[4]) for line in lines[1:]]
        assert float(np.mean(ssims)) == pytest.approx(summary["mean_ssim"], abs=1e-9)
        assert sum(summary["histogram"].values()) == 16
        sens = (out / "sensitive.txt").read_text().split()
        rob = (out / "robust.txt").read_text().split()
        assert sorted(sens + rob) == [f"s{i:04d}" for i in range(16)]


    def test_split_matches_model_free_split(self, workspace, tmp_path):
        # the split comes from the evaluate pass, yet no model moves it: the
        # workspace model picks skip_3 (the probe's own image) on some
        # samples, and a constant uncond_3 model never emits the probe's image
        ids = ["s0000", "s0002", "s0003", "s0004", "s0010"]
        corpus = small_corpus(workspace, tmp_path / "corpus", ids)
        constant = tmp_path / "uncond_3.json"
        identity = Standardizer((0.0, 0.0), (1.0, 1.0), (False, False))
        save_model(TrainedModel("logreg", ("uncond_3",), identity, np.zeros((1, 2)), np.zeros(1)), constant)
        splits = set()
        for model, picks in ((workspace / "model" / "model.json", {"skip_3", "uncond_3"}), (constant, {"uncond_3"})):
            for jobs in ("1", "2"):
                out = tmp_path / f"{model.stem}_{jobs}"
                argv = ["evaluate", "--model", str(model), "--corpus", str(corpus), "--split-sensitivity"]
                assert run_cli(*argv, "--jobs", jobs, "-o", str(out)) == 0
                rows = (out / "evaluation.csv").read_text().splitlines()[1:]
                assert {row.split(",")[1] for row in rows} == picks
                splits.add(tuple(tuple((out / f"{name}.txt").read_text().split()) for name in ("sensitive", "robust")))
        ((sensitive, robust),) = splits
        assert sensitive and robust
        assert sorted(sensitive + robust) == ids


COMMON_OPTIONS = {
    "-h", "--help", "--config", "-c", "--seed", "--tau", "--corpus-size", "--corpus-kind", "--model-kind", "--out", "-o"
}


def test_each_command_takes_exactly_its_options():
    # every command records the whole config, so the overrides are common;
    # only the commands that run a pool take --jobs
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {s for a in p._actions for s in a.option_strings} for name, p in commands.choices.items()}
    assert options == {
        "corpus": COMMON_OPTIONS | {"--jobs"},
        "label": COMMON_OPTIONS | {"--jobs", "--corpus"},
        "train": COMMON_OPTIONS | {"--features", "--labels"},
        "run": COMMON_OPTIONS | {"--model", "--target", "--force-strategy"},
        "evaluate": COMMON_OPTIONS | {"--jobs", "--model", "--corpus", "--split-sensitivity"},
    }


class TestJobsFlag:
    @pytest.mark.parametrize("command", ["train", "run"])
    def test_command_without_a_pool_rejects_jobs(self, workspace, tmp_path, command):
        labels = workspace / "labels"
        inputs = {
            "train": ["--features", str(labels / "features.csv"), "--labels", str(labels / "labels.csv")],
            "run": ["--force-strategy", "skip_3", "--target", str(workspace / "corpus" / "s0000.f32")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *inputs, "--jobs", "2", "-o", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_parallel_corpus_matches_serial(self, workspace, tmp_path):
        # every pooled stage: corpus, label, and evaluate with the sensitivity split
        model = str(workspace / "model" / "model.json")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for jobs, root in (("1", serial), ("2", parallel)):
            corpus = str(root / "corpus")
            assert run_cli("corpus", "--corpus-size", "6", "--jobs", jobs, "-o", corpus) == 0
            assert run_cli("label", "--corpus", corpus, "--jobs", jobs, "-o", str(root / "labels")) == 0
            assert (
                run_cli(
                    "evaluate",
                    "--model",
                    model,
                    "--corpus",
                    corpus,
                    "--split-sensitivity",
                    "--jobs",
                    jobs,
                    "-o",
                    str(root / "eval"),
                )
                == 0
            )
        for stage in ("corpus", "labels", "eval"):
            assert tree_digest(serial / stage) == tree_digest(parallel / stage), stage

    def test_pool_capped_at_cpu_count(self, workspace, tmp_path, monkeypatch):
        sizes = []

        class FakePool:
            # records the requested size and maps in-process; no worker starts
            def __init__(self, processes):
                sizes.append(processes)

            def map(self, fn, items):
                return [fn(item) for item in items]

        # an empty kept-pool slot, restored after the test: the fake is
        # started here and never outlives the test
        monkeypatch.setattr("freqskip.corpus._kept_pool", None)
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # more ids than CPUs, so the CPU count is the cap; s0000 and s0002 give two distinct labels
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000", "s0001", "s0002", "s0003"])
        assert run_cli("label", "--corpus", str(corpus), "--jobs", "100000", "-o", str(tmp_path / "labels")) == 0
        assert sizes == [3]

    def test_no_pool_for_one_item(self, workspace, tmp_path, monkeypatch):
        def no_pool(processes):
            raise AssertionError(f"a {processes}-worker pool was started for one item")

        monkeypatch.setattr("freqskip.corpus._kept_pool", None)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        corpus = small_corpus(workspace, tmp_path / "corpus", ["s0000"])
        argv = ["evaluate", "--model", str(workspace / "model" / "model.json"), "--corpus", str(corpus)]
        assert run_cli(*argv, "--jobs", "2", "-o", str(tmp_path / "eval")) == 0

    def test_pooled_calls_reuse_the_workers(self, monkeypatch):
        # the process keeps one pool, so a later call runs on the workers
        # (and their warm memos) of the first instead of forking new ones
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        first = set(_map_jobs(worker_pid, list(range(8)), 2))
        workers = {p.pid for p in multiprocessing.active_children()}
        second = set(_map_jobs(worker_pid, list(range(8)), 2))
        assert first and os.getpid() not in first
        assert first | second <= workers


def worker_pid(_item):
    return os.getpid()


class TestColorTargets:
    def test_ppm_target_grayscaled_and_resized(self, workspace, tmp_path):
        ppm = tmp_path / "t.ppm"
        rng = np.random.default_rng(3)
        raster = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        ppm.write_bytes(b"P6\n64 64\n255\n" + raster.tobytes())
        out = tmp_path / "run"
        code = run_cli(
            "run",
            "--model",
            str(workspace / "model" / "model.json"),
            "--target",
            str(ppm),
            "-o",
            str(out),
        )
        assert code == 0
        assert load_image(out / "output.f32").shape == (256, 256)


class TestTauSweep:
    def test_three_thresholds_emit_three_summaries(self, workspace, tmp_path):
        # the monotone speedup ordering across thresholds is an aggregate
        # property of the full frozen corpus (see the acceptance suite);
        # here the sweep mechanics run on the small shared workspace
        summaries = {}
        for tau in ("0.88", "0.86", "0.84"):
            labels = tmp_path / f"labels_{tau}"
            model = tmp_path / f"model_{tau}"
            ev = tmp_path / f"eval_{tau}"
            assert run_cli("label", "--tau", tau, "--corpus", str(workspace / "corpus"), "-o", str(labels)) == 0
            assert (
                run_cli(
                    "train",
                    "--features",
                    str(labels / "features.csv"),
                    "--labels",
                    str(labels / "labels.csv"),
                    "-o",
                    str(model),
                )
                == 0
            )
            assert (
                run_cli(
                    "evaluate",
                    "--model",
                    str(model / "model.json"),
                    "--corpus",
                    str(workspace / "corpus"),
                    "-o",
                    str(ev),
                )
                == 0
            )
            summaries[tau] = json.loads((ev / "summary.json").read_text())
        assert len(summaries) == 3
        for summary in summaries.values():
            assert summary["samples"] == 16
            assert 0.0 < summary["mean_ssim"] <= 1.0
            assert summary["mean_speedup"] > 0.9


def test_readme_config_keys_match_run_config():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert documented == {f.name for f in dataclasses.fields(RunConfig)}
