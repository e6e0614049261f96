import argparse
import errno
import hashlib
import json
import os
import shlex
import shutil
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_member_workers
from jsonfuzz import json_values
from gnssfsl import cli, fsl, metrics, nncore, siggen, spectro, uncertainty
from gnssfsl.cli import identity_hash
from gnssfsl.spectro import load_corpus


def tree_digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob(pattern)):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


TINY_COUNTS = json.dumps({str(c): 8 for c in range(11)})


def quick_config_file(tmp_path: Path, **overrides) -> Path:
    cfg = fsl.TrainConfig(
        epochs=1,
        episodes_per_epoch=2,
        conv_channels=(4, 8),
        embed_dim=16,
        k_shot=2,
        n_query=2,
        pair_batch=4,
        batch_size=32,
        seed=5,
    )
    cfg = fsl.replace(cfg, **overrides)
    path = tmp_path / f"config_{overrides.get('loss', 'ce')}.json"
    path.write_text(cfg.to_json())
    return path


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_cli_commands_parse(self):
        # A subcommand or flag deleted from the CLI but left in the docs fails here.
        prefix = "python -m gnssfsl.cli "
        commands = [
            line.strip()[len(prefix):]
            for line in README.read_text().splitlines()
            if line.strip().startswith(prefix)
        ]
        assert commands
        parser = cli.build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command))
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")


# Each subcommand's option strings: a flag that no stage reads has no place here.
STAGE_OPTIONS = {
    "gen-data": ["--counts", "--out", "--profile", "--seed"],
    "train": ["--config", "--name", "--run"],
    "ensemble": ["--config", "--members", "--run"],
    "mine": ["--run"],
    "adapt": ["--config", "--force", "--name", "--run"],
    "eval": ["--config", "--force", "--name", "--run"],
    "embed": ["--config", "--force", "--iters", "--name", "--run"],
}


class TestFlagSurface:
    def test_each_stage_takes_only_the_flags_it_reads(self):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert sorted(subparsers.choices) == sorted(STAGE_OPTIONS)
        for command, options in STAGE_OPTIONS.items():
            parser = subparsers.choices[command]
            got = sorted(o for a in parser._actions for o in a.option_strings)
            assert got == sorted(options + ["-h", "--help"]), command

    @pytest.mark.parametrize(
        "argv",
        [["ensemble", "--name", "x"], ["ensemble", "--force"], ["train", "--force"]],
        ids=["ensemble-name", "ensemble-force", "train-force"],
    )
    def test_unread_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(SystemExit) as info:
            cli.main([argv[0], "--run", str(tmp_path), "--config", str(cfg), *argv[1:]])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            rc = cli.main(
                [
                    "gen-data",
                    "--out",
                    str(tmp_path / sub),
                    "--seed",
                    "7",
                    "--counts",
                    TINY_COUNTS,
                ]
            )
            assert rc == 0
        assert tree_digest(tmp_path / "a" / "corpus", "*.img") == tree_digest(
            tmp_path / "b" / "corpus", "*.img"
        )
        assert (tmp_path / "a" / "corpus" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "corpus" / "manifest.json"
        ).read_bytes()

    def test_manifest_matches_files(self, tmp_path):
        rc = cli.main(
            ["gen-data", "--out", str(tmp_path), "--seed", "3", "--counts", TINY_COUNTS]
        )
        assert rc == 0
        corpus_dir = tmp_path / "corpus"
        corpus = load_corpus(corpus_dir / "manifest.json")
        assert sorted(f.name for f in corpus_dir.iterdir()) == ["images.img", "manifest.json"]
        assert len(spectro.read_image(corpus_dir / "images.img")) == len(corpus) == 88
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["stages"][0]["stage"] == "gen-data"
        assert manifest["stages"][0]["corpus_hash"]

    def test_regenerating_fewer_records_keeps_corpus_hash(self, tmp_path):
        more = json.dumps({str(c): 10 for c in range(11)})
        for out, runs in ((tmp_path / "reused", (more, TINY_COUNTS)), (tmp_path / "fresh", (TINY_COUNTS,))):
            for counts in runs:
                assert cli.main(["gen-data", "--out", str(out), "--seed", "3", "--counts", counts]) == 0
        hashes = [
            json.loads((tmp_path / sub / "run_manifest.json").read_text())["stages"][-1]["corpus_hash"]
            for sub in ("reused", "fresh")
        ]
        assert hashes[0] == hashes[1]

    def test_generated_pixels_are_read_only_rows_of_one_block(self, tmp_path):
        corpus = cli.generate_corpus(tmp_path, seed=3, counts={c: 8 for c in range(11)})
        assert len({id(r.image.pixels.base) for r in corpus.records}) == 1
        for r in corpus.records:
            assert not r.image.pixels.flags.writeable
            with pytest.raises(ValueError):
                r.image.pixels[0, 0] = 0

    def test_forked_records_are_byte_identical_to_serial(self, tmp_path, monkeypatch):
        # Record i depends only on the seed and i, so the process that
        # synthesizes it does not change the corpus bytes.
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for workers in (1, 2):
            force_member_workers(monkeypatch, workers)
            argv = ["gen-data", "--out", str(tmp_path / f"w{workers}"), "--counts", TINY_COUNTS]
            assert cli.main(argv) == 0
        assert forks == [1]
        for name in ("images.img", "manifest.json"):
            assert (tmp_path / "w1" / "corpus" / name).read_bytes() == (
                tmp_path / "w2" / "corpus" / name
            ).read_bytes()

    def test_lost_worker_leaves_no_corpus_directory(self, tmp_path, capsys, monkeypatch):
        # The forked worker synthesizes the odd records and dies on its first.
        force_member_workers(monkeypatch, 2)
        real, parent = cli.synthesize_record, os.getpid()
        odd = {siggen.derive_seed(42, i) for i in range(1, 88, 2)}

        def dies_on_odd_record(label, record_seed, *args):
            if record_seed in odd:
                assert os.getpid() != parent, "an odd record synthesized in the test process"
                os._exit(3)
            return real(label, record_seed, *args)

        monkeypatch.setattr(cli, "synthesize_record", dies_on_odd_record)
        capsys.readouterr()
        assert cli.main(["gen-data", "--out", str(tmp_path / "run"), "--counts", TINY_COUNTS]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"
        assert err["exit_status"] == 3 and err["worker"] == 1
        assert not (tmp_path / "run" / "corpus").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_count_below_minimum_rejected(self, tmp_path, capsys):
        rc = cli.main(
            [
                "gen-data",
                "--out",
                str(tmp_path),
                "--counts",
                json.dumps({"0": 4, "1": 8, "2": 8}),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"

    def test_empty_counts_rejected(self, tmp_path, capsys):
        # An empty object used to fall back to the profile's counts.
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--counts", "{}"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "counts" in err["message"]
        assert not (tmp_path / "corpus").exists()
        with pytest.raises(ValueError, match="counts"):
            cli.generate_corpus(tmp_path, counts={})

    def test_class_id_outside_range_rejected(self, tmp_path, capsys):
        # Refused before any class is synthesized or any directory made.
        out = tmp_path / "run"
        rc = cli.main(["gen-data", "--out", str(out), "--counts", '{"0": 8, "11": 8, "12": 8}'])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "outside 0-10: [11, 12]" in err["message"]
        assert not out.exists()
        with pytest.raises(ValueError, match=r"outside 0-10: \[-1\]"):
            cli.generate_corpus(out, counts={-1: 8, 0: 8})
        assert not out.exists()

    def test_negative_seed_rejected_before_synthesis(self, tmp_path, capsys, monkeypatch):
        # numpy would refuse it only after every record was synthesized.
        monkeypatch.setattr(cli, "synthesize_record", lambda *args: pytest.fail("synthesized"))
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--out", str(out), "--seed", "-1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "seed must be >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--counts", '{"0": 100000000000}')])
    def test_corpus_larger_than_memory_rejected(self, tmp_path, capsys, flag, value):
        # Refused before numpy is asked for the image block.
        rc = cli.main(["gen-data", "--out", str(tmp_path), flag, value])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "do not fit in memory" in err["message"]
        assert not (tmp_path / "corpus").exists()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full chain on a tiny corpus, shared by the stage tests below."""
    run = tmp_path_factory.mktemp("run")
    cfg_ce = quick_config_file(run)
    cfg_quad = quick_config_file(run, loss="quadruplet", similarity_map="computed")
    steps = [
        ["gen-data", "--out", str(run), "--seed", "7", "--counts", TINY_COUNTS],
        ["train", "--run", str(run), "--config", str(cfg_ce)],
        ["ensemble", "--run", str(run), "--config", str(cfg_ce), "--members", "2"],
        ["mine", "--run", str(run)],
        ["train", "--run", str(run), "--config", str(cfg_quad)],
        ["adapt", "--run", str(run), "--config", str(cfg_ce)],
        ["eval", "--run", str(run), "--config", str(cfg_ce)],
        ["eval", "--run", str(run), "--config", str(cfg_quad), "--name", "quadruplet"],
        ["embed", "--run", str(run), "--config", str(cfg_ce), "--iters", "50"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, f"stage failed: {argv}"
    return run, cfg_ce, cfg_quad


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline_run):
        run, _, _ = pipeline_run
        for rel in (
            "corpus/manifest.json",
            "checkpoints/ce.gnssnet",
            "checkpoints/ensemble_00.gnssnet",
            "checkpoints/ensemble_01.gnssnet",
            "similarity_map.json",
            "checkpoints/quadruplet.gnssnet",
            "checkpoints/ce_prototypes.json",
            "reports/metrics_ce.csv",
            "reports/confusion_ce.csv",
            "reports/metrics_quadruplet.csv",
            "reports/uncertainty.csv",
            "reports/tsne_ce.csv",
        ):
            assert (run / rel).exists(), rel

    def test_manifest_hash_chain(self, pipeline_run):
        run, _, _ = pipeline_run
        stages = json.loads((run / "run_manifest.json").read_text())["stages"]
        assert stages[0]["prev_hash"] is None
        for prev, cur in zip(stages, stages[1:]):
            assert cur["prev_hash"] == prev["hash"]
        for entry in stages:
            body = {k: v for k, v in entry.items() if k != "hash"}
            digest = hashlib.sha256(
                json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()
            assert digest == entry["hash"]

    def test_eval_idempotent(self, pipeline_run):
        run, cfg_ce, _ = pipeline_run
        before = (run / "reports" / "metrics_ce.csv").read_bytes()
        assert cli.main(["eval", "--run", str(run), "--config", str(cfg_ce)]) == 0
        after = (run / "reports" / "metrics_ce.csv").read_bytes()
        assert before == after

    def test_eval_on_untrained_checkpoint_is_total(self, pipeline_run, tmp_path):
        run, cfg_ce, _ = pipeline_run
        # a freshly initialized, never-trained network still yields a report
        cfg = fsl.TrainConfig.from_json(Path(cfg_ce).read_text())
        net = nncore.init(cfg.arch((32, 32)), seed=99)
        nncore.save_checkpoint(net, run / "checkpoints" / "fresh.gnssnet")
        rc = cli.main(
            ["eval", "--run", str(run), "--config", str(cfg_ce), "--name", "fresh"]
        )
        assert rc == 0
        assert (run / "reports" / "metrics_fresh.csv").exists()

    def test_similarity_map_is_valid_json(self, pipeline_run):
        run, _, _ = pipeline_run
        m = fsl.SimilarityMap.load(run / "similarity_map.json")
        for c, others in m.ranked.items():
            assert c not in others

    def test_eval_adaptation_scores_equal_adaptation_report(self, pipeline_run):
        run, cfg_ce, cfg_quad = pipeline_run
        corpus = load_corpus(run / "corpus" / "manifest.json")
        for name, cfg_path in (("ce", cfg_ce), ("quadruplet", cfg_quad)):
            cfg = fsl.TrainConfig.from_json(Path(cfg_path).read_text())
            net = nncore.load_checkpoint(run / "checkpoints" / f"{name}.gnssnet")
            acc, f2, _ = cli.adaptation_report(net, corpus, cfg.adaptation_classes, cfg.k_shot)
            lines = (run / "reports" / f"metrics_{name}.csv").read_text().splitlines()
            rows = dict(line.split(",") for line in lines[1:])
            assert rows["adaptation_macro_accuracy"] == f"{acc:.9f}", name
            assert rows["adaptation_macro_f2"] == f"{f2:.9f}", name

    def test_mine_runs_each_member_once(self, pipeline_run, monkeypatch):
        run, _, _ = pipeline_run
        before = (run / "similarity_map.json").read_bytes()
        calls = []
        real = uncertainty.predict_member

        def counting(member, images):
            calls.append(id(member))
            return real(member, images)

        monkeypatch.setattr(uncertainty, "predict_member", counting)
        monkeypatch.setattr(fsl, "predict_member", counting)
        force_member_workers(monkeypatch, 1)  # a forked worker's calls are not counted here
        assert cli.main(["mine", "--run", str(run)]) == 0
        assert len(calls) == 2 and len(set(calls)) == 2
        assert (run / "similarity_map.json").read_bytes() == before


class TestStageErrors:
    def test_missing_corpus_names_file(self, tmp_path, capsys):
        cfg = quick_config_file(tmp_path)
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "missing upstream artifact" in err["message"]
        assert "manifest.json" in err["file"]

    @pytest.mark.parametrize(
        "text",
        ['{"epochs": "x"}', '{"conv_channels": 5}', "[1, 2]", "not json"],
        ids=["type", "tuple", "array", "invalid"],
    )
    def test_malformed_config_exits_with_json_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(bad)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "config" in err["message"]

    def test_mine_requires_ensemble(self, tmp_path, capsys):
        cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS])
        rc = cli.main(["mine", "--run", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "ensemble" in err["message"]

    def test_config_hash_mismatch_refused_then_forced(self, pipeline_run, tmp_path, capsys):
        run, cfg_ce, _ = pipeline_run
        other = quick_config_file(tmp_path, seed=999)
        rc = cli.main(["eval", "--run", str(run), "--config", str(other)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "config hash mismatch" in err["message"]
        rc = cli.main(["eval", "--run", str(run), "--config", str(other), "--force"])
        assert rc == 0

    def test_adaptation_classes_in_another_order_match(self, pipeline_run, tmp_path):
        # The classes are a set: eval with [5, 3] reads the checkpoint trained with [3, 5].
        src, cfg_ce, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        doc = json.loads(cfg_ce.read_text())
        for command, classes in (("train", [3, 5]), ("eval", [5, 3])):
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({**doc, "adaptation_classes": classes}))
            argv = [command, "--run", str(run), "--config", str(cfg), "--name", "m"]
            assert cli.main(argv) == 0, command

    def test_identity_check_matches_exact_checkpoint_name(self, pipeline_run, tmp_path, capsys):
        # "face.gnssnet" ends with "ce.gnssnet": only ce's own entry may be checked.
        src, cfg_ce, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        cfg_face = quick_config_file(tmp_path, seed=6)

        def stage(command, cfg, name):
            return cli.main([command, "--run", str(run), "--config", str(cfg), "--name", name])

        assert stage("train", cfg_face, "face") == 0
        assert stage("adapt", cfg_ce, "ce") == 0
        assert stage("adapt", cfg_face, "face") == 0
        capsys.readouterr()
        assert stage("adapt", cfg_face, "ce") == 1
        assert "config hash mismatch" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"adaptation_classes": (3, 7, 9, 12)}, "no train samples for adaptation classes [12]"),
            ({"k_shot": 9}, "class 3 has 5 samples, k=9 requested"),
        ],
        ids=["class-not-in-corpus", "k-shot-above-train-records"],
    )
    def test_train_refuses_support_that_adapt_refuses(
        self, tmp_path, capsys, monkeypatch, overrides, match
    ):
        # The same config makes adapt and eval exit 1, so train must not
        # spend a run on a checkpoint they cannot use.
        counts = json.dumps({str(c): 8 for c in (0, 1, 3, 7, 9, 10)})
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", counts]) == 0
        cfg = quick_config_file(tmp_path, **overrides)
        manifest = (tmp_path / "run_manifest.json").read_bytes()
        trained = []
        monkeypatch.setattr(fsl, "train", lambda *a, **k: trained.append(1))
        for stage in ("train", "adapt", "eval"):
            capsys.readouterr()
            assert cli.main([stage, "--run", str(tmp_path), "--config", str(cfg)]) == 1, stage
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError", stage
            assert match in err["message"], stage
            if stage == "train":
                # adapt and eval then find no checkpoint; seed one to reach their check.
                assert trained == []
                assert not (tmp_path / "checkpoints").exists()
                assert (tmp_path / "run_manifest.json").read_bytes() == manifest
                config = fsl.TrainConfig.from_json(cfg.read_text())
                nncore.save_checkpoint(
                    nncore.init(config.arch((32, 32)), seed=0),
                    cli._subdir(tmp_path, "checkpoints") / "ce.gnssnet",
                )

    def test_train_with_computed_map_needs_mined_map(self, tmp_path, capsys, monkeypatch):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path, loss="quadruplet", similarity_map="computed")
        trained = []
        monkeypatch.setattr(fsl, "train", lambda *a, **k: trained.append(1))
        capsys.readouterr()
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"
        assert "similarity map" in err["message"]
        assert trained == []
        assert not (tmp_path / "checkpoints" / "quadruplet.gnssnet").exists()

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"lambda": 2, "pair_weight": 3}', "unknown config keys: ['pair_weight']"),
            ('{"loss": "contrastive"}', "unknown loss 'contrastive'"),
            ('{"adaptation_classes": []}', "'adaptation_classes' must name at least one class"),
            ('{"adaptation_classes": [3, 3, 7]}', "each once, got [3, 3, 7]"),
        ],
        ids=["two-pair-weights", "contrastive", "no-adaptation-class", "repeated-adaptation-class"],
    )
    def test_rejected_config_exits_with_json_error(self, tmp_path, capsys, text, match):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert match in err["message"]

    @pytest.mark.parametrize(
        "counts",
        ["[1, 2]", "5", '{"3": null}', '{"3": 9.5}', '{"3": true}', '{"x": 8}'],
        ids=["array", "number", "null", "float", "bool", "key"],
    )
    def test_malformed_counts_exits_with_json_error(self, tmp_path, capsys, counts):
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--counts", counts])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--counts" in err["message"]
        assert not (tmp_path / "corpus").exists()


    def test_eval_on_truncated_checkpoint(self, pipeline_run, capsys):
        run, cfg_ce, _ = pipeline_run
        data = (run / "checkpoints" / "ce.gnssnet").read_bytes()
        (run / "checkpoints" / "truncated.gnssnet").write_bytes(data[:10])
        rc = cli.main(
            ["eval", "--run", str(run), "--config", str(cfg_ce), "--name", "truncated"]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize("keep", [12, 120], ids=["header", "pixels"])
    def test_eval_on_truncated_corpus_image(self, pipeline_run, tmp_path, capsys, keep):
        src, cfg_ce, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        block = run / "corpus" / "images.img"
        block.write_bytes(block.read_bytes()[:keep])
        rc = cli.main(["eval", "--run", str(run), "--config", str(cfg_ce)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "truncated" in err["message"]

    @pytest.mark.parametrize(
        "forge, match",
        [
            (lambda data: b"NOTMAGIC" + data[8:], "bad magic"),
            (lambda data: data[:19], "truncated image block header"),
            (lambda data: data[:-1], "truncated image block"),
            (lambda data: data + b"\0", "over-long image block"),
            (lambda data: data[:8] + struct.pack("<III", 0, 32, 32), "empty image block"),
            (lambda data: data[:8] + struct.pack("<III", 87, 32, 32) + data[20 : 20 + 87 * 1024],
             "87 rows, manifest has 88 entries"),
        ],
        ids=["magic", "header", "truncated", "over-long", "empty", "rows"],
    )
    def test_malformed_corpus_block_exits_with_json_error(self, tmp_path, capsys, forge, match):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        block = tmp_path / "corpus" / "images.img"
        block.write_bytes(forge(block.read_bytes()))
        capsys.readouterr()
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(quick_config_file(tmp_path))])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert match in err["message"] and "images.img" in err["message"]

    def test_non_finite_gradient_keeps_rescue_checkpoint(
        self, pipeline_run, monkeypatch, capsys
    ):
        run, cfg_ce, _ = pipeline_run
        monkeypatch.setattr(
            fsl, "pn_episode_loss", lambda net, episode: (1.0, np.full(net.n_params, np.nan))
        )
        rc = cli.main(
            ["train", "--run", str(run), "--config", str(cfg_ce), "--name", "nan_grad"]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"
        assert Path(err["checkpoint"]).name == "nan_grad_diverged.gnssnet"
        assert Path(err["checkpoint"]).exists()


    @pytest.mark.parametrize(
        "doc",
        [
            [{"label": 1, "split": "test", "seed": 3}],
            {"a": 1},
            [1, 2],
            [{"file": 5, "label": 1, "split": "test", "seed": 3}],
            [{"file": "a.img", "label": 1, "split": "tset", "seed": 3}],
        ],
        ids=["no-file", "object", "ints", "file-type", "split-name"],
    )
    def test_malformed_corpus_manifest_exits_with_json_error(self, tmp_path, capsys, doc):
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "manifest.json").write_text(json.dumps(doc))
        cfg = quick_config_file(tmp_path)
        rc = cli.main(["eval", "--run", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "manifest.json" in err["message"]

    @pytest.mark.parametrize(
        "where",
        ["config", "similarity-map", "corpus-manifest", "run-manifest", "checkpoint", "counts"],
    )
    def test_deeply_nested_json_exits_with_json_error(self, tmp_path, capsys, where):
        # json.loads raises RecursionError past about 1,000 levels of nesting.
        deep = "[" * 100_000 + "]" * 100_000
        run = str(tmp_path)
        argv = ["train", "--run", run, "--config", str(quick_config_file(tmp_path))]
        if where == "config":
            (tmp_path / "deep.json").write_text(deep)
            argv[-1] = str(tmp_path / "deep.json")
        elif where == "similarity-map":
            (tmp_path / "similarity_map.json").write_text(deep)
            cfg = quick_config_file(tmp_path, loss="quadruplet", similarity_map="computed")
            argv[-1] = str(cfg)
        elif where == "corpus-manifest":
            (tmp_path / "corpus").mkdir()
            (tmp_path / "corpus" / "manifest.json").write_text(deep)
        elif where == "run-manifest":
            (tmp_path / "run_manifest.json").write_text(deep)
            argv[0] = "eval"  # its config check reads the run manifest first
        elif where == "checkpoint":
            assert cli.main(["gen-data", "--out", run, "--counts", TINY_COUNTS]) == 0
            (tmp_path / "checkpoints").mkdir()
            blob = deep.encode()
            (tmp_path / "checkpoints" / "ce.gnssnet").write_bytes(
                nncore.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob
            )
            argv[0] = "eval"
        else:  # argv's limit on one argument's length keeps --counts shallower
            argv = ["gen-data", "--out", run, "--counts", "[" * 2000 + "]" * 2000]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "recursion" in err["message"]

    @pytest.mark.parametrize("text", ["[1, 2]", '{"3": 5}'], ids=["array", "list"])
    def test_malformed_similarity_map_exits_with_json_error(self, tmp_path, capsys, text):
        (tmp_path / "similarity_map.json").write_text(text)
        cfg = quick_config_file(tmp_path, loss="quadruplet", similarity_map="computed")
        rc = cli.main(["train", "--run", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "similarity map" in err["message"]

    @pytest.mark.parametrize(
        "config", [None, {"adaptation_classes": 5}], ids=["no-config", "classes"]
    )
    def test_malformed_ensemble_entry_exits_with_json_error(
        self, pipeline_run, tmp_path, capsys, config
    ):
        src, _, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        path = run / "run_manifest.json"
        manifest = json.loads(path.read_text())
        entry = next(e for e in manifest["stages"] if e["stage"] == "ensemble")
        entry.pop("config")
        if config is not None:
            entry["config"] = config
        path.write_text(json.dumps(manifest))
        rc = cli.main(["mine", "--run", str(run)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "config" in err["message"]

    def test_ensemble_entry_without_artifacts_exits_with_json_error(
        self, pipeline_run, tmp_path, capsys
    ):
        # The manifest loader takes "artifacts" as optional: none means no members.
        src, _, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        path = run / "run_manifest.json"
        manifest = json.loads(path.read_text())
        next(e for e in manifest["stages"] if e["stage"] == "ensemble").pop("artifacts")
        path.write_text(json.dumps(manifest))
        rc = cli.main(["mine", "--run", str(run)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "at least one member" in err["message"]

    def test_ensemble_heads_must_match_base_classes(
        self, pipeline_run, tmp_path, capsys, monkeypatch
    ):
        # 11-class networks in place of the 7-class members are refused
        # before any member runs a forward pass.
        src, _, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        for path in sorted((run / "checkpoints").glob("ensemble_*.gnssnet")):
            member = nncore.load_checkpoint(path)
            config = fsl.replace(member.config, num_classes=11)
            nncore.save_checkpoint(nncore.init(config, seed=0), path)
        forwards = []
        monkeypatch.setattr(uncertainty, "predict_member", lambda *a: forwards.append(1))
        rc = cli.main(["mine", "--run", str(run)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "11-class heads" in err["message"] and "7 base classes" in err["message"]
        assert forwards == []

    def test_ensemble_mixed_heads_rejected(self, pipeline_run, tmp_path, capsys, monkeypatch):
        # One member with a head of another size, then one headless member
        # beside a valid one: each run is refused before any forward pass.
        src, _, _ = pipeline_run
        forwards = []
        monkeypatch.setattr(uncertainty, "predict_member", lambda *a: forwards.append(1))
        for num_classes, heads in ((5, "5-class heads"), (None, "0-class heads")):
            run = tmp_path / f"run_{num_classes}"
            shutil.copytree(src, run)
            path = run / "checkpoints" / "ensemble_01.gnssnet"
            config = fsl.replace(nncore.load_checkpoint(path).config, num_classes=num_classes)
            nncore.save_checkpoint(nncore.init(config, seed=0), path)
            capsys.readouterr()
            assert cli.main(["mine", "--run", str(run)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert heads in err["message"] and "7 base classes" in err["message"]
            assert (run / "similarity_map.json").read_bytes() == (
                src / "similarity_map.json"
            ).read_bytes()
        assert forwards == []

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_diverging_ensemble_member_keeps_error_contract(self, tmp_path, capsys, monkeypatch):
        # Members train through train's path: a diverged member is kept as
        # <name>_diverged.gnssnet and reported as a stage_error, not a traceback,
        # whether the members train in one process or in two.
        for workers in (1, 2):
            force_member_workers(monkeypatch, workers)
            run = tmp_path / f"workers{workers}"
            assert cli.main(["gen-data", "--out", str(run), "--counts", TINY_COUNTS]) == 0
            cfg = quick_config_file(run, lr=1e30)
            manifest = (run / "run_manifest.json").read_bytes()
            capsys.readouterr()
            rc = cli.main(["ensemble", "--run", str(run), "--config", str(cfg), "--members", "2"])
            assert rc == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "stage_error"
            assert "diverged" in err["message"]
            rescue = run / "checkpoints" / "ensemble_00_diverged.gnssnet"
            assert err["checkpoint"] == str(rescue)
            assert rescue.exists()
            assert (run / "run_manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize(
        "overrides",
        [{"embed_dim": 10**12}, {"loss": "quadruplet", "pair_batch": 10**12}],
        ids=["network", "pair-batch"],
    )
    def test_config_too_large_for_memory_keeps_error_contract(
        self, tmp_path, capsys, overrides
    ):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path, **overrides)
        manifest = (tmp_path / "run_manifest.json").read_bytes()
        capsys.readouterr()
        assert cli.main(["train", "--run", str(tmp_path), "--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError" and "Unable to allocate" in err["message"]
        assert not (tmp_path / "checkpoints").exists()
        assert (tmp_path / "run_manifest.json").read_bytes() == manifest

    def test_forked_member_out_of_memory_keeps_error_contract(self, tmp_path, capsys, monkeypatch):
        # Member 0 trains here; member 1's MemoryError comes back through its pipe.
        force_member_workers(monkeypatch, 2)
        real, parent = fsl.train, os.getpid()

        def train(corpus, config, **kwargs):
            if os.getpid() != parent:
                config = fsl.replace(config, embed_dim=10**12)
            return real(corpus, config, **kwargs)

        monkeypatch.setattr(fsl, "train", train)
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path)
        manifest = (tmp_path / "run_manifest.json").read_bytes()
        capsys.readouterr()
        rc = cli.main(["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "2"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError" and "Unable to allocate" in err["message"]
        assert (tmp_path / "checkpoints" / "ensemble_00.gnssnet").exists()
        assert (tmp_path / "run_manifest.json").read_bytes() == manifest

    def test_forked_members_are_byte_identical_to_serial(self, tmp_path, monkeypatch):
        # Member i depends only on seed + i, so the process that trains it
        # does not change its bytes.
        assert cli.main(["gen-data", "--out", str(tmp_path / "one"), "--counts", TINY_COUNTS]) == 0
        shutil.copytree(tmp_path / "one", tmp_path / "two")
        cfg = quick_config_file(tmp_path)
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        artifacts = {}
        for workers, run in ((1, tmp_path / "one"), (2, tmp_path / "two")):
            force_member_workers(monkeypatch, workers)
            argv = ["ensemble", "--run", str(run), "--config", str(cfg), "--members", "3"]
            assert cli.main(argv) == 0
            artifacts[workers] = cli._find_stage(run, "ensemble")["artifacts"]
        assert forks == [1]
        assert artifacts[1] == artifacts[2] and len(artifacts[1]) == 3
        for rel in artifacts[1].values():
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_forked_mine_is_byte_identical_to_serial(self, pipeline_run, tmp_path, monkeypatch):
        # Each member's probabilities come back in member order, so the map
        # and the uncertainty report do not depend on the process that ran it.
        src, _, _ = pipeline_run
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        for workers in (1, 2):
            run = tmp_path / f"w{workers}"
            shutil.copytree(src, run)
            force_member_workers(monkeypatch, workers)
            assert cli.main(["mine", "--run", str(run)]) == 0
        assert forks == [1]
        for rel in ("similarity_map.json", "reports/uncertainty.csv"):
            assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes()
            assert (tmp_path / "w1" / rel).read_bytes() == (src / rel).read_bytes()

    def test_single_worker_never_forks(self, tmp_path, monkeypatch):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        force_member_workers(monkeypatch, 1)

        def no_fork():
            raise AssertionError("os.fork called with one worker")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = quick_config_file(tmp_path)
        argv = ["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "3"]
        assert cli.main(argv) == 0
        assert len(sorted((tmp_path / "checkpoints").glob("ensemble_*.gnssnet"))) == 3

    def test_lost_worker_is_a_stage_error_and_reaped(self, tmp_path, capsys, monkeypatch):
        # Member 1 is the forked worker's; it dies before sending anything.
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        force_member_workers(monkeypatch, 2)
        real, parent = cli._train_checkpoint, os.getpid()

        def dies_on_member_1(run_dir, corpus, config, name, sim_map):
            if name == "ensemble_01":
                assert os.getpid() != parent, "member 1 trained in the test process"
                os._exit(3)
            return real(run_dir, corpus, config, name, sim_map)

        monkeypatch.setattr(cli, "_train_checkpoint", dies_on_member_1)
        cfg = quick_config_file(tmp_path)
        manifest = (tmp_path / "run_manifest.json").read_bytes()
        capsys.readouterr()
        argv = ["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "3"]
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"
        assert err["exit_status"] == 3 and err["worker"] == 1
        assert (tmp_path / "run_manifest.json").read_bytes() == manifest
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_lowest_index_failure_is_raised(self, tmp_path, capsys, monkeypatch):
        # Members 1 (forked) and 2 (this process) fail; member 1 is reported.
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        force_member_workers(monkeypatch, 2)

        def fails_above_0(run_dir, corpus, config, name, sim_map):
            if name != "ensemble_00":
                raise cli.StageError(f"{name} failed", member=name)
            return None, f"checkpoints/{name}.gnssnet"

        monkeypatch.setattr(cli, "_train_checkpoint", fails_above_0)
        cfg = quick_config_file(tmp_path)
        capsys.readouterr()
        argv = ["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "3"]
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "stage_error", "message": "ensemble_01 failed",
                       "member": "ensemble_01"}

    def test_workers_fork_only_under_one_blas_thread(self, monkeypatch):
        # Processes of several BLAS threads each would oversubscribe the
        # cores, so any thread count above one trains serially.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        for threads, members, workers in (("1", 10, 4), ("1", 3, 3), ("2", 10, 1), ("4", 10, 1)):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            assert cli._fork_workers(members) == workers
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert cli._fork_workers(10) == 1  # OpenBLAS's default: a thread per core
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert cli._fork_workers(10) == 4

    def test_failed_first_member_kills_workers_at_once(self, tmp_path, capsys, monkeypatch):
        # Member 0 fails in this process: no forked member can fail lower,
        # so the worker training member 1 for a minute is not waited for.
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        force_member_workers(monkeypatch, 2)

        def fails_first(run_dir, corpus, config, name, sim_map):
            if name == "ensemble_00":
                raise cli.StageError("ensemble_00 failed", member=name)
            time.sleep(60)
            return None, f"checkpoints/{name}.gnssnet"

        monkeypatch.setattr(cli, "_train_checkpoint", fails_first)
        cfg = quick_config_file(tmp_path)
        capsys.readouterr()
        t0 = time.perf_counter()
        argv = ["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "2"]
        assert cli.main(argv) == 1
        assert time.perf_counter() - t0 < 30
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "stage_error", "message": "ensemble_00 failed",
                       "member": "ensemble_00"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_trains_every_member_here(self, tmp_path, monkeypatch):
        # A fork refused for want of processes (EAGAIN) leaves that worker's
        # share to this process; the members are those of a serial run.
        assert cli.main(["gen-data", "--out", str(tmp_path / "one"), "--counts", TINY_COUNTS]) == 0
        shutil.copytree(tmp_path / "one", tmp_path / "two")
        cfg = quick_config_file(tmp_path)

        def no_process(*_):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        artifacts = {}
        for workers, run in ((1, tmp_path / "one"), (2, tmp_path / "two")):
            force_member_workers(monkeypatch, workers)
            argv = ["ensemble", "--run", str(run), "--config", str(cfg), "--members", "3"]
            assert cli.main(argv) == 0
            artifacts[workers] = cli._find_stage(run, "ensemble")["artifacts"]
        assert artifacts[1] == artifacts[2] and len(artifacts[1]) == 3
        for rel in artifacts[1].values():
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_interrupted_parent_kills_and_reaps_workers(self, tmp_path, monkeypatch):
        # This process's first member is interrupted while the forked worker
        # would train for a minute: the worker is killed and reaped at once.
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        force_member_workers(monkeypatch, 2)

        def interrupted(run_dir, corpus, config, name, sim_map):
            if name == "ensemble_00":
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cli, "_train_checkpoint", interrupted)
        cfg = quick_config_file(tmp_path)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "2"])
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ensemble_without_members_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        trained = []
        monkeypatch.setattr(fsl, "train", lambda *a, **k: trained.append(1))
        capsys.readouterr()
        cfg = quick_config_file(tmp_path)
        rc = cli.main(["ensemble", "--run", str(tmp_path), "--config", str(cfg), "--members", "0"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--members" in err["message"]
        assert trained == []
        stages = json.loads((tmp_path / "run_manifest.json").read_text())["stages"]
        assert [e["stage"] for e in stages] == ["gen-data"]

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_embed_without_iterations_rejected(self, pipeline_run, tmp_path, capsys, iters):
        src, cfg_ce, _ = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        before = (run / "reports" / "tsne_ce.csv").read_bytes()
        manifest = (run / "run_manifest.json").read_bytes()
        capsys.readouterr()
        rc = cli.main(["embed", "--run", str(run), "--config", str(cfg_ce), "--iters", iters])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "iters" in err["message"]
        assert (run / "reports" / "tsne_ce.csv").read_bytes() == before
        assert (run / "run_manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize(
        "per_class, capped", [(None, True), (45, False)], ids=["capped", "uncapped"]
    )
    def test_embed_records_effective_settings(
        self, pipeline_run, tmp_path, per_class, capped
    ):
        # Perplexity is metrics.TSNE_PERPLEXITY capped just below (n - 1) / 3
        # for n test images: the shared run has 22, and 45 per class give 99.
        src, cfg_ce, _ = pipeline_run
        run = tmp_path / "run"
        if per_class is None:
            shutil.copytree(src, run)
        else:
            counts = json.dumps({str(c): per_class for c in range(11)})
            assert cli.main(["gen-data", "--out", str(run), "--counts", counts]) == 0
            assert cli.main(["train", "--run", str(run), "--config", str(cfg_ce)]) == 0
        argv = ["embed", "--run", str(run), "--config", str(cfg_ce), "--iters", "20"]
        assert cli.main(argv) == 0
        entry = json.loads((run / "run_manifest.json").read_text())["stages"][-1]
        assert entry["stage"] == "embed:ce"
        assert entry["iters"] == 20
        n = len(load_corpus(run / "corpus" / "manifest.json").subset(split="test").records)
        cap = (n - 1) / 3.0 - 1e-9
        assert (cap < metrics.TSNE_PERPLEXITY) is capped
        assert entry["perplexity"] == (cap if capped else metrics.TSNE_PERPLEXITY)

    @pytest.mark.parametrize(
        "command, extra", [("adapt", []), ("eval", []), ("embed", ["--iters", "50"])]
    )
    def test_checkpoint_name_defaults_to_loss_kind(
        self, pipeline_run, tmp_path, command, extra
    ):
        # Like train, a stage run with the quadruplet config and no --name reads
        # checkpoints/quadruplet.gnssnet and leaves the ce outputs alone.
        src, _, cfg_quad = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(src, run)
        before = {p.name: p.read_bytes() for p in (run / "reports").iterdir()}
        assert cli.main([command, "--run", str(run), "--config", str(cfg_quad), *extra]) == 0
        stages = json.loads((run / "run_manifest.json").read_text())["stages"]
        assert stages[-1]["stage"] == f"{command}:quadruplet"
        for name, data in before.items():
            if name.endswith("_ce.csv"):
                assert (run / "reports" / name).read_bytes() == data, name
        if command == "eval":
            metrics = (run / "reports" / "metrics_quadruplet.csv").read_bytes()
            assert metrics == before["metrics_quadruplet.csv"]

    @pytest.mark.parametrize(
        "command, name",
        [("train", "../../escaped"), ("train", "a\\b"), ("adapt", ".."), ("eval", "."),
         ("embed", "ckpt/x")],
    )
    def test_name_outside_run_rejected_before_writing(self, tmp_path, capsys, command, name):
        # The name becomes checkpoints/<name>.gnssnet and reports/*_<name>.csv.
        run = tmp_path / "run"
        assert cli.main(["gen-data", "--out", str(run), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        rc = cli.main([command, "--run", str(run), "--config", str(cfg), "--name", name])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--name" in err["message"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "doc", [[], {"stages": 5}, {"stages": [{"x": 1}]}], ids=["array", "stages", "entry"]
    )
    def test_malformed_run_manifest_exits_with_json_error(self, tmp_path, capsys, doc):
        (tmp_path / "run_manifest.json").write_text(json.dumps(doc))
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "run_manifest.json" in err["message"]


class TestRunManifest:
    def test_failed_write_leaves_previous_manifest(self, tmp_path, monkeypatch):
        cli._append_stage(tmp_path, "first", time.perf_counter(), {})
        manifest = tmp_path / "run_manifest.json"
        before = manifest.read_bytes()

        def torn_write(self, data, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            cli._append_stage(tmp_path, "second", time.perf_counter(), {})
        monkeypatch.undo()
        assert manifest.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run_manifest.json"]

    @given(
        doc=st.one_of(
            json_values("stages"),
            st.fixed_dictionaries({"stages": st.lists(json_values("stage", "hash"), max_size=3)}),
            st.fixed_dictionaries(
                {
                    "stages": st.lists(
                        st.dictionaries(
                            st.sampled_from(["stage", "hash", "artifacts", "prev_hash"]),
                            json_values("train:ce"),
                            max_size=4,
                        ),
                        max_size=3,
                    )
                }
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_load_manifest_fuzz_raises_only_value_error(self, doc):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "run_manifest.json").write_text(json.dumps(doc))
            try:
                cli._find_stage(Path(d), "train:ce")
                cli._check_identity(Path(d), "ce", fsl.TrainConfig(), force=False)
                cli._append_stage(Path(d), "next", time.perf_counter(), {})
            except ValueError:
                return


class TestIdentityHash:
    def test_identity_ignores_loss_but_not_arch(self):
        a = fsl.TrainConfig(loss="ce", seed=1)
        b = fsl.TrainConfig(loss="quadruplet", seed=1)
        c = fsl.TrainConfig(loss="ce", seed=2)
        assert identity_hash(a) == identity_hash(b)
        assert identity_hash(a) != identity_hash(c)
