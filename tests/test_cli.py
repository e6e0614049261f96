import hashlib
import json
import shutil
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsonfuzz import json_values
from gnssfsl import cli, fsl, nncore, spectro, uncertainty
from gnssfsl.cli import class_counts, identity_hash
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


class TestClassCounts:
    def test_desk_profile_floors_rare_classes(self):
        counts = class_counts("desk", total=2000)
        assert counts[6] == 8  # rarest class floored to the minimum
        for c in (3, 4, 5, 7, 8, 9, 10):
            assert counts[c] == 8
        assert counts[1] > 1000  # dominant class keeps its share

    def test_paper_profile_full_counts(self):
        counts = class_counts("paper")
        assert counts[1] == 132974
        assert counts[6] == 9

    def test_total_scales_corpus(self):
        counts = class_counts("desk", total=4000)
        assert 2600 < counts[1] < 2800  # ~67% share of the field distribution
        assert counts[6] == 8


class TestSynthesizeRecord:
    def test_paper_profile_single_record(self):
        # same code path as the desk profile, hardware-scale parameters
        prof = cli.PROFILES["paper"]
        img, params = cli.synthesize_record(
            8, record_seed=123, duration_ms=prof["duration_ms"],
            sample_rate_hz=prof["sample_rate_hz"], window=prof["window"],
            hop=prof["hop"], image_size=prof["image_size"],
        )
        assert img.pixels.shape == (128, 128)
        assert params["kind"] == "chirp"

    def test_every_class_synthesizes(self):
        for label in range(11):
            img, params = cli.synthesize_record(
                label, record_seed=55, duration_ms=2.0, sample_rate_hz=1e6,
                window=256, hop=64, image_size=32,
            )
            assert img.pixels.shape == (32, 32)
            assert img.label == label
            if label >= 3:
                assert "jnr_db" in params

    def test_record_is_pure_function_of_seed(self):
        a, _ = cli.synthesize_record(9, 77, 2.0, 1e6, 256, 64, 32)
        b, _ = cli.synthesize_record(9, 77, 2.0, 1e6, 256, 64, 32)
        assert np.array_equal(a.pixels, b.pixels)


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
        assert cli.main(["mine", "--run", str(run)]) == 0
        assert len(calls) == 2 and len(set(calls)) == 2
        assert (run / "similarity_map.json").read_bytes() == before


class TestSweep:
    def test_triplet_grid_emits_all_rows(self, pipeline_run):
        run, cfg_ce, _ = pipeline_run
        rc = cli.main(
            ["sweep", "--run", str(run), "--config", str(cfg_ce), "--grid", "triplet"]
        )
        assert rc == 0
        lines = (run / "reports" / "margin_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "loss,alpha1,alpha2,adaptation_macro_f2,adaptation_macro_f1"
        alphas = [float(l.split(",")[1]) for l in lines[1:]]
        assert alphas == [2, 3, 5, 7, 10, 50, 100]


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
        ['{"epochs": "x"}', '{"conv_channels": 5}', "[1, 2]"],
        ids=["type", "tuple", "array"],
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

    def test_sweep_with_computed_map_needs_mined_map(self, tmp_path, capsys, monkeypatch):
        assert cli.main(["gen-data", "--out", str(tmp_path), "--counts", TINY_COUNTS]) == 0
        cfg = quick_config_file(tmp_path, similarity_map="computed")
        trained = []
        monkeypatch.setattr(fsl, "train", lambda *a, **k: trained.append(1))
        capsys.readouterr()
        rc = cli.main(["sweep", "--run", str(tmp_path), "--config", str(cfg), "--grid", "both"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "stage_error"
        assert "similarity map" in err["message"]
        assert trained == []
        assert not (tmp_path / "reports" / "margin_sweep.csv").exists()

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
        ],
        ids=["no-file", "object", "ints", "file-type"],
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
