"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk benchmark (criterion 4) is the slow one; everything else is
seconds.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import gradcheck
from gnssfsl import cli, fsl, metrics, spectro, uncertainty
from gnssfsl.losses import quadruplet_loss, triplet_loss


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "corpus"
    return cli.generate_corpus(out, profile="desk", seed=42)


# -- 1. gradient oracle ------------------------------------------------------


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = {}
    for kind in sorted(gradcheck.LAYER_INSTANCES):
        worst[f"layer:{kind}"] = max(gradcheck.check_layer(kind, rng) for _ in range(100))
    for kind in ("triplet", "quadruplet"):
        worst[f"loss:{kind}"] = max(
            gradcheck.check_pairwise_loss(kind, rng) for _ in range(100)
        )
    worst["loss:cross_entropy"] = max(
        gradcheck.check_cross_entropy(rng) for _ in range(100)
    )
    worst["loss:pn_episode"] = max(
        gradcheck.check_pn_episode_loss(rng) for _ in range(100)
    )
    worst["composed_network"] = max(
        gradcheck.check_composed_network(rng) for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    ok = overall < 1e-4 and elapsed < 120.0
    _report(
        "1 gradient oracle",
        ok,
        f"max rel err {overall:.2e} across {len(worst)} checks, {elapsed:.0f}s",
    )
    assert overall < 1e-4, worst
    assert elapsed < 120.0


# -- 2. uncertainty decomposition suite --------------------------------------


def test_criterion_2_uncertainty_suite():
    rng = np.random.default_rng(20)
    worst_identity = 0.0
    min_eig = np.inf
    for _ in range(1000):
        t = int(rng.integers(1, 12))
        k = int(rng.integers(2, 9))
        raw = rng.gamma(1.0, size=(t, k))
        c = raw / raw.sum(axis=1, keepdims=True)
        rep = uncertainty.decompose_uncertainty(c)
        mean = c.mean(axis=0)
        total = np.diag(mean) - np.outer(mean, mean)
        worst_identity = max(
            worst_identity, float(np.abs(rep.aleatoric + rep.epistemic - total).max())
        )
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rep.epistemic).min()))

    single = uncertainty.decompose_uncertainty([np.array([0.2, 0.5, 0.3])])
    cloned = uncertainty.decompose_uncertainty([np.array([0.2, 0.5, 0.3])] * 6)
    one_hot = uncertainty.decompose_uncertainty(
        [np.eye(4)[i % 4] for i in range(8)]
    )
    epistemic_zero = (
        np.abs(single.epistemic).max() < 1e-15 and np.abs(cloned.epistemic).max() < 1e-15
    )
    aleatoric_zero = np.abs(one_hot.aleatoric).max() < 1e-15

    ok = worst_identity <= 1e-12 and min_eig >= -1e-10 and epistemic_zero and aleatoric_zero
    _report(
        "2 uncertainty decomposition",
        ok,
        f"identity gap {worst_identity:.1e}, min epistemic eig {min_eig:.1e}",
    )
    assert worst_identity <= 1e-12
    assert min_eig >= -1e-10
    assert epistemic_zero and aleatoric_zero


# -- 3. loss identities over the margin grids --------------------------------


def _loss_at_distances(d_ap, d_an, d_as=None):
    dim = 4
    a = np.zeros((1, dim))
    p = np.zeros((1, dim))
    p[0, 0] = d_ap
    n = np.zeros((1, dim))
    n[0, 1] = d_an
    if d_as is None:
        return np.stack([a, p, n])
    s = np.zeros((1, dim))
    s[0, 2] = d_as
    return np.stack([a, p, s, n])


def test_criterion_3_loss_identities():
    grid = np.linspace(0.0, 120.0, 20)
    violations = 0
    checks = 0
    for alpha in gradcheck.PAPER_TRIPLET_MARGINS:
        for d_ap in grid:
            for d_an in grid:
                loss, _ = triplet_loss(_loss_at_distances(d_ap, d_an), alpha)
                satisfied = d_ap - d_an + alpha <= 0
                checks += 1
                if satisfied != (loss == 0.0):
                    violations += 1
    for alpha1, alpha2 in gradcheck.PAPER_QUADRUPLET_MARGINS:
        for d_ap in grid:
            for d_as in grid:
                for d_an in grid:
                    loss, _ = quadruplet_loss(
                        _loss_at_distances(d_ap, d_an, d_as), alpha1, alpha2
                    )
                    satisfied = (d_ap - d_as + alpha1 <= 0) and (d_as - d_an + alpha2 <= 0)
                    checks += 1
                    if satisfied != (loss == 0.0):
                        violations += 1
    ok = violations == 0
    _report("3 loss identities", ok, f"{checks} grid points, {violations} violations")
    assert violations == 0


# -- 4. end-to-end desk benchmark --------------------------------------------


BENCH = dict(
    episodes_per_epoch=15,
    conv_channels=(8, 16, 32),
    embed_dim=32,
    k_shot=5,
    episode_k_shot=2,
    n_query=5,
    lr=0.1,
    decay=0.0005,
)
BENCH_SEEDS = (1, 2, 3, 4, 5)
BENCH_PN_EPOCHS = 20
BENCH_QUAD_EPOCHS = 40  # pairwise models train twice as long


def test_criterion_4_desk_benchmark(desk_corpus):
    t0 = time.perf_counter()
    adapt_classes = (3, 7, 9, 10)
    pn_accs, orderings = [], []
    for seed in BENCH_SEEDS:
        pn_cfg = fsl.TrainConfig(loss="ce", epochs=BENCH_PN_EPOCHS, seed=seed, **BENCH)
        quad_cfg = fsl.TrainConfig(
            loss="quadruplet",
            alpha1=2.0,
            alpha2=5.0,
            epochs=BENCH_QUAD_EPOCHS,
            seed=seed,
            pair_batch=6,
            **BENCH,
        )
        pn = fsl.train(desk_corpus, pn_cfg)
        quad = fsl.train(desk_corpus, quad_cfg, sim_map=fsl.load_fixture_map())
        pn_acc, pn_f2, _ = cli.adaptation_report(pn.network, desk_corpus, adapt_classes, k=5)
        q_acc, q_f2, _ = cli.adaptation_report(quad.network, desk_corpus, adapt_classes, k=5)
        pn_accs.append(pn_acc)
        orderings.append(q_f2 >= pn_f2)
        print(
            f"  seed {seed}: PN acc {pn_acc:.3f} F2 {pn_f2:.3f} | "
            f"quadruplet acc {q_acc:.3f} F2 {q_f2:.3f} | "
            f"ordering {'ok' if orderings[-1] else 'violated'}"
        )
    elapsed = time.perf_counter() - t0
    mean_acc = float(np.mean(pn_accs))
    wins = sum(orderings)
    ok = mean_acc >= 0.70 and wins >= 4 and elapsed < 900.0
    _report(
        "4 desk benchmark",
        ok,
        f"PN macro acc {mean_acc:.3f} (per seed {['%.2f' % a for a in pn_accs]}), "
        f"quadruplet>=PN in {wins}/5 seeds, {elapsed:.0f}s",
    )
    assert mean_acc >= 0.70
    assert wins >= 4
    assert elapsed < 900.0


# -- 5. mining constraints ----------------------------------------------------


def test_criterion_5_mining_constraints(desk_corpus):
    sim_map = fsl.load_fixture_map()
    rng = np.random.default_rng(50)
    classes = desk_corpus.classes()
    by_class = fsl._class_index(desk_corpus)
    violations = 0
    anchor0_similars = set()
    for i in range(10_000):
        anchor = int(classes[rng.integers(len(classes))])
        idx = fsl.sample_roles(by_class, sim_map, anchor, rng, roles=4)
        a, p, s, n = (desk_corpus.records[j] for j in idx)
        if not (a.label == p.label == anchor and a.file != p.file):
            violations += 1
        if s.label == anchor or n.label in (anchor, s.label):
            violations += 1
        if anchor == 0:
            anchor0_similars.add(s.label)
    fixture_ok = anchor0_similars <= {1, 3, 5, 7}
    ok = violations == 0 and fixture_ok
    _report(
        "5 mining constraints",
        ok,
        f"10000 draws, {violations} violations, anchor-0 similars {sorted(anchor0_similars)}",
    )
    assert violations == 0
    assert fixture_ok


# -- 6. t-SNE ------------------------------------------------------------------


def _silhouette(points, labels):
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = (labels == labels[i]) & (np.arange(n) != i)
        a = d[i, same].mean()
        b = min(d[i, labels == o].mean() for o in np.unique(labels) if o != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def test_criterion_6_tsne():
    rng = np.random.default_rng(60)
    blob_a = rng.normal(size=(50, 10))
    blob_b = rng.normal(size=(50, 10))
    blob_b[:, 0] += 25.0
    x = np.vstack([blob_a, blob_b])
    labels = np.array([0] * 50 + [1] * 50)

    points, info = metrics.tsne(x, perplexity=30.0, iters=400, seed=3, return_info=True)
    points2 = metrics.tsne(x, perplexity=30.0, iters=400, seed=3)
    kl_ok = info.kl_divergences[-1] < info.kl_divergences[0]
    sil = _silhouette(points, labels)
    deterministic = np.array_equal(points, points2)
    ok = kl_ok and sil > 0.5 and deterministic
    _report(
        "6 t-SNE",
        ok,
        f"KL {info.kl_divergences[0]:.3f}->{info.kl_divergences[-1]:.3f}, "
        f"silhouette {sil:.3f}, deterministic={deterministic}",
    )
    assert kl_ok
    assert sil > 0.5
    assert deterministic


# -- 7. reproducibility ---------------------------------------------------------


def _run_chain(run_dir: Path) -> None:
    cfg = fsl.TrainConfig(
        epochs=1,
        episodes_per_epoch=2,
        conv_channels=(4, 8),
        embed_dim=16,
        k_shot=2,
        episode_k_shot=2,
        n_query=2,
        pair_batch=4,
        seed=5,
    )
    cfg_path = run_dir / "config_ce.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(cfg.to_json())
    quad_path = run_dir / "config_quad.json"
    quad_path.write_text(
        fsl.replace(cfg, loss="quadruplet", similarity_map="computed").to_json()
    )
    counts = json.dumps({str(c): 8 for c in range(11)})
    steps = [
        ["gen-data", "--out", str(run_dir), "--seed", "7", "--counts", counts],
        ["train", "--run", str(run_dir), "--config", str(cfg_path)],
        ["ensemble", "--run", str(run_dir), "--config", str(cfg_path), "--members", "2"],
        ["mine", "--run", str(run_dir)],
        ["train", "--run", str(run_dir), "--config", str(quad_path)],
        ["adapt", "--run", str(run_dir), "--config", str(cfg_path)],
        ["eval", "--run", str(run_dir), "--config", str(cfg_path)],
        ["eval", "--run", str(run_dir), "--config", str(quad_path), "--name", "quadruplet"],
        ["embed", "--run", str(run_dir), "--config", str(cfg_path), "--iters", "60"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, f"stage failed: {argv}"


def _digest_tree(root: Path, patterns) -> dict:
    out = {}
    for pattern in patterns:
        for f in sorted(root.rglob(pattern)):
            out[str(f.relative_to(root))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def test_criterion_7_reproducibility(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    _run_chain(run_a)
    _run_chain(run_b)
    digests_a = _digest_tree(run_a, ("*.img", "corpus/manifest.json", "reports/*.csv"))
    digests_b = _digest_tree(run_b, ("*.img", "corpus/manifest.json", "reports/*.csv"))
    same = digests_a == digests_b
    n_csv = sum(1 for k in digests_a if k.endswith(".csv"))
    # The corpus is one image block; name the records (block rows) it holds.
    n_records = sum(len(spectro.read_image(run_a / k)) for k in digests_a if k.endswith(".img"))
    _report(
        "7 reproducibility",
        same,
        f"{n_records} corpus records and {n_csv} report CSVs byte-identical across two runs",
    )
    assert digests_a, "chain produced no artifacts"
    assert same
