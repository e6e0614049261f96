"""Command-line pipeline: corpus generation, training, mining, adaptation, eval.

Stages share a run directory. Each stage appends a hash-chained entry to
run_manifest.json naming its inputs and artifacts, so a finished run documents
how to reproduce itself. All stage outputs are deterministic functions of the
config and master seed; only the recorded wall-clock timings vary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fsl, jsondoc, metrics, nncore, siggen, spectro, uncertainty
from .corpus import CLASS_COUNTS_FULL, MIN_CLASS_COUNT, PROFILES, class_counts, synthesize_record
from .fsl import SimilarityMap, TrainConfig


class StageError(RuntimeError):
    """Pipeline-level failure with a machine-readable payload."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


def generate_corpus(
    out_dir: str | Path,
    profile: str = "desk",
    seed: int = 42,
    counts: dict | None = None,
) -> spectro.LabeledCorpus:
    """Write the corpus's image block and manifest.json; deterministic per seed."""
    if profile not in PROFILES:
        raise StageError(f"unknown profile {profile!r}", profile=profile)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    image_size = PROFILES[profile]["image_size"]
    if counts is None:
        counts = class_counts(profile)
    elif not counts:
        raise ValueError("counts must name at least one class, got none")
    unknown = sorted(c for c in counts if c not in CLASS_COUNTS_FULL)
    if unknown:
        raise ValueError(f"counts name class ids outside 0-{max(CLASS_COUNTS_FULL)}: {unknown}")
    bad = [c for c, n in counts.items() if n < MIN_CLASS_COUNT]
    if bad:
        raise StageError(
            f"class counts below the per-class minimum {MIN_CLASS_COUNT}: {sorted(bad)}",
            classes=sorted(bad),
        )

    n = sum(counts.values())
    if n * image_size**2 > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"{n} images of {image_size}x{image_size} pixels do not fit in memory")
    labels = [label for label in sorted(counts) for _ in range(counts[label])]
    # A shared mapping, so records synthesized by forked workers land in this
    # process's block and only their params go through the pipe.
    block = np.frombuffer(mmap.mmap(-1, n * image_size**2), dtype=np.uint8)
    block = block.reshape(n, image_size, image_size)

    def synthesize(record_index: int) -> dict:
        img, params = synthesize_record(
            labels[record_index], siggen.derive_seed(seed, record_index), profile
        )
        block[record_index] = img.pixels
        return params

    params = _fork_map(synthesize, n, "gen-data")
    # Freeze before taking the row views: a view made earlier stays writable.
    block.flags.writeable = False
    records = []
    for label in sorted(counts):
        for i in range(counts[label]):
            record_index = len(records)
            records.append(spectro.CorpusRecord(
                file=f"cls{label:02d}_{i:05d}.img",
                label=label,
                split="",
                seed=siggen.derive_seed(seed, record_index),
                jammer_params=params[record_index],
                image=spectro.SpectrogramImage(block[record_index]),
            ))
    corpus = fsl.split_corpus(spectro.LabeledCorpus(records), seed=seed)
    # Created only now, so a failed synthesis leaves no empty corpus directory.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spectro.write_image(block, out_dir / spectro.BLOCK_FILE)
    spectro.save_manifest(corpus, out_dir / "manifest.json")
    return corpus


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def identity_hash(config: TrainConfig) -> str:
    """Hash of the artifact-compatibility subset of a training config."""
    subset = {
        "conv_channels": list(config.conv_channels),
        "embed_dim": config.embed_dim,
        "adaptation_classes": list(config.adaptation_classes),
        "k_shot": config.k_shot,
        "seed": config.seed,
    }
    return _hash_text(_canonical(subset))


def _manifest_path(run_dir: Path) -> Path:
    return run_dir / "run_manifest.json"


def _load_manifest(run_dir: Path) -> dict:
    """The run manifest; ValueError unless it has the shape the stages read."""
    path = _manifest_path(run_dir)
    if not path.exists():
        return {"stages": []}
    manifest = jsondoc.parse(path.read_bytes(), f"{path}: run manifest")
    stages = manifest.get("stages")
    if not isinstance(stages, list):
        raise ValueError(f"{path}: run manifest must be an object with a 'stages' list")
    for i, entry in enumerate(stages):
        artifacts = entry.get("artifacts", {}) if isinstance(entry, dict) else None
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("stage"), str)
            and isinstance(entry.get("hash"), str)
            and isinstance(artifacts, dict)
            and all(isinstance(v, str) for v in artifacts.values())
        ):
            raise ValueError(
                f"{path}: stage {i} must be an object with str 'stage' and 'hash' "
                "and an optional 'artifacts' object of str paths"
            )
    return manifest


def _append_stage(
    run_dir: Path,
    stage: str,
    t0: float,
    artifacts: dict,
    identity: TrainConfig | None = None,
    **fields,
) -> None:
    """Append the stage's hash-chained entry: its name, its own fields, the
    identity hash of `identity`, its artifacts (run-relative paths) and the
    wall time since `t0`."""
    entry = {"stage": stage, **fields}
    if identity is not None:
        entry["identity_hash"] = identity_hash(identity)
    entry["artifacts"] = artifacts
    entry["elapsed_s"] = round(time.perf_counter() - t0, 3)
    manifest = _load_manifest(run_dir)
    entry["prev_hash"] = manifest["stages"][-1]["hash"] if manifest["stages"] else None
    entry["hash"] = _hash_text(_canonical(entry))
    manifest["stages"].append(entry)
    # Write beside the manifest, then rename over it: a failed write leaves
    # the previous manifest intact.
    path = _manifest_path(run_dir)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=1) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _find_stage(run_dir: Path, stage: str) -> dict | None:
    for entry in reversed(_load_manifest(run_dir)["stages"]):
        if entry["stage"] == stage:
            return entry
    return None


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise StageError(f"missing upstream artifact: {what}", file=str(path))
    return path


def _corpus_hash(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in (spectro.BLOCK_FILE, "manifest.json"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _load_run_corpus(run_dir: Path) -> spectro.LabeledCorpus:
    manifest = _require(run_dir / "corpus" / "manifest.json", "corpus manifest")
    return spectro.load_corpus(manifest)


def _subdir(run_dir: Path, name: str) -> Path:
    """The run's `name` directory (checkpoints, reports), created if absent."""
    path = run_dir / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> TrainConfig:
    if args.config:
        return TrainConfig.from_json(_require(Path(args.config), "config file").read_bytes())
    return TrainConfig()


def _named_config(args) -> tuple[Path, TrainConfig, str]:
    """(run directory, config, checkpoint name); the name defaults to the loss
    kind and names files in the run, so it must be one plain path component."""
    config = _load_config(args)
    name = args.name or config.loss
    if name in (".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"--name must be one plain path component, got {name!r}")
    return Path(args.run), config, name


def _check_identity(run_dir: Path, checkpoint_name: str, config: TrainConfig, force: bool):
    checkpoint = f"checkpoints/{checkpoint_name}.gnssnet"
    for entry in reversed(_load_manifest(run_dir)["stages"]):
        if entry.get("artifacts", {}).get("checkpoint") == checkpoint:
            recorded = entry.get("identity_hash")
            if recorded and recorded != identity_hash(config) and not force:
                raise StageError(
                    f"config hash mismatch for checkpoint {checkpoint_name!r}; "
                    "pass --force to override",
                    expected=recorded,
                    got=identity_hash(config),
                )
            return


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _parse_counts(text: str) -> dict:
    """`--counts` JSON: an object mapping class ids (integer strings) to int counts."""
    counts = jsondoc.parse(text, "--counts")
    if not all(k.isascii() and k.isdecimal() and type(v) is int for k, v in counts.items()):
        raise ValueError(f"--counts must map class ids to integer counts, got {text}")
    return {int(k): v for k, v in counts.items()}


def cmd_gen_data(args) -> None:
    t0 = time.perf_counter()
    run_dir = Path(args.out)
    generate_corpus(
        run_dir / "corpus",
        profile=args.profile,
        seed=args.seed,
        counts=_parse_counts(args.counts) if args.counts is not None else None,
    )
    _append_stage(
        run_dir, "gen-data", t0, {"corpus": "corpus/manifest.json"},
        master_seed=args.seed,
        profile=args.profile,
        corpus_hash=_corpus_hash(run_dir / "corpus"),
    )
    print(f"corpus written to {run_dir / 'corpus'}")


def _train_checkpoint(
    run_dir: Path, corpus: spectro.LabeledCorpus, config: TrainConfig, name: str, sim_map
) -> tuple[fsl.TrainResult, str]:
    """Train `config` and save checkpoints/<name>.gnssnet; returns the result and
    that run-relative path. A diverged run keeps <name>_diverged.gnssnet and
    raises StageError."""
    try:
        result = fsl.train(corpus, config, sim_map=sim_map)
    except fsl.TrainingDiverged as exc:
        rescue = _subdir(run_dir, "checkpoints") / f"{name}_diverged.gnssnet"
        nncore.save_checkpoint(exc.network, rescue)
        raise StageError(
            f"training diverged at epoch {exc.epoch}; checkpoint retained",
            checkpoint=str(rescue),
        ) from exc
    nncore.save_checkpoint(result.network, _subdir(run_dir, "checkpoints") / f"{name}.gnssnet")
    return result, f"checkpoints/{name}.gnssnet"


def cmd_train(args) -> None:
    t0 = time.perf_counter()
    run_dir, config, name = _named_config(args)
    sim_map = None  # fsl.train's default for quadruplet: the built-in fixture
    if config.loss == "quadruplet" and config.similarity_map == "computed":
        # Read before the corpus loads, so a missing mined map fails before any training.
        path = _require(run_dir / "similarity_map.json", "similarity map (run mine first)")
        sim_map = SimilarityMap.load(path)
    corpus = _load_run_corpus(run_dir)
    # Refuse, before training, a support set that adapt and eval would refuse.
    fsl.adaptation_support(corpus, config.adaptation_classes, config.k_shot)
    result, ckpt = _train_checkpoint(run_dir, corpus, config, name, sim_map)
    with open(_subdir(run_dir, "reports") / f"train_{name}.csv", "w", newline="") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(result.epoch_losses):
            fh.write(f"{i},{loss:.9f}\n")
    _append_stage(
        run_dir, f"train:{name}", t0,
        {"checkpoint": ckpt, "log": f"reports/train_{name}.csv"},
        identity=config,
        master_seed=config.seed,
        config=config.to_dict(),
    )
    print(f"checkpoint written to {run_dir / ckpt}")


def _fork_workers(items: int) -> int:
    """Processes that run a stage's `items` independent tasks: one per usable
    core when BLAS runs one thread, else one, since processes of several BLAS
    threads each oversubscribe the cores; one also where the process cannot
    fork safely. BLAS threads are OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS,
    else the core count, as OpenBLAS itself reads them."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:  # a forked child gets only the forking thread
        return 1
    cores = len(os.sched_getaffinity(0))
    threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            threads = int(value)
            break
    return min(items, cores) if threads == 1 else 1


def _fork_map(task, n: int, stage: str) -> list:
    """[task(i) for i in range(n)], computed on W processes (W from
    _fork_workers), in order; `stage` names the stage in a lost worker's error.

    Item i goes to worker i mod W. This process is worker 0; it forks the
    others, runs its own share (and the shares of workers it could not fork),
    then reads each child's outcomes (task(i) per item, or the exception that
    ended the child's share) from a pipe. The lowest-index failure is raised;
    once no child left can fail lower, the rest are killed rather than waited
    for, and every child is reaped. A child that ends without sending its
    outcomes fails its items with a StageError giving its exit status."""
    workers = _fork_workers(n)

    def share(own: set) -> dict:
        outcomes = {}
        for i in range(n):
            if i % workers not in own:
                continue
            try:
                outcomes[i] = task(i)
            except Exception as exc:  # raised by the parent, in item order
                outcomes[i] = exc
                break
        return outcomes

    def first_failure(outcomes: dict) -> int:
        return min((i for i, o in outcomes.items() if isinstance(o, Exception)), default=n)

    own = {0}
    children = []  # (pid, worker, read end of its pipe), until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare (EAGAIN): run the rest here
                os.close(read_fd)
                os.close(write_fd)
                own.update(range(worker, workers))
                break
            if pid == 0:  # the child never returns from this block
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(share({worker}), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, worker, read_fd))
        outcomes = share(own)
        # A child's lowest item is its worker index: once a failure lies
        # below it, that child and later ones are killed by the finally.
        while children and first_failure(outcomes) > children[0][1]:
            pid, worker, read_fd = children[0]
            sent = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
            _, wait_status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read_fd)
            status = os.waitstatus_to_exitcode(wait_status)
            if status == 0:
                outcomes.update(pickle.loads(sent))
                continue
            lost = StageError(
                f"{stage} worker {worker} ended with exit status {status} "
                "without sending its outcomes",
                worker=worker,
                exit_status=status,
            )
            outcomes.update({i: lost for i in range(worker, n, workers)})
    finally:
        for pid, _, read_fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    failed = first_failure(outcomes)
    if failed < n:
        raise outcomes[failed]
    return [outcomes[i] for i in range(n)]


def cmd_ensemble(args) -> None:
    t0 = time.perf_counter()
    if args.members < 1:
        raise ValueError(f"--members must be at least 1, got {args.members}")
    run_dir = Path(args.run)
    config = _load_config(args)
    corpus = _load_run_corpus(run_dir)
    configs = [
        replace(config, seed=config.seed + i, pretrain="ce", loss="ce")
        for i in range(args.members)
    ]

    def train_member(i: int) -> str:
        return _train_checkpoint(run_dir, corpus, configs[i], f"ensemble_{i:02d}", None)[1]

    paths = {
        f"member_{i:02d}": path
        for i, path in enumerate(_fork_map(train_member, len(configs), "ensemble"))
    }
    _append_stage(
        run_dir, "ensemble", t0, paths,
        identity=config,
        master_seed=config.seed,
        members=args.members,
        config=config.to_dict(),
    )
    print(f"{args.members} ensemble members written to {run_dir / 'checkpoints'}")


def _load_ensemble(run_dir: Path, corpus: spectro.LabeledCorpus) -> tuple[list, list]:
    """The members of the run's latest ensemble stage and the base classes
    their heads score; every member needs one head output per base class."""
    entry = _find_stage(run_dir, "ensemble")
    if entry is None:
        raise StageError("missing upstream artifact: ensemble checkpoints (run ensemble first)",
                         file=str(run_dir / "checkpoints"))
    config = TrainConfig.from_dict(jsondoc.expect(entry.get("config"), "ensemble config"))
    train_classes = fsl.base_classes(corpus, config.adaptation_classes)
    artifacts = entry.get("artifacts", {})
    if not artifacts:
        raise ValueError("ensemble needs at least one member")
    members = []
    for key in sorted(artifacts):
        path = _require(run_dir / artifacts[key], f"ensemble member {key}")
        members.append(nncore.load_checkpoint(path))
        heads = members[-1].config.num_classes or 0  # 0: a headless member
        if heads != len(train_classes):
            raise ValueError(
                f"ensemble members have {heads}-class heads, but the run has "
                f"{len(train_classes)} base classes"
            )
    return members, train_classes


def cmd_mine(args) -> None:
    t0 = time.perf_counter()
    run_dir = Path(args.run)
    corpus = _load_run_corpus(run_dir)
    members, classes = _load_ensemble(run_dir, corpus)
    val = corpus.subset(split="val", classes=set(classes))
    images = [r.image.pixels for r in val.records]
    labels = val.labels()
    # One forward pass per member; the map and the CSV share its decomposition.
    member_probs = np.stack(_fork_map(
        lambda i: uncertainty.predict_member(members[i], images), len(members), "mine"
    ))
    report = uncertainty.decompose_uncertainty(member_probs)
    sim_map = fsl.build_similarity_map(report, labels, classes)
    (run_dir / "similarity_map.json").write_text(sim_map.to_json() + "\n")

    uncertainty.write_uncertainty_csv(
        _subdir(run_dir, "reports") / "uncertainty.csv",
        [r.file for r in val.records],
        labels,
        np.asarray(classes)[np.argmax(report.mean_softmax, axis=1)],
        report,
    )
    _append_stage(
        run_dir, "mine", t0,
        {"similarity_map": "similarity_map.json", "uncertainty": "reports/uncertainty.csv"},
        quantile=fsl.SIMILAR_QUANTILE,
    )
    print(f"similarity map written to {run_dir / 'similarity_map.json'}")


def _classifier(net, corpus: spectro.LabeledCorpus, adaptation_classes, k: int):
    """Prototypes of the base classes (fsl.BASE_SHOTS train images each) plus
    k-shot prototypes of the adaptation classes; the backbone never updates."""
    base_classes = fsl.base_classes(corpus, adaptation_classes)
    base = fsl.compute_prototypes(net, fsl.base_support(corpus, base_classes))
    support = fsl.adaptation_support(corpus, adaptation_classes, k)
    return fsl.adapt(net, support, k, base=base)


def _adaptation_scores(classifier, corpus: spectro.LabeledCorpus, adaptation_classes):
    """(macro accuracy, macro F2, confusion matrix) over the adaptation classes.

    Queries are the val+test images of the adaptation classes, each classified
    nearest-prototype among all prototypes, base classes included. The classes
    come ascending, as TrainConfig stores them.
    """
    queries, truth = [], []
    for split in ("val", "test"):
        sub = corpus.subset(split=split, classes=set(adaptation_classes))
        queries += [r.image.pixels for r in sub.records]
        truth += [r.label for r in sub.records]
    predicted = fsl.classify_batch(classifier, queries)
    cm = metrics.confusion(truth, predicted, metrics.NUM_CLASSES)
    return (
        metrics.macro_recall(cm, adaptation_classes),
        metrics.macro_f_beta(cm, 2.0, adaptation_classes),
        cm,
    )


def adaptation_report(net, corpus: spectro.LabeledCorpus, adaptation_classes, k: int):
    """Few-shot scoring of the held-out classes: adapt with k shots, classify,
    summarize. Returns (adaptation_macro_accuracy, adaptation_macro_f2,
    confusion matrix), the numbers `eval` reports."""
    classifier = _classifier(net, corpus, adaptation_classes, k)
    return _adaptation_scores(classifier, corpus, adaptation_classes)


def _open_checkpoint(args):
    """(run directory, config, checkpoint name, corpus, network) for a stage that
    reads a trained checkpoint; the corpus is checked before the checkpoint."""
    run_dir, config, name = _named_config(args)
    _check_identity(run_dir, name, config, args.force)
    corpus = _load_run_corpus(run_dir)
    ckpt = _require(run_dir / "checkpoints" / f"{name}.gnssnet", f"checkpoint {name!r}")
    return run_dir, config, name, corpus, nncore.load_checkpoint(ckpt)


def _save_prototypes(classifier: fsl.PrototypeClassifier, path: Path) -> None:
    payload = {
        str(c): [float(x) for x in v] for c, v in sorted(classifier.prototypes.items())
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def cmd_adapt(args) -> None:
    t0 = time.perf_counter()
    run_dir, config, name, corpus, net = _open_checkpoint(args)
    classifier = _classifier(net, corpus, config.adaptation_classes, config.k_shot)
    out = run_dir / "checkpoints" / f"{name}_prototypes.json"
    _save_prototypes(classifier, out)
    _append_stage(
        run_dir, f"adapt:{name}", t0,
        {"prototypes": f"checkpoints/{name}_prototypes.json"},
        identity=config,
    )
    print(f"prototypes written to {out}")


def cmd_eval(args) -> None:
    t0 = time.perf_counter()
    run_dir, config, name, corpus, net = _open_checkpoint(args)
    classifier = _classifier(net, corpus, config.adaptation_classes, config.k_shot)

    test = corpus.subset(split="test")
    predicted = fsl.classify_batch(classifier, [r.image.pixels for r in test.records])
    cm = metrics.confusion(test.labels(), predicted, metrics.NUM_CLASSES)
    report = metrics.binary_detection_metrics(cm)

    acc, f2, _ = _adaptation_scores(classifier, corpus, config.adaptation_classes)
    extras = {"adaptation_macro_accuracy": acc, "adaptation_macro_f2": f2}
    reports = _subdir(run_dir, "reports")
    metrics.write_metrics_csv(reports / f"metrics_{name}.csv", report, extras)
    with open(reports / f"confusion_{name}.csv", "w", newline="") as fh:
        for row in cm.counts:
            fh.write(",".join(str(int(v)) for v in row) + "\n")
    _append_stage(
        run_dir, f"eval:{name}", t0,
        {"metrics": f"reports/metrics_{name}.csv", "confusion": f"reports/confusion_{name}.csv"},
        identity=config,
    )
    print(f"reports written to {reports}")


def cmd_embed(args) -> None:
    t0 = time.perf_counter()
    run_dir, config, name, corpus, net = _open_checkpoint(args)
    test = corpus.subset(split="test")
    images = [r.image.pixels for r in test.records]
    emb = net.infer(images)
    perplexity = min(metrics.TSNE_PERPLEXITY, (len(images) - 1) / 3.0 - 1e-9)
    points = metrics.tsne(emb, perplexity=perplexity, iters=args.iters, seed=config.seed)
    out = _subdir(run_dir, "reports") / f"tsne_{name}.csv"
    metrics.write_points_csv(out, points, test.labels())
    _append_stage(
        run_dir, f"embed:{name}", t0, {"tsne": f"reports/tsne_{name}.csv"},
        identity=config, perplexity=perplexity, iters=args.iters,
    )
    print(f"projection written to {out}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_COMMON_FLAGS = {
    "--config": {"help": "TrainConfig JSON file"},
    "--name": {"help": "checkpoint name (default: the loss kind)"},
    "--force": {"action": "store_true", "help": "ignore config hash mismatches"},
}


def _add_common(p, *flags):
    """--run plus the named shared flags, each only on the stages that read it."""
    p.add_argument("--run", required=True, help="run directory")
    for flag in flags:
        p.add_argument(flag, **_COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnssfsl", description="few-shot jammer classification pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize the labeled spectrogram corpus")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--counts", help="JSON object {class: count} overriding the profile")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a backbone (baseline or pairwise)")
    _add_common(p, "--config", "--name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ensemble", help="train M independently seeded classifiers")
    _add_common(p, "--config")
    p.add_argument("--members", type=int, default=10)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("mine", help="build the similar-class map from ensemble uncertainty")
    _add_common(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("adapt", help="build prototypes for the held-out classes")
    _add_common(p, "--config", "--name", "--force")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="score the test split and emit reports")
    _add_common(p, "--config", "--name", "--force")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="t-SNE projection of test embeddings")
    _add_common(p, "--config", "--name", "--force")
    p.add_argument("--iters", type=int, default=500)
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except StageError as exc:
        payload = {"error": "stage_error", "message": str(exc), **exc.details}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
