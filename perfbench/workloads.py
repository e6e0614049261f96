"""The benchmark's workloads: closed loops with one client each.

Every workload has the same shape.  `setup()` builds the inputs (it may be
called several times; each call replaces the previous state).  One operation
is `prepare(i)` (untimed), `execute(token)` (the timed part) and
`verify(token, result)` (untimed), which raises CheckFailed when an output is
wrong.  `metrics(durations)` names the workload's own timings (the issue's
chain_s, analysis_s, snapshot_ms_p50/p99), reported beside the end-to-end
metrics.

All inputs derive from the workload seed; the package only ever sees the
generated corpora, configs and snapshots.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

NUM_CLASSES = 11

# README / acceptance-criterion-4 architecture and batch shapes. Epoch counts
# set run length only, so they are cut to the minimum of one.
ARCH = {
    "lr": 0.1, "decay": 0.0005, "seed": 1, "embed_dim": 32,
    "conv_channels": [8, 16, 32], "k_shot": 5, "adaptation_classes": [3, 7, 9, 10],
}
EPISODIC = {"episodes_per_epoch": 15, "episode_k_shot": 2, "n_query": 5}
CE = {**ARCH, **EPISODIC, "loss": "ce", "epochs": 1}
MEMBERS = {**ARCH, "loss": "ce", "pretrain": "ce", "epochs": 1, "batch_size": 32, "seed": 100}
QUAD = {
    **ARCH, **EPISODIC, "loss": "quadruplet", "alpha1": 2.0, "alpha2": 5.0,
    "epochs": 1, "pair_batch": 6, "similarity_map": "computed",
}


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def percentile(values, q):
    """Nearest-rank percentile; the maximum when there are too few samples."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Run-directory helpers and output checks
# ---------------------------------------------------------------------------


def cli_stage(cli, *argv):
    """Run one CLI stage; a non-zero exit fails the operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    check(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")


def write_configs(directory: Path, **configs) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return paths


def verify_manifest(run_dir: Path) -> int:
    """Recompute every run_manifest.json entry hash and its prev_hash link."""
    stages = json.loads((run_dir / "run_manifest.json").read_text())["stages"]
    prev = None
    for i, entry in enumerate(stages):
        check(entry.get("prev_hash") == prev, f"manifest entry {i}: broken prev_hash link")
        body = {k: v for k, v in entry.items() if k != "hash"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        check(entry.get("hash") == digest, f"manifest entry {i}: hash does not match body")
        prev = entry["hash"]
    return len(stages)


def corpus_digest(corpus_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(corpus_dir.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def output_digests(run_dir: Path) -> dict:
    """Digests of the outputs that must be byte-identical for one seed."""
    files = sorted((run_dir / "reports").glob("*.csv"))
    files.append(run_dir / "similarity_map.json")
    digests = {
        str(f.relative_to(run_dir)): hashlib.sha256(f.read_bytes()).hexdigest() for f in files
    }
    digests["corpus"] = corpus_digest(run_dir / "corpus")
    return digests


def _csv_rows(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite_in(value: str, lo: float, hi: float, what: str) -> float:
    v = float(value)
    check(math.isfinite(v) and lo <= v <= hi, f"{what}: {value} outside [{lo}, {hi}]")
    return v


def check_reports(run_dir: Path) -> dict:
    """Range checks on every report; returns the quality readouts."""
    entries = json.loads((run_dir / "corpus" / "manifest.json").read_text())
    n_test = sum(e["split"] == "test" for e in entries)
    reports = run_dir / "reports"
    readouts = {}
    for f in sorted(reports.glob("metrics_*.csv")):
        _, rows = _csv_rows(f)
        check(len(rows) > 0, f"{f.name} is empty")
        for name, value in rows:
            v = _finite_in(value, 0.0, 1.0, f"{f.name}:{name}")
            if name == "adaptation_macro_f2":
                readouts[f"{f.stem[len('metrics_'):]}.adaptation_macro_f2"] = v
    for f in sorted(reports.glob("confusion_*.csv")):
        rows = [line.split(",") for line in f.read_text().splitlines()]
        counts = [[int(v) for v in row] for row in rows]
        check(len(counts) == NUM_CLASSES and all(len(r) == NUM_CLASSES for r in counts),
              f"{f.name} is not {NUM_CLASSES}x{NUM_CLASSES}")
        check(min(min(r) for r in counts) >= 0, f"{f.name} has negative counts")
        check(sum(map(sum, counts)) == n_test, f"{f.name} does not cover the test split")
    for f in sorted(reports.glob("train_*.csv")):
        _, rows = _csv_rows(f)
        check(len(rows) > 0, f"{f.name} is empty")
        for _, loss in rows:
            _finite_in(loss, 0.0, math.inf, f"{f.name} loss")
    for f in sorted(reports.glob("tsne_*.csv")):
        _, rows = _csv_rows(f)
        check(len(rows) == n_test, f"{f.name} has {len(rows)} points, test split {n_test}")
        for x, y, label in rows:
            _finite_in(x, -math.inf, math.inf, f"{f.name} x")
            _finite_in(y, -math.inf, math.inf, f"{f.name} y")
            check(0 <= int(label) < NUM_CLASSES, f"{f.name} label {label}")
    unc = reports / "uncertainty.csv"
    if unc.exists():
        _, rows = _csv_rows(unc)
        check(len(rows) > 0, "uncertainty.csv is empty")
        for _, true, pred, alea, epi in rows:
            check(0 <= int(true) < NUM_CLASSES and 0 <= int(pred) < NUM_CLASSES,
                  "uncertainty.csv label out of range")
            _finite_in(alea, -1e-9, 1.0, "aleatoric trace")
            _finite_in(epi, -1e-9, 1.0, "epistemic trace")
    sim = run_dir / "similarity_map.json"
    if sim.exists():
        for c, others in json.loads(sim.read_text()).items():
            check(all(0 <= o < NUM_CLASSES and o != int(c) for o in others),
                  f"similarity map entry {c}: {others}")
    return readouts


class _RunDirWorkload:
    """Shared bookkeeping for the workloads that drive the CLI on a run dir."""

    def __init__(self, pkg, seed: int, scratch: Path):
        self.cli = pkg.cli
        self.seed = seed
        self.scratch = scratch
        self.reference: dict | None = None
        self.readouts: dict = {}
        self.manifest_bytes: list[int] = []

    def verify(self, run_dir: Path, result) -> None:
        try:
            verify_manifest(run_dir)
            self.readouts = check_reports(run_dir)
            digests = output_digests(run_dir)
            check(digests["corpus"] == self.corpus, "corpus bytes differ from set-up")
            if self.reference is None:
                self.reference = digests
            changed = sorted(k for k in digests if digests[k] != self.reference.get(k))
            check(not changed and digests.keys() == self.reference.keys(),
                  f"outputs differ from the first operation: {changed}")
            self.manifest_bytes.append((run_dir / "run_manifest.json").stat().st_size)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


class DeskChain(_RunDirWorkload):
    """README chain through cli.main, in a fresh run directory per operation."""

    name = "desk-chain"
    setup_repeats = 3

    def setup(self):
        # Generate the seed's reference corpus: every chain's gen-data must
        # reproduce it byte for byte.
        ref = self.scratch / "reference"
        shutil.rmtree(ref, ignore_errors=True)
        cli_stage(self.cli, "gen-data", "--out", ref, "--profile", "desk", "--seed", self.seed)
        self.corpus = corpus_digest(ref / "corpus")
        shutil.rmtree(ref)
        self.configs = write_configs(self.scratch / "configs", ce=CE, members=MEMBERS, quad=QUAD)

    def prepare(self, i):
        run = self.scratch / f"op{i:04d}"
        shutil.rmtree(run, ignore_errors=True)
        return run

    def execute(self, run):
        cfg = self.configs
        for argv in (
            ("gen-data", "--out", run, "--profile", "desk", "--seed", self.seed),
            ("train", "--run", run, "--config", cfg["ce"]),
            ("ensemble", "--run", run, "--config", cfg["members"], "--members", 3),
            ("mine", "--run", run),
            ("train", "--run", run, "--config", cfg["quad"]),
            ("adapt", "--run", run, "--config", cfg["ce"]),
            ("eval", "--run", run, "--config", cfg["ce"]),
            ("eval", "--run", run, "--config", cfg["quad"], "--name", "quadruplet"),
            ("embed", "--run", run, "--config", cfg["ce"]),
        ):
            cli_stage(self.cli, *argv)

    def metrics(self, durations):
        return {"chain_s": statistics.median(durations), "chain_s_min": min(durations)}


class MineEval(_RunDirWorkload):
    """mine -> adapt -> eval x2 -> embed on a fresh copy of a prepared run."""

    name = "mine-eval"
    # Set-up trains 12 networks (about 20 s), so it runs once per run.
    setup_repeats = 1

    def setup(self):
        prepared = self.scratch / "prepared"
        shutil.rmtree(prepared, ignore_errors=True)
        # The quadruplet model uses the built-in map: the computed one is an
        # output of `mine`, which is part of the operation.
        quad = {**QUAD, "similarity_map": "paper_fixture"}
        self.configs = write_configs(self.scratch / "configs", ce=CE, members=MEMBERS, quad=quad)
        cfg = self.configs
        cli_stage(self.cli, "gen-data", "--out", prepared, "--profile", "desk", "--seed", self.seed)
        cli_stage(self.cli, "train", "--run", prepared, "--config", cfg["ce"])
        cli_stage(self.cli, "train", "--run", prepared, "--config", cfg["quad"])
        cli_stage(self.cli, "ensemble", "--run", prepared, "--config", cfg["members"],
                  "--members", 10)
        verify_manifest(prepared)
        self.corpus = corpus_digest(prepared / "corpus")
        self.prepared = prepared

    def prepare(self, i):
        run = self.scratch / f"op{i:04d}"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(self.prepared, run)
        return run

    def execute(self, run):
        cfg = self.configs
        for argv in (
            ("mine", "--run", run),
            ("adapt", "--run", run, "--config", cfg["ce"]),
            ("eval", "--run", run, "--config", cfg["ce"]),
            ("eval", "--run", run, "--config", cfg["quad"], "--name", "quadruplet"),
            ("embed", "--run", run, "--config", cfg["ce"]),
        ):
            cli_stage(self.cli, *argv)

    def metrics(self, durations):
        return {"analysis_s": statistics.median(durations), "analysis_s_min": min(durations)}


# ---------------------------------------------------------------------------
# Snapshot stream
# ---------------------------------------------------------------------------

SNAPSHOTS_PER_CLASS = 16


def _jammer_spec(siggen, label, rng, fs, dur, seed):
    """Interference archetypes of classes 3-10 (frequencies as fractions of fs).

    They follow the corpus generator's archetypes but are written out here,
    so the benchmark depends on siggen's public API only.
    """
    kind = siggen.JammerKind
    u = rng.uniform
    sign = 1.0 if rng.random() < 0.5 else -1.0
    sweep = {
        "chirp_f0_hz": -u(0.25, 0.35) * fs, "chirp_f1_hz": u(0.25, 0.35) * fs,
        "chirp_period_ms": dur * u(0.15, 0.3),
    }
    specs = {
        3: (kind.PULSED, {"pulse_period_ms": dur * u(0.25, 0.35), "duty_cycle": u(0.2, 0.35)}),
        4: (kind.PULSED, {"pulse_period_ms": dur * u(0.08, 0.12), "duty_cycle": u(0.55, 0.75)}),
        5: (kind.OUT_OF_BAND_TONE, {"tone_freq_hz": sign * u(0.30, 0.45) * fs}),
        6: (kind.NOISE, {"band_fraction": 0.5, "band_center_hz": u(-0.23, 0.23) * fs}),
        7: (kind.TONE, {"tone_freq_hz": sign * u(0.05, 0.22) * fs}),
        8: (kind.CHIRP, sweep),
        9: (kind.TWO_CHIRPS, {**sweep, "chirp2_f0_hz": u(0.15, 0.25) * fs,
                              "chirp2_f1_hz": -u(0.15, 0.25) * fs,
                              "chirp2_period_ms": dur * u(0.3, 0.5)}),
        10: (kind.CHIRP, {"chirp_f0_hz": -u(0.35, 0.45) * fs, "chirp_f1_hz": u(0.35, 0.45) * fs,
                          "chirp_period_ms": dur * u(0.9, 1.1)}),
    }
    jnr = u(0.0, 6.0) if label == 5 else u(5.0, 15.0) if label == 6 else u(8.0, 20.0)
    k, kwargs = specs[label]
    return siggen.JammerSpec(kind=k, jnr_db=jnr, seed=seed, **kwargs)


class SnapshotStream:
    """Label one IQ snapshot at a time: STFT -> quantize -> resize -> classify."""

    name = "snapshot-stream"
    setup_repeats = 3

    def __init__(self, pkg, seed: int, scratch: Path):
        self.pkg = pkg
        self.seed = seed
        self.scratch = scratch
        self.readouts: dict = {}
        self.manifest_bytes: list[int] = []

    def setup(self):
        cli, fsl, siggen = self.pkg.cli, self.pkg.fsl, self.pkg.siggen
        corpus_dir = self.scratch / "corpus"
        shutil.rmtree(corpus_dir, ignore_errors=True)
        corpus = cli.generate_corpus(corpus_dir, profile="desk", seed=self.seed)
        config = fsl.TrainConfig.from_json(json.dumps(CE))
        net = fsl.train(corpus, config).network
        adapt_classes = sorted(config.adaptation_classes)
        base_classes = sorted(set(corpus.classes()) - set(adapt_classes))
        base = fsl.compute_prototypes(net, fsl.base_support(corpus, base_classes))
        support = fsl.adaptation_support(corpus, adapt_classes, config.k_shot)
        self.classifier = fsl.adapt(net, support, config.k_shot, base=base)
        shutil.rmtree(corpus_dir)

        prof = cli.PROFILES["desk"]
        self.window, self.hop, self.size = prof["window"], prof["hop"], prof["image_size"]
        fs, dur = prof["sample_rate_hz"], prof["duration_ms"]
        levels = list(siggen.BackgroundLevel)
        rng = np.random.default_rng([self.seed, 7])
        self.pool, self.truth = [], []
        for _ in range(SNAPSHOTS_PER_CLASS):
            for label in range(NUM_CLASSES):
                seeds = [int(s) for s in rng.integers(0, 2**63, size=2)]
                level = levels[label] if label < 3 else levels[rng.integers(3)]
                snap = siggen.gen_background(siggen.BackgroundSpec(level, seed=seeds[0]), dur, fs)
                if label >= 3:
                    spec = _jammer_spec(siggen, label, rng, fs, dur, seeds[1])
                    snap = siggen.mix(snap, siggen.gen_jammer(spec, dur, fs), spec.jnr_db)
                self.pool.append(snap)
                self.truth.append(label)
        # First pass over the pool: the labels every later pass must repeat.
        self.first_pass = [self.execute(i) for i in range(len(self.pool))]
        hits = sum(int(a == b) for a, b in zip(self.first_pass, self.truth))
        self.readouts = {"snapshot_pool_accuracy": hits / len(self.pool)}

    def prepare(self, i):
        return i % len(self.pool)

    def execute(self, token):
        spectro, fsl = self.pkg.spectro, self.pkg.fsl
        db = spectro.stft_magnitude(self.pool[token], self.window, self.hop)
        img = spectro.resize(spectro.quantize(db), self.size, self.size)
        return int(fsl.classify_batch(self.classifier, [img.pixels])[0])

    def verify(self, token, label):
        check(label == self.first_pass[token],
              f"snapshot {token}: label {label}, first pass {self.first_pass[token]}")

    def metrics(self, durations):
        return {
            "snapshot_ms_p10": 1e3 * percentile(durations, 10),
            "snapshot_ms_p50": 1e3 * statistics.median(durations),
            "snapshot_ms_p99": 1e3 * percentile(durations, 99),
        }


WORKLOADS = {w.name: w for w in (DeskChain, MineEval, SnapshotStream)}


def measure(workload, seconds: float, tracer=None, first_op: int = 0):
    """Closed loop with one client for `seconds`; returns (durations, attempted, failed, errors)."""
    durations, errors = [], []
    attempted = failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    i = first_op
    while True:
        try:
            token = workload.prepare(i)
            t0 = clock()
            if tracer is None:
                result = workload.execute(token)
            else:
                result = tracer.run_op(i, workload.execute, token)
            durations.append(clock() - t0)
            workload.verify(token, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        attempted += 1
        i += 1
        if clock() >= deadline:
            return durations, attempted, failed, errors
