"""The benchmark's workloads: seeded inputs, timed set-up, phases and checks.

Every workload runs the same four phases, interleaved until the time is up:
a training slice (``trainer.train_correction``), correction scoring of a
held-out ID set, an OOD set and an ``energy_grid`` lattice, Mahalanobis
scoring and KNN scoring. The sizes differ so that each workload puts most of
its time in different layers; README.md in this directory gives the reasons.
The library only ever receives the arrays generated here from the seed.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from energy_ood import detectors, energy_net, featurestore, metrics, mog, sgld, toy, trainer

import spans

PHASES = ("train", "score", "mahalanobis", "knn")
SETUP_REPS = 3
CHECK_ROWS = 32      # rows for the score-is-a-sum check
PAIR_ROWS = 200      # ID and OOD rows for the O(n^2) AUROC pair count
BRUTE_ROWS = 3       # KNN query rows checked against a full sort


@dataclass(frozen=True)
class Spec:
    kind: str                   # "toy" (2-D grid of crosses) or "features" (512-d mixture)
    per_class: int              # training rows per class
    heldout_per_class: int      # held-out ID rows per class
    n_ood: int                  # OOD rows
    n_classes: int = 18
    dim: int = 2
    ood_components: int = 0     # extra mixture components that feed the OOD rows
    mean_scale: float = 0.0     # std of the generating component means
    ring: tuple = (0.0, 0.0)    # toy OOD radii, drawn uniform in radius and angle
    mog_temperature: float = 1.0
    train_rows: int = 0         # rows per training rep; 0 trains one epoch of the set
    knn_rows: int = 0           # ID and OOD queries each for KNN; 0 means all
    k: int = 50
    lattice: int = 121
    bounds: tuple = (-12.0, 12.0, -12.0, 12.0)
    shares: tuple = (0.25, 0.25, 0.25, 0.25)   # measuring time per phase, as PHASES
    min_reps: tuple = (1, 1, 1, 1)
    overrides: dict = field(default_factory=dict)   # TrainConfig fields


WORKLOADS = {
    # Criterion-5 path: tiny matrices, so per-call overhead and BLAS threading.
    "toy-grid": Spec(
        "toy", per_class=250, heldout_per_class=400, n_ood=7200, ring=(3.0, 12.0),
        train_rows=768, knn_rows=900, shares=(0.7, 0.15, 0.05, 0.1), min_reps=(3, 3, 3, 3)),
    # CIFAR-100 scale: the O(n C d^2) mixture gradient dominates each step.
    "feat512-c100-train": Spec(
        "features", per_class=500, heldout_per_class=4, n_ood=400, n_classes=100,
        dim=512, ood_components=50, mean_scale=0.12, mog_temperature=1e3,
        train_rows=256, knn_rows=100, lattice=8, bounds=(-1.0, 1.0, -1.0, 1.0),
        shares=(0.6, 0.15, 0.1, 0.15), min_reps=(2, 3, 3, 12)),
    # CIFAR-10 scale read path: large forward-only batches and the KNN scan.
    "feat512-c10-score": Spec(
        "features", per_class=5000, heldout_per_class=200, n_ood=2000, n_classes=10,
        dim=512, ood_components=40, mean_scale=0.11, mog_temperature=1e3,
        train_rows=256, knn_rows=200, lattice=8, bounds=(-1.0, 1.0, -1.0, 1.0),
        shares=(0.15, 0.35, 0.2, 0.3), min_reps=(2, 3, 3, 3)),
}

_SMOKE_NET = {"hidden_dim": 16, "num_hidden": 2, "batch_size": 32,
              "sgld": sgld.SgldSchedule(3, (1e-6, 1e-7), (1e-3, 1e-4))}

# Same code paths at sizes that run in well under a second per phase.
SMOKE = {
    name: replace(
        spec, per_class=20, heldout_per_class=4, n_ood=40,
        n_classes=min(spec.n_classes, 6), dim=min(spec.dim, 8),
        ood_components=min(spec.ood_components, 2), train_rows=min(spec.train_rows, 32),
        knn_rows=min(spec.knn_rows, 10), k=5, lattice=min(spec.lattice, 9),
        min_reps=(1, 1, 1, 1), overrides=_SMOKE_NET)
    for name, spec in WORKLOADS.items()
}


@dataclass
class Inputs:
    train: np.ndarray
    labels: np.ndarray
    n_classes: int
    heldout: np.ndarray
    ood: np.ndarray


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Generate every input of one workload from its seed."""
    rng = np.random.default_rng(seed)
    if spec.kind == "toy":
        grid = toy.ToySpec(kind="grid_crosses", samples_per_class=spec.per_class)
        train = toy.gen_toy(grid, rng)
        held = toy.gen_toy(replace(grid, samples_per_class=spec.heldout_per_class), rng)
        angle = rng.uniform(0.0, 2.0 * np.pi, spec.n_ood)
        radius = rng.uniform(*spec.ring, spec.n_ood)
        ood = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        return Inputs(train.features, train.labels, train.num_classes, held.features, ood)

    # Random tied covariance with a 10:1 spectrum; the OOD rows come from extra
    # components of the same mixture, which the fit never sees.
    d, c = spec.dim, spec.n_classes
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (rotation * np.geomspace(0.1, 1.0, d)) @ rotation.T
    means = spec.mean_scale * rng.standard_normal((c + spec.ood_components, d))
    gen = mog.GaussianMixture.from_moments(means, cov)

    def draw(component: int, n: int) -> np.ndarray:
        one = mog.GaussianMixture(gen.means[component : component + 1], gen.covariance,
                                  gen.chol_lower, gen.precision, np.ones(1))
        return mog.sample_mog(one, n, rng)

    train = np.concatenate([draw(i, spec.per_class) for i in range(c)])
    labels = np.repeat(np.arange(c), spec.per_class)
    heldout = np.concatenate([draw(i, spec.heldout_per_class) for i in range(c)])
    per_ood = np.array_split(np.arange(spec.n_ood), spec.ood_components)
    ood = np.concatenate([draw(c + j, idx.size) for j, idx in enumerate(per_ood)])
    return Inputs(train, labels, c, heldout, ood)


class Checks:
    """Output checks and raised errors; each one counts as attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


class LatticeScore:
    """Batched correction score for ``energy_grid``; counts single-point calls,
    which are the grid's point-by-point fallback and wasted work."""

    def __init__(self, model, center, plane):
        self.model, self.center, self.plane = model, center, plane
        self.single_calls = 0

    def __call__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            self.single_calls += 1
        lifted = points if self.plane is None else self.center + points @ self.plane
        return detectors.score_correction(self.model, lifted)


@dataclass
class State:
    spec: Spec
    cfg: trainer.TrainConfig
    fs: featurestore.FeatureSet
    gm: mog.GaussianMixture
    model: trainer.CorrectionModel
    train_slice: featurestore.FeatureSet
    steps: int
    heldout: np.ndarray
    ood: np.ndarray
    knn_queries: np.ndarray
    center: np.ndarray | None
    plane: np.ndarray | None
    first: dict = field(default_factory=dict)   # first rep's outputs, per phase


def set_up(spec: Spec, seed: int, workdir: Path, checks: Checks) -> State:
    """Generate, round-trip through FTSR files, fit, initialise and warm up."""
    inputs = make_inputs(spec, seed)
    fs = featurestore.FeatureSet(inputs.train, inputs.labels, inputs.n_classes)
    heldout, ood = inputs.heldout, inputs.ood
    if spec.kind == "features":
        fs = featurestore.normalize_features(fs)
        heldout, ood = featurestore.normalize_rows(heldout), featurestore.normalize_rows(ood)
    paths = (workdir / "train_features.ftsr", workdir / "train_labels.ftsr")
    featurestore.save_feature_set(fs, *paths)
    loaded = featurestore.load_feature_set(*paths, num_classes=inputs.n_classes)
    written = fs.features.astype(np.float32).view(np.uint32)
    checks.record("ftsr round trip is bit-exact",
                  np.array_equal(loaded.features.astype(np.float32).view(np.uint32), written)
                  and np.array_equal(loaded.labels, fs.labels))
    fs = loaded

    gm = mog.fit_mog(fs, temperature=spec.mog_temperature)
    cfg = replace(trainer.correction_defaults(toy=spec.kind == "toy", seed=seed), epochs=1,
                  **spec.overrides)
    dims = [fs.dim] + [cfg.hidden_dim] * cfg.num_hidden + [1]
    model = trainer.CorrectionModel(
        energy_net.mlp_init(dims, np.random.default_rng(0), cfg.activation), gm)

    if spec.train_rows:
        pick = np.random.default_rng(seed).permutation(len(fs))[: spec.train_rows]
        train_slice = featurestore.FeatureSet(fs.features[pick], fs.labels[pick], fs.num_classes)
    else:
        train_slice = fs
    steps = -(-len(train_slice) // cfg.batch_size)

    n = spec.knn_rows or max(len(heldout), len(ood))
    knn_queries = np.concatenate([heldout[:n], ood[:n]])
    center = plane = None
    if spec.kind == "features":
        center = heldout.mean(axis=0)
        plane = np.linalg.qr((gm.means[1:3] - gm.means[0]).T)[0].T

    # first calls: BLAS thread start-up and SciPy's lazy imports
    few = heldout[:8]
    detectors.score_correction(model, few)
    mog.mahalanobis_ood_score(gm, few)
    detectors.score_knn(fs.features, few, spec.k)
    energy_net.mlp_grad_input(model.net, few)
    energy_net.mlp_grad_params(model.net, few, np.ones(len(few)))
    mog.gaussian_energy_grad(gm, few)
    return State(spec, cfg, fs, gm, model, train_slice, steps, heldout, ood, knn_queries,
                 center, plane)


def _repeats(state: State, phase: str, checks: Checks, value) -> None:
    """The first rep's output is kept; every later rep must match it bit for bit."""
    if phase not in state.first:
        state.first[phase] = value
    else:
        checks.record(f"{phase} output repeats bit for bit", _same(state.first[phase], value))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def phase_train(state: State, checks: Checks):
    start = time.perf_counter()
    model, history = trainer.train_correction(state.train_slice, state.gm, state.cfg)
    seconds = time.perf_counter() - start
    values = np.array([[row[k] for k in sorted(row)] for row in history], dtype=np.float64)
    checks.record("training history is finite", np.isfinite(values).all())
    if "train" not in state.first:
        state.model = model
    _repeats(state, "train", checks, (values, model.net.weights, model.net.biases))
    return state.steps, seconds


def phase_score(state: State, checks: Checks):
    model, spec = state.model, state.spec
    lattice = LatticeScore(model, state.center, state.plane)
    start = time.perf_counter()
    grid = toy.energy_grid(lattice, spec.bounds, spec.lattice)
    id_scores = detectors.score_correction(model, state.heldout)
    ood_scores = detectors.score_correction(model, state.ood)
    seconds = time.perf_counter() - start
    report = metrics.evaluate(id_scores, ood_scores, detector="correction")

    checks.record("grid values are finite", np.isfinite(grid.values).all())
    few = state.heldout[:CHECK_ROWS]
    whole = detectors.score_correction(model, few)
    parts = energy_net.mlp_energy(model.net, few) + mog.gaussian_energy(model.gm, few)
    checks.record("score_correction is mlp_energy + gaussian_energy bit for bit",
                  whole.tobytes() == parts.tobytes())
    i, o = id_scores[:PAIR_ROWS], ood_scores[:PAIR_ROWS]
    pairs = (np.sum(o[None, :] > i[:, None]) + 0.5 * np.sum(o[None, :] == i[:, None]))
    checks.record("evaluate AUROC equals the pair count",
                  metrics.evaluate(i, o).auroc == pairs / (i.size * o.size))
    _repeats(state, "score", checks, (grid.values, report.auroc, report.fpr95))
    rows = grid.values.size + len(state.heldout) + len(state.ood)
    return rows, seconds


def phase_mahalanobis(state: State, checks: Checks):
    start = time.perf_counter()
    id_scores = mog.mahalanobis_ood_score(state.gm, state.heldout)
    ood_scores = mog.mahalanobis_ood_score(state.gm, state.ood)
    seconds = time.perf_counter() - start
    _repeats(state, "mahalanobis", checks, metrics.evaluate(id_scores, ood_scores).auroc)
    return len(state.heldout) + len(state.ood), seconds


def phase_knn(state: State, checks: Checks):
    queries, train, k = state.knn_queries, state.fs.features, state.spec.k
    start = time.perf_counter()
    dist = detectors.score_knn(train, queries, k)
    seconds = time.perf_counter() - start
    brute = []
    for q in queries[:BRUTE_ROWS]:
        full = np.concatenate([np.linalg.norm(train[s : s + 4096] - q, axis=1)
                               for s in range(0, len(train), 4096)])
        brute.append(np.sort(full)[k - 1])
    checks.record("knn matches a brute-force sort",
                  np.allclose(dist[:BRUTE_ROWS], brute, rtol=1e-9, atol=0.0))
    half = len(queries) // 2
    _repeats(state, "knn", checks, metrics.evaluate(dist[:half], dist[half:]).auroc)
    return len(queries), seconds


PHASE_FNS = {"train": phase_train, "score": phase_score,
             "mahalanobis": phase_mahalanobis, "knn": phase_knn}


def measure(state: State, seconds: float, checks: Checks) -> dict[str, list[float]]:
    """Interleave phase reps until ``seconds`` is spent; returns per-rep rates.

    The next rep goes to the phase furthest below its time share, among those
    still short of their minimum reps if any are; once all minimums are met,
    a rep starts only if its phase's median rep time fits in what is left.
    A phase that raises is recorded as a failure and not run again.
    """
    spec = state.spec
    share = dict(zip(PHASES, spec.shares))
    need = dict(zip(PHASES, spec.min_reps))
    durations: dict[str, list[float]] = {p: [] for p in PHASES}
    rates: dict[str, list[float]] = {p: [] for p in PHASES}
    live = list(PHASES)
    start = time.perf_counter()
    while live:
        left = seconds - (time.perf_counter() - start)
        short = [p for p in live if len(rates[p]) < need[p]]
        pool = short or [p for p in live if statistics.median(durations[p]) <= left]
        if not pool:
            break
        phase = min(pool, key=lambda p: sum(durations[p]) / share[p])
        rep_start = time.perf_counter()
        try:
            units, busy = PHASE_FNS[phase](state, checks)
        except Exception:  # noqa: BLE001 - a raised error is a counted failure
            traceback.print_exc()
            checks.record(f"{phase} raised", False)
            live.remove(phase)
            continue
        checks.record(f"{phase} raised", True)
        durations[phase].append(time.perf_counter() - rep_start)
        rates[phase].append(units / busy)
    return rates


def trace_targets() -> list:
    """(module, name, make_wrapper) for every call the traced run records."""

    def span(name, counter=None):
        return lambda tracer, fn: spans.traced(tracer, name, fn, counter)

    def rows(z) -> int:
        return 1 if np.ndim(z) == 1 else len(z)

    def net_counts(passes):
        # dense-layer FLOPs: 2 per multiply-add, once per forward or backward pass
        return lambda a, k, out: {
            "rows": rows(a[1]),
            "flops": 2 * passes * rows(a[1]) * sum(w.size for w in a[0].weights)}

    row_count = lambda a, k, out: {"rows": rows(a[1])}

    def sample(tracer, fn):
        def with_traced_grad(init, energy_grad, schedule, *args, **kwargs):
            grad = spans.traced(tracer, "trainer.energy_grad", energy_grad)
            return fn(init, grad, schedule, *args, **kwargs)
        return spans.traced(tracer, "sgld.sgld_sample", with_traced_grad,
                            lambda a, k, out: {"chain_steps": len(out) * a[2].steps})

    return [
        (trainer, "mlp_grad_input", span("energy_net.mlp_grad_input", net_counts(2))),
        (trainer, "mlp_grad_params", span("energy_net.mlp_grad_params", net_counts(3))),
        (trainer, "mlp_energy", span("energy_net.mlp_energy", net_counts(1))),
        (detectors, "mlp_energy", span("energy_net.mlp_energy", net_counts(1))),
        (trainer, "gaussian_energy_grad", span("mog.gaussian_energy_grad", row_count)),
        (detectors, "gaussian_energy", span("mog.gaussian_energy", row_count)),
        (mog, "mahalanobis_ood_score", span("mog.mahalanobis_ood_score", row_count)),
        (mog, "fit_mog", span("mog.fit_mog")),
        (mog, "sample_mog", span("mog.sample_mog")),
        (sgld, "sample_mog", span("mog.sample_mog")),
        (trainer, "sgld_init", span("sgld.sgld_init")),
        (trainer, "sgld_sample", sample),
        (trainer, "adam_step", span("trainer.adam_step")),
        (trainer, "train_correction", span("trainer.train_correction")),
        (detectors, "score_correction", span("detectors.score_correction", row_count)),
        (detectors, "score_knn", span("detectors.score_knn", row_count)),
        (metrics, "evaluate", span("metrics.evaluate",
                                   lambda a, k, out: {"rows": out.n_id + out.n_ood})),
        (featurestore, "write_tensor", span("tensorio.write_tensor",
                                            lambda a, k, out: {"bytes": a[1].nbytes})),
        (featurestore, "load_tensor", span("tensorio.load_tensor",
                                           lambda a, k, out: {"bytes": out.nbytes})),
        (featurestore, "load_feature_set", span("featurestore.load_feature_set")),
        (toy, "energy_grid", span("toy.energy_grid", lambda a, k, out: {
            "points": out.values.size, "pointwise_fallback_calls": a[0].single_calls})),
    ]


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Flatten per-layer totals to ``layer.quantity`` names, adding gflops."""
    flat = {}
    for name, totals in spans.layer_totals(tracer).items():
        for key, value in totals.items():
            flat[f"{name}.{key}"] = value
        if "flops" in totals:
            busy = totals["busy_s"]
            flat[f"{name}.gflops"] = totals["flops"] / busy / 1e9 if busy else 0.0
    return flat


@dataclass
class Result:
    metrics: dict
    checks: Checks
    detail: dict


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path, import_s: float = 0.0) -> Result:
    """Set up SETUP_REPS times, then measure; with ``trace``, record spans."""
    spec = (SMOKE if smoke else WORKLOADS)[name]
    checks = Checks()
    tracer = spans.Tracer() if trace else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.instrument(tracer, trace_targets()))
        setup_times = []
        state = None
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up before building the next
            start = time.perf_counter()
            state = set_up(spec, seed, workdir, checks)
            setup_times.append(time.perf_counter() - start)
        cpu_start, wall_start = os.times(), time.perf_counter()
        rates = measure(state, seconds, checks)
        cpu_end, wall = os.times(), time.perf_counter() - wall_start

    missing = [p for p in PHASES if not rates[p]]
    if missing:
        raise RuntimeError(f"no successful rep of {missing}")
    score = state.first["score"]
    out = {
        "setup_s": import_s + statistics.median(setup_times),
        "train_steps_per_s": statistics.median(rates["train"]),
        "score_rows_per_s": statistics.median(rates["score"]),
        "mahalanobis_rows_per_s": statistics.median(rates["mahalanobis"]),
        "knn_rows_per_s": statistics.median(rates["knn"]),
        "auroc": score[1],
        "fpr95": score[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(checks.failed) / checks.attempted,
    }
    detail = {
        "rates": rates,
        "setup_reps_s": setup_times,
        "mahalanobis_auroc": state.first["mahalanobis"],
        "knn_auroc": state.first["knn"],
        "failed_checks": checks.failed,
    }
    if tracer is not None:
        cpu = (cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system)
        out.update(layer_metrics(tracer))
        out["process.cpu_util"] = cpu / wall
        out["trace.train_steps_per_s"] = out["train_steps_per_s"]
        detail["train_breakdown"] = spans.breakdown(tracer, "trainer.train_correction")
        detail["spans"] = tracer.spans
    return Result(out, checks, detail)
