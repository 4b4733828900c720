"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run.
"""

import json
import time
from dataclasses import replace

import numpy as np

from energy_ood.cli import main as cli_main
from energy_ood.detectors import score_correction
from energy_ood.energy_net import (
    EnergyMlp,
    mlp_energy,
    mlp_grad_input,
    mlp_grad_params,
    mlp_init,
)
from energy_ood.featurestore import FeatureSet
from energy_ood.metrics import auroc, fpr_at_tpr
from energy_ood.mog import (
    GaussianMixture,
    fit_mog,
    gaussian_energy,
    gaussian_energy_grad,
    log_density,
)
from energy_ood.sgld import SgldSchedule, sgld_sample
from energy_ood.tensorio import write_tensor
from energy_ood.toy import energy_grid, save_grid_csv
from energy_ood.trainer import CorrectionModel, ebm_defaults, train_correction
from tests_support import CROSS_SPEC, GRID_SPEC, grid_centers_and_corners


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{tail}")
    assert ok, f"criterion {number} failed: {description}{tail}"


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full(a.shape, floor)])


# ----------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        depth = int(rng.integers(1, 5))
        dims = [d] + [int(rng.integers(3, 10)) for _ in range(depth)] + [1]
        net = mlp_init(dims, rng)
        z = rng.standard_normal(d)

        grad_in = mlp_grad_input(net, z)
        fd_in = np.zeros(d)
        for k in range(d):
            step = np.zeros(d)
            step[k] = h
            fd_in[k] = (mlp_energy(net, z + step) - mlp_energy(net, z - step)) / (2 * h)
        worst = max(worst, rel_err(grad_in, fd_in).max())

        batch = rng.standard_normal((3, d))
        upstream = rng.standard_normal(3)
        grads, _ = mlp_grad_params(net, batch, upstream)

        def total(params):
            return float(np.dot(upstream, mlp_energy(EnergyMlp(params), batch)))

        for k, grad_got in enumerate(grads):
            fd = np.zeros_like(grad_got)
            for idx in np.ndindex(*grad_got.shape):
                plus = [a.copy() for a in net.params]
                minus = [a.copy() for a in net.params]
                plus[k][idx] += h
                minus[k][idx] -= h
                fd[idx] = (total(plus) - total(minus)) / (2 * h)
            worst = max(worst, rel_err(grad_got, fd).max())
    elapsed = time.monotonic() - start
    report(1, "input and parameter gradients match central finite differences",
           worst < 1e-4 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------- criterion 2

def test_criterion_2_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst_auroc = 0.0
    fpr_all_equal = True
    for trial in range(50):
        n_id = int(rng.integers(1, 2001))
        n_ood = int(rng.integers(1, 2001))
        if trial % 2 == 0:  # coarse grids force ties
            id_s = rng.integers(0, 30, n_id).astype(float)
            ood_s = rng.integers(5, 35, n_ood).astype(float)
        else:
            id_s = rng.standard_normal(n_id)
            ood_s = rng.standard_normal(n_ood) + 0.5

        pairs_gt = (ood_s[:, None] > id_s[None, :]).sum(dtype=np.int64)
        pairs_eq = (ood_s[:, None] == id_s[None, :]).sum(dtype=np.int64)
        oracle = (pairs_gt + 0.5 * pairs_eq) / (n_id * n_ood)
        worst_auroc = max(worst_auroc, abs(auroc(id_s, ood_s) - oracle))

        candidates = np.concatenate([id_s, ood_s])
        detected = (ood_s[None, :] >= candidates[:, None]).mean(axis=1)
        feasible = candidates[detected >= 0.95]
        gamma_oracle = feasible.max()
        fpr_oracle = float(np.mean(id_s >= gamma_oracle))
        got_fpr, got_gamma = fpr_at_tpr(id_s, ood_s, 0.95)
        fpr_all_equal &= (got_fpr == fpr_oracle and got_gamma == gamma_oracle)
    elapsed = time.monotonic() - start
    report(2, "auroc matches the pairwise oracle and fpr95 the exhaustive sweep",
           worst_auroc <= 1e-12 and fpr_all_equal and elapsed < 10.0,
           f"max auroc err {worst_auroc:.1e}, {elapsed:.1f}s")


# ----------------------------------------------------------- criterion 3

def test_criterion_3_mog_correctness():
    rng = np.random.default_rng(1003)
    feats = rng.standard_normal((400, 2)) * 1.5 + rng.standard_normal(2)
    labels = rng.integers(0, 3, 400)
    fs = FeatureSet(feats, labels, 3)
    gm = fit_mog(fs, shrinkage=0.0, temperature=1.0)

    # brute-force double-loop accumulation
    means = np.zeros((3, 2))
    for c in range(3):
        rows = [feats[i] for i in range(400) if labels[i] == c]
        means[c] = np.mean(rows, axis=0)
    sigma = np.zeros((2, 2))
    for i in range(400):
        diff = feats[i] - means[labels[i]]
        sigma += np.outer(diff, diff)
    sigma /= 400
    fit_ok = (np.abs(gm.means - means).max() < 1e-10
              and np.abs(gm.covariance - sigma).max() < 1e-10
              and np.abs(gm.mixing - np.bincount(labels) / 400).max() < 1e-10)

    # q integrates to 1 over a +-8 sigma box
    sigma_max = np.sqrt(np.linalg.eigvalsh(gm.covariance).max())
    lo = gm.means.min() - 8 * sigma_max
    hi = gm.means.max() + 8 * sigma_max
    xs = np.linspace(lo, hi, 800)
    step = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    mass = np.exp(log_density(gm, np.column_stack([gx.ravel(), gy.ravel()]))).sum()
    mass *= step * step
    quad_ok = abs(mass - 1.0) < 0.01

    # log-sum-exp sandwich on 1e4 random points
    z = rng.standard_normal((10_000, 2)) * 6
    inv = np.linalg.inv(gm.covariance)
    diffs = z[:, None, :] - gm.means[None, :, :]
    q = np.einsum("ncd,de,nce->nc", diffs, inv, diffs)
    qmin = q.min(axis=1)
    e = gaussian_energy(gm, z)
    sandwich_ok = bool((e <= qmin + 1e-9).all()
                       and (e >= qmin - np.log(gm.n_components) - 1e-9).all())

    report(3, "mixture fit matches brute force, density integrates to 1, "
              "energy obeys the log-sum-exp sandwich",
           fit_ok and quad_ok and sandwich_ok,
           f"mass {mass:.4f}")


# ----------------------------------------------------------- criterion 4

def test_criterion_4_sgld_descent():
    rng = np.random.default_rng(1004)
    a = rng.standard_normal((2, 2))
    gm = GaussianMixture.from_moments([[1.0, -2.0]], a @ a.T + 0.3 * np.eye(2),
                                      temperature=1.0)
    lam_max = np.linalg.eigvalsh(gm.precision).max()
    alpha = 0.8 * gm.temperature / (2.0 * lam_max)
    schedule = SgldSchedule(12, (alpha, alpha), (1e-30, 1e-30))
    init = gm.means[0] + rng.standard_normal((64, 2)) * 4

    energies = []

    def energy_grad(z):
        energies.append(float(np.mean(gaussian_energy(gm, z))))
        return gaussian_energy_grad(gm, z)

    sgld_sample(init, energy_grad, schedule, seed=44)
    decreasing = all(b < a_ for a_, b in zip(energies[:10], energies[1:11]))
    report(4, "mean energy strictly decreases for 10 steps below the curvature bound",
           decreasing and len(energies) == 12,
           f"first/last {energies[0]:.3f}/{energies[10]:.3f}")


# ----------------------------------------------------------- criterion 5

def test_criterion_5_mode_coverage(grid_trained, grid_train_fs, tmp_path):
    start = time.monotonic()
    model = grid_trained.model
    centers, corners = grid_centers_and_corners(1.5)
    center_scores = score_correction(model, centers)
    corner_scores = score_correction(model, corners)
    covered = bool(center_scores.max() < corner_scores.min())

    # correction-model energy surface, exported for visual inspection
    reach = 1.5 * GRID_SPEC.extent
    grid = energy_grid(lambda pts: score_correction(model, pts),
                       (-reach, reach, -reach, reach), 121)
    save_grid_csv(tmp_path / "correction_energy_grid.csv", grid)

    # plain-EBM surface exported but not asserted: mode-missing is stochastic
    ebm_cfg = replace(ebm_defaults(toy=True, seed=7), epochs=2, batch_size=128,
                      sgld=SgldSchedule(60, (1e-2, 1e-3), (1e-2, 1e-3)))
    ebm_model, _ = train_correction(grid_train_fs, None, ebm_cfg)
    ebm_grid = energy_grid(
        lambda pts: mlp_energy(ebm_model.net, pts) / ebm_cfg.net_temperature,
        (-reach, reach, -reach, reach), 121)
    save_grid_csv(tmp_path / "ebm_energy_grid.csv", ebm_grid)
    print(f"  energy grids for inspection under {tmp_path}")

    elapsed = grid_trained.seconds + (time.monotonic() - start)
    report(5, "trained correction scores all 9 cross centers below all 4 corners",
           covered and elapsed < 120.0,
           f"max center {center_scores.max():.2f} < min corner {corner_scores.min():.2f}, "
           f"{elapsed:.0f}s")


# ----------------------------------------------------------- criterion 6

def test_criterion_6_toy_detection_power(cross_trained, cross_heldout_fs):
    start = time.monotonic()
    model = cross_trained.model
    rng = np.random.default_rng(1006)
    angles = rng.uniform(0.0, 2.0 * np.pi, 1000)
    radius = 2.0 * CROSS_SPEC.arm_length
    ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])

    id_scores = score_correction(model, cross_heldout_fs.features)
    ood_scores = score_correction(model, ring)
    auc = auroc(id_scores, ood_scores)
    elapsed = cross_trained.seconds + (time.monotonic() - start)
    report(6, "correction model separates held-out cross from the 2x ring",
           auc >= 0.95 and elapsed < 120.0 and id_scores.size == 1000,
           f"auroc {auc:.4f}, {elapsed:.0f}s")


# ----------------------------------------------------------- criterion 7

def test_criterion_7_degenerate_detector_consistency():
    rng = np.random.default_rng(1007)
    means = rng.standard_normal((4, 3))
    a = rng.standard_normal((3, 3))
    gm = GaussianMixture.from_moments(means, a @ a.T + 0.5 * np.eye(3),
                                      temperature=10.0)
    dims = [3, 8, 8, 1]
    zero_net = EnergyMlp(
        [a for i, o in zip(dims[:-1], dims[1:]) for a in (np.zeros((o, i)), np.zeros(o))])
    model = CorrectionModel(zero_net, gm)

    consistent = True
    for _ in range(5):
        id_z = rng.standard_normal((200, 3))
        ood_z = rng.standard_normal((150, 3)) + rng.standard_normal(3)
        a1 = auroc(score_correction(model, id_z), score_correction(model, ood_z))
        a2 = auroc(gaussian_energy(gm, id_z), gaussian_energy(gm, ood_z))
        consistent &= (a1 == a2)
    report(7, "zero-network correction scores give exactly the mixture-energy auroc",
           consistent)


# ----------------------------------------------------------- criterion 8

def test_criterion_8_external_feature_pipeline(tmp_path):
    # Benchmark-scale CIFAR numbers need externally produced classifier
    # features, so only the file pipeline and the table shape are checked here.
    rng = np.random.default_rng(1008)
    d, classes = 16, 5

    def feature_file(path, n, shift):
        write_tensor(path, (rng.standard_normal((n, d)) + shift).astype(np.float32))
        return path

    train_feats = feature_file(tmp_path / "train.f32", 600, 0.0)
    write_tensor(tmp_path / "train.u32",
                 rng.integers(0, classes, 600).astype(np.uint32))

    assert cli_main(["fit-mog", "--features", str(train_feats),
                     "--labels", str(tmp_path / "train.u32"),
                     "--temperature", "1e3", "--normalize",
                     "--out", str(tmp_path / "mog.ftar")]) == 0

    def score_file(feats_path, out):
        code = cli_main(["score", "--detector", "mahalanobis",
                         "--model", str(tmp_path / "mog.ftar"),
                         "--features", str(feats_path), "--normalize",
                         "--out", str(out)])
        assert code == 0
        return out

    id_scores = score_file(feature_file(tmp_path / "id.f32", 400, 0.0),
                           tmp_path / "id.scores")
    ood_args = []
    for group, name, shift in [("near", "setA", 0.5), ("near", "setB", 0.7),
                               ("mid", "setC", 1.5), ("mid", "setD", 2.0),
                               ("far", "setE", 4.0), ("far", "setF", 5.0)]:
        feats = feature_file(tmp_path / f"{name}.f32", 300, shift)
        out = score_file(feats, tmp_path / f"{name}.scores")
        ood_args += ["--ood", f"{group}:{name}={out}"]

    report_path, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
    assert cli_main(["eval", "--id", str(id_scores), *ood_args,
                     "--out", str(report_path), "--csv", str(csv_path)]) == 0

    rep = json.loads(report_path.read_text())
    lines = csv_path.read_text().splitlines()
    scopes = [line.split(",")[0] for line in lines[1:]]
    shape_ok = (lines[0] == "scope,group,name,fpr95,auroc"
                and scopes.count("dataset") == 6
                and scopes.count("group") == 3
                and scopes.count("average") == 1
                and len(rep["datasets"]) == 6
                and all(np.isfinite(r["auroc"]) and np.isfinite(r["fpr95"])
                        for r in rep["datasets"]))
    report(8, "external feature files flow through to a grouped table "
              "(benchmark-number agreement is out of scope at desk scale)",
           bool(shape_ok))
