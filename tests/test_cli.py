import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from energy_ood import cli
from energy_ood.cli import main
from energy_ood.energy_net import mlp_energy, mlp_init
from energy_ood.featurestore import FeatureSet, load_feature_set, normalize_features
from energy_ood.mog import fit_mog, gaussian_energy
from energy_ood.sgld import SgldSchedule
from energy_ood.tensorio import _record_parts, load_tensor, read_archive, write_archive, \
    write_tensor
from energy_ood.toy import ToySpec, gen_toy
from energy_ood.trainer import CorrectionModel, TrainConfig, load_model, save_model


def read_mixture(path):
    """The mixture in the archive at ``path``, read as ``train --mog`` reads it."""
    kind, gm = load_model(path)
    assert kind == "mog"
    return gm


def run(*argv) -> int:
    """Exit code of the CLI, including argparse's exit 2 for a rejected flag value."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def toy_files(tmp_path):
    feats, labels = tmp_path / "train.f32", tmp_path / "train.u32"
    assert run("toy", "--kind", "cross", "--samples-per-class", 200,
               "--seed", 3, "--out-features", feats, "--out-labels", labels) == 0
    return feats, labels


def fast_train_args():
    return ["--preset", "toy", "--epochs", 2, "--batch-size", 64,
            "--hidden-dim", 16, "--num-hidden", 2, "--sgld-steps", 5]


# ---------------------------------------------------------------- toy + fit

def test_toy_writes_loadable_dataset(toy_files):
    fs = load_feature_set(*toy_files)
    assert len(fs) == 400 and fs.num_classes == 2
    # matches the library generator at the same seed
    direct = gen_toy(ToySpec(kind="cross", samples_per_class=200, seed=3))
    np.testing.assert_allclose(fs.features, direct.features.astype(np.float32))


def test_fit_mog_archive_reload_scores(tmp_path, toy_files):
    feats, labels = toy_files
    out = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", out) == 0
    loaded = read_mixture(out)
    direct = fit_mog(load_feature_set(feats, labels), temperature=1.0)
    z = np.random.default_rng(0).standard_normal((100, 2)) * 2
    np.testing.assert_allclose(gaussian_energy(loaded, z), gaussian_energy(direct, z),
                               atol=1e-12)


def test_fit_mog_normalize_flag_equivalence(tmp_path, toy_files):
    feats, labels = toy_files
    out = tmp_path / "mognorm.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--normalize", "--out", out) == 0
    loaded = read_mixture(out)
    direct = fit_mog(normalize_features(load_feature_set(feats, labels)),
                     temperature=1.0)
    z = np.random.default_rng(1).standard_normal((50, 2))
    np.testing.assert_allclose(gaussian_energy(loaded, z), gaussian_energy(direct, z),
                               atol=1e-12)


def test_fit_mog_missing_labels_exits_2(tmp_path, toy_files, capsys):
    feats, _ = toy_files
    missing = tmp_path / "nope.u32"
    assert run("fit-mog", "--features", feats, "--labels", missing,
               "--out", tmp_path / "x.ftar") == 2
    assert str(missing) in capsys.readouterr().err


def test_fit_mog_singular_without_shrinkage_exits_1(tmp_path):
    # collinear data: tied covariance is singular when shrinkage is forced to 0
    feats = tmp_path / "f.f32"
    labels = tmp_path / "l.u32"
    write_tensor(feats, np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=np.float32))
    write_tensor(labels, np.array([0, 0, 1, 1], dtype=np.uint32))
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--shrinkage", 0.0, "--out", tmp_path / "x.ftar") == 1


def test_ill_conditioned_mixture_archive_scores(tmp_path):
    # condition number about 1e14: the archive must load, whatever the round-off
    # of precision @ covariance
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    x = (rng.standard_normal((400, 8)) * np.geomspace(1e-6, 10, 8)) @ basis
    feats, labels, mog = tmp_path / "f.f32", tmp_path / "l.u32", tmp_path / "m.ftar"
    write_tensor(feats, x.astype(np.float32))
    write_tensor(labels, (np.arange(400) % 4).astype(np.uint32))
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--shrinkage", 1e-14, "--out", mog) == 0
    out = tmp_path / "s.scores"
    assert run("score", "--detector", "mahalanobis", "--model", mog,
               "--features", feats, "--out", out) == 0
    assert np.isfinite(load_tensor(out)).all()


def test_fit_mog_num_classes_is_not_an_option(tmp_path, toy_files, capsys):
    # the class count comes from the labels file alone
    feats, labels = toy_files
    out = tmp_path / "m.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels, "--num-classes", 2,
               "--out", out) == 2
    assert "unrecognized arguments: --num-classes 2" in capsys.readouterr().err
    assert not out.exists()


def test_train_activation_is_not_an_option(tmp_path, toy_files, capsys):
    # SiLU is the network's only activation
    feats, labels = toy_files
    out = tmp_path / "m.ftar"
    assert run("train", "--features", feats, "--labels", labels, "--ebm",
               "--activation", "silu", "--out", out, *fast_train_args()) == 2
    assert "unrecognized arguments: --activation silu" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_1(tmp_path, capsys):
    # 7.1 PiB for the first block: beyond the address space, so the allocation
    # fails at once instead of paging anything in
    feats, labels = tmp_path / "f.f32", tmp_path / "l.u32"
    assert run("toy", "--samples-per-class", 10**15,
               "--out-features", feats, "--out-labels", labels) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1
    assert not feats.exists() and not labels.exists()


def test_fit_mog_largest_u32_label_exits_2(tmp_path, capsys):
    # 2**32 classes: counting every one of them would allocate 32 GiB
    feats, labels, out = tmp_path / "f.f32", tmp_path / "l.u32", tmp_path / "m.ftar"
    write_tensor(feats, np.arange(8, dtype=np.float32).reshape(4, 2))
    write_tensor(labels, np.array([0, 0, 1, 2**32 - 1], dtype=np.uint32))
    assert run("fit-mog", "--features", feats, "--labels", labels, "--out", out) == 2
    assert "class 1 has 1 samples; need at least 2 per class" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_tensor_exits_2(tmp_path):
    bad = tmp_path / "bad.f32"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run("fit-mog", "--features", bad, "--labels", bad,
               "--out", tmp_path / "x.ftar") == 2


# ---------------------------------------------------------------- train

def test_every_recipe_field_has_one_train_flag():
    # seed and sgld are set by their own flags; every other TrainConfig field,
    # and every SgldSchedule field, is one train flag of the same name
    assert sorted(cli.TRAIN_FIELDS + ("seed", "sgld")) == sorted(f.name for f in fields(TrainConfig))
    assert sorted(cli.SGLD_FIELDS.values()) == sorted(f.name for f in fields(SgldSchedule))


def test_train_correction_and_flag_conflicts(tmp_path, toy_files):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", mog) == 0
    model = tmp_path / "model.ftar"
    log = tmp_path / "train.jsonl"
    assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
               "--seed", 7, "--out", model, "--log", log, *fast_train_args()) == 0
    assert model.exists()
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(rows) == 2

    # --ebm with --mog is a usage conflict
    assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
               "--ebm", "--seed", 7, "--out", tmp_path / "x.ftar") == 2
    # correction without --mog is a usage error
    assert run("train", "--features", feats, "--labels", labels,
               "--seed", 7, "--out", tmp_path / "x.ftar") == 2


def test_train_deterministic_archives(tmp_path, toy_files):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    run("fit-mog", "--features", feats, "--labels", labels,
        "--temperature", 1.0, "--out", mog)
    a, b = tmp_path / "a.ftar", tmp_path / "b.ftar"
    for out in (a, b):
        assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
                   "--seed", 7, "--out", out, *fast_train_args()) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_ebm(tmp_path, toy_files):
    feats, labels = toy_files
    out = tmp_path / "ebm.ftar"
    assert run("train", "--features", feats, "--labels", labels, "--ebm",
               "--seed", 5, "--out", out, *fast_train_args()) == 0
    assert out.exists()


def test_train_net_temperature_reaches_the_scores(tmp_path, toy_files):
    feats, labels = toy_files
    mog, model = tmp_path / "mog.ftar", tmp_path / "model.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", mog) == 0
    assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
               "--seed", 7, "--net-temperature", 0.5, "--out", model,
               *fast_train_args()) == 0
    out = tmp_path / "s.scores"
    assert run("score", "--detector", "correction", "--model", model,
               "--features", feats, "--out", out) == 0
    _, loaded = load_model(model)
    z = load_tensor(feats).astype(np.float64)
    expected = mlp_energy(loaded.net, z) / 0.5 + gaussian_energy(read_mixture(mog), z)
    np.testing.assert_array_equal(load_tensor(out), expected.astype(np.float32))


def test_train_nonfinite_parameters_exit_1(tmp_path, toy_files, capsys):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", mog) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
                   "--l2-coeff", 1e308, "--out", tmp_path / "x.ftar",
                   *fast_train_args()) == 1
    assert "non-finite parameters" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--mog", "{mog}", "--net-temperature", "nan"],
    ["train", "--mog", "{mog}", "--config", "{cfg}"],
    ["fit-mog", "--temperature", "nan"],
    ["fit-mog", "--shrinkage", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_nonfinite_or_overflowing_numbers_exit_2(tmp_path, toy_files, argv):
    feats, labels = toy_files
    mog, cfg = tmp_path / "mog.ftar", tmp_path / "bad.cfg"
    assert run("fit-mog", "--features", feats, "--labels", labels, "--out", mog) == 0
    cfg.write_text("l2_coeff = nan\n")
    out = tmp_path / "out"
    argv = [a.format(mog=mog, cfg=cfg) for a in argv]
    assert run(*argv, "--features", feats, "--labels", labels, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--arm-length", "--thickness", "--pitch"])
def test_toy_geometry_flags_are_unrecognized(tmp_path, capsys, flag):
    # the toy geometry is fixed, so toy has no flag for it
    feats = tmp_path / "x.f32"
    assert run("toy", flag, 1.0, "--out-features", feats, "--out-labels", tmp_path / "y.u32") == 2
    assert f"unrecognized arguments: {flag} 1.0" in capsys.readouterr().err
    assert not feats.exists()


# ---------------------------------------------------------------- score + eval

@pytest.fixture()
def scored(tmp_path, toy_files):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    run("fit-mog", "--features", feats, "--labels", labels,
        "--temperature", 1.0, "--out", mog)
    model = tmp_path / "model.ftar"
    run("train", "--features", feats, "--labels", labels, "--mog", mog,
        "--seed", 7, "--out", model, *fast_train_args())

    id_feats = tmp_path / "id.f32"
    ood_feats = tmp_path / "ood.f32"
    rng = np.random.default_rng(9)
    held = gen_toy(ToySpec(kind="cross", samples_per_class=100, seed=77))
    write_tensor(id_feats, held.features.astype(np.float32))
    write_tensor(ood_feats, rng.uniform(-8, 8, (200, 2)).astype(np.float32))

    id_scores, ood_scores = tmp_path / "id.scores", tmp_path / "ood.scores"
    assert run("score", "--detector", "correction", "--model", model,
               "--features", id_feats, "--out", id_scores) == 0
    assert run("score", "--detector", "correction", "--model", model,
               "--features", ood_feats, "--out", ood_scores) == 0
    return id_scores, ood_scores, model, id_feats


def test_score_outputs_and_manifest(scored):
    id_scores, _, model, id_feats = scored
    arr = load_tensor(id_scores)
    assert arr.dtype == np.float32 and arr.shape == (200,)
    manifest = json.loads((id_scores.parent / (id_scores.name + ".manifest.json")).read_text())
    assert manifest["config"]["detector"] == "correction"
    assert {"k", "temperature", "normalize"} <= set(manifest["config"])
    assert set(manifest["inputs"]) == {str(id_feats), str(model)}
    assert manifest["artifacts"] == [str(id_scores)]
    assert not (id_scores.parent / (id_scores.name + ".json")).exists()


def test_score_gaussian_energy_detector(tmp_path, toy_files):
    feats, labels = toy_files
    mog, out = tmp_path / "mog.ftar", tmp_path / "ge.scores"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", mog) == 0
    assert run("score", "--detector", "gaussian-energy", "--model", mog,
               "--features", feats, "--out", out) == 0
    expected = gaussian_energy(read_mixture(mog), load_tensor(feats).astype(np.float64))
    np.testing.assert_array_equal(load_tensor(out), expected.astype(np.float32))


def test_score_knn_and_range_error(tmp_path, toy_files):
    feats, _ = toy_files
    out = tmp_path / "knn.scores"
    assert run("score", "--detector", "knn", "--train-features", feats,
               "--features", feats, "--k", 5, "--out", out) == 0
    assert load_tensor(out).shape == (400,)
    assert run("score", "--detector", "knn", "--train-features", feats,
               "--features", feats, "--k", 100000, "--out", out) == 2


@pytest.mark.parametrize("k", [0, -1, 1000, 2.5, "true"])
def test_score_knn_bad_k_exits_2(tmp_path, toy_files, k):
    feats, _ = toy_files
    out = tmp_path / "knn.scores"
    assert run("score", "--detector", "knn", "--train-features", feats,
               "--features", feats, "--k", k, "--out", out) == 2
    assert not out.exists()

@pytest.mark.parametrize("dtype", [np.uint32, np.float64])
def test_score_train_features_must_be_rank2_f32(tmp_path, toy_files, dtype, capsys):
    feats, _ = toy_files
    train, out = tmp_path / "train.bad", tmp_path / "knn.scores"
    write_tensor(train, load_tensor(feats).astype(dtype))
    assert run("score", "--detector", "knn", "--train-features", train,
               "--features", feats, "--k", 5, "--out", out) == 2
    assert "rank-2 f32" in capsys.readouterr().err
    assert not out.exists()


def test_score_beyond_float32_exits_1(tmp_path, capsys):
    # an output bias of 1e300 gives finite f64 scores that float32 cannot hold
    model, _, feats = _tiny_models(tmp_path)
    entries = read_archive(model)
    entries["net.b1"] = np.array([1e300])
    write_archive(model, entries)
    out = tmp_path / "s.scores"
    assert run("score", "--detector", "correction", "--model", model,
               "--features", feats, "--out", out) == 1
    assert "row 0" in capsys.readouterr().err
    assert not out.exists()


def test_score_logit_detectors(tmp_path):
    logits = tmp_path / "logits.f32"
    write_tensor(logits, np.random.default_rng(3).standard_normal((50, 10)).astype(np.float32))
    for det, temperature in (("msp", 1.0), ("odin", 2.0), ("energy-logits", 2.0)):
        out = tmp_path / f"{det}.scores"
        assert run("score", "--detector", det, "--logits", logits,
                   "--temperature", temperature, "--out", out) == 0
        assert np.isfinite(load_tensor(out)).all()
    # logit detector without --logits
    assert run("score", "--detector", "msp", "--features", logits,
               "--out", tmp_path / "x") == 2


def test_msp_at_a_temperature_exits_2(tmp_path, capsys):
    # msp scores at temperature 1; odin is the detector that takes --temperature
    logits, out = tmp_path / "logits.f32", tmp_path / "msp.scores"
    write_tensor(logits, np.random.default_rng(3).standard_normal((5, 10)).astype(np.float32))
    assert run("score", "--detector", "msp", "--logits", logits,
               "--temperature", 5, "--out", out) == 2
    assert capsys.readouterr().err == "error: detector msp does not take --temperature\n"
    assert not out.exists()


def test_logit_scores_at_overflowing_temperature_exit_1(tmp_path, capsys):
    # logits / 1e-320 overflow: exit 1 with a plain message and no NumPy warning
    logits = tmp_path / "logits.f32"
    write_tensor(logits, np.random.default_rng(3).standard_normal((5, 10)).astype(np.float32))
    for det in ("odin", "energy-logits"):
        out = tmp_path / f"{det}.scores"
        assert run("score", "--detector", det, "--logits", logits,
                   "--temperature", 1e-320, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: score nan of row 0 does not fit a float32 score file\n"
        assert not out.exists()


def test_eval_report_and_csv(tmp_path, scored):
    id_scores, ood_scores, _, _ = scored
    report_path, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
    assert run("eval", "--id", id_scores,
               "--ood", f"near:uniform={ood_scores}",
               "--ood", f"mid:uniform2={ood_scores}",
               "--ood", f"far:uniform3={ood_scores}",
               "--ood", f'near:a,"q"={ood_scores}',
               "--out", report_path, "--csv", csv_path) == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert len(report["datasets"]) == 4
    assert {g["group"] for g in report["groups"]} == {"near", "mid", "far"}
    assert 0.0 <= report["average"]["auroc"] <= 1.0

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scope,group,name,fpr95,auroc"
    rows = list(csv.reader(lines))
    assert all(len(row) == 5 for row in rows)
    scopes = [row[0] for row in rows[1:]]
    assert scopes.count("dataset") == 4 and scopes.count("group") == 3
    assert scopes.count("average") == 1
    # a name with a comma and quotes reads back as it was given
    assert [row[2] for row in rows[1:5]] == ["uniform", "uniform2", "uniform3", 'a,"q"']


def test_eval_disjoint_scores_auroc_one(tmp_path):
    id_s, ood_s = tmp_path / "id.scores", tmp_path / "ood.scores"
    write_tensor(id_s, np.zeros(50, dtype=np.float32))
    write_tensor(ood_s, np.ones(50, dtype=np.float32))
    report_path = tmp_path / "r.json"
    assert run("eval", "--id", id_s, "--ood", f"far:ones={ood_s}",
               "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["datasets"][0]["auroc"] == 1.0
    assert report["datasets"][0]["fpr95"] == 0.0
    assert report["tpr"] == 0.95


def test_eval_tpr_flag_exits_2(tmp_path):
    # fpr95 is FPR at 95% TPR; there is no flag to report another rate under that name
    id_s, ood_s = tmp_path / "id.scores", tmp_path / "ood.scores"
    write_tensor(id_s, np.zeros(50, dtype=np.float32))
    write_tensor(ood_s, np.ones(50, dtype=np.float32))
    report_path = tmp_path / "r.json"
    assert run("eval", "--id", id_s, "--ood", f"far:ones={ood_s}", "--tpr", 0.9,
               "--out", report_path) == 2
    assert not report_path.exists()


def test_eval_ood_from_config_file(tmp_path):
    id_s, ood_s = tmp_path / "id.scores", tmp_path / "ood.scores"
    write_tensor(id_s, np.zeros(50, dtype=np.float32))
    write_tensor(ood_s, np.ones(50, dtype=np.float32))
    cfg_file = tmp_path / "eval.cfg"
    cfg_file.write_text(f"ood = far:ones={ood_s} near:ones2={ood_s}\n")
    report_path = tmp_path / "r.json"
    assert run("eval", "--config", cfg_file, "--id", id_s,
               "--ood", f"mid:ones3={ood_s}", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert [d["name"] for d in report["datasets"]] == ["ones", "ones2", "ones3"]


def test_eval_ood_takes_several_values(tmp_path):
    id_s, ood_s = tmp_path / "id.scores", tmp_path / "ood.scores"
    write_tensor(id_s, np.zeros(50, dtype=np.float32))
    write_tensor(ood_s, np.ones(50, dtype=np.float32))
    report_path = tmp_path / "r.json"
    assert run("eval", "--id", id_s, "--ood", f"a={ood_s}", f"b={ood_s}",
               "--ood", f"c={ood_s}", "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert [d["name"] for d in report["datasets"]] == ["a", "b", "c"]


def test_eval_bad_ood_spec(tmp_path):
    id_s, ood_s = tmp_path / "id.scores", tmp_path / "ood.scores"
    write_tensor(id_s, np.zeros(5, dtype=np.float32))
    write_tensor(ood_s, np.ones(5, dtype=np.float32))
    # no '=', and an empty dataset name with and without a group
    for spec in ("justapath", f"far:={ood_s}", f"={ood_s}"):
        assert run("eval", "--id", id_s, "--ood", spec, "--out", tmp_path / "r.json") == 2, spec
        assert not (tmp_path / "r.json").exists()


# every float input slot of the CLI; the file of the slot holds the non-finite entry
NONFINITE_SLOTS = {
    "id": ["eval", "--id", "{id}", "--ood", "far:x={ood}"],
    "ood": ["eval", "--id", "{id}", "--ood", "far:x={ood}"],
    "features": ["score", "--detector", "mahalanobis", "--model", "{mog}",
                 "--features", "{features}"],
    "train-features": ["score", "--detector", "knn", "--k", 2,
                       "--train-features", "{train-features}", "--features", "{good}"],
    "logits": ["score", "--detector", "msp", "--logits", "{logits}"],
    "fit-mog": ["fit-mog", "--features", "{fit-mog}", "--labels", "{labels}"],
    "train": ["train", "--ebm", "--features", "{train}", "--labels", "{labels}",
              *fast_train_args()],
}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("which", list(NONFINITE_SLOTS))
def test_eval_nonfinite_scores_exit_2(tmp_path, capsys, which, bad):
    # an input error naming the file and row, before any output is written; for
    # eval, a report threshold of inf would be written as Infinity, which is not JSON
    x = np.random.default_rng(0).standard_normal((20, 2))
    y = np.arange(20) % 2
    files = {"good": tmp_path / "good.f32", "labels": tmp_path / "labels.u32",
             "mog": tmp_path / "mog.ftar"}
    write_tensor(files["good"], x.astype(np.float32))
    write_tensor(files["labels"], y.astype(np.uint32))
    save_model(files["mog"], fit_mog(FeatureSet(x, y, 2)))
    scores = {"id": np.zeros(5, dtype=np.float32), "ood": np.ones(5, dtype=np.float32)}
    for name, data in scores.items():
        files[name] = tmp_path / f"{name}.scores"
        write_tensor(files[name], data)
    if which not in scores:
        files[which] = tmp_path / f"{which}.f32"
    data = scores.get(which, x.astype(np.float32))
    data.reshape(len(data), -1)[3, -1] = bad
    write_tensor(files[which], data)
    out = tmp_path / "out"
    argv = [str(a).format(**files) for a in NONFINITE_SLOTS[which]]
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{files[which].name}: row 3" in err
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


# ---------------------------------------------------------------- grid

def test_grid_from_archives(tmp_path, scored):
    _, _, model, _ = scored
    out_csv, out_tensor = tmp_path / "grid.csv", tmp_path / "grid.ftsr"
    assert run("grid", "--model", model, "--bounds", -8, 8, -8, 8,
               "--resolution", 21, "--out-csv", out_csv,
               "--out-tensor", out_tensor) == 0
    values = load_tensor(out_tensor)
    assert values.shape == (21, 21) and np.isfinite(values).all()
    assert len(out_csv.read_text().splitlines()) == 1 + 21 * 21


def test_grid_tensor_beyond_float32_exits_1(tmp_path, capsys):
    # as for score: a finite f64 value beyond float32 is not written as inf
    model, _, _ = _tiny_models(tmp_path)
    entries = read_archive(model)
    entries["net.b1"] = np.array([1e300])
    write_archive(model, entries)
    out_csv, out_tensor = tmp_path / "grid.csv", tmp_path / "grid.ftsr"
    assert run("grid", "--model", model, "--bounds", -3, 3, -3, 3, "--resolution", 4,
               "--out-csv", out_csv, "--out-tensor", out_tensor) == 1
    assert "row 0" in capsys.readouterr().err
    assert not out_tensor.exists() and not out_csv.exists()


def test_grid_nonfinite_score_exits_1(tmp_path, capsys):
    # an output layer of 1e308 overflows to an energy of inf at every point
    model, _, _ = _tiny_models(tmp_path)
    entries = read_archive(model)
    entries["net.w1"] = np.full_like(entries["net.w1"], 1e308)
    entries["net.b1"] = np.array([1e308])
    write_archive(model, entries)
    out_csv = tmp_path / "grid.csv"
    assert run("grid", "--model", model, "--bounds", -3, 3, -3, 3, "--resolution", 4,
               "--out-csv", out_csv) == 1
    assert "non-finite score inf at grid point (-3.0, -3.0)" in capsys.readouterr().err
    assert not out_csv.exists()


def test_grid_bounds_whose_span_overflows_exit_2(tmp_path, capsys):
    # ordered finite bounds 2.7e308 apart; "-1e308" would read as an option
    _, mog, _ = _tiny_models(tmp_path)
    out_csv = tmp_path / "grid.csv"
    assert run("grid", "--model", mog, "--bounds", "-1" + "0" * 308, 1.7e308, -1, 1,
               "--out-csv", out_csv) == 2
    assert capsys.readouterr().err == "error: grid bounds must span a finite width\n"
    assert not out_csv.exists()


def test_grid_gaussian_energy_detector(tmp_path, toy_files):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    run("fit-mog", "--features", feats, "--labels", labels,
        "--temperature", 1.0, "--out", mog)
    out_csv = tmp_path / "grid.csv"
    assert run("grid", "--model", mog, "--detector", "gaussian-energy",
               "--bounds", -4, 4, -4, 4, "--resolution", 11,
               "--out-csv", out_csv) == 0
    assert out_csv.exists()
    # the lattice is one batch; there is no thread option
    assert run("grid", "--model", mog, "--bounds", -4, 4, -4, 4,
               "--out-csv", tmp_path / "t.csv", "--threads", 2) == 2
    # auto-detection falls back to the mixture energy for a mixture archive
    auto_csv = tmp_path / "auto.csv"
    assert run("grid", "--model", mog, "--bounds", -4, 4, -4, 4,
               "--resolution", 11, "--out-csv", auto_csv) == 0
    assert auto_csv.read_text() == out_csv.read_text()
    # a mixture archive is not a correction model
    assert run("score", "--detector", "correction", "--model", mog,
               "--features", feats, "--out", tmp_path / "x.scores") == 2


# ---------------------------------------------------------------- manifests + config

def test_manifest_written_and_replayable(tmp_path, toy_files):
    feats, labels = toy_files
    out = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", out) == 0
    manifest = json.loads((tmp_path / "mog.ftar.manifest.json").read_text())
    assert manifest["command"] == "fit-mog"
    assert str(feats) in manifest["inputs"]
    assert len(manifest["inputs"][str(feats)]) == 64  # sha256 hex
    first_bytes = out.read_bytes()

    # replay from the manifest's resolved config alone
    cfg = manifest["config"]
    out2 = tmp_path / "replay.ftar"
    argv = ["fit-mog", "--features", cfg["features"], "--labels", cfg["labels"],
            "--temperature", cfg["temperature"], "--out", out2]
    if cfg["shrinkage"] is not None:
        argv += ["--shrinkage", cfg["shrinkage"]]
    if cfg["normalize"]:
        argv += ["--normalize"]
    assert run(*argv) == 0
    assert out2.read_bytes() == first_bytes


def test_every_manifest_records_its_environment(tmp_path, monkeypatch):
    feats, labels = tmp_path / "f.f32", tmp_path / "l.u32"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    mog, model, scores = tmp_path / "mog.ftar", tmp_path / "m.ftar", tmp_path / "s.f32"
    log, report, table = tmp_path / "train.jsonl", tmp_path / "r.json", tmp_path / "r.csv"
    grid_csv, grid_tensor = tmp_path / "g.csv", tmp_path / "g.ftsr"
    # out: argv, the inputs the manifest hashes and the artifacts it lists, in order
    runs = {
        feats: (["toy", "--samples-per-class", 20, "--out-features", feats,
                 "--out-labels", labels], [], [feats, labels]),
        mog: (["fit-mog", "--features", feats, "--labels", labels, "--out", mog],
              [feats, labels], [mog]),
        model: (["train", "--ebm", "--features", feats, "--labels", labels,
                 *fast_train_args(), "--log", log, "--out", model],
                [feats, labels], [model, log]),
        scores: (["score", "--detector", "knn", "--k", 3, "--train-features", feats,
                  "--features", feats, "--out", scores], [feats], [scores]),
        report: (["eval", "--id", scores, "--ood", f"far:x={scores}", "--csv", table,
                  "--out", report], [scores], [report, table]),
        grid_csv: (["grid", "--model", mog, "--detector", "gaussian-energy",
                    "--bounds", -1, 1, -1, 1, "--resolution", 3, "--out-csv", grid_csv,
                    "--out-tensor", grid_tensor], [mog], [grid_csv, grid_tensor]),
    }
    for out, (argv, inputs, artifacts) in runs.items():
        assert run(*argv) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert list(manifest["inputs"]) == [str(p) for p in inputs]
        assert manifest["artifacts"] == [str(p) for p in artifacts]
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "threads", "nproc", "elapsed_s"}
        assert env["numpy"] == np.__version__ and env["blas"]
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                  "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                                  "MKL_NUM_THREADS": None}
        assert env["nproc"] >= 1
        assert env["elapsed_s"] == manifest["finished"] - manifest["started"] >= 0


def test_manifest_hashes_inputs_as_read(tmp_path, toy_files, monkeypatch):
    # a command that changes an input after reading it: the manifest holds the
    # hash of the bytes it read
    feats, labels = toy_files
    read_hash = hashlib.sha256(feats.read_bytes()).hexdigest()

    def fit_then_touch(*args, **kwargs):
        gm = fit_mog(*args, **kwargs)
        with open(feats, "ab") as fh:
            fh.write(b"later")
        return gm

    monkeypatch.setattr(cli, "fit_mog", fit_then_touch)
    out = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels, "--out", out) == 0
    manifest = json.loads((tmp_path / "mog.ftar.manifest.json").read_text())
    assert manifest["inputs"][str(feats)] == read_hash


@pytest.mark.parametrize("argv", [
    ["toy", "--samples-per-class", 10, "--out-features", "a.bin", "--out-labels", "a.bin"],
    ["eval", "--id", "id.f32", "--ood", "x=ood.f32", "--out", "r.json", "--csv", "r.json"],
    ["fit-mog", "--features", "train.f32", "--labels", "train.u32", "--out", "train.u32"],
    ["train", "--ebm", "--features", "train.f32", "--labels", "train.u32",
     *fast_train_args(), "--log", "m.ftar", "--out", "m.ftar"],
], ids=["toy", "eval", "fit-mog", "train"])
def test_colliding_output_paths_exit_2(tmp_path, toy_files, monkeypatch, capsys, argv):
    # one file named twice would be overwritten by the other output, or read
    # and then overwritten; nothing is read or written
    monkeypatch.chdir(tmp_path)
    write_tensor(tmp_path / "id.f32", np.zeros(5, dtype=np.float32))
    write_tensor(tmp_path / "ood.f32", np.ones(5, dtype=np.float32))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(*argv) == 2
    assert "is the same file as" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_hard_linked_output_exits_2(tmp_path, toy_files, capsys):
    # a second name for the features file resolves to another path, but it is
    # the same file, which writing the mixture would replace
    feats, labels = toy_files
    alias = tmp_path / "alias.f32"
    os.link(feats, alias)
    before = feats.read_bytes()
    assert run("fit-mog", "--features", feats, "--labels", labels, "--out", alias) == 2
    assert capsys.readouterr().err == \
        f"error: --out {alias} is the same file as --features {feats}\n"
    assert feats.read_bytes() == before
    assert not (tmp_path / "alias.f32.manifest.json").exists()


def test_config_file_with_flag_override(tmp_path, toy_files):
    feats, labels = toy_files
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("temperature = 2.0\nnormalize = true\n# comment\n")
    out = tmp_path / "m1.ftar"
    assert run("fit-mog", "--config", cfg_file, "--features", feats,
               "--labels", labels, "--out", out) == 0
    assert read_mixture(out).temperature == 2.0

    out2 = tmp_path / "m2.ftar"
    assert run("fit-mog", "--config", cfg_file, "--features", feats,
               "--labels", labels, "--temperature", 5.0, "--out", out2) == 0
    assert read_mixture(out2).temperature == 5.0


def test_train_manifest_replays_to_identical_archive(tmp_path, toy_files):
    feats, labels = toy_files
    mog = tmp_path / "mog.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temperature", 1.0, "--out", mog) == 0
    out = tmp_path / "model.ftar"
    assert run("train", "--features", feats, "--labels", labels, "--mog", mog,
               "--seed", 7, "--out", out, *fast_train_args()) == 0
    cfg = json.loads((tmp_path / "model.ftar.manifest.json").read_text())["config"]
    assert cfg["learning_rate"] == 1e-4  # resolved from the toy preset, not a flag

    def as_text(value):
        if isinstance(value, list):
            return " ".join(map(str, value))
        return str(value).lower() if isinstance(value, bool) else str(value)

    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text("".join(f"{k} = {as_text(v)}\n" for k, v in cfg.items()
                                if v is not None))
    replay = tmp_path / "replay.ftar"
    assert run("train", "--config", cfg_file, "--out", replay) == 0
    assert replay.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("line", ["temprature = 2.0", "seed = 3", "config = other.cfg"])
def test_config_file_unknown_key_exits_2(tmp_path, toy_files, capsys, line):
    feats, labels = toy_files
    cfg_file = tmp_path / "typo.cfg"
    cfg_file.write_text(line + "\n")
    assert run("fit-mog", "--config", cfg_file, "--features", feats,
               "--labels", labels, "--out", tmp_path / "m.ftar") == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "m.ftar").exists()


@pytest.mark.parametrize("value", ["ture", "yes", "1", ""])
def test_config_switch_takes_only_true_or_false(tmp_path, toy_files, value):
    feats, labels = toy_files
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "m.ftar"
    cfg_file.write_text(f"normalize = {value}\n")
    assert run("fit-mog", "--config", cfg_file, "--features", feats,
               "--labels", labels, "--out", out) == 2
    assert not out.exists()


def test_abbreviated_flag_exits_2(tmp_path, toy_files):
    feats, labels = toy_files
    out = tmp_path / "m.ftar"
    assert run("fit-mog", "--features", feats, "--labels", labels,
               "--temp", 2, "--out", out) == 2
    assert not out.exists()


def test_config_quoted_path_with_space(tmp_path, toy_files):
    feats, labels = toy_files
    spaced = tmp_path / "my features"
    spaced.mkdir()
    feats2, labels2 = spaced / feats.name, spaced / labels.name
    feats2.write_bytes(feats.read_bytes())
    labels2.write_bytes(labels.read_bytes())
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "m.ftar"
    cfg_file.write_text(f'features = "{feats2}"\nlabels = \'{labels2}\'  # quoted\n')
    assert run("fit-mog", "--config", cfg_file, "--out", out) == 0
    cfg = json.loads((tmp_path / "m.ftar.manifest.json").read_text())["config"]
    assert (cfg["features"], cfg["labels"]) == (str(feats2), str(labels2))


# ---------------------------------------------------------------- malformed archives

def _tiny_models(directory):
    """A toy correction archive and its mixture archive, plus query features."""
    fs = gen_toy(ToySpec(kind="cross", samples_per_class=50, seed=1))
    gm = fit_mog(fs, temperature=1.0)
    model = CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0)), gm)
    save_model(directory / "model.ftar", model)
    save_model(directory / "mog.ftar", gm)
    write_tensor(directory / "z.f32", fs.features[::20].astype(np.float32))
    return directory / "model.ftar", directory / "mog.ftar", directory / "z.f32"


def _set_activation_9(entries):
    entries["net.activation"] = np.array([9], dtype=np.uint32)


def _set_activation_2(entries):
    # once tanh's code; SiLU is the only activation
    entries["net.activation"] = np.array([2], dtype=np.uint32)


def _drop_first_bias(entries):
    del entries["net.b0"]


def _transpose_cholesky(entries):
    entries["mog.chol_lower"] = np.ascontiguousarray(entries["mog.chol_lower"].T)


@pytest.mark.parametrize("corrupt", [_set_activation_9, _set_activation_2, _drop_first_bias,
                                     _transpose_cholesky])
def test_malformed_model_archive_exits_2(tmp_path, capsys, corrupt):
    model, _, feats = _tiny_models(tmp_path)
    entries = read_archive(model)
    corrupt(entries)
    write_archive(model, entries)
    assert run("score", "--detector", "correction", "--model", model,
               "--features", feats, "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err.startswith("error:")


def test_archive_with_a_repeated_entry_exits_2(tmp_path, capsys):
    # write_archive takes a dict, so a second ``temperature`` entry is
    # appended to the mixture archive by hand and its entry count raised
    _, mixture, feats = _tiny_models(tmp_path)
    blob = bytearray(mixture.read_bytes())
    struct.pack_into("<H", blob, 5, struct.unpack_from("<H", blob, 5)[0] + 1)
    blob += struct.pack("<H", 11) + b"temperature" + b"".join(_record_parts(np.array([2.0])))
    mixture.write_bytes(bytes(blob))
    assert run("score", "--detector", "mahalanobis", "--model", mixture,
               "--features", feats, "--out", tmp_path / "s.scores") == 2
    assert "'temperature' appears twice" in capsys.readouterr().err


def test_archive_with_a_non_utf8_name_exits_2(tmp_path, capsys):
    # an entry named b"\xff\xfe" appended to the mixture archive by hand
    _, mixture, feats = _tiny_models(tmp_path)
    blob = bytearray(mixture.read_bytes())
    struct.pack_into("<H", blob, 5, struct.unpack_from("<H", blob, 5)[0] + 1)
    name_at = len(blob) + 2
    blob += struct.pack("<H", 2) + b"\xff\xfe" + b"".join(_record_parts(np.array([2.0])))
    mixture.write_bytes(bytes(blob))
    assert run("score", "--detector", "mahalanobis", "--model", mixture,
               "--features", feats, "--out", tmp_path / "s.scores") == 2
    assert f"entry name is not UTF-8 (byte offset {name_at})" in capsys.readouterr().err
    assert not (tmp_path / "s.scores").exists()


# one command per input flag, reading ``{bad}`` through that flag and good files
# through the others
BAD_MAGIC_COMMANDS = {
    "--features": ["fit-mog", "--features", "{bad}", "--labels", "{labels}"],
    "--labels": ["fit-mog", "--features", "{feats}", "--labels", "{bad}"],
    "--logits": ["score", "--detector", "odin", "--logits", "{bad}"],
    "--train-features": ["score", "--detector", "knn", "--k", 1, "--features", "{feats}",
                         "--train-features", "{bad}"],
    "--id": ["eval", "--id", "{bad}", "--ood", "a={scores}"],
    "--ood": ["eval", "--id", "{scores}", "--ood", "a={bad}"],
    "--mog": ["train", "--features", "{feats}", "--labels", "{labels}", "--mog", "{bad}",
              *fast_train_args()],
    "--model": ["score", "--detector", "mahalanobis", "--features", "{feats}",
                "--model", "{bad}"],
}


@pytest.mark.parametrize("flag", list(BAD_MAGIC_COMMANDS))
def test_bad_magic_error_names_the_file(tmp_path, capsys, flag):
    _, _, feats = _tiny_models(tmp_path)
    paths = {"feats": feats, "labels": tmp_path / "l.u32", "scores": tmp_path / "s.f32",
             "bad": tmp_path / "bad.bin"}
    write_tensor(paths["labels"], np.array([0, 1, 0, 1, 0], dtype=np.uint32))
    write_tensor(paths["scores"], np.arange(5, dtype=np.float32))
    paths["bad"].write_bytes(b"NOPE" + bytes(16))
    argv = [str(a).format(**paths) for a in BAD_MAGIC_COMMANDS[flag]]
    assert run(*argv, "--out", tmp_path / "out") == 2
    magic = b"FTAR" if flag in ("--mog", "--model") else b"FTSR"
    assert capsys.readouterr().err == \
        f"error: {paths['bad']}: expected magic {magic!r} (byte offset 0)\n"


def test_mixture_for_a_model_names_the_file(tmp_path, toy_files, capsys):
    # --mog reads archives as score and grid do, and names the kind it found
    correction, _, _ = _tiny_models(tmp_path)
    ebm = tmp_path / "ebm.ftar"
    save_model(ebm, CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0))))
    feats, labels = toy_files
    for holds, model in [("holds a correction", correction), ("holds an ebm", ebm)]:
        out = tmp_path / f"m-{model.stem}.ftar"
        assert run("train", "--features", feats, "--labels", labels, "--mog", model,
                   "--out", out, *fast_train_args()) == 2
        assert capsys.readouterr().err == f"error: --mog {model} {holds} model, not a mixture\n"
        assert not out.exists()
        assert run("score", "--detector", "mahalanobis", "--model", model,
                   "--features", feats, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: {model} {holds} model, which detector mahalanobis cannot score\n"
        assert not out.exists()


def test_score_checks_the_model_before_reading_the_features(tmp_path, capsys):
    _, mixture, _ = _tiny_models(tmp_path)
    ebm, bad = tmp_path / "ebm.ftar", tmp_path / "bad.f32"
    save_model(ebm, CorrectionModel(mlp_init([2, 4, 1], np.random.default_rng(0))))
    bad.write_bytes(b"NOPE" + bytes(16))
    assert run("score", "--detector", "mahalanobis", "--model", ebm, "--features", bad,
               "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err == \
        f"error: {ebm} holds an ebm model, which detector mahalanobis cannot score\n"
    # a model of the right kind gets to the features file
    assert run("score", "--detector", "mahalanobis", "--model", mixture, "--features", bad,
               "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err == f"error: {bad}: expected magic b'FTSR' (byte offset 0)\n"


def test_train_checks_its_configuration_and_mixture_before_reading_the_features(
        tmp_path, toy_files, capsys):
    correction, mixture, _ = _tiny_models(tmp_path)
    bad, out = tmp_path / "bad.f32", tmp_path / "m.ftar"
    bad.write_bytes(b"NOPE" + bytes(16))
    labels = toy_files[1]
    assert run("train", "--features", bad, "--labels", labels, "--mog", correction,
               "--out", out) == 2
    assert capsys.readouterr().err == \
        f"error: --mog {correction} holds a correction model, not a mixture\n"
    assert run("train", "--features", bad, "--labels", labels, "--mog", mixture,
               "--batch-size", 0, "--out", out) == 2
    assert capsys.readouterr().err == "error: batch_size must be at least 1\n"
    assert not out.exists()


# score arguments that leave out an input the detector needs, one case or more
# per detector, and the error; the rows file a case does give is malformed, so
# a file read before the check would show up as its format error
MISSING_SCORE_INPUTS = {
    "model": (["--detector", "correction", "--features", "{bad}"],
              "detector correction needs --model"),
    "ebm-model": (["--detector", "ebm", "--features", "{bad}"],
                  "detector ebm needs --model"),
    "gaussian-energy-model": (["--detector", "gaussian-energy", "--features", "{bad}"],
                              "detector gaussian-energy needs --model"),
    "features": (["--detector", "mahalanobis", "--model", "{mog}", "--logits", "{bad}"],
                 "detector mahalanobis needs --features"),
    "knn-train-features": (["--detector", "knn", "--k", 1, "--features", "{bad}"],
                           "detector knn needs --train-features"),
    "knn-k": (["--detector", "knn", "--train-features", "{feats}", "--features", "{bad}"],
              "detector knn needs --k"),
    "msp-logits": (["--detector", "msp", "--features", "{bad}"],
                   "detector msp needs --logits"),
    "odin-logits": (["--detector", "odin", "--temperature", 2, "--features", "{bad}"],
                    "detector odin needs --logits"),
    "energy-logits-logits": (["--detector", "energy-logits", "--features", "{bad}"],
                             "detector energy-logits needs --logits"),
}


@pytest.mark.parametrize("case", list(MISSING_SCORE_INPUTS))
def test_score_without_a_needed_input_exits_2(tmp_path, capsys, case):
    _, mixture, feats = _tiny_models(tmp_path)
    bad = tmp_path / "bad.f32"
    bad.write_bytes(b"NOPE" + bytes(16))
    argv, message = MISSING_SCORE_INPUTS[case]
    argv = [str(a).format(feats=feats, mog=mixture, bad=bad) for a in argv]
    assert run("score", *argv, "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.scores").exists()


# the options each score detector needs, then the options it also takes
SCORE_TAKES = {
    **dict.fromkeys(["correction", "ebm", "gaussian-energy", "mahalanobis"],
                    (["features", "model"], ["normalize"])),
    "knn": (["features", "train_features", "k"], ["normalize"]),
    "msp": (["logits"], []),
    **dict.fromkeys(["odin", "energy-logits"], (["logits"], ["temperature"])),
}
# a value of each option: a file option names a malformed file, or a missing one
# when it is refused, so a file hashed or read before the check would show
SCORE_VALUES = {"features": ["{file}"], "logits": ["{file}"], "model": ["{file}"],
                "train_features": ["{file}"], "k": [1], "temperature": [2.0], "normalize": []}
REFUSED_SCORE_OPTIONS = [(detector, option) for detector, (needs, takes) in SCORE_TAKES.items()
                         for option in SCORE_VALUES if option not in needs + takes]


@pytest.mark.parametrize("detector, option", REFUSED_SCORE_OPTIONS,
                         ids=[f"{d}-{o}" for d, o in REFUSED_SCORE_OPTIONS])
def test_score_option_its_detector_does_not_take_exits_2(tmp_path, capsys, detector, option):
    assert len(REFUSED_SCORE_OPTIONS) == 35
    bad, missing, out = tmp_path / "bad.f32", tmp_path / "missing.f32", tmp_path / "s.scores"
    bad.write_bytes(b"NOPE" + bytes(16))
    argv = ["--detector", detector]
    for dest, path in [(d, bad) for d in SCORE_TAKES[detector][0]] + [(option, missing)]:
        argv += ["--" + dest.replace("_", "-"),
                 *(str(v).format(file=path) for v in SCORE_VALUES[dest])]
    assert run("score", *argv, "--out", out) == 2
    assert capsys.readouterr().err == \
        f"error: detector {detector} does not take --{option.replace('_', '-')}\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_config_line_with_an_unclosed_quote_exits_2(tmp_path, toy_files, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f'features = "{toy_files[0]}\n')
    assert run("fit-mog", "--config", cfg_file, "--labels", toy_files[1],
               "--out", tmp_path / "m.ftar") == 2
    assert capsys.readouterr().err == f"error: {cfg_file}:1: No closing quotation\n"


def _negative_cholesky_diagonal(entries):
    entries["chol_lower"][1, 1] = -0.5


def _nan_mean(entries):
    entries["means"][0, 1] = np.nan


def _one_mixing_weight(entries):
    entries["mixing"] = np.array([1.0])


def _network_of_3_columns(entries):
    entries["net.w0"] = np.ones((4, 3))


def _kind_7(entries):
    entries["kind"] = np.array([7], dtype=np.uint32)


def _two_temperatures(entries):
    entries["net_temperature"] = np.array([1.0, 2.0])


def _second_layer_of_5_inputs(entries):
    entries["net.w1"] = np.ones((1, 5))


def _stray_layer(entries):
    # a layer past a missing one, which no loader reads
    entries.update({"net.w3": np.ones((1, 4)), "net.b3": np.zeros(1)})


# hand-built archives the loader refuses: which archive is edited, how, and
# the message after the archive's path
BAD_ARCHIVES = {
    "cholesky-diagonal": ("mog", _negative_cholesky_diagonal,
                          "Cholesky factor has non-positive diagonal"),
    "nan-mean": ("mog", _nan_mean, "mixture has non-finite parameters"),
    "mixing-length": ("mog", _one_mixing_weight, "mixture entries disagree in shape: "
                      "means (2, 2), chol_lower (2, 2), mixing (1,)"),
    "network-width": ("model", _network_of_3_columns, "network input 3 != mixture dimension 2"),
    "kind-code": ("model", _kind_7, "unknown model kind code 7"),
    "temperature-size": ("model", _two_temperatures,
                         "archive entry 'net_temperature' must hold one value, got shape (2,)"),
    "layer-width": ("model", _second_layer_of_5_inputs, "layer 1 input 5 != layer 0 output"),
    "stray-layer": ("model", _stray_layer, "entries no loader reads: net.w3, net.b3"),
}


@pytest.mark.parametrize("case", list(BAD_ARCHIVES))
def test_hand_built_archive_exits_2_naming_it(tmp_path, capsys, case):
    model, mixture, feats = _tiny_models(tmp_path)
    which, corrupt, message = BAD_ARCHIVES[case]
    archive, detector = {"model": (model, "correction"), "mog": (mixture, "mahalanobis")}[which]
    entries = read_archive(archive)
    corrupt(entries)
    write_archive(archive, entries)
    assert run("score", "--detector", detector, "--model", archive, "--features", feats,
               "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err == f"error: {archive}: {message}\n"
    assert not (tmp_path / "s.scores").exists()


def test_correction_archive_without_temperature_exits_2(tmp_path, capsys):
    # scored at no temperature it does not hold: score and grid refuse it and write nothing
    model, _, feats = _tiny_models(tmp_path)
    entries = read_archive(model)
    del entries["net_temperature"]
    write_archive(model, entries)
    before = set(tmp_path.iterdir())
    for argv in (["score", "--detector", "correction", "--model", model, "--features", feats,
                  "--out", tmp_path / "s.scores"],
                 ["grid", "--model", model, "--bounds", -3, 3, -3, 3, "--resolution", 4,
                  "--out-csv", tmp_path / "g.csv", "--out-tensor", tmp_path / "g.f32"]):
        assert run(*argv) == 2
        assert capsys.readouterr().err == \
            f"error: {model}: archive has no 'net_temperature' entry\n"
        assert set(tmp_path.iterdir()) == before


def test_archive_with_a_trailing_byte_exits_2(tmp_path, capsys):
    model, _, feats = _tiny_models(tmp_path)
    size = model.stat().st_size
    model.write_bytes(model.read_bytes() + b"\0")
    assert run("score", "--detector", "correction", "--model", model, "--features", feats,
               "--out", tmp_path / "s.scores") == 2
    assert capsys.readouterr().err == \
        f"error: {model}: 1 trailing bytes after last entry (byte offset {size})\n"


@pytest.fixture()
def three_d(tmp_path):
    """3-d mixture and correction archives, 20 3-d rows and 5 2-d ones."""
    rng = np.random.default_rng(4)
    fs = FeatureSet(rng.standard_normal((20, 3)), np.arange(20) % 2, 2)
    gm = fit_mog(fs, temperature=1.0)
    paths = {name: tmp_path / name for name in ("mog3.ftar", "model3.ftar", "t3.f32", "q2.f32")}
    save_model(paths["mog3.ftar"], gm)
    save_model(paths["model3.ftar"], CorrectionModel(mlp_init([3, 4, 1], rng), gm))
    write_tensor(paths["t3.f32"], fs.features.astype(np.float32))
    write_tensor(paths["q2.f32"], rng.standard_normal((5, 2)).astype(np.float32))
    return paths


@pytest.mark.parametrize("detector", ["knn", "mahalanobis", "gaussian-energy", "correction"])
def test_score_width_mismatch_names_both_files(tmp_path, capsys, three_d, detector):
    query, out = three_d["q2.f32"], tmp_path / "s.scores"
    if detector == "knn":
        other = ["--train-features", three_d["t3.f32"], "--k", 1]
        want = f"--train-features {three_d['t3.f32']} has 3"
    else:
        model = three_d["model3.ftar" if detector == "correction" else "mog3.ftar"]
        other = ["--model", model]
        want = f"--model {model} takes 3"
    assert run("score", "--detector", detector, "--features", query, *other,
               "--out", out) == 2
    assert capsys.readouterr().err == f"error: --features {query} has 2 columns but {want}\n"
    assert not out.exists()


def test_grid_of_a_3d_model_exits_2(tmp_path, capsys, three_d):
    mixture, out = three_d["mog3.ftar"], tmp_path / "g.csv"
    assert run("grid", "--model", mixture, "--bounds", -3, 3, -3, 3,
               "--resolution", 4, "--out-csv", out) == 2
    assert capsys.readouterr().err == \
        f"error: grid needs a 2-D model, but --model {mixture} takes 3 columns\n"
    assert not out.exists()


def test_train_width_mismatch_names_both_files(tmp_path, toy_files, capsys, three_d):
    feats, labels = toy_files
    mixture = three_d["mog3.ftar"]
    assert run("train", "--features", feats, "--labels", labels, "--mog", mixture,
               "--out", tmp_path / "m.ftar", *fast_train_args()) == 2
    assert capsys.readouterr().err == \
        f"error: --features {feats} has 2 columns but --mog {mixture} takes 3\n"


@pytest.mark.parametrize("command", ["fit-mog", "train"])
def test_rows_and_labels_mismatch_names_both_files(tmp_path, capsys, command):
    feats, labels, out = tmp_path / "f.f32", tmp_path / "l.u32", tmp_path / "o.ftar"
    write_tensor(feats, np.random.default_rng(5).standard_normal((10, 2)).astype(np.float32))
    write_tensor(labels, (np.arange(40) % 2).astype(np.uint32))
    extra = ["--ebm", *fast_train_args()] if command == "train" else []
    assert run(command, "--features", feats, "--labels", labels, "--out", out, *extra) == 2
    assert capsys.readouterr().err == \
        f"error: features {feats} has 10 rows but labels {labels} has 40\n"
    assert not out.exists()


# one command per input that --normalize scales, reading the zero row's file
# ``{zero}`` through it
NORMALIZE_COMMANDS = {
    "fit-mog --features": ["fit-mog", "--features", "{zero}", "--labels", "{labels}"],
    "train --features": ["train", "--features", "{zero}", "--labels", "{labels}", "--ebm",
                         *fast_train_args()],
    "score --features": ["score", "--detector", "knn", "--k", 1, "--features", "{zero}",
                         "--train-features", "{feats}"],
    "score --train-features": ["score", "--detector", "knn", "--k", 1,
                               "--features", "{feats}", "--train-features", "{zero}"],
}


@pytest.mark.parametrize("command", list(NORMALIZE_COMMANDS))
def test_normalize_error_names_the_file(tmp_path, capsys, command):
    rows = np.random.default_rng(6).standard_normal((6, 2)).astype(np.float32)
    paths = {name: tmp_path / name for name in ("feats.f32", "zero.f32", "labels.u32")}
    write_tensor(paths["feats.f32"], rows)
    rows[2] = 0.0
    write_tensor(paths["zero.f32"], rows)
    write_tensor(paths["labels.u32"], (np.arange(6) % 2).astype(np.uint32))
    argv = [str(a).format(feats=paths["feats.f32"], zero=paths["zero.f32"],
                          labels=paths["labels.u32"]) for a in NORMALIZE_COMMANDS[command]]
    out = tmp_path / "out"
    assert run(*argv, "--normalize", "--out", out) == 2
    assert capsys.readouterr().err == (f"error: {paths['zero.f32']}: feature row 2 has "
                                       "near-zero norm 0.000e+00; cannot normalize\n")
    assert not out.exists()


def _scale_cholesky(entries):
    entries["chol_lower"] = entries["chol_lower"] * 1e200


def _tiny_cholesky_diagonal(entries):
    entries["chol_lower"][0, 0] = 1e-200


def _huge_mean(entries):
    entries["means"][0, 0] = 1e300


def _singular_inverse(entries):
    # finite, but LU pivoting of the inverse meets a pivot that underflows to 0
    entries["chol_lower"] = np.array([[1e-300, 0.0], [1.0, 1e-300]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("corrupt", [_scale_cholesky, _tiny_cholesky_diagonal, _huge_mean,
                                     _singular_inverse])
def test_mixture_archive_overflowing_float64_exits_2(tmp_path, capsys, corrupt):
    _, mixture, feats = _tiny_models(tmp_path)
    entries = read_archive(mixture)
    corrupt(entries)
    write_archive(mixture, entries)
    assert run("score", "--detector", "mahalanobis", "--model", mixture,
               "--features", feats, "--out", tmp_path / "s.scores") == 2
    assert "overflow" in capsys.readouterr().err
    assert run("grid", "--model", mixture, "--bounds", -3, 3, -3, 3,
               "--resolution", 4, "--out-csv", tmp_path / "g.csv") == 2
    assert "overflow" in capsys.readouterr().err


def test_directory_as_input_exits_2(tmp_path, capsys):
    _, mixture, _ = _tiny_models(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run("score", "--detector", "mahalanobis", "--model", mixture,
               "--features", folder, "--out", tmp_path / "s.scores") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {folder}: ") and len(err.splitlines()) == 1
    assert run("score", "--config", folder, "--detector", "mahalanobis",
               "--out", tmp_path / "s.scores") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {folder}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("option", ["--features", "--model"])
def test_pipe_as_input_exits_2(tmp_path, capsys, option):
    # hashing would drain a pipe before the command reads it
    _, mixture, feats = _tiny_models(tmp_path)
    paths = {"--model": mixture, "--features": feats}
    out = tmp_path / "s.scores"
    r, w = os.pipe()
    try:
        os.write(w, paths[option].read_bytes())
        os.close(w)
        paths[option] = f"/dev/fd/{r}"
        assert run("score", "--detector", "mahalanobis", *sum(paths.items(), ()),
                   "--out", out) == 2
    finally:
        os.close(r)
    assert capsys.readouterr().err == f"error: /dev/fd/{r}: not a regular file\n"
    assert not out.exists() and not (tmp_path / "s.scores.manifest.json").exists()


def test_output_naming_the_config_file_exits_2(tmp_path, toy_files, capsys):
    feats, labels = toy_files
    cfg = tmp_path / "c.cfg"
    cfg.write_text("temperature = 2.0\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run("fit-mog", "--config", cfg, "--features", feats, "--labels", labels,
               "--out", cfg) == 2
    assert capsys.readouterr().err == f"error: --out {cfg} is the same file as --config {cfg}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    # ``python -m energy_ood`` from the source tree, not an installed package
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def energy_ood(*argv):
        return subprocess.run([sys.executable, "-m", "energy_ood", *map(str, argv)],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    done = energy_ood("toy", "--samples-per-class", 20, "--out-features", "x.f32",
                      "--out-labels", "y.u32")
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "x.f32.manifest.json").read_text())["command"] == "toy"
    done = energy_ood("score", "--detector", "knn", "--k", 1, "--features", "x.f32",
                      "--out", "s.scores")
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "", "error: detector knn needs --train-features\n")


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    model, mixture, feats = _tiny_models(tmp_path_factory.mktemp("fuzz"))
    return {"correction": model.read_bytes(), "mahalanobis": mixture.read_bytes()}, feats


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(detector=st.sampled_from(["correction", "mahalanobis"]),
       command=st.sampled_from(["score", "grid"]),
       flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 1 << 16))
def test_fuzzed_archive_bytes_exit_cleanly(fuzz_sources, detector, command, flips, cut):
    sources, feats = fuzz_sources
    blob = bytearray(sources[detector])
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    if cut is not None:
        blob = blob[: cut % len(blob)]
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "m.ftar"
        archive.write_bytes(bytes(blob))
        if command == "score":
            argv = ["score", "--detector", detector, "--model", archive,
                    "--features", feats, "--out", Path(tmp) / "s.scores"]
        else:
            argv = ["grid", "--model", archive, "--bounds", -3, 3, -3, 3,
                    "--resolution", 4, "--out-csv", Path(tmp) / "g.csv"]
        assert run(*argv) in (0, 1, 2)
