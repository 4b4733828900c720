"""Command-line pipeline: toy, fit-mog, train, score, eval, grid.

Every command takes flat ``--key value`` flags. ``main`` takes the files a
command reads (``INPUT_OPTIONS`` and the ``--ood`` paths) and writes
(``OUTPUT_OPTIONS``) from its options, refuses an output that names an input,
another output or the manifest, hashes the inputs, runs the ``cmd_*``
function, which only computes, and then writes a JSON manifest next to the
first output: the resolved configuration, the input hashes, the seed, every
file written and the environment the run computed in. ``--config FILE``
stands for the flags its ``key = value`` lines spell out
(``with_config_flags``); they go right after the subcommand name, so argparse
parses and checks them like any other flag, and flags on the command line
come later and win. A config file cannot name another. Exit codes: 0 success,
1 computational failure, a ``ComputationError`` (divergence,
non-positive-definite covariance, a score beyond float32) or running out of
memory; 2 usage or input error, a ValueError or an OSError, including an
input path that is missing, a directory, unreadable or not a regular file (a
pipe would be drained by hashing), an output that names the ``--config``
file, and a tensor file that ``read_input`` rejects. The two families share
no class, so the order of ``main``'s handlers does not matter.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shlex
import stat
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import detectors, metrics
from .featurestore import (
    ComputationError,
    as_f32_scores,
    load_feature_set,
    normalize_features,
    normalize_rows,
    read_input,
    save_feature_set,
)
from .mog import (
    fit_mog,
    gaussian_energy,
    mahalanobis_ood_score,
    save_mixture,
)
from .tensorio import write_tensor
from .toy import ToySpec, energy_grid, gen_toy, save_grid_csv, save_grid_tensor
from .trainer import (
    correction_defaults,
    ebm_defaults,
    load_model,
    save_model,
    train_correction,
)

SCHEMA = 1
# the thread-count variables of the BLAS builds NumPy ships with
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def finite_float(text: str) -> float:
    """The argparse type of every float option: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _sha256(path) -> str:
    # stat, not open: a pipe would be empty when the command reads it, and
    # opening a FIFO with no writer blocks
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file")
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _blas() -> str:
    """Name and version of the BLAS NumPy was built with, from its build config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy before 1.26 has no config dicts
        return "unknown"


# option dests that name files a command reads, then files it writes, in
# manifest order; eval's --ood paths follow the inputs, and the manifest goes
# next to the first output
INPUT_OPTIONS = ("features", "labels", "mog", "model", "logits", "train_features", "id")
OUTPUT_OPTIONS = ("out", "out_features", "out_labels", "out_csv", "out_tensor", "csv", "log")


def _named_files(args, dests) -> list:
    """(flag, path) of each option among ``dests`` that ``args`` sets."""
    return [("--" + d.replace("_", "-"), path) for d in dests
            if (path := getattr(args, d, None)) is not None]


def _file_key(path):
    """Device and inode of an existing file, as ``os.path.samefile`` compares,
    so that a hard link matches the file's other names; the resolved path of
    one not yet created."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(inputs: list, outputs: list) -> None:
    """Raise ValueError if an output is the same file as an input or an earlier output."""
    seen = {_file_key(path): f"{flag} {path}" for flag, path in inputs}
    for flag, path in outputs:
        key = _file_key(path)
        if key in seen:
            raise ValueError(f"{flag} {path} is the same file as {seen[key]}")
        seen[key] = f"{flag} {path}"


def _write_manifest(args, path, inputs: dict, artifacts: list, started: float) -> None:
    """Record the parsed arguments as ``config``, the input hashes taken
    before the command ran, the files it wrote, and the versions, BLAS and
    threads the run computed with as ``environment``."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    finished = time.time()
    manifest = {
        "schema": SCHEMA,
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs,
        "artifacts": [str(a) for a in artifacts],
        "started": started,
        "finished": finished,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "elapsed_s": finished - started,
        },
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_config_file(path) -> list:
    """The flags a ``key = value`` config file spells out; '#' starts a comment.

    ``key = v1 v2`` is ``--key v1 v2``, split with shell quoting; ``key = true``
    is the bare switch ``--key`` and ``key = false`` adds nothing. ``_`` in a
    key reads as ``-``.
    """
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            try:
                values = shlex.split(value, comments=True)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not key or not values:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another config")
            flag = "--" + key.replace("_", "-")
            if values == ["true"]:
                flags.append(flag)
            elif values != ["false"]:
                flags += [flag, *values]
    return flags


def with_config_flags(argv: list) -> list:
    """``argv`` with the flags of its subcommand's ``--config`` file, if any,
    spliced in right after the subcommand name, before the flags that win."""
    pre = argparse.ArgumentParser(prog="energy-ood", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv[1:])
    if known.config is None:
        return argv
    return [argv[0], *_load_config_file(known.config), *argv[1:]]


def cmd_toy(args) -> None:
    spec = ToySpec(
        kind=args.kind.replace("-", "_"),
        samples_per_class=args.samples_per_class,
        arm_length=args.arm_length,
        arm_thickness=args.thickness,
        grid_pitch=args.pitch,
        seed=args.seed,
    )
    fs = gen_toy(spec)
    save_feature_set(fs, args.out_features, args.out_labels)


def _check_width(args, x: np.ndarray, width: int, whose: str) -> None:
    """ValueError unless the --features rows ``x`` are ``width`` wide, as ``whose`` says."""
    if x.shape[1] != width:
        raise ValueError(f"--features {args.features} has {x.shape[1]} columns but {whose} {width}")


def _normalized(path, normalize, x):
    """``normalize(x)``, its error naming ``path``, the file ``x`` was read from."""
    try:
        return normalize(x)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_fit_mog(args) -> None:
    fs = load_feature_set(args.features, args.labels)
    if args.normalize:
        fs = _normalized(args.features, normalize_features, fs)
    gm = fit_mog(fs, shrinkage=args.shrinkage, temperature=args.temperature)
    save_mixture(args.out, gm)


# train flags that override one TrainConfig field each, and the SgldSchedule fields
TRAIN_FIELDS = ("epochs", "batch_size", "learning_rate", "l2_coeff", "input_noise_std",
                "hidden_dim", "num_hidden", "net_temperature")
SGLD_FIELDS = {"sgld_steps": "steps", "sgld_step_size": "step_size", "sgld_noise": "noise_scale"}


def _train_config(args):
    toy = args.preset == "toy"
    cfg = ebm_defaults(toy=toy, seed=args.seed) if args.ebm \
        else correction_defaults(toy=toy, seed=args.seed)
    overrides = {k: getattr(args, k) for k in TRAIN_FIELDS if getattr(args, k) is not None}
    sgld = {field: tuple(v) if isinstance(v, list) else v
            for flag, field in SGLD_FIELDS.items() if (v := getattr(args, flag)) is not None}
    if sgld:
        overrides["sgld"] = replace(cfg.sgld, **sgld)
    return replace(cfg, **overrides) if overrides else cfg


def _train_flags(cfg) -> dict:
    """The train flag values that reproduce ``cfg`` whatever the preset."""
    flags = {k: getattr(cfg, k) for k in TRAIN_FIELDS}
    flags.update({flag: getattr(cfg.sgld, field) for flag, field in SGLD_FIELDS.items()})
    return flags


def cmd_train(args) -> None:
    fs = load_feature_set(args.features, args.labels)
    if args.normalize:
        fs = _normalized(args.features, normalize_features, fs)
    cfg = _train_config(args)
    # the manifest's config holds the values the preset resolved
    vars(args).update(_train_flags(cfg))
    gm = None
    if not args.ebm:
        kind, gm = load_model(args.mog)
        if kind != "mog":
            raise ValueError(f"--mog {_holds(args.mog, kind)}, not a mixture")
        _check_width(args, fs.features, gm.dim, f"--mog {args.mog} takes")
    model, _ = train_correction(fs, gm, cfg, log_path=args.log)
    save_model(args.out, model)


def _holds(path, kind: str) -> str:
    """'<path> holds a <kind> model', with "an" before a kind that starts with a vowel."""
    return f"{path} holds {'an' if kind[0] in 'aeiou' else 'a'} {kind} model"


# archive kind (as load_model names it) and batched scorer of each model-based detector
MODEL_SCORERS = {
    "correction": ("correction", detectors.score_correction),
    "ebm": ("ebm", detectors.score_correction),
    "gaussian-energy": ("mog", gaussian_energy),
    "mahalanobis": ("mog", mahalanobis_ood_score),
}


def _model_scorer(path, detector: str):
    """Load ``path``; return its batched scoring function for ``detector`` and its row width.

    ``auto`` picks the archive's own detector, the mixture energy for a mixture.
    """
    kind, payload = load_model(path)
    if detector == "auto":
        detector = "gaussian-energy" if kind == "mog" else kind
    needed, scorer = MODEL_SCORERS[detector]
    if needed != kind:
        raise ValueError(f"{_holds(path, kind)}, which detector {detector} cannot score")
    dim = payload.dim if kind == "mog" else payload.net.input_dim
    return (lambda z: scorer(payload, z)), dim


# batched scorer of each logit-based detector, given the logits and --temperature;
# msp is odin at temperature 1, the only one it takes
LOGIT_SCORERS = {
    "msp": detectors.score_msp,
    "odin": detectors.score_msp,
    "energy-logits": detectors.score_energy_logits,
}


def _score_features(args) -> np.ndarray:
    if args.detector != "knn":
        # the archive is loaded and its kind checked before the rows are read
        if args.model is None:
            raise ValueError(f"detector {args.detector} needs --model")
        scorer, dim = _model_scorer(args.model, args.detector)
    x = read_input(args.features, "features")
    if args.normalize:
        x = _normalized(args.features, normalize_rows, x)
    if args.detector == "knn":
        if args.train_features is None:
            raise ValueError("knn needs --train-features")
        if args.k is None:
            raise ValueError("knn needs --k")
        train = read_input(args.train_features, "features")
        _check_width(args, x, train.shape[1], f"--train-features {args.train_features} has")
        if args.normalize:
            train = _normalized(args.train_features, normalize_rows, train)
        return detectors.score_knn(train, x, args.k)
    _check_width(args, x, dim, f"--model {args.model} takes")
    return scorer(x)


def _score_logits(args) -> np.ndarray:
    if args.detector == "msp" and args.temperature != 1:
        raise ValueError("msp scores at temperature 1; --temperature needs --detector odin")
    return LOGIT_SCORERS[args.detector](read_input(args.logits, "logits"), args.temperature)


def cmd_score(args) -> None:
    if args.detector in LOGIT_SCORERS:
        if args.logits is None:
            raise ValueError(f"detector {args.detector} needs --logits")
        scores = _score_logits(args)
    else:
        if args.features is None:
            raise ValueError(f"detector {args.detector} needs --features")
        scores = _score_features(args)
    write_tensor(args.out, as_f32_scores(scores))


def _parse_ood_arg(raw: str) -> tuple[str, str, str]:
    """[group:]name=path -> (group, name, path)."""
    if "=" not in raw:
        raise ValueError(f"--ood expects [group:]name=path, got {raw!r}")
    head, path = raw.split("=", 1)
    group, _, name = head.rpartition(":")
    if not name:
        raise ValueError(f"--ood {raw!r} gives no dataset name")
    return group or "all", name, path


def cmd_eval(args) -> None:
    id_scores = read_input(args.id, "scores")
    datasets = [_parse_ood_arg(raw) for raw in args.ood]
    reports = []
    for group, name, path in datasets:
        rep = metrics.evaluate(id_scores, read_input(path, "scores"))
        reports.append({"group": group, "name": name, "path": str(path), **asdict(rep)})

    def _avg(rows, key):
        return float(np.mean([r[key] for r in rows]))

    groups = []
    for group in dict.fromkeys(r["group"] for r in reports):
        rows = [r for r in reports if r["group"] == group]
        groups.append({"group": group, "n_datasets": len(rows),
                       "auroc": _avg(rows, "auroc"), "fpr95": _avg(rows, "fpr95")})
    overall = {"auroc": _avg(reports, "auroc"), "fpr95": _avg(reports, "fpr95")}
    report = {
        "schema": SCHEMA,
        "tpr": metrics.TPR,
        "threshold_gamma_id": metrics.threshold_gamma_id(id_scores),
        "n_id": int(id_scores.size),
        "datasets": reports,
        "groups": groups,
        "average": overall,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            table = csv.writer(fh, lineterminator="\n")
            table.writerow(["scope", "group", "name", "fpr95", "auroc"])
            rows = ([("dataset", r["group"], r["name"], r) for r in reports]
                    + [("group", g["group"], "", g) for g in groups]
                    + [("average", "", "", overall)])
            for *keys, m in rows:
                table.writerow([*keys, f"{m['fpr95']:.4f}", f"{m['auroc']:.4f}"])


def cmd_grid(args) -> None:
    fn, dim = _model_scorer(args.model, args.detector)
    if dim != 2:
        raise ValueError(f"grid needs a 2-D model, but --model {args.model} takes {dim} columns")
    grid = energy_grid(fn, args.bounds, args.resolution)
    if args.out_tensor is not None:
        # first: a value beyond float32 raises before any file is written
        save_grid_tensor(args.out_tensor, grid)
    save_grid_csv(args.out_csv, grid)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energy-ood",
        description="Feature-space OOD detection: mixture fitting, energy correction, scoring, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # allow_abbrev=False: a config key or flag must name an option exactly
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key = value file of flags; later flags win")
        p.set_defaults(func=func)
        return p

    p = command("toy", cmd_toy, "generate a 2-D synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["cross", "grid-crosses"], default="cross")
    p.add_argument("--samples-per-class", type=int, default=1000)
    p.add_argument("--arm-length", type=finite_float, default=2.0)
    p.add_argument("--thickness", type=finite_float, default=0.05)
    p.add_argument("--pitch", type=finite_float, default=6.0)
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)

    p = command("fit-mog", cmd_fit_mog, "fit the class-conditional Gaussian mixture")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--shrinkage", type=finite_float,
                   help="diagonal shrinkage; default 1e-6 * trace/D")
    p.add_argument("--temperature", type=finite_float, default=1e3)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)

    p = command("train", cmd_train, "train the correction model or the plain EBM")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--mog", help="fitted mixture archive (correction model)")
    model.add_argument("--ebm", action="store_true", help="train the plain EBM ablation")
    p.add_argument("--preset", choices=["features", "toy"], default="features")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=finite_float)
    p.add_argument("--l2-coeff", type=finite_float)
    p.add_argument("--input-noise-std", type=finite_float)
    p.add_argument("--sgld-steps", type=int)
    p.add_argument("--sgld-step-size", type=finite_float, nargs=2, metavar=("START", "END"))
    p.add_argument("--sgld-noise", type=finite_float, nargs=2, metavar=("START", "END"))
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--num-hidden", type=int)
    p.add_argument("--net-temperature", type=finite_float)
    p.add_argument("--log", help="JSON-lines training log path")
    p.add_argument("--out", required=True)

    p = command("score", cmd_score, "score samples with a detector")
    p.add_argument("--detector", required=True,
                   choices=[*MODEL_SCORERS, "knn", *LOGIT_SCORERS])
    p.add_argument("--features", help="rank-2 f32 tensor of feature rows")
    p.add_argument("--logits", help="rank-2 f32 tensor of logit rows")
    p.add_argument("--model", help="model or mixture archive")
    p.add_argument("--train-features", help="training features for knn")
    p.add_argument("--k", type=int, help="neighbor count for knn")
    p.add_argument("--temperature", type=finite_float, default=1.0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, "evaluate ID vs OOD score files")
    p.add_argument("--id", required=True, help="rank-1 f32 tensor of ID scores")
    p.add_argument("--ood", action="extend", nargs="+", required=True,
                   metavar="[GROUP:]NAME=PATH", help="OOD score files; repeatable")
    p.add_argument("--csv", help="optional per-dataset/group table")
    p.add_argument("--out", required=True, help="JSON report path")

    p = command("grid", cmd_grid, "evaluate a saved model on a 2-D lattice")
    p.add_argument("--model", required=True)
    p.add_argument("--detector", default="auto",
                   choices=["auto", *MODEL_SCORERS])
    p.add_argument("--bounds", type=finite_float, nargs=4, required=True,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-tensor")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(with_config_flags(argv))
        inputs = _named_files(args, INPUT_OPTIONS) + [
            ("--ood", _parse_ood_arg(raw)[2]) for raw in getattr(args, "ood", ())]
        outputs = _named_files(args, OUTPUT_OPTIONS)
        manifest = f"{outputs[0][1]}.manifest.json"
        _check_outputs(inputs + _named_files(args, ("config",)),
                       [*outputs, ("the manifest", manifest)])
        started = time.time()
        hashes = {str(path): _sha256(path) for _, path in inputs}
        args.func(args)
        _write_manifest(args, manifest, hashes, [path for _, path in outputs], started)
        return 0
    except (ComputationError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
