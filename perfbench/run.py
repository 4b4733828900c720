"""Benchmark harness for energy-ood.

One workload in one fresh process, the form every measurement takes:

    python3 perfbench/run.py --workload toy-grid --seed 1 --seconds 25 --trace 0

prints each metric as ``name value unit``, a ``detail`` line (environment,
reps, checks and, when traced, the training-time breakdown) and, last, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics; with
``--trace 1`` they are its per-layer metrics, taken from spans recorded by
wrappers around the library's functions.

Every workload, summarised over seeds 1..N, plus one traced run each:

    python3 perfbench/run.py --runs 10 --out perfbench/results/baseline.json

``--smoke`` runs the same code at tiny sizes, for the harness's own tests.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before NumPy is imported: imports count toward setup_s

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Where each traced training span should spend most of its time.
PREDICTED = {"feat512-c100-train": ("layer_shares", "mog.gaussian_energy_grad"),
             "toy-grid": ("module_shares", "energy_net")}


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def select(values: dict, definitions: list) -> dict:
    """Pick the defined metrics out of a run's values, with their units."""
    missing = [m["name"] for m in definitions if m["name"] not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definitions}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("MKL_NUM_THREADS",)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_single(args, definition: dict) -> int:
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path.insert(0, str(SRC))
    try:
        import energy_ood
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import energy_ood from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(energy_ood.__file__).resolve().parent != (SRC / "energy_ood").resolve():
        print(f"perfbench: energy_ood imported from {energy_ood.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), args.smoke, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = dict(result.detail, environment=environment(args.seed),
                  error_rate=result.metrics["error_rate"],
                  end_to_end={m["name"]: result.metrics[m["name"]]
                              for m in definition["end_to_end"]})
    if args.trace:
        spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in detail.pop("spans"):
                fh.write(json.dumps(vars(span)) + "\n")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    chosen = select(result.metrics, definition["per_layer" if args.trace else "end_to_end"])
    for name, m in chosen.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"error_rate {result.metrics['error_rate']!r} ratio")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not result.checks.failed,
                      "attempted": result.checks.attempted,
                      "failed": len(result.checks.failed),
                      "metrics": chosen}))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"stderr": proc.stderr[-2000:]}}
    out = json.loads(lines[-1])
    out["detail"] = next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {})
    return out


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def run_suite(args, definition: dict) -> int:
    names = [w["name"] for w in definition["workloads"]]
    seeds = list(range(1, args.runs + 1))
    runs = {name: [] for name in names}
    for seed in seeds:  # alternate workloads so slow drift hits all of them alike
        for name in names:
            runs[name].append(run_child(name, seed, args.seconds, 0, args.smoke))
    traced = {name: run_child(name, seeds[0], args.seconds, 1, args.smoke) for name in names}

    report = {"seconds": args.seconds, "seeds": seeds, "smoke": args.smoke, "workloads": {}}
    all_ok = True
    for name in names:
        ok_runs = [r for r in runs[name] if r["metrics"]]
        attempted = sum(r["attempted"] for r in runs[name] + [traced[name]])
        failed = sum(r["failed"] for r in runs[name] + [traced[name]])
        all_ok &= failed == 0 and len(ok_runs) == len(seeds)
        entry = {"error_rate": failed / attempted, "failed_runs": len(seeds) - len(ok_runs)}
        print(f"\n== {name}: {len(ok_runs)}/{len(seeds)} runs, error_rate {failed}/{attempted}")
        if ok_runs:
            report.setdefault("environment", ok_runs[0]["detail"].get("environment"))
            entry["end_to_end"] = {}
            for m in definition["end_to_end"]:
                q = quartiles([r["metrics"][m["name"]]["value"] for r in ok_runs])
                entry["end_to_end"][m["name"]] = dict(q, unit=m["unit"], bound=m["bound"])
                print(f"  {m['name']:<24} {q['median']:>12.6g} {m['unit']:<8} "
                      f"IQR [{q['q1']:.6g}, {q['q3']:.6g}]  spread {q['spread']:.3f} "
                      f"(bound {m['bound']})")
        t = traced[name]
        if t["metrics"]:
            entry["traced"] = {k: v["value"] for k, v in t["metrics"].items()}
            entry["traced_end_to_end"] = t["detail"]["end_to_end"]
            bd = entry["train_breakdown"] = t["detail"]["train_breakdown"]
            if ok_runs:
                base = entry["end_to_end"]["train_steps_per_s"]["median"]
                overhead = 1.0 - t["metrics"]["trace.train_steps_per_s"]["value"] / base
                entry["tracing_overhead"] = overhead
                same = all(t["detail"]["end_to_end"][k] == ok_runs[0]["metrics"][k]["value"]
                           for k in ("auroc", "fpr95"))
                entry["auroc_fpr95_repeat_at_seed"] = same
                print(f"  tracing overhead on train_steps_per_s: {overhead:+.1%}; "
                      f"auroc/fpr95 identical to the untraced run at seed {seeds[0]}: {same}")
            accounted = abs(bd["accounted_s"] - bd["span_s"]) <= 1e-9 * max(bd["span_s"], 1.0)
            entry["train_span_accounted"] = accounted
            print(f"  train_correction {bd['span_s']:.3f} s; children + self account for it: "
                  f"{accounted}")
            print("  module shares: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(bd["module_shares"].items(), key=lambda kv: -kv[1])))
            top = sorted(bd["layer_shares"].items(), key=lambda kv: -kv[1])[:4]
            print("  top layers: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
            if name in PREDICTED:
                kind, expected = PREDICTED[name]
                largest = max(bd[kind], key=bd[kind].get)
                entry["prediction"] = {"expected_largest": expected, "largest": largest,
                                       "holds": largest == expected}
                print(f"  predicted largest {kind[:-7]} {expected}: "
                      f"{'holds' if largest == expected else 'does NOT hold, largest is ' + largest}")
        else:
            all_ok = False
            print(f"  traced run failed: {t['detail'].get('stderr', '')}")
        report["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload; without it, run every workload --runs times")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (suite)")
    parser.add_argument("--out", help="write the suite summary here as JSON")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_single(args, definition)
    return run_suite(args, definition)


if __name__ == "__main__":
    sys.exit(main())
