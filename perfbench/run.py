"""synthmeter benchmark: one seeded audit, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. For the chosen workload the benchmark builds the demo workspace
with ``synthmeter.cli.build_demo_workspace`` at the workload's size and
seed, writes the workload's manifest variant and times
``synthmeter.report.run_full_evaluation``. Every setup and every
evaluation runs in a fresh child process with one BLAS thread, so peak
RSS belongs to that step alone. Each workload is closed loop: one
evaluation at a time, with nothing else running.

``--trace 0`` runs ``SETUPS`` setups side by side, evaluates the first
workspace at least ``Workload.evaluations`` times and until
``--seconds`` of evaluation have been measured, and reports medians of
the end-to-end metrics. ``--trace 1`` sets up once and evaluates twice, untraced then
traced, and reports per-layer metrics from the traced children only;
``trace.overhead_s`` is the difference between the two evaluations.

Every evaluation passes a correctness gate: each requested section is
present and not failed, every number is finite, ``report.json`` and the
side files are identical across the runs of one seed, and, where
``perfbench/reference`` holds a report for the seed, every value equals
it (counts exactly, floats within 1e-12 relative). Runs of one seed are
compared through a record of the first run's outputs, kept in the
build directory per seed and per hash of the sources, and the repeated
setups of a run must write byte-identical workspaces. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-12
FIVE_K = 4000  # rows per side from which a kernel call counts as "5k per side"
ROADMAP_PER_CALL_S = {"kernels.median_heuristic_bandwidth": 4.0, "kernels.mmd2_rbf": 1.34}
# Setups per untraced run, run side by side (one per core); the median is
# reported. Setups are the costliest part of a run (about 14 s each at 500
# households), so running them together leaves time for more evaluations.
SETUPS = 2


@dataclass(frozen=True)
class Workload:
    households: int
    # Evaluations per untraced run; the median is reported. fidelity-5k
    # evaluates once (about 20 s) so that a comparison of two commits,
    # about 70 runs, stays under an hour on 2 cores.
    evaluations: int = 1
    drop: tuple[str, ...] = ()
    epochs: int | None = None


WORKLOADS = {
    # the bundled demo exactly as `synthmeter demo` + `synthmeter evaluate`
    # run it; the only workload that mixes all suites
    "demo-250": Workload(households=250, evaluations=2),
    # kernels dominate: the O(n^2) median-heuristic bandwidth and the full
    # RBF MMD at about 5k rows per side; the MLP engine is idle
    "fidelity-5k": Workload(households=500, drop=("privacy", "utility")),
    # MLP training and the NN scan at the README default of 50 epochs;
    # MMD is never called, the control for kernel work
    "attacks-tstr-5k": Workload(households=500, evaluations=2, drop=("fidelity",), epochs=50),
}

ATTACKS = {"recon": "ks", "recon_poisoned": "reconstruction", "mia": "mia_plain", "mia_poisoned": "mia_poisoned"}
DEFAULT_TASKS = ["classify", "forecast_mean", "forecast_quantile"]


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_children(scratch: Path, steps: list[list[str]], trace: bool) -> list[dict]:
    """Run one child per step, all at once, and wait for every one."""
    procs, paths = [], []
    try:
        for step in steps:
            fd, name = tempfile.mkstemp(dir=scratch, suffix=".json")
            os.close(fd)
            paths.append(name)
            cmd = [sys.executable, str(HERE / "child.py"), *step, "--result", name]
            procs.append(subprocess.Popen(
                cmd + (["--trace"] if trace else []), env=_child_env(), cwd=ROOT, stdout=sys.stderr,
            ))
        for proc in procs:
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for name in paths:
        with open(name) as fh:
            results.append(json.load(fh))
    return results


def setups(scratch: Path, workload: Workload, seed: int, workspaces: list[Path], trace: bool) -> list[dict]:
    steps = [
        ["setup", "--households", str(workload.households), "--seed", str(seed), "--workspace", str(ws)]
        for ws in workspaces
    ]
    return run_children(scratch, steps, trace)


def evaluate(scratch: Path, manifest: Path, output_dir: Path, trace: bool) -> dict:
    step = ["evaluate", "--manifest", str(manifest), "--output-dir", str(output_dir)]
    [result] = run_children(scratch, [step], trace)
    with open(output_dir / "report.json") as fh:
        result["report"] = json.load(fh)
    result["side_files"] = {k: v for k, v in digest_dir(output_dir).items() if k != "report.json"}
    return result


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir()) if p.is_file()}


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_manifest(workload: Workload, workspace: Path, name: str) -> tuple[Path, dict]:
    with open(workspace / "manifest.json") as fh:
        manifest = json.load(fh)
    for section in workload.drop:
        manifest.pop(section, None)
    if workload.epochs is not None:
        manifest["utility"]["epochs"] = workload.epochs
    path = workspace / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path, manifest


def input_profiles(manifest: dict, workspace: Path) -> int:
    """Data rows of every CSV the manifest names."""
    names = [manifest[k] for k in ("train", "holdout", "synthetic", "registry") if k in manifest]
    if manifest.get("utility"):
        names += [manifest["utility"][k] for k in ("real_fit", "synthetic_fit", "eval")]
    total = 0
    for name in names:
        with open(workspace / name) as fh:
            total += sum(1 for line in fh if line.strip()) - 1
    return total


# ---------------------------------------------------------------- correctness


def operations(manifest: dict) -> dict[str, tuple[tuple, list[str]]]:
    """One op per requested item: report path and the side files it writes."""
    ops: dict[str, tuple[tuple, list[str]]] = {}
    if manifest.get("fidelity"):
        ops["fidelity"] = (("fidelity",), ["per_slot_statistics.csv", "pca_coordinates.csv"])
    privacy = manifest.get("privacy")
    for flag, key in ATTACKS.items():
        if privacy is True or (isinstance(privacy, dict) and privacy.get(flag)):
            side = ["reconstruction_cdf.csv"] if key == "reconstruction" else []
            ops[f"privacy.{key}"] = (("privacy", key), side)
    if manifest.get("utility"):
        for i, task in enumerate(manifest["utility"].get("tasks", DEFAULT_TASKS)):
            ops[f"utility.{task}"] = (("utility", i), [f"tstr_{task}_trace.csv"])
    return ops


def get_path(tree, path: tuple):
    for key in path:
        try:
            tree = tree[key]
        except (KeyError, IndexError, TypeError):
            return None
    return tree


def common_part(report: dict, ops: dict) -> dict:
    """The report without its timestamp and without the op subtrees."""
    common = json.loads(json.dumps(report))
    common.pop("timestamp", None)
    for path, _ in ops.values():
        parent = get_path(common, path[:-1])
        if get_path(common, path) is not None:
            parent[path[-1]] = None
    return common


def all_finite(tree) -> bool:
    if isinstance(tree, dict):
        return all(all_finite(v) for v in tree.values())
    if isinstance(tree, list):
        return all(all_finite(v) for v in tree)
    if isinstance(tree, float):
        return math.isfinite(tree)
    return True


def matches(a, b) -> bool:
    """Equal structure; counts and strings exact, floats within REL_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(matches(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(matches(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return type(a) is type(b) and a == b


def gate(
    evaluations: list[dict], manifest: dict, first: dict, reference: dict | None, setups_agree: bool
) -> tuple[int, list[str]]:
    """Failed ops summed over evaluations, and one line per failure.

    ``first`` holds the report and side-file digests of the first run of
    this seed, against which every evaluation must be identical.
    """
    ops = operations(manifest)
    problems: list[str] = []
    failed = 0
    for n, ev in enumerate(evaluations):
        report = ev["report"]
        common_ok = setups_agree and common_part(report, ops) == common_part(first["report"], ops)
        if reference is not None:
            common_ok = common_ok and matches(common_part(report, ops), common_part(reference, ops))
        for op, (path, side) in ops.items():
            value = get_path(report, path)
            section = report.get(path[0])
            why = None
            if isinstance(section, dict) and section.get("status") == "failed":
                why = f"section failed: {section.get('error')}"
            elif value is None or (isinstance(value, dict) and value.get("status") == "not_run"):
                why = "missing or not run"
            elif not all_finite(value):
                why = "non-finite number"
            elif value != get_path(first["report"], path) or any(
                ev["side_files"].get(f) != first["side_files"].get(f) or f not in ev["side_files"] for f in side
            ):
                why = "differs from the first run of this seed"
            elif reference is not None and not matches(value, get_path(reference, path)):
                why = "differs from the stored reference"
            elif not common_ok:
                why = "inputs, configuration or setup differ between runs or from the reference"
            if why:
                failed += 1
                problems.append(f"evaluation {n} op {op}: {why}")
    return failed, problems


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.seed-{seed}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- reporting


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_layer_summary(workload: str, evaluate_spans: list[dict], evaluate_s: float) -> None:
    self_by_layer = {k[:-2]: v for k, v in tracing.span_sums(evaluate_spans).items() if k.endswith(".s")}
    top = sorted(self_by_layer.items(), key=lambda kv: -kv[1])[:3]
    print(f"top layers by self time, share of traced evaluate_s {evaluate_s:.3f} s on {workload}:")
    for name, s in top:
        print(f"  {name}: {s:.3f} s ({100 * s / evaluate_s:.1f} %)")
    self_s, _ = tracing.self_values(evaluate_spans)
    for name, roadmap_s in ROADMAP_PER_CALL_S.items():
        big = [
            sp for sp in evaluate_spans
            if sp["name"] == name and sp["counts"]["min_side"] >= FIVE_K
        ]
        if big:
            per_call = statistics.mean(self_s[sp["id"]] for sp in big)
            print(
                f"  {name} self time per call at >= {FIVE_K} rows per side: {per_call:.3f} s "
                f"over {len(big)} calls (ROADMAP baseline: {roadmap_s} s)"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this seed's report as the reference when every other check passes",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "synthmeter" / "__init__.py").is_file():
        print(f"error: no synthmeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the scratch workspace is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=build))
    try:
        return measure(args, workload, scratch, build)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload: Workload, scratch: Path, build: Path) -> int:
    trace = bool(args.trace)
    workspaces = [scratch / f"ws-{i}" for i in range(1 if trace else SETUPS)]
    built = setups(scratch, workload, args.seed, workspaces, trace)
    workspace = workspaces[0]
    setups_agree = all(digest_dir(ws) == digest_dir(workspace) for ws in workspaces[1:])
    env = built[0]["env"]
    print("env: " + json.dumps(env, sort_keys=True))

    manifest_path, manifest = write_manifest(workload, workspace, args.workload)
    evaluations: list[dict] = []
    if trace:
        for n, traced in enumerate((False, True)):
            evaluations.append(evaluate(scratch, manifest_path, workspace / f"eval-{n}", traced))
    else:
        while len(evaluations) < workload.evaluations or sum(e["seconds"] for e in evaluations) < args.seconds:
            n = len(evaluations)
            evaluations.append(evaluate(scratch, manifest_path, workspace / f"eval-{n}", False))

    reference = None if args.write_reference else load_reference(args.workload, args.seed)
    record_path = build / "outputs" / f"{args.workload}.seed-{args.seed}.src-{source_hash()}.json"
    first = {"report": evaluations[0]["report"], "side_files": evaluations[0]["side_files"]}
    if record_path.exists():
        with open(record_path) as fh:
            first = json.load(fh)
    failed, problems = gate(evaluations, manifest, first, reference, setups_agree)
    if failed == 0 and not record_path.exists():
        record_path.parent.mkdir(exist_ok=True)
        with open(record_path, "w") as fh:
            json.dump(first, fh)
    if args.write_reference and failed == 0:
        stored = dict(evaluations[0]["report"])
        stored.pop("timestamp")
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{args.workload}.seed-{args.seed}.json", "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for line in problems:
        print("FAILED " + line)
    n_ops = len(operations(manifest))
    attempted = n_ops * len(evaluations)
    print("setup_s: " + " ".join(f"{s['seconds']:.3f}" for s in built))
    print("evaluate_s: " + " ".join(f"{e['seconds']:.3f}" for e in evaluations))
    print(
        f"{args.workload} seed {args.seed}: {len(built)} setups, {len(evaluations)} evaluations, "
        f"{attempted - failed}/{attempted} ops correct, reference "
        + ("written" if args.write_reference else "checked" if reference else "not stored for this seed")
    )

    if trace:
        untraced, traced = evaluations
        layers = tracing.layer_metrics(built[0]["spans"], traced["spans"])
        metrics = {name: metric(v, tracing.unit_of(name.rsplit(".", 1)[1])) for name, v in layers.items()}
        metrics["trace.evaluate_s"] = metric(traced["seconds"], "s")
        metrics["trace.overhead_s"] = metric(traced["seconds"] - untraced["seconds"], "s")
        print_layer_summary(args.workload, traced["spans"], traced["seconds"])
        print(
            f"peak_rss_mb {traced['peak_rss_mb']:.1f} set in {tracing.peak_setter(traced['spans'])}; "
            f"setup peak {built[0]['peak_rss_mb']:.1f} set in {tracing.peak_setter(built[0]['spans'])}"
        )
        with open(build / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"env": env, "setup": built[0]["spans"], "evaluate": traced["spans"]}, fh)
    else:
        evaluate_s = statistics.median(e["seconds"] for e in evaluations)
        metrics = {
            "evaluate_s": metric(evaluate_s, "s"),
            "profiles_per_s": metric(input_profiles(manifest, workspace) / evaluate_s, "profiles/s"),
            "peak_rss_mb": metric(statistics.median(e["peak_rss_mb"] for e in evaluations), "MB"),
            "setup_s": metric(statistics.median(s["seconds"] for s in built), "s"),
            "setup_peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in built), "MB"),
            "ops_attempted": metric(n_ops, "count"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
