"""Command-line entry point.

Subcommands mirror the pipeline: ingest, split, inject-outliers,
generate, fidelity, privacy {recon,recon-poisoned,mia,mia-poisoned},
utility {tstr-classify,tstr-forecast}, evaluate, demo. Every command is
seed-deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, generators, gmm, kernels, nnet, poisoning, report
from .demo import build_demo_workspace, labelled_gmm_synthetic  # noqa: F401 - public via cli
from .errors import InvalidConfig, SynthmeterError
from .profiles import (
    Horizon,
    SplitSpec,
    ingest,
    read_horizon,
    read_wide,
    split_households,
    write_wide,
)


class _Parser(argparse.ArgumentParser):
    """A parser, and by ``add_subparsers`` each of its subparsers, that takes a flag by its full name only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _seed(text: str) -> int:
    """argparse type of every --seed: numpy takes only non-negative seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_ingest(sub) -> None:
    p = sub.add_parser("ingest", help="build wide profiles from long half-hourly readings")
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", choices=["daily", "weekly"], default="daily")
    p.add_argument("--output", required=True)


def _add_split(sub) -> None:
    p = sub.add_parser("split", help="split profiles into train/holdout households")
    p.add_argument("--input", required=True)
    p.add_argument("--holdout-fraction", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--holdout-out", required=True)


def _add_inject(sub) -> None:
    p = sub.add_parser("inject-outliers", help="poison training data with artificial outliers")
    p.add_argument("--train", required=True)
    p.add_argument("--count", type=int, default=poisoning.OutlierSpec.count)
    p.add_argument("--mu", type=float, default=poisoning.OutlierSpec.mu)
    p.add_argument("--sigma", type=float, default=poisoning.OutlierSpec.sigma)
    p.add_argument("--diff-mu", type=float, default=None, help="different-distribution mean (default 2*mu)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--poisoned-out", required=True)
    p.add_argument("--registry-out", required=True)


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="run a reference generator")
    p.add_argument("--kind", choices=["memorizer", "gmm"], required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    # each kind's flag: left out, its config's default applies; given, the other kind rejects it
    p.add_argument("--jitter", type=float, default=None, help="memorizer only: jitter sigma (kWh)")
    p.add_argument("--k", type=int, default=None, help="gmm only: component count")
    p.add_argument("--output", required=True)


def _add_fidelity(sub) -> None:
    p = sub.add_parser("fidelity", help="run the five fidelity metrics")
    p.add_argument("--real", dest="train", metavar="REAL", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--config", default=None, help="JSON file of FidelityConfig overrides")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", required=True)


def _add_privacy(sub) -> None:
    p = sub.add_parser("privacy", help="run a privacy attack")
    attack = p.add_subparsers(dest="attack", required=True)
    for name, help_text in (
        ("recon", "distance-based KS reconstruction test"),
        ("recon-poisoned", "outlier-poisoned reconstruction attack"),
        ("mia", "plain membership inference"),
        ("mia-poisoned", "outlier-poisoned membership inference"),
    ):
        parser = attack.add_parser(name, help=help_text)
        for key in report.FILES[name.replace("-", "_")]:
            parser.add_argument(f"--{key}", required=True)
        if name == "recon-poisoned":
            parser.add_argument("--ratios", default=None, help="start:stop:step, e.g. 0.05:1.0:0.05")
        if name.startswith("recon"):
            parser.add_argument("--sample-size", type=int, default=None)
        parser.add_argument("--seed", type=_seed, default=0)
        parser.add_argument("--report", required=True)


def _add_utility(sub) -> None:
    p = sub.add_parser("utility", help="run a TSTR task")
    task = p.add_subparsers(dest="task", required=True)

    cls = task.add_parser("tstr-classify", help="season classification gap")
    fc = task.add_parser("tstr-forecast", help="intraday forecasting gap")
    fc.add_argument("--kind", choices=["mean", "q95"], required=True)
    for parser in (cls, fc):
        for key in report.UTILITY_FILES:
            parser.add_argument(f"--{key.replace('_', '-')}", required=True)
        parser.add_argument("--seed", type=_seed, default=0)
        parser.add_argument("--epochs", type=int, default=nnet.TrainConfig.epochs)
        parser.add_argument("--allow-overlap", action="store_true")
        parser.add_argument("--report", required=True)


def _add_evaluate(sub) -> None:
    p = sub.add_parser("evaluate", help="run every suite a manifest requests")
    p.add_argument("--manifest", required=True, help="manifest JSON file")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--seed", type=_seed, default=None, help="overrides the manifest's seed")


def _add_demo(sub) -> None:
    p = sub.add_parser("demo", help="build the bundled demo workspace and manifest")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--households", type=int, default=250)
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synthmeter", description=__doc__)
    parser.add_argument("--version", action="version", version=f"synthmeter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_ingest, _add_split, _add_inject, _add_generate, _add_fidelity,
                _add_privacy, _add_utility, _add_evaluate, _add_demo):
        add(sub)
    return parser


def _cmd_ingest(args) -> int:
    result = ingest(args.input, Horizon.from_name(args.horizon))
    write_wide(result.profiles, args.output)
    print(
        f"ingested {result.rows_read} readings -> {len(result.profiles)} profiles "
        f"({result.dropped_periods} incomplete periods dropped)"
    )
    return 0


def _cmd_split(args) -> int:
    spec = SplitSpec(holdout_fraction=args.holdout_fraction, seed=args.seed)
    data = read_wide(args.input)
    train, holdout = split_households(data, spec)
    write_wide(train, args.train_out)
    write_wide(holdout, args.holdout_out)
    print(
        f"split {len(set(data.household_ids))} households -> "
        f"{len(set(train.household_ids))} train / {len(set(holdout.household_ids))} holdout"
    )
    return 0


def _cmd_inject(args) -> int:
    spec = poisoning.OutlierSpec(count=args.count, mu=args.mu, sigma=args.sigma, seed=args.seed)
    train = read_wide(args.train)
    registry = poisoning.make_attack_registry(spec, train.horizon, diff_mu=args.diff_mu)
    poisoned = poisoning.inject(train, registry.seen_outliers, seed=args.seed)
    write_wide(poisoned, args.poisoned_out)
    poisoning.write_registry(registry, args.registry_out)
    print(f"injected {args.count} outliers into {len(train)} profiles -> {len(poisoned)} rows")
    return 0


def _cmd_generate(args) -> int:
    if args.n < 1:  # here, or the read and the mixture fit would run first
        raise InvalidConfig(f"--n must be at least 1, got {args.n}")
    flag, value = ("--k", args.k) if args.kind == "memorizer" else ("--jitter", args.jitter)
    if value is not None:
        raise InvalidConfig(f"{flag} does not apply to --kind {args.kind}")
    if args.kind == "memorizer":
        given = {} if args.jitter is None else {"jitter_sigma": args.jitter}
        config = generators.MemorizerConfig(**given, seed=args.seed)
    else:
        given = {} if args.k is None else {"k": args.k}
        config = gmm.FitConfig(**given, seed=args.seed)
    train = read_wide(args.train)
    note = ""
    if args.kind == "memorizer":
        synthetic = generators.memorizer_generate(train, args.n, config)
    else:
        sample = gmm.sample(gmm.fit(train, config), args.n, seed=args.seed)
        synthetic, note = sample.profiles, f" ({sample.clamp_count} negative draws clamped to 0)"
    write_wide(synthetic, args.output)
    print(f"generated {args.n} {args.kind} profiles{note}")
    return 0


def _ratio_range(text: str) -> list[float]:
    """Threshold ratios from ``start:stop:step``, both ends included, checked before the grid is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidConfig(f"--ratios must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise InvalidConfig(f"--ratios must be three numbers, got {text!r}") from None
    if not (step > 0 and 0 < start <= stop <= 1):
        raise InvalidConfig(f"--ratios needs 0 < start <= stop <= 1 and a positive step, got {text!r}")
    steps = (stop - start) / step
    if not steps < _MAX_RATIOS - 0.5:  # so round(steps) + 1 points are at most _MAX_RATIOS
        raise InvalidConfig(f"--ratios gives more than {_MAX_RATIOS} points, got {text!r}")
    return [round(start + i * step, 10) for i in range(round(steps) + 1)]


# suite part -> (its entry in its report section, None for the whole section; its summary line)
_ENTRIES = {
    "fidelity": (None, lambda r, args: f"fidelity report written to {args.report}"),
    "recon": ("ks", lambda r, args: (
        f"KS statistic {r['statistic']:.4f}, p {r['p_value']:.4f} "
        f"({'no ' if r['p_value'] >= 0.05 else ''}memorisation evidence)"
    )),
    "recon_poisoned": ("reconstruction", None),  # writes its curve and names it instead
    "mia": ("mia_plain", lambda r, args: f"plain MIA precision {r['precision']:.3f} (0.5 = random guess)"),
    "mia_poisoned": ("mia_poisoned", lambda r, args: (
        f"poisoned MIA precision {r['precision']:.3f} ({r['positive_fraction']:.3f} = random guess)"
    )),
    "utility": (0, lambda r, args: (
        f"{r['metric_name']}: real-trained {r['score_real_trained']:.4f}, "
        f"synthetic-trained {r['score_synthetic_trained']:.4f}, gap {r['absolute_gap']:.4f}"
    )),
}

# utility subcommand (and --kind) -> TSTR task
_TASKS = {"tstr-classify": "classify", "mean": "forecast_mean", "q95": "forecast_quantile"}
_MAX_RATIOS = 10_000  # points in a --ratios grid: 500 times the default grid's 20


def _cmd_suite(args) -> int:
    """fidelity, privacy and utility: the flags become a manifest of one suite part, run like evaluate's."""
    suite = args.command
    part = args.attack.replace("-", "_") if suite == "privacy" else suite
    files = {key: getattr(args, key) for key in report.FILES[part]}
    manifest = {"horizon": read_horizon(files[report.FILES[part][0]]).name.lower()}
    if suite == "fidelity":
        options = report.read_json(args.config) if args.config else {}
        report.check_options("fidelity", options)
        manifest.update(files, fidelity=options or True)  # an empty section would not run
    elif suite == "privacy":
        options = {part: True, "sample_size": getattr(args, "sample_size", None)}
        if getattr(args, "ratios", None):
            options["threshold_ratios"] = _ratio_range(args.ratios)
        manifest.update(files, privacy=options)
    else:
        task = _TASKS[args.task if args.task == "tstr-classify" else args.kind]
        manifest["utility"] = {**files, "tasks": [task], "epochs": args.epochs, "allow_overlap": args.allow_overlap}
    planned = report.plan(manifest, args.seed)[suite]
    section, tables = report.SECTIONS[suite](*planned, report.reader(manifest, Path())[0])
    key, summary = _ENTRIES[part]
    entry = section if key is None else section[key]
    with open(args.report, "w") as fh:
        fh.write(report.render_report(entry))
    if summary is not None:
        print(summary(entry, args))
        return 0
    curve_out = Path(args.report).with_suffix(".curve.csv")
    report.write_table(curve_out, *tables["reconstruction_cdf.csv"])
    fraction_03 = entry["fraction_reconstructed"].get("0.3")
    extra = "" if fraction_03 is None else f"; {fraction_03:.0%} reconstructed at ratio 0.3"
    print(f"reconstruction curve written to {curve_out}{extra}")
    return 0


def _cmd_evaluate(args) -> int:
    outcome = report.run_full_evaluation(args.manifest, output_dir=args.output_dir, seed=args.seed)
    print(f"report written to {outcome.report_path}")
    for side in outcome.side_files:
        print(f"  side file: {side}")
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 0 if outcome.ok else 1


def _cmd_demo(args) -> int:
    manifest_path = build_demo_workspace(
        Path(args.output_dir), households=args.households, days=args.days, seed=args.seed
    )
    print(f"demo workspace ready; manifest at {manifest_path}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "split": _cmd_split,
    "inject-outliers": _cmd_inject,
    "generate": _cmd_generate,
    "fidelity": _cmd_suite,
    "privacy": _cmd_suite,
    "utility": _cmd_suite,
    "evaluate": _cmd_evaluate,
    "demo": _cmd_demo,
}


@kernels.one_blas_thread
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SynthmeterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
