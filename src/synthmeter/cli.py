"""Command-line entry point.

Subcommands mirror the pipeline: ingest, split, inject-outliers,
generate, fidelity, privacy {recon,recon-poisoned,mia,mia-poisoned},
utility {tstr-classify,tstr-forecast}, evaluate, demo. Every command is
seed-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, demo, fidelity, generators, gmm, nnet, poisoning, privacy, report, utility
from .errors import InvalidConfig, SynthmeterError
from .profiles import (
    Horizon,
    Role,
    SplitSpec,
    ingest,
    read_wide,
    split_households,
    write_wide,
)


def _horizon_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon", choices=["daily", "weekly"], default="daily")


def _add_ingest(sub) -> None:
    p = sub.add_parser("ingest", help="build wide profiles from long half-hourly readings")
    p.add_argument("--input", required=True)
    _horizon_arg(p)
    p.add_argument("--output", required=True)


def _add_split(sub) -> None:
    p = sub.add_parser("split", help="split profiles into train/holdout households")
    p.add_argument("--input", required=True)
    p.add_argument("--holdout-fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--train-out", required=True)
    p.add_argument("--holdout-out", required=True)


def _add_inject(sub) -> None:
    p = sub.add_parser("inject-outliers", help="poison training data with artificial outliers")
    p.add_argument("--train", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--mu", type=float, default=6.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--diff-mu", type=float, default=None, help="different-distribution mean (default 2*mu)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--poisoned-out", required=True)
    p.add_argument("--registry-out", required=True)


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="run a reference generator")
    p.add_argument("--kind", choices=["memorizer", "gmm"], required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jitter", type=float, default=0.0, help="memorizer jitter sigma (kWh)")
    p.add_argument("--k", type=int, default=25, help="gmm component count")
    p.add_argument("--epsilon", type=float, default=None, help="claimed epsilon, recorded only")
    p.add_argument("--output", required=True)


def _add_fidelity(sub) -> None:
    p = sub.add_parser("fidelity", help="run the five fidelity metrics")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--config", default=None, help="JSON file of FidelityConfig overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", required=True)


def _add_privacy(sub) -> None:
    p = sub.add_parser("privacy", help="run a privacy attack")
    attack = p.add_subparsers(dest="attack", required=True)

    recon = attack.add_parser("recon", help="distance-based KS reconstruction test")
    recon.add_argument("--train", required=True)
    recon.add_argument("--holdout", required=True)
    recon.add_argument("--synthetic", required=True)
    recon.add_argument("--sample-size", type=int, default=None)
    recon.add_argument("--seed", type=int, default=None)
    recon.add_argument("--report", required=True)

    rp = attack.add_parser("recon-poisoned", help="outlier-poisoned reconstruction attack")
    rp.add_argument("--registry", required=True)
    rp.add_argument("--synthetic", required=True)
    rp.add_argument("--ratios", default=None, help="start:stop:step, e.g. 0.05:1.0:0.05")
    rp.add_argument("--sample-size", type=int, default=None)
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--report", required=True)
    rp.add_argument("--curve-out", default=None, help="ratio,fraction table path")

    mia = attack.add_parser("mia", help="plain membership inference")
    mia.add_argument("--train", required=True)
    mia.add_argument("--holdout", required=True)
    mia.add_argument("--synthetic", required=True)
    mia.add_argument("--seed", type=int, default=None)
    mia.add_argument("--report", required=True)

    mp = attack.add_parser("mia-poisoned", help="outlier-poisoned membership inference")
    mp.add_argument("--registry", required=True)
    mp.add_argument("--synthetic", required=True)
    mp.add_argument("--holdout", required=True)
    mp.add_argument("--seed", type=int, default=None)
    mp.add_argument("--report", required=True)


def _add_utility(sub) -> None:
    p = sub.add_parser("utility", help="run a TSTR task")
    task = p.add_subparsers(dest="task", required=True)

    cls = task.add_parser("tstr-classify", help="season classification gap")
    for name in ("--real-fit", "--synthetic-fit", "--eval"):
        cls.add_argument(name, required=True)
    cls.add_argument("--seed", type=int, default=None)
    cls.add_argument("--epochs", type=int, default=50)
    cls.add_argument("--allow-overlap", action="store_true")
    cls.add_argument("--report", required=True)

    fc = task.add_parser("tstr-forecast", help="intraday forecasting gap")
    fc.add_argument("--kind", choices=["mean", "q95"], required=True)
    for name in ("--real-fit", "--synthetic-fit", "--eval"):
        fc.add_argument(name, required=True)
    fc.add_argument("--seed", type=int, default=None)
    fc.add_argument("--epochs", type=int, default=50)
    fc.add_argument("--allow-overlap", action="store_true")
    fc.add_argument("--report", required=True)


def _add_evaluate(sub) -> None:
    p = sub.add_parser("evaluate", help="run every suite a manifest requests")
    p.add_argument("--manifest", required=True, help="manifest JSON, or 'demo' for the bundled fixture")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_demo(sub) -> None:
    p = sub.add_parser("demo", help="build the bundled demo workspace and manifest")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--households", type=int, default=250)
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="synthmeter", description=__doc__)
    parser.add_argument("--version", action="version", version=f"synthmeter {__version__}")
    parser.add_argument("--seed", type=int, default=None, dest="global_seed",
                        help="default seed for any subcommand that does not set its own")
    parser.add_argument("--output-dir", default=None, dest="global_output_dir",
                        help="default output directory for evaluate/demo")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_ingest, _add_split, _add_inject, _add_generate, _add_fidelity,
                _add_privacy, _add_utility, _add_evaluate, _add_demo):
        add(sub)
    return parser


def _apply_global_defaults(args) -> None:
    if getattr(args, "seed", None) is None and getattr(args, "global_seed", None) is not None:
        args.seed = args.global_seed
    if getattr(args, "seed", None) is None and hasattr(args, "seed") and args.command != "evaluate":
        args.seed = 0  # evaluate keeps None so the manifest seed wins
    if getattr(args, "output_dir", None) is None and getattr(args, "global_output_dir", None) is not None:
        args.output_dir = args.global_output_dir


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(report.render_report(payload))


def _check_year_overlap(fit, eval_set, allow: bool) -> None:
    overlap = {d.year for d in fit.start_dates} & {d.year for d in eval_set.start_dates}
    if overlap and not allow:
        raise SynthmeterError(
            f"evaluation years {sorted(overlap)} overlap the fit period; pass --allow-overlap to override"
        )


def _cmd_ingest(args) -> int:
    result = ingest(args.input, Horizon.from_name(args.horizon))
    write_wide(result.profiles, args.output)
    print(
        f"ingested {result.rows_read} readings -> {len(result.profiles)} profiles "
        f"({result.dropped_periods} incomplete periods dropped)"
    )
    return 0


def _cmd_split(args) -> int:
    data = read_wide(args.input, Role.TRAIN)
    train, holdout = split_households(data, SplitSpec(holdout_fraction=args.holdout_fraction, seed=args.seed))
    write_wide(train, args.train_out)
    write_wide(holdout, args.holdout_out)
    print(
        f"split {len(set(data.household_ids))} households -> "
        f"{len(set(train.household_ids))} train / {len(set(holdout.household_ids))} holdout"
    )
    return 0


def _cmd_inject(args) -> int:
    train = read_wide(args.train, Role.TRAIN)
    spec = poisoning.OutlierSpec(count=args.count, mu=args.mu, sigma=args.sigma, seed=args.seed)
    diff_spec = None
    if args.diff_mu is not None:
        diff_spec = poisoning.OutlierSpec(count=args.count, mu=args.diff_mu, sigma=args.sigma, seed=args.seed)
    registry = poisoning.make_attack_registry(spec, train.horizon, diff_dist_spec=diff_spec)
    poisoned = poisoning.inject(train, registry.seen_outliers, seed=args.seed)
    write_wide(poisoned, args.poisoned_out)
    poisoning.write_registry(registry, args.registry_out)
    print(f"injected {args.count} outliers into {len(train)} profiles -> {len(poisoned)} rows")
    return 0


def _cmd_generate(args) -> int:
    if args.n < 1:  # before the mixture fit, which would otherwise run first
        raise InvalidConfig(f"--n must be at least 1, got {args.n}")
    train = read_wide(args.train, Role.TRAIN)
    if args.kind == "memorizer":
        config = generators.MemorizerConfig(jitter_sigma=args.jitter, seed=args.seed)
        synthetic = generators.memorizer_generate(train, args.n, config)
        clamp = None
    else:
        model = gmm.fit(train, gmm.FitConfig(k=args.k, seed=args.seed))
        sample = gmm.sample(model, args.n, seed=args.seed, horizon=train.horizon)
        synthetic = sample.profiles
        clamp = sample.clamp_count
    write_wide(synthetic, args.output)
    note = "" if clamp is None else f" ({clamp} negative draws clamped to 0)"
    eps = "" if args.epsilon is None else f", claimed epsilon {args.epsilon} recorded only"
    print(f"generated {args.n} {args.kind} profiles{note}{eps}")
    return 0


def _cmd_fidelity(args) -> int:
    real = read_wide(args.real, Role.TRAIN)
    synthetic = read_wide(args.synthetic, Role.SYNTHETIC, horizon=real.horizon)
    options = {}
    if args.config:
        with open(args.config) as fh:
            options = json.load(fh)
    config = fidelity.FidelityConfig.from_options(options, args.seed)
    result = fidelity.evaluate_fidelity(real, synthetic, config)
    _write_json(args.report, result.as_dict())
    print(f"fidelity report written to {args.report}")
    return 0


def _ratio_range(text: str) -> tuple[float, ...]:
    """Threshold ratios from ``start:stop:step``, both ends included."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidConfig(f"--ratios must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise InvalidConfig(f"--ratios must be three numbers, got {text!r}") from None
    if not (step > 0 and stop >= start and math.isfinite(stop - start)):
        raise InvalidConfig(f"--ratios needs a positive step and start <= stop, got {text!r}")
    count = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 10) for i in range(count))


def _cmd_privacy(args) -> int:
    if args.attack == "recon":
        train = read_wide(args.train, Role.TRAIN)
        holdout = read_wide(args.holdout, Role.HOLDOUT, horizon=train.horizon)
        synthetic = read_wide(args.synthetic, Role.SYNTHETIC, horizon=train.horizon)
        ks = privacy.reconstruction_ks(train, holdout, synthetic, sample_size=args.sample_size, seed=args.seed)
        _write_json(args.report, {"statistic": ks.statistic, "p_value": ks.p_value, "m": ks.m, "n": ks.n})
        print(f"KS statistic {ks.statistic:.4f}, p {ks.p_value:.4f} ({'no ' if ks.p_value >= 0.05 else ''}memorisation evidence)")
    elif args.attack == "recon-poisoned":
        ratios = _ratio_range(args.ratios) if args.ratios else privacy.default_threshold_ratios()
        config = privacy.ReconstructionConfig(
            threshold_ratios=ratios, synthetic_sample_size=args.sample_size, seed=args.seed
        )
        registry = poisoning.read_registry(args.registry)
        synthetic = read_wide(args.synthetic, Role.SYNTHETIC)
        result = privacy.reconstruction_poisoned(registry, synthetic, config)
        _write_json(args.report, result.as_dict())
        curve_out = args.curve_out or str(Path(args.report).with_suffix(".curve.csv"))
        report.write_reconstruction_curve(result, curve_out)
        fraction_03 = result.fraction_reconstructed.get(0.3)
        extra = "" if fraction_03 is None else f"; {fraction_03:.0%} reconstructed at ratio 0.3"
        print(f"reconstruction curve written to {curve_out}{extra}")
    elif args.attack == "mia":
        train = read_wide(args.train, Role.TRAIN)
        holdout = read_wide(args.holdout, Role.HOLDOUT, horizon=train.horizon)
        synthetic = read_wide(args.synthetic, Role.SYNTHETIC, horizon=train.horizon)
        result = privacy.mia_plain(train, holdout, synthetic, seed=args.seed)
        _write_json(args.report, result.as_dict())
        print(f"plain MIA precision {result.precision:.3f} (0.5 = random guess)")
    else:
        registry = poisoning.read_registry(args.registry)
        synthetic = read_wide(args.synthetic, Role.SYNTHETIC)
        holdout = read_wide(args.holdout, Role.HOLDOUT, horizon=synthetic.horizon)
        result = privacy.mia_poisoned(registry, synthetic, holdout, seed=args.seed)
        _write_json(args.report, result.as_dict())
        print(f"poisoned MIA precision {result.precision:.3f} (1/3 = random guess)")
    return 0


def _cmd_utility(args) -> int:
    real_fit = read_wide(args.real_fit, Role.TRAIN)
    synthetic_fit = read_wide(args.synthetic_fit, Role.SYNTHETIC, horizon=real_fit.horizon)
    real_eval = read_wide(args.eval, Role.HOLDOUT, horizon=real_fit.horizon)
    _check_year_overlap(real_fit, real_eval, args.allow_overlap)
    if args.task == "tstr-classify":
        config = nnet.TrainConfig(loss=nnet.BCE, epochs=args.epochs, seed=args.seed)
        result = utility.tstr_classify(real_fit, synthetic_fit, real_eval, config)
    elif args.kind == "mean":
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=args.epochs, seed=args.seed)
        result = utility.tstr_forecast_mean(real_fit, synthetic_fit, real_eval, config)
    else:
        config = nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95, epochs=args.epochs, seed=args.seed)
        result = utility.tstr_forecast_quantile(real_fit, synthetic_fit, real_eval, config)
    _write_json(args.report, result.as_dict())
    print(
        f"{result.metric_name}: real-trained {result.score_real_trained:.4f}, "
        f"synthetic-trained {result.score_synthetic_trained:.4f}, gap {result.absolute_gap:.4f}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    manifest = args.manifest
    if manifest == "demo":
        target = Path(args.output_dir) if args.output_dir else Path("synthmeter-demo")
        manifest = str(build_demo_workspace(target, seed=args.seed or 0))
    outcome = report.run_full_evaluation(manifest, output_dir=args.output_dir, seed=args.seed)
    print(f"report written to {outcome.report_path}")
    for side in outcome.side_files:
        print(f"  side file: {side}")
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 0 if outcome.ok else 1


def labelled_gmm_synthetic(train, seed: int = 0, max_k: int = 10):
    """Season-labelled synthetic data for TSTR: one mixture per season half,
    sampled at the subset's own size and tagged with its label."""
    from .profiles import ProfileSet, SUMMER_AUTUMN, WINTER_SPRING

    parts: list = []
    labels: list[str] = []
    for label in (WINTER_SPRING, SUMMER_AUTUMN):
        rows = [i for i, lab in enumerate(train.labels) if lab == label]
        if not rows:
            raise SynthmeterError(f"no {label} profiles to fit the season mixture on")
        subset = train.subset(rows)
        k = min(max_k, max(1, len(subset) // 20))
        part = generators.gmm_generate(subset, len(subset), gmm.FitConfig(k=k, seed=seed))
        parts.append(part.values)
        labels.extend([label] * len(part))
    values = np.vstack(parts)
    return ProfileSet(
        values=values,
        household_ids=tuple(f"synfit_{i:06d}" for i in range(len(values))),
        start_dates=(min(train.start_dates),) * len(values),
        horizon=train.horizon,
        role=Role.SYNTHETIC,
        labels=tuple(labels),
    )


def build_demo_workspace(
    target: Path, households: int = 250, days: int = 20, seed: int = 0
) -> Path:
    """Materialise the bundled end-to-end demo: ingest -> split -> inject ->
    generate -> manifest. Returns the manifest path."""
    import datetime as dt

    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    rng_seed = seed

    # spread each household's days across the year so both season labels appear
    day_step = max(1, 364 // days)
    population = demo.make_population(households, days, seed=rng_seed, day_step=day_step)
    long_path = target / "readings.csv"
    demo.write_long_csv(population, long_path)
    ingested = ingest(long_path, Horizon.DAILY)

    train, holdout = split_households(
        ingested.profiles, SplitSpec(holdout_fraction=0.5, seed=rng_seed)
    )
    spec = poisoning.OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=rng_seed)
    registry = poisoning.make_attack_registry(spec, Horizon.DAILY)
    poisoned = poisoning.inject(train, registry.seen_outliers, seed=rng_seed)

    k = min(25, max(2, len(poisoned) // 40))
    synthetic = generators.gmm_generate(poisoned, len(poisoned), gmm.FitConfig(k=k, seed=rng_seed))
    synthetic_fit = labelled_gmm_synthetic(train, seed=rng_seed)
    eval_population = demo.make_population(
        max(40, households // 4), days, seed=rng_seed + 1,
        start=dt.date(2014, 1, 2), day_step=day_step,
    )

    paths = {
        "train": target / "train.csv",
        "holdout": target / "holdout.csv",
        "poisoned_train": target / "poisoned_train.csv",
        "synthetic": target / "synthetic.csv",
        "registry": target / "registry.csv",
        "synthetic_fit": target / "synthetic_fit.csv",
        "eval": target / "eval.csv",
    }
    write_wide(poisoned, paths["poisoned_train"])
    write_wide(train, paths["train"])
    write_wide(holdout, paths["holdout"])
    write_wide(synthetic, paths["synthetic"])
    poisoning.write_registry(registry, paths["registry"])
    write_wide(synthetic_fit, paths["synthetic_fit"])
    write_wide(eval_population, paths["eval"])

    manifest = {
        "horizon": "daily",
        "seed": rng_seed,
        "train": "train.csv",
        "holdout": "holdout.csv",
        "synthetic": "synthetic.csv",
        "registry": "registry.csv",
        "generator": {"name": "demo-gmm-sampler", "kind": "gmm"},
        "fidelity": {"clusters_k": 25},
        "privacy": {
            "recon": True,
            "recon_poisoned": True,
            "mia": True,
            "mia_poisoned": True,
            "policy": {"ratio": 0.3, "max_fraction": 0.0},
        },
        "utility": {
            "real_fit": "train.csv",
            "synthetic_fit": "synthetic_fit.csv",
            "eval": "eval.csv",
            "epochs": 20,
        },
    }
    manifest_path = target / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


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
    "fidelity": _cmd_fidelity,
    "privacy": _cmd_privacy,
    "utility": _cmd_utility,
    "evaluate": _cmd_evaluate,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_global_defaults(args)
    try:
        return _COMMANDS[args.command](args)
    except SynthmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
