"""Command-line entry point: reproducible runs and analysis over stored results.

Each command parses its flags, loads what it needs, and prints or writes what
:mod:`corridor_kit.runner` and :mod:`corridor_kit.analysis` produce; every
table is computed there.

Exit codes: 0 success, 1 user error (bad paths, bad flags, invalid model),
2 internal error.  All configuration lives in flags or a manifest file; no
environment variables are consulted (the manifest records the BLAS thread
variables, but only as provenance).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, analysis
from .fixture import fixture_document
from .network import ValidationError, build_network
from .reduction import reduce_document
from .runner import ResultsStore, RunManifest, run_matrix
from .scenarios import ConfigurationError, enumerate_scenarios, load_categories


class UserError(Exception):
    pass


def _load_model(path: str) -> dict:
    if path == "fixture":
        return fixture_document()
    p = Path(path)
    if not p.exists():
        raise UserError(f"model file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UserError(f"model file is not valid JSON: {exc}") from exc


def _load_manifest(path: str) -> RunManifest:
    try:
        return RunManifest.from_json(Path(path).read_text())
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UserError(f"invalid manifest {path}: {exc!r}") from exc


def _reduce(document: dict, segments: int) -> dict:
    try:
        return reduce_document(document, segments)
    except ValueError as exc:
        raise UserError(f"cannot segment the model: {exc}") from exc


def _parse_horizons(spec: str) -> list[int]:
    try:
        if ":" in spec:
            start, stop, step = (int(tok) for tok in spec.split(":"))
            return list(range(start, stop + 1, step))
        return [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise UserError(f"cannot parse horizons {spec!r} (want START:STOP:STEP or a comma list)") from exc


def _parse_floats(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UserError(f"cannot parse float list {spec!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridor-kit",
        description="Near-optimal pathway exploration for capacity-expansion energy models.",
    )
    parser.add_argument("--version", action="version", version=f"corridor-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the scenario matrix and persist a results store")
    p.add_argument("--model", help="model JSON path, or 'fixture' for the bundled system")
    p.add_argument("--scenarios", help="scenarios JSON path (default: bundled definitions)")
    p.add_argument("--epsilon", default="0.02,0.05,0.10", help="comma list of slack levels")
    p.add_argument("--horizons", default="2030:2050:5", help="START:STOP:STEP or comma list")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--segments", type=int, help="segment model profiles before running")
    p.add_argument("--flows", action="store_true", help="write per-record flow tables")
    p.add_argument("--manifest", help="re-run from a manifest file (other flags ignored)")
    p.add_argument("--out", help="output directory (required unless --manifest)")

    p = sub.add_parser("validate", help="validate a model document and print counts")
    p.add_argument("--model", required=True)

    p = sub.add_parser("reduce", help="segment a model's profiles to fewer snapshots")
    p.add_argument("--model", required=True)
    p.add_argument("--segments", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("corridor", help="robust corridor table at one slack level from a results store")
    p.add_argument("--store", required=True)
    p.add_argument("--epsilon", type=float, default=0.10)
    p.add_argument("--quantiles", default=",".join(map(str, analysis.DEFAULT_QUANTILES)))
    p.add_argument("--out", help="write corridor.csv into this directory (default: print)")

    p = sub.add_parser("sensitivity", help="setting-level regression over a results store")
    p.add_argument("--store", required=True)
    p.add_argument("--sense", default="optimal", choices=["optimal", "min", "max"])
    p.add_argument("--epsilon", type=float, help="slack level (required for min/max)")
    p.add_argument("--scenarios", help="scenarios JSON path (default: bundled definitions)")
    p.add_argument("--horizons", help=f"comma list to pool (default: {analysis.HEADLINE_HORIZON} and later)")

    p = sub.add_parser("subsidy", help="subsidy rate required to reach a production target")
    p.add_argument("--store", required=True)
    p.add_argument("--target-mt", type=float, required=True)
    p.add_argument("--horizon", type=int, default=analysis.HEADLINE_HORIZON)
    p.add_argument("--out", help="write subsidy.csv here (default: print)")

    p = sub.add_parser("report", help="emit the full CSV bundle from a results store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scenarios", help="scenarios JSON path (default: bundled definitions)")
    return parser


def _cmd_run(args) -> int:
    if args.manifest:
        manifest = _load_manifest(args.manifest)
    elif not args.model or not args.out:
        raise UserError("run needs --model and --out (or --manifest)")
    else:
        manifest = RunManifest(
            model=args.model,
            scenarios=args.scenarios or "<bundled>",
            epsilons=tuple(_parse_floats(args.epsilon)),
            horizons=tuple(_parse_horizons(args.horizons)),
            jobs=args.jobs,
            out=str(args.out),
            segments=args.segments,
            flows=args.flows,
        )
    epsilons, horizons = list(manifest.epsilons), list(manifest.horizons)
    if not all(eps >= 0 for eps in epsilons):
        raise UserError(f"slack levels must be >= 0, got {epsilons}")
    if any(later <= earlier for earlier, later in zip(horizons, horizons[1:])):
        raise UserError(f"horizons must be strictly increasing, got {horizons}")
    document = _load_model(manifest.model)
    if manifest.segments is not None:
        document = _reduce(document, manifest.segments)
    categories = load_categories(None if manifest.scenarios in ("<bundled>", None) else manifest.scenarios)
    scenarios = enumerate_scenarios(categories)
    records, _ = run_matrix(
        document,
        scenarios,
        epsilons,
        horizons,
        jobs=manifest.jobs,
        out_dir=manifest.out,
        flows=manifest.flows,
        manifest=manifest,
    )
    failed = sum(1 for r in records if r.status != "optimal")
    print(f"{len(records)} records ({failed} failed) over {len(scenarios)} scenarios -> {manifest.out}")
    return 0


def _cmd_validate(args) -> int:
    document = _load_model(args.model)
    network = build_network(document)
    print(
        f"model {network.meta.get('name', '?')!r} at horizon {network.horizon}: "
        f"{len(network.carriers)} carriers, {len(network.buses)} buses, "
        f"{len(network.assets)} assets, {network.snapshots.count} snapshots, "
        f"{len(network.limits)} limits"
    )
    return 0


def _cmd_reduce(args) -> int:
    document = _load_model(args.model)
    reduced = _reduce(document, args.segments)
    Path(args.out).write_text(json.dumps(reduced, indent=1) + "\n")
    print(f"wrote {args.out} with {args.segments} snapshots")
    return 0


def _cmd_corridor(args) -> int:
    records = ResultsStore(args.store).read_records()
    rows = analysis.corridor_rows(records, [args.epsilon], _parse_floats(args.quantiles))
    if not args.out:
        analysis.write_table(sys.stdout, analysis.CORRIDOR_HEADER, rows)
        return 0
    path = Path(args.out) / "corridor.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    analysis._write_csv(path, analysis.CORRIDOR_HEADER, rows)
    print(f"wrote {path}")
    return 0


def _cmd_sensitivity(args) -> int:
    records = ResultsStore(args.store).read_records()
    categories = load_categories(args.scenarios)
    horizons = _parse_horizons(args.horizons) if args.horizons else analysis.pooled_horizons(records)
    epsilon = args.epsilon
    if args.sense != "optimal" and epsilon is None:
        raise UserError("min/max sensitivity needs --epsilon")
    res = analysis.sensitivity(records, categories, sense=args.sense, epsilon=epsilon, horizons=horizons)
    print(f"sense={args.sense} epsilon={epsilon} n={res.n_points} dropped={res.n_dropped}")
    for name in res.categories:
        print(f"  {name:14s} {res.coefficients[name]:+9.3f} Mt")
    if res.skipped:
        print(f"  (constant categories skipped: {', '.join(res.skipped)})")
    return 0


def _cmd_subsidy(args) -> int:
    records = ResultsStore(args.store).read_records()
    rows, skipped = analysis.subsidy_rows(records, args.target_mt, args.horizon)
    if not rows:
        raise UserError("no scenario has a complete maximization ladder at this horizon")
    if args.out:
        analysis._write_csv(args.out, analysis.SUBSIDY_HEADER, rows)
        print(f"wrote {args.out}")
    _, mean_rate, mean_volume = rows[-1]
    print(
        f"target {args.target_mt} Mt at {args.horizon}: mean subsidy "
        f"{mean_rate:.3f} EUR/kg, mean volume {mean_volume/1e9:.2f} bn EUR/a "
        f"({len(rows) - 1} scenarios, {skipped} skipped)"
    )
    return 0


def _cmd_report(args) -> int:
    records = ResultsStore(args.store).read_records()
    categories = load_categories(args.scenarios)
    written = analysis.report(records, args.out, categories=categories)
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "reduce": _cmd_reduce,
    "corridor": _cmd_corridor,
    "sensitivity": _cmd_sensitivity,
    "subsidy": _cmd_subsidy,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (UserError, ValidationError, ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
