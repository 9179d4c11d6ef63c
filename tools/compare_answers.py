"""Compare the answers of two checkouts, byte for byte and record by record at the correctness gate's tolerances.

    python3 tools/compare_answers.py OLD NEW          # solve16, mga8 and matrix2-jobs2, seeds 1-3
    python3 tools/compare_answers.py OLD NEW --full   # also the full 2-snapshot matrix and the
                                                      # 216-scenario 8-snapshot ε 0.05 set

``OLD`` and ``NEW`` are checkout roots.  Each runs once, in its own
subprocess on its own ``src``, with BLAS pinned to one thread through
``perfbench/env.py`` and its inputs built by ``perfbench/inputs.py``, both of
this checkout, so that the two programs get the same inputs (the answer bits
depend on the BLAS thread count).  The groups:

* ``solve16/<seed>``: a workload pass as ``perfbench/workloads.py`` runs it;
* ``mga8/<seed>``: the benchmark's inputs through ``run_matrix`` with one
  job and flows on, since its carried fleets merge the most vintages;
* ``matrix2-jobs2/<seed>``: as the benchmark runs it, plus what the command
  line's ``report`` and ``subsidy --target-mt 5 --horizon 2040`` write from
  the store;
* with ``--full``, ``full2`` (216 scenarios, three slack levels, 2 snapshots)
  and ``mga8-all`` (216 scenarios, ε 0.05, 8 snapshots), each through
  ``run_matrix`` with two jobs and flows on (several minutes per checkout).

Each group has byte digests: the sha256 of ``records.csv`` and one over the
flow tables; ``matrix2-jobs2`` adds one over the report bundle and one of the
subsidy CSV (``null`` when no scenario has a complete ladder); ``solve16`` has
one sha256 over each solve's scenario, horizon, status, iteration counts,
inverses and the bytes of ``x + 0.0`` and ``y + 0.0`` (the addition maps -0.0
to +0.0).  Each group whose digests differ, or that one side lacks, is named
on its own line.

A record is one ``run_matrix`` record, or one solve16 solve (its objective
as ``cost_eur``, its extracted target as ``h2_mt``, no ``mu_raw``).  Statuses
must match exactly, and ``cost_eur``, ``h2_mt`` and ``mu_raw`` agree within
the tolerances of ``perfbench/gate.py``.  Every record outside them is listed
on its own line, and the exit status is 1 if there is any.  A ``min`` or
``max`` record's ``h2_mt`` move no larger than the cleanup pin's slack (``mga.PIN_SLACK_REL`` and
``mga.PIN_SLACK_MWH`` of this checkout's program, in Mt) is tagged
``[pin-slack]``: the pinned target may sit anywhere inside that slack.  The
summary line counts the byte-identical groups, and the records whose only
moves are such tagged ones apart from the others.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in either checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import env  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _row(record) -> list:
    return [
        record.scenario_id, record.horizon, record.sense, record.epsilon,
        record.status, record.cost_eur, record.h2_mt, record.mu_raw,
    ]


def _files_sha(paths) -> str | None:
    """One sha256 over each file's name and bytes, in the given order; None for no files."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest() if paths else None


def solve16_digest(solves) -> str:
    digest = hashlib.sha256()
    for scenario_id, horizon, _, solution, _ in solves:
        head = (scenario_id, horizon, solution.status, solution.iterations, solution.phase1_iterations, solution.inverses)
        digest.update(repr(head).encode())
        for values in (solution.x, solution.y):
            digest.update(b"-" if values is None else (values + 0.0).tobytes())
    return digest.hexdigest()


def _matrix(ck, document, scenarios, epsilons, jobs: int, store_dir: Path) -> dict:
    records, _ = ck.runner.run_matrix(
        document, list(scenarios), epsilons, list(inputs.HORIZONS), jobs=jobs, out_dir=store_dir, flows=True
    )
    digests = {
        "records": _files_sha([store_dir / "records.csv"]),
        "flows": _files_sha(sorted((store_dir / "flows").glob("*.csv"))),
    }
    return {"rows": [_row(r) for r in records], "digests": digests}


def _analysis_digests(cli, store_dir: Path) -> dict:
    report_dir, subsidy_csv = store_dir / "cli-report", store_dir / "subsidy.csv"
    subsidy = ["subsidy", "--store", str(store_dir), "--target-mt", "5", "--horizon", "2040", "--out", str(subsidy_csv)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["report", "--store", str(store_dir), "--out", str(report_dir)]) != 0:
            raise RuntimeError(f"report failed on {store_dir}")
        cli.main(subsidy)
    return {
        "report": _files_sha(sorted(report_dir.glob("*.csv"))),
        "subsidy": _files_sha([subsidy_csv]) if subsidy_csv.exists() else None,
    }


def run_checkout(root: Path, full: bool) -> dict:
    """``{group: {"rows": [record row, ...], "digests": {name: sha256}}}`` of the checkout at ``root``."""
    env.pin_blas()
    env.SRC = root.resolve() / "src"  # the program comes from that checkout
    ck = env.import_program()
    cli = importlib.import_module("corridor_kit.cli")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            inp = inputs.setup(ck, "solve16", seed)
            result = workloads.run_pass(ck, inp, Path(tmp) / f"solve16-{seed}")
            rows = []
            for scenario_id, horizon, _, solution, dispatch in result.solves:
                values = [solution.objective, dispatch.target_value_mt] if dispatch else [None, None]
                rows.append([scenario_id, horizon, "optimal", None, solution.status, *values, None])
            out[f"solve16/{seed}"] = {"rows": rows, "digests": {"solves": solve16_digest(result.solves)}}
            inp = inputs.setup(ck, "mga8", seed)
            out[f"mga8/{seed}"] = _matrix(ck, inp.document, inp.scenarios, inp.epsilons, 1, Path(tmp) / f"mga8-{seed}")
            inp, store_dir = inputs.setup(ck, "matrix2-jobs2", seed), Path(tmp) / f"matrix2-{seed}"
            group = _matrix(ck, inp.document, inp.scenarios, inp.epsilons, inputs.MATRIX2_JOBS, store_dir)
            group["digests"].update(_analysis_digests(cli, store_dir))
            out[f"matrix2-jobs2/{seed}"] = group
        if full:
            scenarios = ck.scenarios.enumerate_scenarios(ck.scenarios.load_categories())
            for group, segments, epsilons in (("full2", 2, inputs.EPSILONS), ("mga8-all", 8, inputs.MGA8_EPSILONS)):
                document = ck.reduction.reduce_document(ck.fixture.fixture_document(), segments)
                out[group] = _matrix(ck, document, scenarios, epsilons, 2, Path(tmp) / group)
    return out


def answers(root: Path, full: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(root)]
    if full:
        cmd.append("--full")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"running {root} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def pin_slack_mt(ck, h2_mt: float) -> float:
    """The cleanup pin's slack, in Mt, around an extremal target of ``h2_mt`` Mt."""
    h_star_mwh = ck.network.mt_to_twh(abs(h2_mt)) * 1e6
    return ck.network.twh_to_mt((ck.mga.PIN_SLACK_REL * h_star_mwh + ck.mga.PIN_SLACK_MWH) / 1e6)


def differences(old: dict, new: dict, ck) -> tuple[list[str], int, int]:
    """One line per record outside the tolerances, the records compared, and the pin-slack ones.

    ``old`` and ``new`` map each group to its record rows; ``ck`` is the
    program whose pin slack tags the ``h2_mt`` moves.
    """
    lines, compared, pin_slack = [], 0, 0
    for group in sorted(old.keys() | new.keys()):
        before = {tuple(r[:4]): r[4:] for r in old.get(group, [])}
        after = {tuple(r[:4]): r[4:] for r in new.get(group, [])}
        for key in sorted(before.keys() | after.keys(), key=repr):
            compared += 1
            what = f"{group} {key[0]}@{key[1]} {key[2]}" + ("" if key[3] is None else f" eps {key[3]}")
            if key not in before or key not in after:
                lines.append(f"{what}: only in {'NEW' if key in after else 'OLD'}")
                continue
            (status, *values), (new_status, *new_values) = before[key], after[key]
            if status != new_status:
                lines.append(f"{what}: status {status} -> {new_status}")
                continue
            moved, tagged = [], 0
            for field, a, b in zip(gate.VALUE_FIELDS, values, new_values):
                if gate._close(a, b, gate.REL_TOL):
                    continue
                tag = ""
                if field == "h2_mt" and key[2] != "optimal" and None not in (a, b):
                    if abs(a - b) <= pin_slack_mt(ck, max(abs(a), abs(b))):
                        tag, tagged = " [pin-slack]", tagged + 1
                moved.append(f"{field} {a!r} -> {b!r}{tag}")
            if moved:
                lines.append(f"{what}: {', '.join(moved)}")
                pin_slack += tagged == len(moved)
    return lines, compared, pin_slack


def compare(old: dict, new: dict, ck) -> tuple[list[str], int]:
    """The lines to print for two checkouts' answers, and the exit status."""
    groups, byte_lines = sorted(old.keys() | new.keys()), []
    for group in groups:
        if group not in old or group not in new:
            byte_lines.append(f"{group}: only in {'NEW' if group in new else 'OLD'}")
            continue
        before, after = old[group]["digests"], new[group]["digests"]
        differing = [name for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
        if differing:
            byte_lines.append(f"{group}: bytes differ in {', '.join(differing)}")
    rows = [{group: answer["rows"] for group, answer in side.items()} for side in (old, new)]
    lines, compared, pin_slack = differences(*rows, ck)
    summary = (
        f"{len(groups) - len(byte_lines)} of {len(groups)} groups byte-identical;"
        f" {len(lines)} of {compared} records differ"
        f" ({pin_slack} only by pin-slack moves, {len(lines) - pin_slack} otherwise)"
    )
    return byte_lines + lines + [summary], 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path, help="checkout root of the old program")
    parser.add_argument("new", nargs="?", type=Path, help="checkout root of the new program")
    parser.add_argument("--full", action="store_true", help="also the 2-snapshot matrix and the 8-snapshot ε 0.05 set")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # the subprocess of one checkout
    args = parser.parse_args(argv)
    if args.run is not None:
        print(json.dumps(run_checkout(args.run, args.full)))
        return 0
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required")
    ck = env.import_program()  # this checkout's program, for its pin slack
    lines, status = compare(answers(args.old, args.full), answers(args.new, args.full), ck)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
