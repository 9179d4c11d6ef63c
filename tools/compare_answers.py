"""Compare the answers of two checkouts record by record, at the correctness gate's tolerances.

    python3 tools/compare_answers.py OLD NEW              # mga8, matrix2-jobs2 and solve16, seeds 1-3
    python3 tools/compare_answers.py OLD NEW --mga8-all   # also all 216 scenarios at 8 snapshots, ε 0.05

``OLD`` and ``NEW`` are checkout roots.  Each runs in its own subprocess on
its own ``src``, with BLAS pinned to one thread through ``perfbench/env.py``
and its inputs built by ``perfbench/inputs.py``, both of this checkout, so
that the two programs get the same inputs.  A workload pass runs as
``perfbench/workloads.py`` runs it; ``--mga8-all`` adds the 216-scenario
ε 0.05 set at 8 snapshots and 2030-2050 through ``run_matrix`` with two jobs
(a few minutes per checkout).

A record is one ``run_matrix`` record, or one solve16 solve (its objective
as ``cost_eur``, its extracted target as ``h2_mt``, no ``mu_raw``).  Statuses
must match exactly, and ``cost_eur``, ``h2_mt`` and ``mu_raw`` agree within
the tolerances of ``perfbench/gate.py``.  Every record outside them is listed
on its own line, and the exit status is 1 if there is any.  A ``min`` or
``max`` record's ``h2_mt`` move no larger than the cleanup pin's slack (``mga.PIN_SLACK_REL`` and
``mga.PIN_SLACK_MWH`` of this checkout's program, in Mt) is tagged
``[pin-slack]``: the pinned target may sit anywhere inside that slack.  The
summary line counts the records whose only moves are such tagged ones apart
from the others.
"""

from __future__ import annotations

import argparse
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


def run_checkout(root: Path, mga8_all: bool) -> dict:
    """``{group: [record row, ...]}`` of the checkout at ``root``, run in this process."""
    env.pin_blas()
    env.SRC = root.resolve() / "src"  # the program comes from that checkout
    ck = env.import_program()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            for seed in SEEDS:
                inp = inputs.setup(ck, workload, seed)
                result = workloads.run_pass(ck, inp, Path(tmp) / f"{workload}-{seed}")
                rows = [_row(r) for r in result.records]
                for scenario_id, horizon, _, solution, dispatch in result.solves:
                    values = [solution.objective, dispatch.target_value_mt] if dispatch else [None, None]
                    rows.append([scenario_id, horizon, "optimal", None, solution.status, *values, None])
                out[f"{workload}/{seed}"] = rows
        if mga8_all:
            document = ck.reduction.reduce_document(ck.fixture.fixture_document(), inputs.SEGMENTS["mga8"])
            scenarios = ck.scenarios.enumerate_scenarios(ck.scenarios.load_categories())
            records, _ = ck.runner.run_matrix(
                document, scenarios, inputs.MGA8_EPSILONS, list(inputs.HORIZONS), jobs=2, out_dir=Path(tmp) / "all"
            )
            out["mga8-all"] = [_row(r) for r in records]
    return out


def answers(root: Path, mga8_all: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(root)]
    if mga8_all:
        cmd.append("--mga8-all")
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

    ``ck`` is the program whose pin slack tags the ``h2_mt`` moves.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path, help="checkout root of the old program")
    parser.add_argument("new", nargs="?", type=Path, help="checkout root of the new program")
    parser.add_argument("--mga8-all", action="store_true", help="also run all 216 scenarios at 8 snapshots, ε 0.05")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # the subprocess of one checkout
    args = parser.parse_args(argv)
    if args.run is not None:
        print(json.dumps(run_checkout(args.run, args.mga8_all)))
        return 0
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required")
    ck = env.import_program()  # this checkout's program, for its pin slack
    lines, compared, pin_slack = differences(answers(args.old, args.mga8_all), answers(args.new, args.mga8_all), ck)
    summary = (
        f"{len(lines)} of {compared} records differ"
        f" ({pin_slack} only by pin-slack moves, {len(lines) - pin_slack} otherwise)"
    )
    print("\n".join(lines + [summary]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
