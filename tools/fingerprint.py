"""Fingerprint the answers of this checkout, to check that a change keeps them byte for byte.

Run it on two checkouts and compare the printed lines::

    python3 tools/fingerprint.py           # matrix2-jobs2, mga8 and solve16, seeds 1-3
    python3 tools/fingerprint.py --full    # also the full 2-snapshot matrix (about a minute)
    python3 tools/fingerprint.py --full --compare parent.json   # exit 1 if any key differs

``--compare`` reads a line printed by an earlier run, names every key whose
value differs (or that only one side has) on stderr, and exits 1 if any does.

BLAS is pinned to one thread through ``perfbench/env.py`` and the program is
imported from this checkout's ``src``; the answer bits depend on the BLAS
thread count.  The workload inputs come from ``perfbench/inputs.py``, which
is read and never written (no bytecode is cached).  The output is one JSON
line:

* ``matrix2-jobs2`` and ``mga8``, per seed: the sha256 of ``records.csv``
  and one sha256 over the flow tables in file-name order; ``mga8`` is run as
  the benchmark runs it but with ``flows=True``, since its carried fleets
  merge the most vintages;
* ``matrix2-jobs2/<seed>/analysis``: what the command line writes from that
  store, one sha256 over ``report``'s bundle (bundled categories) in file-name
  order and one of the ``subsidy --target-mt 5 --horizon 2040`` CSV (``null``
  when no scenario has a complete ladder);
* ``solve16``, per seed: one sha256 over each pair's scenario, horizon,
  status, iteration counts, inverses and the bytes of ``x + 0.0`` and
  ``y + 0.0`` (the addition maps -0.0 to +0.0);
* ``full2`` with ``--full``: the same two hashes for the full 2-snapshot
  matrix (216 scenarios, three slack levels, 2030-2050, two jobs, flows on).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import env  # noqa: E402

env.pin_blas()
ck = env.import_program()
cli = importlib.import_module("corridor_kit.cli")

import inputs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_sha(paths) -> str | None:
    """One sha256 over each file's name and bytes, in the given order; None for no files."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest() if paths else None


def store_hashes(store_dir: Path) -> dict:
    return {
        "records": _sha((store_dir / "records.csv").read_bytes()),
        "flows": _files_sha(sorted((store_dir / "flows").glob("*.csv"))),
    }


def analysis_hashes(store_dir: Path) -> dict:
    report_dir, subsidy_csv = store_dir / "cli-report", store_dir / "subsidy.csv"
    subsidy = ["subsidy", "--store", str(store_dir), "--target-mt", "5", "--horizon", "2040", "--out", str(subsidy_csv)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["report", "--store", str(store_dir), "--out", str(report_dir)]) != 0:
            raise RuntimeError(f"report failed on {store_dir}")
        cli.main(subsidy)
    return {
        "report": _files_sha(sorted(report_dir.glob("*.csv"))),
        "subsidy": _sha(subsidy_csv.read_bytes()) if subsidy_csv.exists() else None,
    }


def solve16_hash(result) -> str:
    digest = hashlib.sha256()
    for scenario_id, horizon, _, solution, _ in result.solves:
        head = (scenario_id, horizon, solution.status, solution.iterations, solution.phase1_iterations, solution.inverses)
        digest.update(repr(head).encode())
        for values in (solution.x, solution.y):
            digest.update(b"-" if values is None else (values + 0.0).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="also hash the full 2-snapshot matrix")
    parser.add_argument("--compare", metavar="PARENT_JSON", help="a file holding an earlier run's line")
    args = parser.parse_args(argv)
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("matrix2-jobs2", "mga8", "solve16"):
            for seed in SEEDS:
                store_dir = Path(tmp) / f"{workload}-{seed}"
                inp = inputs.setup(ck, workload, seed)
                key = f"{workload}/{seed}"
                if workload == "mga8":
                    ck.runner.run_matrix(
                        inp.document, list(inp.scenarios), inp.epsilons, list(inputs.HORIZONS),
                        jobs=1, out_dir=store_dir, flows=True,
                    )
                    out[key] = store_hashes(store_dir)
                    continue
                result = workloads.run_pass(ck, inp, store_dir)
                if workload == "solve16":
                    out[key] = solve16_hash(result)
                    continue
                out[key] = store_hashes(store_dir)
                out[f"{key}/analysis"] = analysis_hashes(store_dir)
        if args.full:
            document = ck.reduction.reduce_document(ck.fixture.fixture_document(), 2)
            scenarios = ck.scenarios.enumerate_scenarios(ck.scenarios.load_categories())
            store_dir = Path(tmp) / "full2"
            ck.runner.run_matrix(
                document, scenarios, inputs.EPSILONS, list(inputs.HORIZONS), jobs=2, out_dir=store_dir,
                flows=True,
            )
            out["full2"] = store_hashes(store_dir)
    print(json.dumps(out, sort_keys=True))
    if args.compare is None:
        return 0
    parent = json.loads(Path(args.compare).read_text())
    differing = sorted(key for key in parent.keys() | out.keys() if parent.get(key) != out.get(key))
    for key in differing:
        print(f"differs: {key}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
