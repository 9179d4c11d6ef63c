import json
import logging
from importlib import resources

import numpy as np
import pytest

import corridor_kit.mga as mga_mod
import corridor_kit.pathway as pathway_mod
import corridor_kit.runner as runner_mod
from corridor_kit.cli import main
from corridor_kit.pathway import PathwayRecord
from corridor_kit.reduction import reduce_document
from corridor_kit.runner import ResultsStore, run_matrix
from corridor_kit.scenarios import enumerate_scenarios, load_categories, subset_categories

TINY_KEEP = {
    "ccs": ["b"],
    "biomass": ["b"],
    "imports": ["a", "b"],
    "electrolyser": ["b"],
    "transport": ["b"],
    "weather": ["a"],
}


@pytest.fixture(scope="module")
def tiny_scenarios(categories):
    return enumerate_scenarios(subset_categories(categories, TINY_KEEP))


@pytest.fixture(scope="module")
def tiny_store(doc8, tiny_scenarios, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_store")
    records, store = run_matrix(
        doc8, tiny_scenarios, [0.05], [2030, 2040], jobs=1, out_dir=out, flows=True
    )
    return records, store


def test_record_count_bound(tiny_store, tiny_scenarios):
    records, _ = tiny_store
    assert len(records) <= len(tiny_scenarios) * 2 * (1 + 2 * 1)


def test_store_round_trip(tiny_store):
    records, store = tiny_store
    loaded = store.read_records()
    assert loaded == records


def test_flow_tables_written(tiny_store):
    _, store = tiny_store
    flow_files = sorted((store.path / "flows").glob("*.csv"))
    assert flow_files
    header = flow_files[0].read_text().splitlines()[0]
    assert header == "carrier,bus,asset_id,instance_id,annual_mwh"


def test_matrix_jobs_parallel_identical(doc8, tiny_scenarios, tmp_path):
    serial, _ = run_matrix(doc8, tiny_scenarios, [0.05], [2030], jobs=1)
    parallel, _ = run_matrix(doc8, tiny_scenarios, [0.05], [2030], jobs=2)
    assert serial == parallel


def _report_blas_threads(document, scenario, epsilons, horizons, flows=False):
    """A scenario run that records only the BLAS thread count of the process it runs in."""
    record = PathwayRecord(scenario.id, min(horizons), "optimal", None, f"threads={runner_mod.blas_threads()}")
    return runner_mod.ScenarioOutcome(scenario_id=scenario.id, records=[record])


@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_solves_on_one_blas_thread(doc8, tiny_scenarios, monkeypatch, jobs):
    # Workers fork from this process, so they see the patched scenario run.
    monkeypatch.setattr(runner_mod, "run_scenario", _report_blas_threads)
    caller = runner_mod.blas_threads()
    solving = None if caller is None else 1
    runner_mod._set_blas_threads(2)
    try:
        before = runner_mod.blas_threads()
        records, _ = run_matrix(doc8, tiny_scenarios, [0.05], [2030], jobs=jobs)
        assert {r.status for r in records} == {f"threads={solving}"}
        assert len(records) == len(tiny_scenarios)
        assert runner_mod.blas_threads() == before  # the caller's count, given back
    finally:
        if caller is not None:
            runner_mod._set_blas_threads(caller)


def test_worker_crash_isolates(doc8, tiny_scenarios, tmp_path, monkeypatch, caplog):
    real = runner_mod.run_scenario

    def sabotaged(document, scenario, *args, **kwargs):
        if scenario.id == tiny_scenarios[0].id:
            raise RuntimeError("boom")
        return real(document, scenario, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_scenario", sabotaged)
    with caplog.at_level(logging.ERROR, logger="corridor_kit.runner"):
        records, store = run_matrix(
            doc8, tiny_scenarios, [0.05], [2030], jobs=1, out_dir=tmp_path / "crash"
        )
    crashed = [r for r in records if r.status == "worker_error"]
    assert len(crashed) == 1 and crashed[0].scenario_id == tiny_scenarios[0].id
    healthy = [r for r in records if r.scenario_id != tiny_scenarios[0].id]
    assert healthy and all(r.status == "optimal" for r in healthy)
    assert store.read_records() == records
    assert tiny_scenarios[0].id in caplog.text and "boom" in caplog.text
    assert "boom" in (store.path / "errors" / f"{tiny_scenarios[0].id}.txt").read_text()


def test_worker_crash_keeps_finished_chains(doc8, tiny_scenarios, tmp_path, monkeypatch):
    real = mga_mod.extremize

    def crash_max(problem, sense):
        if sense == "max":
            raise RuntimeError("max chain exploded")
        return real(problem, sense)

    monkeypatch.setattr(mga_mod, "extremize", crash_max)
    scenario = tiny_scenarios[0]
    records, store = run_matrix(
        doc8, [scenario], [0.05], [2030, 2035], jobs=1, out_dir=tmp_path / "crash", flows=True
    )

    def chain(sense, epsilon):
        return [(r.horizon, r.status) for r in records if (r.sense, r.epsilon) == (sense, epsilon)]

    assert chain("optimal", None) == [(2030, "optimal"), (2035, "optimal")]
    assert chain("min", 0.05) == [(2030, "optimal"), (2035, "optimal")]
    assert chain("max", 0.05) == [(2030, "worker_error")]
    assert len(records) == 5 and store.read_records() == records
    assert len(list((store.path / "flows").glob("*.csv"))) == 4
    assert "max chain exploded" in (store.path / "errors" / f"{scenario.id}.txt").read_text()


def test_crashed_pathway_keeps_the_others(fixture_doc, tiny_scenarios, monkeypatch):
    real = mga_mod.extremize

    def crash_min_2035(problem, sense):
        if sense == "min" and problem.meta["network"].horizon == 2035:
            raise RuntimeError("min step exploded")
        return real(problem, sense)

    monkeypatch.setattr(mga_mod, "extremize", crash_min_2035)
    outcome = runner_mod._worker(
        (reduce_document(fixture_doc, 2), tiny_scenarios[0], (0.02, 0.05), (2030, 2035, 2040), False)
    )
    crashed = sorted((r.sense, r.epsilon, r.horizon) for r in outcome.records if r.status == "worker_error")
    assert crashed == [("min", 0.02, 2035), ("min", 0.05, 2035)]
    assert len(outcome.records) == 13
    assert all(r.status == "optimal" for r in outcome.records if r.status != "worker_error")
    assert outcome.error.count("RuntimeError: min step exploded") == 2


def test_chains_share_networks(fixture_doc, tiny_scenarios, monkeypatch):
    real_build, real_translate = pathway_mod.build_network, pathway_mod.translate
    built, translated = [], []

    def build_spy(document, horizon):
        built.append(horizon)
        return real_build(document, horizon)

    def translate_spy(network, fleet, aggregate=False):
        translated.append(network.horizon)
        return real_translate(network, fleet, aggregate)

    monkeypatch.setattr(pathway_mod, "build_network", build_spy)
    monkeypatch.setattr(pathway_mod, "translate", translate_spy)
    outcome = runner_mod.run_scenario(
        reduce_document(fixture_doc, 2), tiny_scenarios[0], [0.02, 0.05, 0.10], [2030, 2035]
    )
    first = [r.status for r in outcome.records if r.horizon == 2030]
    assert first == ["optimal"] * 7 and len(outcome.records) == 2 * 7
    # The horizon loop builds each horizon's network once for all seven
    # pathways, and every pathway translates its own LP.
    assert built == [2030, 2035]
    assert translated.count(2030) == 7


def _slack_series(horizon, sense, h2_mt):
    """Optimal records of one (horizon, sense) at ε 0.02, 0.05 and 0.10."""
    return [
        PathwayRecord("s", horizon, sense, eps, "optimal", cost_eur=1.0, h2_mt=h)
        for eps, h in zip((0.02, 0.05, 0.10), h2_mt)
    ]


@pytest.mark.parametrize(
    "records, warned",
    [
        # A max range that falls from ε 0.02 to ε 0.05 after the first horizon.
        (_slack_series(2030, "max", (5.0, 6.0, 7.0)) + _slack_series(2035, "max", (6.0, 5.0, 8.0)), ["max", "2035"]),
        # Ranges that widen: max rises and min falls with slack.
        (_slack_series(2035, "max", (6.0, 6.0, 7.0)) + _slack_series(2035, "min", (2.0, 1.0, 1.0)), None),
        # The first horizon is never checked, however its ranges move.
        (_slack_series(2030, "max", (7.0, 5.0, 4.0)) + _slack_series(2030, "min", (1.0, 2.0, 3.0)), None),
    ],
)
def test_nesting_warning(records, warned, caplog):
    with caplog.at_level(logging.WARNING, logger="corridor_kit.runner"):
        runner_mod._log_nesting_violations(records, (2030, 2035))
    if warned is None:
        assert caplog.records == []
    else:
        (warning,) = caplog.records
        assert warning.levelno == logging.WARNING
        assert all(word in warning.getMessage() for word in warned)


def write_tiny_inputs(tmp_path, doc8):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc8))
    scen = tmp_path / "scenarios.json"
    bundled = json.loads(resources.files("corridor_kit.data").joinpath("scenarios.json").read_text())
    for cat in bundled["categories"]:
        keep = TINY_KEEP[cat["name"]]
        cat["levels"] = [l for l in cat["levels"] if l["name"] in keep]
    scen.write_text(json.dumps(bundled))
    return model, scen


def test_cli_validate_fixture(capsys):
    assert main(["validate", "--model", "fixture"]) == 0
    out = capsys.readouterr().out
    assert "6 carriers" in out


def test_cli_validate_missing_model_exit_1(capsys):
    assert main(["validate", "--model", "/nonexistent/nope.json"]) == 1


def test_cli_unknown_flag_rejected():
    assert main(["validate", "--model", "fixture", "--bogus"]) != 0


def test_cli_reduce(tmp_path, fixture_doc):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(fixture_doc))
    out = tmp_path / "m8.json"
    assert main(["reduce", "--model", str(model), "--segments", "8", "--out", str(out)]) == 0
    reduced = json.loads(out.read_text())
    assert len(reduced["snapshots"]["weights"]) == 8


def test_cli_full_pipeline(tmp_path, doc8, capsys):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    store_dir = tmp_path / "store"
    rc = main(
        [
            "run",
            "--model",
            str(model),
            "--scenarios",
            str(scen),
            "--epsilon",
            "0.05",
            "--horizons",
            "2030,2040",
            "--jobs",
            "1",
            "--out",
            str(store_dir),
        ]
    )
    assert rc == 0
    assert (store_dir / "records.csv").exists()
    assert (store_dir / "manifest.json").exists()

    report_dir = tmp_path / "report"
    rc = main(["corridor", "--store", str(store_dir), "--epsilon", "0.05",
               "--quantiles", "0.5,1.0", "--out", str(report_dir)])
    assert rc == 0
    assert (report_dir / "corridor.csv").exists()

    subsidy_csv = tmp_path / "subsidy.csv"
    rc = main(["subsidy", "--store", str(store_dir), "--target-mt", "10",
               "--horizon", "2040", "--out", str(subsidy_csv)])
    assert rc == 0
    assert subsidy_csv.exists()
    out = capsys.readouterr().out
    assert "mean subsidy" in out

    rc = main(["report", "--store", str(store_dir), "--out", str(tmp_path / "bundle"),
               "--scenarios", str(scen)])
    assert rc == 0
    assert (tmp_path / "bundle" / "pathway_ranges.csv").exists()


def test_cli_corridor_keeps_to_its_epsilon(tmp_path, capsys):
    records = []
    for k, sid in enumerate(("s1", "s2", "s3")):
        for horizon in (2030, 2040):
            records.append(PathwayRecord(sid, horizon, "optimal", None, "optimal", 1.0, 3.0 + k))
            for eps in (0.02, 0.05, 0.10):
                records.append(PathwayRecord(sid, horizon, "min", eps, "optimal", 1.0, 2.0 + k - 10 * eps, -0.1))
                records.append(PathwayRecord(sid, horizon, "max", eps, "optimal", 1.0, 4.0 + 2 * k + 10 * eps, 0.1))
    ResultsStore(tmp_path / "store").write_records(records)
    store = str(tmp_path / "store")
    assert main(["report", "--store", store, "--out", str(tmp_path / "bundle")]) == 0

    assert main(["corridor", "--store", store, "--epsilon", "0.05", "--out", str(tmp_path / "d")]) == 0
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["corridor.csv"]
    written = (tmp_path / "d" / "corridor.csv").read_bytes().decode()
    header, *rows = (tmp_path / "bundle" / "corridor.csv").read_bytes().decode().splitlines(keepends=True)
    picked = [row for row in rows if row.split(",")[1] == "0.05"]
    assert picked and len(picked) < len(rows)
    assert written == "".join([header, *picked])

    capsys.readouterr()
    assert main(["corridor", "--store", store, "--epsilon", "0.05"]) == 0
    assert capsys.readouterr().out == written


def test_cli_manifest_reproduces_store(tmp_path, doc8):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    first = tmp_path / "first"
    rc = main(
        ["run", "--model", str(model), "--scenarios", str(scen), "--epsilon", "0.05",
         "--horizons", "2030", "--jobs", "1", "--out", str(first)]
    )
    assert rc == 0
    manifest_path = first / "manifest.json"
    body_first = (first / "records.csv").read_bytes()

    # Re-run from the manifest into the same directory; bodies must match.
    rc = main(["run", "--manifest", str(manifest_path)])
    assert rc == 0
    assert (first / "records.csv").read_bytes() == body_first


def test_cli_sensitivity_needs_epsilon_for_min(tmp_path, doc8):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    store_dir = tmp_path / "store_s"
    main(["run", "--model", str(model), "--scenarios", str(scen), "--epsilon", "0.05",
          "--horizons", "2030", "--jobs", "1", "--out", str(store_dir)])
    assert main(["sensitivity", "--store", str(store_dir), "--sense", "min"]) == 1


def test_cli_run_malformed_manifest_exit_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "invalid manifest" in capsys.readouterr().err


def test_cli_run_manifest_missing_keys_exit_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"epsilons": [0.05], "horizons": [2030]}))
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "invalid manifest" in capsys.readouterr().err


@pytest.mark.parametrize("segments", ["40", "0"])
def test_cli_reduce_segments_out_of_range_exit_1(tmp_path, segments, capsys):
    out = tmp_path / "reduced.json"
    rc = main(["reduce", "--model", "fixture", "--segments", segments, "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert "outside 1..32" in capsys.readouterr().err


def test_cli_run_segments_zero_exit_1(tmp_path, doc8, capsys):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    store_dir = tmp_path / "store"
    rc = main(["run", "--model", str(model), "--scenarios", str(scen), "--segments", "0",
               "--epsilon", "0.05", "--horizons", "2030", "--out", str(store_dir)])
    assert rc == 1 and not store_dir.exists()
    assert "outside 1..8" in capsys.readouterr().err


def _write_manifest(tmp_path, model, scen, **changes):
    manifest = {
        "model": str(model),
        "scenarios": str(scen),
        "epsilons": [0.05],
        "horizons": [2030],
        "jobs": 1,
        "out": str(tmp_path / "store"),
        **changes,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("source", ["flags", "manifest"])
def test_cli_run_negative_epsilon_exit_1(tmp_path, doc8, source, capsys):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    store_dir = tmp_path / "store"
    if source == "flags":
        argv = ["run", "--model", str(model), "--scenarios", str(scen), "--epsilon", "0.05,-0.05",
                "--horizons", "2030", "--out", str(store_dir)]
    else:
        argv = ["run", "--manifest", str(_write_manifest(tmp_path, model, scen, epsilons=[0.05, -0.05]))]
    assert main(argv) == 1 and not store_dir.exists()
    assert "slack levels must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flags", "manifest"])
def test_cli_run_unordered_horizons_exit_1(tmp_path, doc8, source, capsys):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    store_dir = tmp_path / "store"
    if source == "flags":
        argv = ["run", "--model", str(model), "--scenarios", str(scen), "--epsilon", "0.05",
                "--horizons", "2035,2030", "--out", str(store_dir)]
    else:
        argv = ["run", "--manifest", str(_write_manifest(tmp_path, model, scen, horizons=[2030, 2030]))]
    assert main(argv) == 1 and not store_dir.exists()
    assert "horizons must be strictly increasing" in capsys.readouterr().err


def test_manifest_records_provenance(tmp_path, doc8, monkeypatch):
    model, scen = write_tiny_inputs(tmp_path, doc8)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    store_dir = tmp_path / "store"
    assert main(["run", "--model", str(model), "--scenarios", str(scen), "--epsilon", "0.05",
                 "--horizons", "2030", "--out", str(store_dir)]) == 0
    provenance = json.loads((store_dir / "manifest.json").read_text())["provenance"]
    assert provenance["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert provenance["blas"] == f"{blas['name']} {blas['version']}"
    assert provenance["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert provenance["solve_blas_threads"] == (None if runner_mod.blas_threads() is None else 1)
    # A manifest written before provenance was recorded still runs.
    older = _write_manifest(tmp_path, model, scen, out=str(tmp_path / "older"), segments=None, flows=False)
    assert main(["run", "--manifest", str(older)]) == 0
    assert "provenance" in json.loads((tmp_path / "older" / "manifest.json").read_text())
