"""Config parsing, run artifacts, manifest integrity, CLI exit codes."""

import argparse
import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopsim
from loopsim import cli
from loopsim.data import generate_linear, read_dataset, write_dataset
from loopsim.engine import OPTIONAL_STATS, SETTING_SAMPLING, SETTING_SLIDING, LoopConfig, run
from loopsim.harness import (
    EXPERIMENT_STATS,
    EXPERIMENTS,
    _LOOP_KEYS,
    ConfigError,
    ExperimentConfig,
    IntegrityError,
    build_config,
    config_from_manifest,
    config_hash,
    execute,
    parse_config_file,
    report,
    sha256_file,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

BASE_RAW = {
    "experiment": "density_trace",
    "kind": "linear",
    "rows": "80",
    "cols": "4",
    "noise": "1.0",
    "data_seed": "5",
    "setting": "sampling",
    "usage": "1.0",
    "adherence": "0.0",
    "steps": "30",
    "probe_every": "10",
    "seed": "3",
    "repeats": "2",
}


def raw_config(**overrides) -> dict:
    merged = dict(BASE_RAW)
    merged.update({k: str(v) for k, v in overrides.items()})
    return merged


# -- config file parsing -----------------------------------------------

def test_parse_config_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sampling baseline\n"
        "\n"
        "experiment = density_trace\n"
        "steps=30   \n"
        "  usage = 1.0\n",
        encoding="utf-8",
    )
    raw = parse_config_file(path)
    assert raw == {"experiment": "density_trace", "steps": "30", "usage": "1.0"}


def test_parse_config_file_reports_bad_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment=density_trace\nnot a pair\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_file(path)


def test_parse_config_file_refuses_a_key_given_twice(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment=density_trace\nsteps=100\n# later\nsteps = 50\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config_file(path)
    assert str(info.value) == f"{path}:4: steps is given again (first on line 2)"


def test_build_config_resolves_setting_alias():
    cfg = build_config(raw_config(setting="sliding"))
    assert cfg.setting == "sliding_window"
    assert build_config(raw_config()).setting == "sampling_update"


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_config(raw_config(window="0.3"))


def test_build_config_rejects_friedman_with_four_columns(tmp_path, capsys):
    # the generator owns the rule, and a run applies it before any output
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--kind", "friedman1",
                     "--cols", "4", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "config error: friedman1 needs d >= 5 features, got 4\n"
    assert not out.exists()


def test_grid_range_is_inclusive_of_stop():
    cfg = build_config(raw_config(experiment="sweep", usage_grid="0:1:0.25",
                                  adherence_grid="0,0.5,1"))
    assert cfg.usage_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert cfg.adherence_grid == (0.0, 0.5, 1.0)


def test_grid_range_rejects_nonpositive_step():
    with pytest.raises(ConfigError, match="step"):
        build_config(raw_config(experiment="sweep", usage_grid="0:1:0"))


def test_probes_parse_as_integer_list():
    cfg = build_config(raw_config(probes="0,10,30"))
    assert cfg.probes == (0, 10, 30)
    with pytest.raises(ConfigError):
        build_config(raw_config(probes="0,ten"))


# -- config hashing -----------------------------------------------------

def test_config_hash_ignores_out_dir_and_workers(tmp_path):
    a = build_config(raw_config())
    b = build_config(raw_config(out_dir=str(tmp_path / "elsewhere"), workers="7"))
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64


def test_config_hash_tracks_protocol_fields():
    a = build_config(raw_config())
    b = build_config(raw_config(steps="31"))
    assert config_hash(a) != config_hash(b)


def test_flat_dict_round_trips_through_build_config():
    cfg = build_config(raw_config(experiment="sweep", usage_grid="0:1:0.5",
                                  adherence_grid="0,3", kappas="0.05,0.1"))
    again = build_config(cfg.to_flat_dict())
    assert again == cfg


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def experiment_configs(draw):
    """Any config that build_config accepts, for every experiment."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    setting = draw(st.sampled_from((SETTING_SAMPLING, SETTING_SLIDING)))
    kind = draw(st.sampled_from(("linear", "friedman1")))
    fractions = _finite(0.0, 1.0, exclude_min=True, exclude_max=True)
    grid = st.lists(_finite(0.0, 1.0), min_size=1, max_size=4).map(tuple)
    lo = draw(_finite(-1e6, 1e6))
    text = st.text("abcxyz_/.0123456789", max_size=12)
    steps = draw(st.integers(1, 10**6))
    t_list = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=5).map(tuple))
    # a power base whose powers up to the last step stay inside the float range
    reach = min(3.0, 300.0 / max(t_list))
    base = _finite(-reach, reach).map(lambda e: 10.0**e)
    return ExperimentConfig(
        experiment=experiment,
        dataset=draw(text),
        kind=kind,
        rows=draw(st.integers(2, 10**5)),
        cols=draw(st.integers(5 if kind == "friedman1" else 1, 50)),
        noise=draw(_finite(0.0, 1e6)),
        data_seed=draw(st.integers(0, 2**32)),
        setting=setting,
        usage=draw(_finite(0.0, 1.0)),
        adherence=draw(_finite(0.0, 1e3)),
        steps=steps,
        retrain_period=draw(st.integers(1, 100)),
        window_fraction=draw(st.none() | (
            _finite(0.0, 1.0, exclude_min=True) if setting == SETTING_SLIDING
            else st.just(1.0))),
        model=draw(st.sampled_from(("sgd", "ridge_exact", "ridge_regularized"))),
        regularization=draw(_finite(0.0, 1e3)),
        sgd_iterations=draw(st.integers(1, 500)),
        train_fraction=draw(fractions),
        holdout_fraction=draw(fractions),
        seed=draw(st.integers(0, 2**32)),
        repeats=draw(st.integers(1, 50)),
        probe_every=draw(st.none() | st.integers(1, 1000)),
        probes=draw(st.none() | st.lists(st.integers(0, steps), min_size=1, max_size=4).map(tuple)),
        # each kappa names its own mass@<kappa> trace column
        kappas=draw(st.none() | st.lists(_finite(1e-9, 1e3), min_size=1, max_size=4,
                                         unique_by=lambda k: f"{k:.10g}").map(tuple)),
        usage_grid=draw(grid),
        adherence_grid=draw(grid.map(lambda g: tuple(3.0 * v for v in g))),
        segment=draw(st.none() | _finite(1e-3, 1e6).map(lambda w: (lo, lo + w)))
        if experiment == "autonomy" else None,
        psi=draw(st.just("linear") | base.map(lambda a: f"power:{a!r}")),
        demo_variance=draw(_finite(1e-6, 1e6)),
        t_list=t_list,
        out_dir=draw(text),
        workers=draw(st.integers(0, 8)),
        collect_traces=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(experiment_configs())
def test_flat_dict_round_trip_is_the_identity(cfg):
    assert build_config(cfg.to_flat_dict()) == cfg


def test_experiment_config_restates_the_loop_defaults():
    # ExperimentConfig spells every loop key out in config.txt and the
    # config hash, with LoopConfig's default, which both inherit from LoopDefaults
    experiment = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    compared = []
    for field in dataclasses.fields(LoopConfig):
        if field.default is dataclasses.MISSING:
            continue
        mine = experiment[_LOOP_KEYS.get(field.name, field.name)]
        assert (mine, type(mine)) == (field.default, type(field.default)), field.name
        compared.append(field.name)
    assert len(compared) == 10


def test_build_config_rejects_an_empty_list():
    # "" means unset, so an empty probe list would come back as the default schedule
    with pytest.raises(ConfigError, match="probes lists no values"):
        build_config(raw_config(probes=","))


def test_build_config_rejects_out_of_range_grid_values():
    with pytest.raises(ConfigError, match="usage_p"):
        build_config(raw_config(experiment="sweep", usage_grid="0,1.5"))
    with pytest.raises(ConfigError, match="adherence_s"):
        build_config(raw_config(experiment="sweep", adherence_grid="0,-1"))


# -- execute artifacts ---------------------------------------------------

@pytest.fixture(scope="module")
def trace_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace_run")
    cfg = build_config(raw_config(out_dir=str(out)))
    return cfg, execute(cfg)


def test_execute_writes_expected_files(trace_run):
    cfg, result = trace_run
    names = {p.name for p in result.output_paths}
    assert {"config.txt", "trace.csv", "summary.json"} <= names
    assert result.manifest_path.name == "manifest.json"


def test_manifest_hashes_match_files(trace_run):
    _, result = trace_run
    manifest = json.loads(result.manifest_path.read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"
    assert manifest["seed"] == 3
    for name, recorded in manifest["content_hashes"].items():
        assert sha256_file(result.out_dir / name) == recorded


def test_config_txt_parses_back_to_same_config(trace_run):
    cfg, result = trace_run
    raw = parse_config_file(result.out_dir / "config.txt")
    assert build_config(raw) == cfg


def test_config_from_manifest_round_trip(trace_run):
    cfg, result = trace_run
    assert config_from_manifest(result.manifest_path) == cfg


def test_rerun_from_manifest_is_byte_identical(trace_run, tmp_path):
    # every hashed output except config.txt, which records the out_dir, for
    # a rerun from the manifest and a plain rerun of the same config
    cfg, result = trace_run
    hashes = json.loads(result.manifest_path.read_text(encoding="utf-8"))["content_hashes"]
    names = sorted(set(hashes) - {"config.txt"})
    assert "summary.json" in names and "trace.csv" in names
    for source, rerun_cfg in (("manifest", config_from_manifest(result.manifest_path)),
                              ("config", cfg)):
        rerun = execute(dataclasses.replace(rerun_cfg, out_dir=str(tmp_path / source)))
        for name in names:
            assert ((rerun.out_dir / name).read_bytes()
                    == (result.out_dir / name).read_bytes()), (source, name)


def test_steps_csv_is_the_same_at_any_worker_count_and_parses_back_to_the_step_record(
        tmp_path):
    raw = raw_config(usage="0.5", adherence="1.0", repeats="3", collect_traces="true")
    paths = []
    for workers in (1, 2):
        result = execute(build_config({**raw, "workers": str(workers),
                                       "out_dir": str(tmp_path / f"w{workers}")}))
        paths.append(result.out_dir / "steps.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header, *lines = paths[0].read_text(encoding="utf-8").splitlines()
    assert header == "repeat,step,item_index,y_true,y_pred,z_sampled,used_prediction,residual"
    parsed = []
    for line in lines:
        repeat, step_t, item, y_true, y_pred, z, used, resid = line.split(",")
        parsed.append((int(repeat), int(step_t), int(item), float(y_true), float(y_pred),
                       float(z), {"1": True, "0": False}[used], float(resid)))
    cfg = build_config(raw)
    data = generate_linear(cfg.rows, cfg.cols, cfg.noise, cfg.data_seed)
    records = run(data, cfg.loop_config(), stats=()).step_traces
    assert records.shape == (3, 30)
    assert parsed == [(repeat, *row) for repeat, record in enumerate(records)
                      for row in record.tolist()]


# -- report merging ------------------------------------------------------

def test_report_merges_and_prefixes_rows(trace_run, tmp_path):
    cfg, result = trace_run
    merged = report([result.manifest_path], tmp_path / "merged")
    assert "merged_traces.csv" in merged["merged_files"]
    lines = (tmp_path / "merged" / "merged_traces.csv").read_text().splitlines()
    assert lines[0] == "config_hash,experiment,step,repeat,stat_name,value"
    single = (result.out_dir / "trace.csv").read_text().splitlines()
    assert len(lines) - 1 == len(single) - 1
    first = lines[1].split(",")
    assert first[0] == config_hash(cfg)
    assert first[1] == "density_trace"


def test_report_refuses_an_output_whose_header_differs_from_the_ones_merged_before(tmp_path):
    first = execute(build_config(raw_config(
        experiment="sweep", rows="60", steps="25", repeats="1", workers="1",
        usage_grid="0,1", adherence_grid="0", out_dir=str(tmp_path / "first"))))
    second = tmp_path / "second"
    shutil.copytree(first.out_dir, second)
    surface = second / "surface.csv"
    header, body = surface.read_text(encoding="utf-8").split("\n", 1)
    surface.write_text(header.replace(",status", ",state") + "\n" + body, encoding="utf-8")
    manifest = json.loads((second / "manifest.json").read_text(encoding="utf-8"))
    manifest["content_hashes"]["surface.csv"] = sha256_file(surface)
    (second / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IntegrityError) as caught:
        report([first.manifest_path, second / "manifest.json"], tmp_path / "merged")
    assert str(caught.value) == (
        f"{surface}: header differs from the surface.csv headers merged into "
        "merged_surfaces.csv")


def test_report_detects_tampering(trace_run, tmp_path):
    cfg, _ = trace_run
    out = tmp_path / "tampered"
    result = execute(dataclasses.replace(cfg, out_dir=str(out)))
    trace = out / "trace.csv"
    trace.write_text(trace.read_text(encoding="utf-8") + "9999,0,psi,1\n",
                     encoding="utf-8")
    with pytest.raises(IntegrityError, match="trace.csv"):
        report([result.manifest_path], tmp_path / "never")


@pytest.mark.parametrize("body", [b"{'config_hash': 1}", b"[1, 2]", b'{"config_hash": "\xff"}'])
def test_cli_report_names_a_manifest_that_is_not_a_json_object(tmp_path, capsys, body):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(body)
    code = cli.main(["report", str(manifest), "--out-dir", str(tmp_path / "merged")])
    assert code == 1
    assert capsys.readouterr().err == f"integrity error: {manifest}: not valid JSON\n"


def test_report_refuses_a_merged_output_without_a_recorded_hash(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("step,repeat,stat_name,value\n0,0,psi,1\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"output_paths": ["trace.csv"]}), encoding="utf-8")
    with pytest.raises(IntegrityError) as caught:
        report([manifest], tmp_path / "merged")
    assert str(caught.value) == f"{trace}: listed in output_paths without a content hash"
    assert not (tmp_path / "merged" / "merged_traces.csv").exists()


@pytest.mark.parametrize("argv, body, code, message", [
    (["report"], {"content_hashes": [1]}, 1,
     "integrity error: {manifest}: content_hashes is not an object"),
    (["report"], {"config_snapshot": "x", "content_hashes": {}}, 1,
     "integrity error: {manifest}: config_snapshot is not an object"),
    (["report"], {"config_hash": [1]}, 1,
     "integrity error: {manifest}: config_hash is not a string"),
    (["report"], {"output_paths": [["trace.csv"]]}, 1,
     "integrity error: {manifest}: output_paths holds a non-string entry"),
    (["run", "--from-manifest"], [1, 2], 2,
     "config error: manifest is not a JSON object: {manifest}"),
], ids=["report-content-hashes", "report-config-snapshot", "report-config-hash",
        "report-output-paths", "rerun-not-an-object"])
def test_cli_names_a_malformed_manifest(tmp_path, capsys, argv, body, code, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(body), encoding="utf-8")
    assert cli.main(argv + [str(manifest), "--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == message.format(manifest=manifest) + "\n"


def _written_stats(experiment) -> set:
    """The trace.csv statistics of a trace experiment, the masses aside."""
    return {"psi", "stddev"} | {column for name in EXPERIMENT_STATS[experiment]
                                for column in OPTIONAL_STATS[name][0]}


def test_every_trace_experiment_declares_its_statistics():
    assert set(EXPERIMENT_STATS) == set(EXPERIMENTS) - {"sweep", "analytic_demo"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_STATS))
def test_trace_csv_holds_exactly_the_declared_statistics(tmp_path, experiment):
    execute(build_config(raw_config(experiment=experiment, kappas="0.5,1",
                                    out_dir=str(tmp_path))))
    rows = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {row.split(",")[2] for row in rows} == _written_stats(experiment) | {"mass@0.5",
                                                                                "mass@1"}
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    declared = EXPERIMENT_STATS[experiment]
    assert ("moment_l1_mean" in summary) == ("moment_l1" in declared)
    assert ("normality_p_mean" in summary) == ("normality_p" in declared)


def test_benchmark_workloads_read_only_declared_statistics():
    # loaded by path, as the benchmark itself loads it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        experiment = workload.args[workload.args.index("--experiment") + 1]
        required = set(workloads.REQUIRED_STATS.get(workload.regime, ()))
        if experiment == "sweep":
            assert required <= {"stddev"}, workload.name
        else:
            assert required <= _written_stats(experiment), workload.name


def test_sweep_run_produces_surface_rows(tmp_path):
    cfg = build_config(raw_config(
        experiment="sweep", rows="60", steps="25", repeats="1",
        usage_grid="0,1", adherence_grid="0,1", out_dir=str(tmp_path / "sweep")))
    result = execute(cfg)
    merged = report([result.manifest_path], tmp_path / "merged")
    surface = (tmp_path / "merged" / "merged_surfaces.csv").read_text().splitlines()
    assert surface[0].startswith("config_hash,usage_p,adherence_s")
    assert len(surface) - 1 == 4


# -- environment fallbacks ------------------------------------------------

def test_out_dir_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("LOOPSIM_OUT", str(tmp_path / "from_env"))
    cfg = build_config(raw_config())
    assert cfg.resolved_out_dir() == tmp_path / "from_env"
    explicit = build_config(raw_config(out_dir=str(tmp_path / "explicit")))
    assert explicit.resolved_out_dir() == tmp_path / "explicit"


def test_workers_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("LOOPSIM_WORKERS", "many")
    cfg = build_config(raw_config())
    with pytest.raises(ConfigError, match="LOOPSIM_WORKERS"):
        cfg.resolved_workers()
    monkeypatch.setenv("LOOPSIM_WORKERS", "-2")
    with pytest.raises(ConfigError, match="^LOOPSIM_WORKERS must be nonnegative, got -2$"):
        cfg.resolved_workers()
    monkeypatch.setenv("LOOPSIM_WORKERS", "2")
    with pytest.raises(ConfigError, match="^workers must be nonnegative, got -3$"):
        build_config(raw_config(workers="-3")).resolved_workers()


def test_default_workers_count_only_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("LOOPSIM_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_config(raw_config()).resolved_workers() == 1
    assert build_config(raw_config(workers="3")).resolved_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert build_config(raw_config()).resolved_workers() == 8


# -- command line ----------------------------------------------------------

def test_cli_gen_data_writes_csv_and_sidecar(tmp_path, capsys):
    code = cli.main(["gen-data", "--rows", "40", "--cols", "3", "--seed", "9",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("linear_m40_d3_s9.csv")
    assert (tmp_path / "linear_m40_d3_s9.csv").exists()
    assert (tmp_path / "linear_m40_d3_s9.json").exists()


def test_cli_gen_data_writes_the_dataset_a_run_generates_by_default(tmp_path, capsys):
    assert cli.main(["gen-data", "--out-dir", str(tmp_path)]) == 0
    defaults = ExperimentConfig(experiment="density_trace")
    name = f"{defaults.kind}_m{defaults.rows}_d{defaults.cols}_s{defaults.data_seed}.csv"
    assert capsys.readouterr().out.splitlines()[0] == str(tmp_path / name)
    written = read_dataset(tmp_path / name)
    assert written.generator_tag == defaults.kind
    assert written.noise_variance == defaults.noise


def test_cli_gen_data_rejects_narrow_friedman(tmp_path, capsys):
    code = cli.main(["gen-data", "--kind", "friedman1", "--cols", "4",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--config", "config file is not valid UTF-8: {path}"),
    ("--from-manifest", "manifest is not valid JSON: {path}"),
], ids=["config", "from-manifest"])
def test_cli_run_names_a_config_file_or_manifest_that_is_not_utf8(tmp_path, capsys, flag,
                                                                  message):
    path = tmp_path / "config.txt"
    path.write_bytes(b"experiment=density_trace\nseed=\xff\n")
    out = tmp_path / "out"
    assert cli.main(["run", flag, str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
    assert not out.exists()


def test_cli_run_from_config_file_with_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "".join(f"{k}={v}\n" for k, v in raw_config().items()), encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg_file), "--steps", "20",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0
    raw = parse_config_file(tmp_path / "out" / "config.txt")
    assert raw["steps"] == "20"
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "density_trace: ok" in capsys.readouterr().out


def test_cli_run_refuses_a_config_file_beside_a_manifest(trace_run, tmp_path, capsys):
    _cfg, result = trace_run
    out = tmp_path / "rerun"
    code = cli.main(["run", "--from-manifest", str(result.manifest_path),
                     "--config", str(tmp_path / "nonexistent.cfg"), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: --config and --from-manifest cannot be given together\n")
    assert not out.exists()


def test_cli_run_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_rejects_overlong_sliding_budget(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "".join(f"{k}={v}\n" for k, v in
                raw_config(setting="sliding", rows="50", steps="40").items()),
        encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_file), "--out-dir", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_too_few_rows_as_a_config_error(tmp_path, capsys):
    code = cli.main(["run", "--experiment", "density_trace", "--rows", "10", "--cols", "2",
                     "--steps", "5", "--repeats", "1", "--out-dir", str(tmp_path / "a")])
    assert code == 2
    assert "probes need an active set of at least 20 items, got 10" in capsys.readouterr().err
    code = cli.main(["run", "--experiment", "density_trace", "--setting", "sliding",
                     "--rows", "9", "--steps", "1", "--out-dir", str(tmp_path / "b")])
    assert code == 2
    assert "sliding window needs at least 10 rows, got 9" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_cli_run_refuses_a_malformed_worker_count_before_any_output(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setenv("LOOPSIM_WORKERS", "abc")
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--rows", "200", "--steps", "30",
                     "--repeats", "1", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: LOOPSIM_WORKERS must be an integer, got 'abc'\n")
    assert not out.exists()


NON_FINITE_CASES = [
    ("noise", ["--noise", "nan"]),
    ("noise", ["--noise", "inf"]),
    ("adherence", ["--adherence", "nan"]),
    ("adherence", ["--adherence", "inf"]),
    ("regularization", ["--model", "ridge_regularized", "--regularization", "nan"]),
    ("regularization", ["--model", "ridge_regularized", "--regularization", "inf"]),
    ("demo_variance", ["--experiment", "analytic_demo", "--demo-variance", "nan"]),
    ("demo_variance", ["--experiment", "analytic_demo", "--demo-variance", "inf"]),
    ("segment", ["--experiment", "autonomy", "--segment", "nan:5"]),
    ("segment", ["--experiment", "autonomy", "--segment", "0:inf"]),
    ("usage_grid", ["--experiment", "sweep", "--usage-grid", "0:nan:1"]),
    ("adherence_grid", ["--experiment", "sweep", "--adherence-grid", "0:inf:1"]),
    ("usage_grid", ["--experiment", "sweep", "--usage-grid", "0:1:inf"]),
    ("usage_grid", ["--experiment", "sweep", "--usage-grid", "1e-320:1:1e-320"]),
]


@pytest.mark.parametrize("key, flags", NON_FINITE_CASES,
                         ids=[f"{key}-{flags[-1]}" for key, flags in NON_FINITE_CASES])
def test_cli_run_refuses_a_non_finite_number_before_any_output(tmp_path, capsys, key, flags):
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--rows", "200", "--steps", "30",
                     "--repeats", "1", "--workers", "1", *flags, "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


def test_cli_run_failing_after_its_checks_leaves_config_and_a_failed_manifest(tmp_path,
                                                                               capsys):
    # the third feature is nonzero on row 123 only: the fits before step 20
    # train on that row, the step-20 fit does not and finds the feature
    # centered to exactly zero (a copy of another feature would be singular
    # only up to rounding)
    data = generate_linear(200, 3, noise_variance=1.0, seed=2)
    features = data.features.copy()
    features[:, 2] = 0.0
    features[123, 2] = 1.0
    csv_path, _ = write_dataset(dataclasses.replace(data, features=features),
                                tmp_path / "data.csv")
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--dataset", str(csv_path),
                     "--steps", "30", "--repeats", "1", "--workers", "1",
                     "--out-dir", str(out)])
    assert code == 1
    message = ("repeat 0, step 20: normal matrix is singular at regularization 0: "
               "centered feature rank 2 < 3 columns")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (out / "config.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == f"failed: {message}"


def test_cli_run_names_a_failed_kappa_fit_as_the_first_fit_of_repeat_0(tmp_path, capsys):
    # a constant third feature is singular from the first fit on, which is
    # the throwaway fit that derives the default kappas
    data = generate_linear(200, 3, noise_variance=1.0, seed=2)
    features = data.features.copy()
    features[:, 2] = 4.0
    csv_path, _ = write_dataset(dataclasses.replace(data, features=features),
                                tmp_path / "data.csv")
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--dataset", str(csv_path),
                     "--steps", "30", "--repeats", "1", "--workers", "1",
                     "--out-dir", str(out)])
    assert code == 1
    message = ("repeat 0, step 0: normal matrix is singular at regularization 0: "
               "centered feature rank 2 < 3 columns")
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == f"failed: {message}"

def test_cli_run_rejects_out_of_range_grid_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "sweep", "--rows", "60", "--steps", "25",
                     "--repeats", "1", "--usage-grid", "0,1.5", "--adherence-grid", "0,-1",
                     "--out-dir", str(out)])
    assert code == 2
    assert "adherence_s must be finite and nonnegative, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--kappas", "-1", "interval half-widths must be positive"),
    ("--kappas", "0", "interval half-widths must be positive"),
    ("--kappas", "nan", "interval half-widths must be positive"),
    ("--probes", "0,5000", "probe steps [5000] fall outside [0, 100]"),
    ("--kappas", "0.5,0.50000000001",
     "interval half-widths [0.5, 0.50000000001] share the trace columns ['mass@0.5']"),
], ids=["negative-kappa", "zero-kappa", "nan-kappa", "late-probe", "colliding-kappas"])
def test_cli_run_rejects_bad_kappas_and_probes_before_any_output(tmp_path, capsys, flag,
                                                                 value, message):
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--rows", "200", "--steps", "100",
                     "--repeats", "2", "--workers", "1", flag, value, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [[1, 2], 40.5, 40, None])
def test_build_config_refuses_a_value_that_is_not_a_string(value):
    with pytest.raises(ConfigError, match=r"^steps must be given as a string, got "):
        build_config({**BASE_RAW, "steps": value})


def test_cli_from_manifest_names_the_key_and_file_of_a_value_that_is_not_a_string(
        trace_run, tmp_path, capsys):
    _cfg, result = trace_run
    manifest = json.loads(result.manifest_path.read_text(encoding="utf-8"))
    manifest["config_snapshot"]["steps"] = [1, 2]
    doctored = tmp_path / "manifest.json"
    doctored.write_text(json.dumps(manifest), encoding="utf-8")
    code = cli.main(["run", "--from-manifest", str(doctored),
                     "--out-dir", str(tmp_path / "rerun")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: steps must be given as a string, got [1, 2]: {doctored}\n")
    assert not (tmp_path / "rerun").exists()


def test_cli_run_names_a_dataset_with_a_non_finite_cell(tmp_path, capsys):
    csv_path, _ = write_dataset(generate_linear(80, 3, noise_variance=1.0, seed=2),
                                tmp_path / "data.csv")
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["run", "--experiment", "density_trace", "--dataset", str(csv_path),
                         "--steps", "30", "--repeats", "2", "--workers", "1",
                         "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {csv_path}: features are not finite in 1 row(s), the first is row 4\n")
    assert not out.exists()


@pytest.mark.parametrize("missing", ["data.json", "data.csv"])
def test_cli_run_names_the_missing_file_of_a_dataset(tmp_path, capsys, missing):
    csv_path, _ = write_dataset(generate_linear(80, 3, noise_variance=1.0, seed=2),
                                tmp_path / "data.csv")
    (tmp_path / missing).unlink()
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--dataset", str(csv_path),
                     "--steps", "30", "--repeats", "2", "--workers", "1",
                     "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: dataset not found: {tmp_path / missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("sidecar, message", [
    ({"seed": 2, "noise_variance": 1.0}, "sidecar {} lacks 'generator_tag'"),
    ({"generator_tag": "linear", "noise_variance": 1.0}, "sidecar {} lacks 'seed'"),
    ({"generator_tag": "linear", "seed": 2}, "sidecar {} lacks 'noise_variance'"),
    ({"rows": 80}, "sidecar {} lacks 'generator_tag', 'noise_variance', 'seed'"),
    ([1, 2], "sidecar {} is not a JSON object"),
    ({"generator_tag": "linear", "seed": None, "noise_variance": 1.0},
     "sidecar {} 'seed' must be an integer, got null"),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": "x"},
     "sidecar {} 'noise_variance' must be a number, got \"x\""),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": 1.0, "weights": [1.0]},
     "weights shape (1,) does not match 3 feature columns"),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": 1.0,
      "weights": [1.0, float("nan"), 2.0]}, "weights are not finite"),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": 1.0, "weights": ["a", 1, 2]},
     "sidecar {} 'weights' must be a list of numbers, got [\"a\", 1, 2]"),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": 1.0, "rows": 5, "columns": 99},
     "sidecar {} 'rows' is 5, the CSV has 80"),
    ({"generator_tag": "linear", "seed": 2, "noise_variance": 1.0, "rows": 80, "columns": 99},
     "sidecar {} 'columns' is 99, the CSV has 3"),
], ids=["no-tag", "no-seed", "no-noise", "no-key", "array", "null-seed", "text-noise",
        "short-weights", "nan-weights", "text-weights", "wrong-rows", "wrong-columns"])
def test_cli_run_names_a_malformed_dataset_sidecar(tmp_path, capsys, sidecar, message):
    csv_path, sidecar_path = write_dataset(
        generate_linear(80, 3, noise_variance=1.0, seed=2), tmp_path / "data.csv")
    sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "density_trace", "--dataset", str(csv_path),
                     "--steps", "30", "--repeats", "2", "--workers", "1",
                     "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {csv_path}: {message.format(sidecar_path)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "autonomy", "--rows", "200", "--steps", "40", "--repeats", "1",
     "--seed", "-1"],
    ["run", "--experiment", "autonomy", "--rows", "200", "--steps", "40", "--repeats", "1",
     "--data-seed", "-1"],
    ["gen-data", "--rows", "50", "--cols", "3", "--seed", "-1"],
], ids=["seed", "data-seed", "gen-data"])
def test_cli_refuses_a_negative_seed_by_name_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("psi, t_list, message", [
    ("power:2", "1,2000", "sequence value at t=2000 must be positive and finite, got inf"),
    ("power:0.001", "1,400", "sequence value at t=400 must be positive and finite, got 0.0"),
    ("power:1e200", "1", "sequence value at t=2 must be positive and finite, got inf"),
    ("linear", "0,5", "step index must be a positive integer, got 0"),
], ids=["overflow", "underflow", "autonomy-horizon", "step-zero"])
def test_cli_run_refuses_a_psi_out_of_range_before_any_output(tmp_path, capsys, psi, t_list,
                                                               message):
    out = tmp_path / "out"
    code = cli.main(["run", "--experiment", "analytic_demo", "--psi", psi,
                     "--t-list", t_list, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: psi {psi}: {message}\n"
    assert not out.exists()


def _run_fresh(script: str) -> list:
    """The standard output lines of script, run by a new interpreter on this loopsim."""
    src = str(Path(loopsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_no_command_loads_scipy(tmp_path):
    """A fresh interpreter that imports loopsim.cli loads no scipy module
    and not numpy.polynomial. No scipy module is loaded by gen-data, an SGD
    sweep at workers 1 and 2, a report over it, a ridge autonomy run at
    workers 1 and 2, its Breusch-Pagan p-value included, or analytic_demo
    with its quadrature."""
    data = ["--kind", "linear", "--rows", "80", "--cols", "3", "--data-seed", "5"]
    sweep = ["run", "--experiment", "sweep", *data, "--setting", "sliding", "--model", "sgd",
             "--steps", "25", "--repeats", "1", "--usage-grid", "0,1", "--adherence-grid", "0"]
    autonomy = ["run", "--experiment", "autonomy", *data, "--setting", "sampling", "--steps", "40",
                "--probe-every", "4", "--repeats", "2"]
    commands = [
        ["gen-data", "--rows", "40", "--cols", "3", "--out-dir", str(tmp_path / "data")],
        [*sweep, "--workers", "1", "--out-dir", str(tmp_path / "w1")],
        [*sweep, "--workers", "2", "--out-dir", str(tmp_path / "w2")],
        ["report", str(tmp_path / "w1" / "manifest.json"), "--out-dir", str(tmp_path / "rep")],
        [*autonomy, "--workers", "1", "--out-dir", str(tmp_path / "autonomy")],
        [*autonomy, "--workers", "2", "--out-dir", str(tmp_path / "autonomy2")],
        ["run", "--experiment", "analytic_demo", "--out-dir", str(tmp_path / "analytic")],
    ]
    script = (
        "import contextlib, io, sys; from loopsim import cli\n"
        "watched = ('scipy', 'scipy.linalg', 'scipy.special', 'scipy.integrate', 'scipy.stats')\n"
        "print([m for m in (*watched, 'numpy.polynomial') if m in sys.modules])\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(code, [m for m in watched if m in sys.modules])\n"
    )
    assert _run_fresh(script) == ["[]"] + ["0 []"] * 7
    for name in ("autonomy", "autonomy2"):
        summary = json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))
        assert 0 <= summary["fits"]["full"]["bp_pvalue"] <= 1
    assert (tmp_path / "analytic" / "analytic.csv").read_text().startswith(
        "t,stat_name,value\n1,psi,2\n")


def test_without_scipy_every_experiment_completes(tmp_path):
    """With scipy blocked, every trace experiment runs to its end at workers
    1 and 2 for ridge and SGD, and so do a ridge sweep and analytic_demo."""
    data = ["--kind", "linear", "--rows", "120", "--cols", "3", "--data-seed", "5"]
    commands = [
        ["run", "--experiment", experiment, *data, "--setting", "sampling", "--model", model,
         "--steps", "40", "--probe-every", "4", "--repeats", "2", "--workers", workers,
         "--out-dir", str(tmp_path / f"{experiment}-{model}-{workers}")]
        for experiment in ("density_trace", "normality", "autonomy", "moments")
        for model in ("ridge_exact", "sgd") for workers in ("1", "2")
    ]
    commands.append(["run", "--experiment", "sweep", *data, "--setting", "sliding",
                     "--model", "ridge_exact", "--steps", "25", "--repeats", "2",
                     "--usage-grid", "0,1", "--adherence-grid", "0,1", "--workers", "2",
                     "--out-dir", str(tmp_path / "sweep")])
    commands.append(["run", "--experiment", "analytic_demo", "--out-dir", str(tmp_path / "a")])
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from loopsim import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        code = cli.main(argv)\n"
        "    print(code, err.getvalue().strip())\n"
    )
    assert _run_fresh(script) == ["0 "] * len(commands)
    summary = json.loads((tmp_path / "autonomy-sgd-2" / "summary.json").read_text(encoding="utf-8"))
    assert 0 <= summary["fits"]["full"]["bp_pvalue"] <= 1
    surface = (tmp_path / "sweep" / "surface.csv").read_text(encoding="utf-8").splitlines()
    assert len(surface) == 5 and all(row.endswith(",ok") for row in surface[1:])
    assert (tmp_path / "a" / "analytic.csv").read_text().startswith("t,stat_name,value\n1,psi,2\n")


def test_cli_from_manifest_refuses_another_tool_version(trace_run, tmp_path, capsys):
    _cfg, result = trace_run
    manifest = json.loads(result.manifest_path.read_text(encoding="utf-8"))
    manifest["tool_version"] = loopsim.__version__ + ".dev1"
    doctored = tmp_path / "manifest.json"
    doctored.write_text(json.dumps(manifest), encoding="utf-8")
    code = cli.main(["run", "--from-manifest", str(doctored),
                     "--out-dir", str(tmp_path / "rerun")])
    assert code == 2
    assert f"written by loopsim {loopsim.__version__}.dev1" in capsys.readouterr().err
    assert not (tmp_path / "rerun").exists()


def test_run_flags_are_exactly_the_config_fields():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        a.dest: a.option_strings for a in commands.choices["run"]._actions
        if a.dest not in ("help", "config", "from_manifest")
    }
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(options) == fields
    for name, flags in options.items():
        assert flags == ["--" + name.replace("_", "-")]


def test_cli_report_round_trip(tmp_path, capsys):
    out = tmp_path / "run_out"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "".join(f"{k}={v}\n" for k, v in raw_config(out_dir=str(out)).items()),
        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_file)]) == 0
    code = cli.main(["report", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "merged")])
    assert code == 0
    assert (tmp_path / "merged" / "merged_traces.csv").exists()
    capsys.readouterr()


def test_cli_has_no_selftest_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'selftest'" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
