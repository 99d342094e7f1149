"""Tests for config round-tripping, table formatting, and the CLI runners."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from guidance_lab import (
    ConfigurationError,
    DomainError,
    GaussianMixture,
    GuidanceLabError,
    ShapeError,
    Table,
    cli,
    config_from_dict,
    config_to_dict,
    default_config,
    default_target_pair,
    format_value,
    initial_states,
    integrate,
    load_config,
    mixture,
    permutation_test,
    target_from_dict,
    target_to_dict,
    verify,
)
from guidance_lab.config import (
    KINDS,
    MAX_DIM,
    MAX_PERMUTATIONS,
    MAX_SAMPLE_COUNT,
    MAX_STEPS,
)
from guidance_lab.guidance import (GuidanceConfig, GuidanceRule,
                                   parallel_component_field,
                                   projected_update_field, residual_field,
                                   velocity_field)
from guidance_lab.schedule import guidance_scale_at
from guidance_lab.tables import atomic_write, write_json
from guidance_lab.verify import _random_mixture


# ---------------------------------------------------------------------------
# package exports


def test_package_exports_match_its_imports():
    import guidance_lab

    with open(guidance_lab.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert len(set(guidance_lab.__all__)) == len(guidance_lab.__all__)
    assert public <= set(guidance_lab.__all__)
    for name in guidance_lab.__all__:
        getattr(guidance_lab, name)
    # Config files are written as write_json(config_to_dict(config), path).
    assert not hasattr(guidance_lab, "save_config")


# ---------------------------------------------------------------------------
# value formatting and CSV writing


def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(7) == "7"
    assert format_value(0.5) == "0.5"
    # 17 significant digits round-trip doubles exactly.
    assert float(format_value(0.1)) == 0.1
    assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0
    assert format_value("label") == "label"


def test_table_write_csv(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    Table(columns=["a", "b"], rows=[[1, 0.5], [2, 1.5]]).write_csv(str(path))
    assert path.read_text() == "a,b\n1,0.5\n2,1.5\n"
    with pytest.raises(ShapeError):
        Table(columns=["a", "b"], rows=[[1]]).write_csv(str(path))
    assert path.read_text() == "a,b\n1,0.5\n2,1.5\n"


def test_table_write_csv_matches_per_cell_format_value(tmp_path):
    # One column per cell type, one of mixed types, and one of strings,
    # which format_value reformats where they parse as floats ("1.50").
    rows = [
        [3, True, "cfg", np.float64(1.0 / 3.0), -0.0, 5e-324, 1e300,
         np.int64(2**60), np.float32(0.1), np.bool_(False), 2**70, "1.50"],
        [2**64 + 1, False, "projected", np.float64(-2.5), 0.5, -5e-324, -1e300,
         np.int32(-7), np.float32(-3.0), np.bool_(True), 0.25, "nan"],
    ]
    columns = [f"c{i}" for i in range(len(rows[0]))]
    path = tmp_path / "mixed.csv"
    Table(columns=columns, rows=rows).write_csv(str(path))
    want = "\n".join([",".join(columns)] + [
        ",".join(format_value(v) for v in row) for row in rows]) + "\n"
    assert path.read_bytes() == want.encode()
    Table(columns=columns, rows=[]).write_csv(str(path))
    assert path.read_text() == ",".join(columns) + "\n"
    with pytest.raises(ShapeError):
        Table(columns=columns, rows=rows + [rows[0][:-1]]).write_csv(str(path))


def test_artifact_write_that_raises_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact.json"
    cli._write_json({"value": 1.0}, str(path))
    before = path.read_bytes()

    def half_written(fh):
        fh.write('{"value": ')
        raise OSError("device full")

    with pytest.raises(OSError, match="device full"):
        atomic_write(str(path), half_written)
    # json.dump writes the first entry, then meets the NaN.
    with pytest.raises(ValueError):
        cli._write_json({"value": 2.0, "bad": float("nan")}, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]


def test_atomic_write_under_a_regular_file_raises_package_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    with pytest.raises(GuidanceLabError):
        atomic_write(str(blocker / "x.csv"), lambda fh: fh.write("a\n"))
    with pytest.raises(GuidanceLabError):
        Table(columns=["a"], rows=[[1]]).write_csv(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == "not a directory\n"


def test_table_row_length_error_exits_2(tmp_path, monkeypatch):
    target = tmp_path / "bad.csv"

    def runner(config):
        cli._write_table(Table(columns=["a", "b"], rows=[[1]]), str(target))
        return 0

    monkeypatch.setitem(cli._RUNNERS, "trace_divergence", runner)
    assert cli.main(["trace_divergence", "--out", str(tmp_path / "out")]) == 2
    assert not target.exists()


# ---------------------------------------------------------------------------
# target serialization


def test_target_round_trip_diagonal():
    g = GaussianMixture.isotropic(
        np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.5, 1.5]),
        weights=np.array([0.25, 0.75]),
    )
    d = target_to_dict(g)
    assert d["dim"] == 2
    assert all("cov_diag" in comp for comp in d["components"])
    back = target_from_dict(d)
    np.testing.assert_array_equal(back.weights, g.weights)
    np.testing.assert_array_equal(back.means, g.means)
    np.testing.assert_array_equal(back.covariances, g.covariances)


def test_target_round_trip_full_covariance():
    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    g = GaussianMixture.single(np.array([0.5, -0.5]), cov)
    d = target_to_dict(g)
    assert "cov_full" in d["components"][0]
    back = target_from_dict(d)
    np.testing.assert_array_equal(back.covariances[0], cov)


def test_target_from_dict_validation():
    base = {"dim": 2, "components": [
        {"weight": 1.0, "mean": [0.0, 0.0], "cov_diag": [1.0, 1.0]}
    ]}
    target_from_dict(base)  # sanity: the base form parses

    with pytest.raises(ConfigurationError):
        target_from_dict({"components": []})
    with pytest.raises(ConfigurationError):
        target_from_dict({"dim": 2, "components": []})
    bad = json.loads(json.dumps(base))
    bad["components"][0]["cov_full"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigurationError):
        target_from_dict(bad)  # both covariance forms present
    bad = json.loads(json.dumps(base))
    del bad["components"][0]["cov_diag"]
    with pytest.raises(ConfigurationError):
        target_from_dict(bad)  # no covariance form
    bad = json.loads(json.dumps(base))
    bad["components"][0]["mean"] = [0.0]
    with pytest.raises(ConfigurationError):
        target_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["components"][0]["cov_diag"] = [1.0]
    with pytest.raises(ConfigurationError):
        target_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["components"][0]["weight"] = 0.5  # weights must sum to one
    with pytest.raises(ConfigurationError):
        target_from_dict(bad)


# ---------------------------------------------------------------------------
# experiment config


def test_default_config_every_kind():
    for kind in KINDS:
        config = default_config(kind)
        assert config.kind == kind
        assert config.pair.dim == 2
    assert default_config("trace_divergence").sampler.steps == 240
    assert default_config("sample_compare").guidance.guidance_scale == 15.0


def test_config_dict_round_trip_is_exact():
    for kind in KINDS:
        d = config_to_dict(dataclasses.replace(
            default_config(kind), seed=3, output_dir="artifacts"))
        assert config_to_dict(config_from_dict(d)) == d


def test_config_file_round_trip(tmp_path):
    config = dataclasses.replace(default_config("sweep_omega"), seed=11)
    path = tmp_path / "cfg.json"
    write_json(config_to_dict(config), str(path))
    loaded = load_config(str(path))
    assert config_to_dict(loaded) == config_to_dict(config)


def test_config_defaults_fill_missing_blocks():
    config = config_from_dict({"kind": "verify"})
    assert config.seed == 0
    assert config.sampler.steps == 30
    assert config.guidance.guidance_scale == 5.0
    assert config.sample_count == 2000
    # Default targets: four-mode ring versus its first mode.
    assert config.pair.unconditional.n_components == 4
    assert config.pair.conditional.n_components == 1


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        config_from_dict({})  # missing kind
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "nonsense"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "verify", "guidance": {"rule": "magic"}})
    with pytest.raises(ConfigurationError):
        config_from_dict(
            {"kind": "verify",
             "guidance": {"guidance_scale": 1.0, "min_scale": 2.0}}
        )
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "trace_divergence",
                          "guidance": {"beta_sweep": []}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "verify", "samples": {"count": 1}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "verify",
                          "targets": {"conditional": {"dim": 2, "components": []}}})
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/path.json")
    # Unknown keys and wrong types are rejected, never ignored or coerced.
    for bad in (
        {"kind": "verify", "guidance": {"guidance_sclae": 99}},
        {"kind": "verify", "sampler": {"record_diagnostics": False}},
        {"kind": "verify", "guidance": {"rule": "cfg"}},
        {"kind": "verify", "hutchinson": {"probes": 64}},
        {"kind": "verify", "schedule": {"kind": "linear"}},
        {"kind": "verify", "samples": {"n_perm": 99}},
        {"kind": "verify", "sampler": {"steps": 30.7}},
        {"kind": "verify", "samples": {"count": 2.9}},
        {"kind": "verify", "gamma_sweep": [0.5]},
        {"kind": "verify", "seed": True},
        {"kind": "verify", "schedule": {"t_min": "0.01"}},
        {"kind": "verify", "guidance": {"beta_sweep": [0.5, "1"]}},
    ):
        with pytest.raises(ConfigurationError):
            config_from_dict(bad)
    base = target_to_dict(default_target_pair().conditional)
    # The size caps are inclusive.
    capped = config_from_dict({
        "kind": "verify", "sampler": {"steps": MAX_STEPS},
        "samples": {"count": MAX_SAMPLE_COUNT, "n_perm": MAX_PERMUTATIONS}})
    assert (capped.sampler.steps, capped.sample_count, capped.n_perm) == (
        MAX_STEPS, MAX_SAMPLE_COUNT, MAX_PERMUTATIONS)
    with pytest.raises(ConfigurationError):
        config_from_dict({"kind": "verify", "sampler": {"steps": MAX_STEPS + 1}})
    wide = target_from_dict({"dim": MAX_DIM, "components": [
        {"weight": 1.0, "mean": [0.0] * MAX_DIM, "cov_diag": [1.0] * MAX_DIM}]})
    assert wide.dim == MAX_DIM
    for key, value in (("dim", 2.0), ("colour", 1)):
        bad = json.loads(json.dumps(base))
        bad[key] = value
        with pytest.raises(ConfigurationError):
            target_from_dict(bad)
    for key, value in (("weight", "1"), ("mean", [4.0, True]), ("scale", 1.0)):
        bad = json.loads(json.dumps(base))
        bad["components"][0][key] = value
        with pytest.raises(ConfigurationError):
            target_from_dict(bad)


def test_default_pair_geometry():
    pair = default_target_pair()
    assert pair.dim == 2
    np.testing.assert_array_equal(pair.conditional.means[0], [4.0, 0.0])
    assert pair.unconditional.n_components == 4
    # The conditional mode is strictly sharper than the unconditional ring.
    assert pair.conditional.covariances[0][0, 0] < pair.unconditional.covariances[0][0, 0]


def test_readme_config_example_loads():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    for name, cap in (("MAX_STEPS", MAX_STEPS), ("MAX_SAMPLE_COUNT", MAX_SAMPLE_COUNT),
                      ("MAX_PERMUTATIONS", MAX_PERMUTATIONS), ("MAX_DIM", MAX_DIM)):
        assert f"`{name}` = {cap:,}" in text
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    example = json.loads(blocks[0])
    config = config_from_dict(example)
    assert config_to_dict(config) == example


_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _fresh_python(source, *args):
    """Run ``source`` in a new interpreter that imports the package from src/."""
    path = os.pathsep.join(
        p for p in (os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", source, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_readme_library_example_runs():
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    assert np.isfinite(float(_fresh_python(blocks[0])))


_SCIPY_AFTER_RUNS = """
import contextlib, io, json, os, sys, threading
from guidance_lab import cli

def run(kind, config=None):
    argv = [kind, "--out", os.path.join(out, kind)]
    if config is not None:
        path = os.path.join(out, kind + ".json")
        with open(path, "w") as fh:
            json.dump(dict(config, kind=kind), fh)
        argv += ["--config", path]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

def masked_modules():
    return sorted(m for m in sys.modules
                  if m == "numpy.ma" or m.startswith("numpy.ma."))

out = sys.argv[1]
samples = {"sampler": {"steps": 4}, "samples": {"count": 20, "n_perm": 100}}
status = [run("trace_divergence", {"sampler": {"steps": 8}}),
          run("sweep_beta", {"sampler": {"steps": 8}}),
          run("verify")]
futures = "concurrent.futures" in sys.modules
threads = threading.active_count()
status += [run("sweep_omega", dict(samples, guidance={"omega_sweep": [1.0, 2.0]})),
           run("sample_compare", samples)]
print(json.dumps({"status": status, "scipy": scipy_modules(),
                  "masked": masked_modules(), "futures": futures,
                  "threads": threads}))
"""


def test_no_kind_imports_scipy(tmp_path):
    # The energy distance computes its grid distances in NumPy, so no kind,
    # the two-sample ones included, imports SciPy.  The null's helper
    # threads start on the first null, so the kinds without one run on one
    # thread and without concurrent.futures (importing it alone added 0.7 MB
    # of RSS).  Nor does any kind load numpy.ma (12-20 ms and about 1.5 MB
    # in a fresh process), which np.quantile, np.unique and np.median import
    # lazily: the null quantiles, loglog_slope's distinct-x check and
    # verify's median avoid them.
    runs = json.loads(_fresh_python(_SCIPY_AFTER_RUNS, str(tmp_path)))
    assert runs["status"] == [0, 0, 0, 0, 0]
    assert runs["scipy"] == []
    assert runs["masked"] == []
    assert runs["futures"] is False
    assert runs["threads"] == 1


# ---------------------------------------------------------------------------
# CLI runners (small configs; in-process main())


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_trace_divergence_smoke_and_rerun(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "trace_divergence",
        "sampler": {"steps": 24},
        "guidance": {"guidance_scale": 1.0, "min_scale": 1.0,
                     "decay_power": 0.0, "beta_sweep": [0.0, 1.0]},
    })
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["trace_divergence", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["trace_divergence", "--config", cfg, "--out", str(out2)]) == 0
    text1 = (out1 / "trace_divergence.csv").read_text()
    assert text1 == (out2 / "trace_divergence.csv").read_text()
    header = text1.splitlines()[0].split(",")
    assert header[:2] == ["step", "t"]
    assert "div_cond" in header and "div_uncond" in header
    assert "div_g_beta_0" in header and "div_g_beta_1" in header
    assert len(text1.splitlines()) == 26  # header + 25 states


@pytest.mark.parametrize("source", ["conditional", "unconditional"])
def test_trace_divergence_columns_match_field_divergences(tmp_path, source):
    rng = np.random.default_rng(71)
    targets = {name: target_to_dict(_random_mixture(rng, 3, k))
               for name, k in (("conditional", 2), ("unconditional", 9))}
    betas = [0.0, 0.1, 0.5, 1.0, 3.0]
    cfg = _write_config(tmp_path, {
        "kind": "trace_divergence", "targets": targets,
        "sampler": {"steps": 30, "seed": 4},
        "guidance": {"normal_source": source, "beta_sweep": betas},
    })
    out = tmp_path / "out"
    assert cli.main(["trace_divergence", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace_divergence.csv").read_text().splitlines()
    columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    config = load_config(cfg)
    pair, sch = config.pair, config.schedule
    record = cli._reference_trajectory(config)
    times, states = record.times, record.states
    assert lines[0].split(",")[4:] == [f"div_g_beta_{b:g}" for b in betas]
    assert columns[1].tobytes() == times.tobytes()
    for column, target in zip(columns[2:4], (pair.conditional, pair.unconditional)):
        want = np.abs(velocity_field(target, sch).divergence(states, times)) / 3
        assert column.tobytes() == want.tobytes()
    # The update columns are the scalar identity, with sweep_beta's
    # arithmetic, and match the trace of the assembled update Jacobian to
    # 1e-10 relative, with criterion 8's floor of 1: at t_min, where div g
    # is -0.002, its Laplacian and Hessian routes differ by 7e-13.
    div_g = residual_field(pair.conditional, pair.unconditional, sch).divergence(
        states, times)
    div_par = parallel_component_field(
        pair.conditional, pair.unconditional, sch,
        normal_source=config.guidance.normal_source).divergence(states, times)
    omega = guidance_scale_at(cli._projected(config), times)
    for column, beta in zip(columns[4:], betas):
        want = np.abs(omega * (div_g - (1.0 - beta) * div_par)) / 3
        assert column.tobytes() == want.tobytes(), beta
        rule = dataclasses.replace(cli._projected(config), parallel_scale=beta)
        assert rule.parallel_scale == beta and rule.normal_source.value == source
        assembled = np.abs(projected_update_field(
            pair.conditional, pair.unconditional, sch, rule).divergence(
                states, times)) / 3
        np.testing.assert_allclose(column, assembled, rtol=1e-10, atol=1e-10,
                                   err_msg=f"beta {beta}")


@pytest.mark.parametrize("source", ["conditional", "unconditional"])
def test_sweep_beta_columns_match_field_divergences(tmp_path, source):
    rng = np.random.default_rng(73)
    targets = {name: target_to_dict(_random_mixture(rng, 3, k))
               for name, k in (("conditional", 2), ("unconditional", 9))}
    betas = [0.0, 0.1, 0.5, 1.0, 3.0]
    cfg = _write_config(tmp_path, {
        "kind": "sweep_beta", "targets": targets,
        "sampler": {"steps": 30, "seed": 4},
        "guidance": {"normal_source": source, "beta_sweep": betas},
    })
    out = tmp_path / "out"
    assert cli.main(["sweep_beta", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep_beta.csv").read_text().splitlines()
    columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    config = load_config(cfg)
    pair, sch = config.pair, config.schedule
    record = cli._reference_trajectory(config)
    times, states = record.times, record.states
    div_g = residual_field(pair.conditional, pair.unconditional, sch).divergence(
        states, times)
    div_par = parallel_component_field(
        pair.conditional, pair.unconditional, sch,
        normal_source=config.guidance.normal_source).divergence(states, times)
    div_perp = div_g - div_par
    # The default projected rule decays, so omega(t) varies along the grid.
    omega = guidance_scale_at(cli._projected(config), times)
    wants = [div_g, div_par, div_perp]
    for beta in betas:
        wants += [omega * (div_g - (1.0 - beta) * div_par),
                  omega * beta * div_par, omega * div_perp]
    header = lines[0].split(",")
    assert header[5::3] == [f"div_update_beta_{b:g}" for b in betas]
    assert columns.shape[0] == 2 + len(wants)
    assert columns[1].tobytes() == times.tobytes()
    for label, column, want in zip(header[2:], columns[2:], wants):
        assert column.tobytes() == (np.abs(want) / 3).tobytes(), label


@pytest.mark.parametrize("kind", ["trace_divergence", "sweep_beta"])
def test_trace_kind_makes_one_oracle_pass_after_the_euler_loop(tmp_path, kind,
                                                               monkeypatch):
    # The Euler loop evaluates its time terms with mixture._evaluate_at;
    # every column of the table then comes from one pass over the states.
    steps = 12
    cfg = _write_config(tmp_path, {"kind": kind, "sampler": {"steps": steps}})
    calls = []
    evaluate = mixture._evaluate

    def counting(*args):
        calls.append(args[3].shape[0])
        return evaluate(*args)

    monkeypatch.setattr(mixture, "_evaluate", counting)
    assert cli.main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [steps + 1]


def _unit_component(dim, weight, shift):
    """N(shift e_1, I) at ``weight``."""
    mean = [0.0] * dim
    mean[0] = shift
    return {"weight": weight, "mean": mean, "cov_diag": [1.0] * dim}


@pytest.mark.parametrize("kind", ["trace_divergence", "sweep_beta"])
def test_trace_kind_at_max_dim_forms_no_hessian(tmp_path, kind, monkeypatch):
    # Conditional N(4 e_1, I), unconditional N(e_1, I) / 2 + N(-e_1, I) / 2
    # at MAX_DIM: the profile takes every column from Hessian-vector
    # products, so it holds no (steps + 1, dim, dim) array (65 MB each here).
    dim = MAX_DIM
    config = dataclasses.replace(config_from_dict({
        "kind": kind, "sampler": {"steps": 30},
        "targets": {
            "conditional": {"dim": dim, "components": [_unit_component(dim, 1.0, 4.0)]},
            "unconditional": {"dim": dim, "components": [
                _unit_component(dim, 0.5, 1.0),
                _unit_component(dim, 0.5, -1.0)]}}}),
        output_dir=str(tmp_path))

    def forbidden(*args):
        raise AssertionError("a trace kind assembled a Hessian")

    monkeypatch.setattr(mixture, "_hessians", forbidden)
    runner = {"trace_divergence": cli.run_trace_divergence,
              "sweep_beta": cli.run_sweep_beta}[kind]
    tracemalloc.start()
    try:
        assert runner(config) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert (tmp_path / f"{kind}.csv").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_default_kind_runs_under_raising_floating_point_errors(tmp_path, kind):
    # The oracles' expected underflow is ignored once per run; every other
    # floating-point error would still raise, and the artifacts keep their
    # bytes.
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    assert cli.main([kind, "--out", str(plain)]) == 0
    with np.errstate(all="raise"):
        assert cli.main([kind, "--out", str(strict)]) == 0
    names = sorted(os.listdir(plain))
    assert names and names == sorted(os.listdir(strict))
    for name in names:
        assert (plain / name).read_bytes() == (strict / name).read_bytes(), name


def test_cli_seed_override_changes_trajectory(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "trace_divergence",
        "sampler": {"steps": 8},
        "guidance": {"guidance_scale": 1.0, "min_scale": 1.0,
                     "decay_power": 0.0, "beta_sweep": [1.0]},
    })
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["trace_divergence", "--config", cfg, "--out", str(out1),
                     "--seed", "1"]) == 0
    assert cli.main(["trace_divergence", "--config", cfg, "--out", str(out2),
                     "--seed", "2"]) == 0
    assert (out1 / "trace_divergence.csv").read_text() != (
        out2 / "trace_divergence.csv"
    ).read_text()


def test_cli_sweep_beta_smoke(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "sweep_beta",
        "sampler": {"steps": 16},
        "guidance": {"guidance_scale": 1.0, "min_scale": 1.0,
                     "decay_power": 0.0, "beta_sweep": [0.5, 1.0]},
    })
    out = tmp_path / "out"
    assert cli.main(["sweep_beta", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep_beta.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["step", "t", "div_g", "div_g_par", "div_g_perp"]
    assert "div_update_beta_0.5" in header
    assert "div_update_beta_1" in header
    assert len(lines) == 18  # header + 17 states

    # With a constant unit scale, the beta=1 update divergence column must
    # equal the raw residual column exactly (same scalar arithmetic).
    idx_g = header.index("div_g")
    idx_b1 = header.index("div_update_beta_1")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[idx_b1] == cells[idx_g]


def test_cli_sweep_omega_smoke(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "sweep_omega",
        "sampler": {"steps": 12},
        "guidance": {"omega_sweep": [1.0, 3.0]},
        "samples": {"count": 60, "n_perm": 100},
    })
    out = tmp_path / "out"
    assert cli.main(["sweep_omega", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep_omega.csv").read_text().splitlines()
    assert lines[0].split(",") == ["rule", "omega", "energy_distance",
                                   "null_q95", "mean_log_p_cond"]
    assert len(lines) == 5  # header + 2 omegas x 2 rules
    report = json.loads((out / "sweep_omega_report.json").read_text())
    assert report["omega_max"] == 3.0
    assert set(report["energy_distances"]) == {
        "cfg_omega_1", "cfg_omega_3", "projected_omega_1", "projected_omega_3"
    }
    assert isinstance(report["projected_le_cfg_at_omega_max"], bool)


def test_cli_sample_compare_smoke(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "sample_compare",
        "sampler": {"steps": 12},
        "guidance": {"guidance_scale": 15.0},
        "samples": {"count": 60, "n_perm": 100},
    })
    out = tmp_path / "out"
    assert cli.main(["sample_compare", "--config", cfg, "--out", str(out)]) == 0
    for name in ("samples_oracle.csv", "samples_cfg.csv", "samples_projected.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x_0,x_1"
        assert len(lines) == 61
    report = json.loads((out / "sample_compare_report.json").read_text())
    assert set(report["rules"]) == {"cfg", "projected"}
    for rule in report["rules"].values():
        assert rule["n_perm"] == 100
        assert "0.95" in rule["null_quantiles"]


def _derived_seed(*entropy):
    # The child seed each sampling kind derives from its config seed.
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _rules_at(config, omega):
    cfg = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=omega,
                         min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    projected = dataclasses.replace(
        config.guidance, rule=GuidanceRule.PROJECTED, guidance_scale=omega,
        min_scale=min(config.guidance.min_scale, omega))
    return {"cfg": cfg, "projected": projected}


def _recomputed(config, omega, x0_seed, oracle_seed, null_seed):
    """Per rule: terminal states, permutation test and mean log p_c, from
    the public API alone; and the oracle draws."""
    x0s = initial_states(config.sample_count, config.pair.dim, x0_seed)
    oracle = mixture.sample(config.pair.conditional, config.schedule,
                            config.schedule.t_max, config.sample_count,
                            oracle_seed)
    out = {}
    for index, (name, rule) in enumerate(_rules_at(config, omega).items()):
        record = integrate(x0s, config.pair, config.schedule, rule,
                           config.sampler)
        result = permutation_test(record.terminal_state, oracle,
                                  n_perm=config.n_perm, seed=null_seed(index))
        log_p = mixture.log_density(config.pair.conditional, config.schedule,
                                    float(record.times[-1]),
                                    record.terminal_state)
        out[name] = (record.terminal_state, result, float(log_p.mean()))
    return oracle, out


_SAMPLING = {"seed": 7, "sampler": {"steps": 12, "seed": 11},
             "samples": {"count": 60, "n_perm": 100}}


def test_sweep_omega_values_match_the_public_api_bit_for_bit(tmp_path):
    payload = {**_SAMPLING, "kind": "sweep_omega",
               "guidance": {"omega_sweep": [2.0, 5.0]}}
    config = config_from_dict(payload)
    out = tmp_path / "out"
    assert cli.main(["sweep_omega", "--config", _write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
    header, *lines = (out / "sweep_omega.csv").read_text().splitlines()
    assert header == "rule,omega,energy_distance,null_q95,mean_log_p_cond"
    report = json.loads((out / "sweep_omega_report.json").read_text())
    rows = iter(line.split(",") for line in lines)
    for oi, omega in enumerate(config.omega_sweep):
        _, rules = _recomputed(
            config, omega, _derived_seed(7, 1, oi), _derived_seed(7, 2, oi),
            lambda ri: _derived_seed(7, 3, oi, ri))
        for name, (_, result, log_p) in rules.items():
            rule, *values = next(rows)
            assert rule == name
            assert [float(v) for v in values] == [
                omega, result.statistic, result.null_quantiles[0.95], log_p]
            assert report["energy_distances"][f"{name}_omega_{omega:g}"] == (
                result.statistic)
    assert next(rows, None) is None


def test_sample_compare_values_match_the_public_api_bit_for_bit(tmp_path):
    payload = {**_SAMPLING, "kind": "sample_compare",
               "guidance": {"guidance_scale": 15.0}}
    config = config_from_dict(payload)
    out = tmp_path / "out"
    assert cli.main(["sample_compare", "--config",
                     _write_config(tmp_path, payload), "--out", str(out)]) == 0
    oracle, rules = _recomputed(config, 15.0, 11, _derived_seed(7, 4),
                                lambda ri: _derived_seed(7, 5, ri))
    report = json.loads((out / "sample_compare_report.json").read_text())
    assert (report["sample_count"], report["guidance_scale"]) == (60, 15.0)
    assert list(report["rules"]) == list(rules)

    def samples(name):
        _, *lines = (out / f"samples_{name}.csv").read_text().splitlines()
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    np.testing.assert_array_equal(samples("oracle"), oracle)
    for name, (terminal, result, log_p) in rules.items():
        np.testing.assert_array_equal(samples(name), terminal)
        assert report["rules"][name] == {
            "energy_distance": result.statistic,
            "null_quantiles": {repr(q): v
                               for q, v in result.null_quantiles.items()},
            "n_perm": 100,
            "mean_terminal_log_p_cond": log_p,
        }


def test_clamp_alone_sets_the_run_interval(tmp_path):
    clamp = {"t_min": 0.01, "t_max": 0.99}
    payload = {"kind": "trace_divergence", "schedule": clamp,
               "sampler": {"steps": 24}}
    out = tmp_path / "trace"
    assert cli.main(["trace_divergence", "--config",
                     _write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, *lines = (out / "trace_divergence.csv").read_text().splitlines()
    times = np.array([float(line.split(",")[1]) for line in lines])
    assert times.tobytes() == np.linspace(0.01, 0.99, 25).tobytes()

    payload = {**_SAMPLING, "kind": "sample_compare", "schedule": clamp,
               "guidance": {"guidance_scale": 15.0}}
    config = config_from_dict(payload)
    out = tmp_path / "compare"
    assert cli.main(["sample_compare", "--config",
                     _write_config(tmp_path, payload, "compare.json"),
                     "--out", str(out)]) == 0
    oracle, rules = _recomputed(config, 15.0, 11, _derived_seed(7, 4),
                                lambda ri: _derived_seed(7, 5, ri))
    report = json.loads((out / "sample_compare_report.json").read_text())
    _, *lines = (out / "samples_oracle.csv").read_text().splitlines()
    np.testing.assert_array_equal(
        [[float(v) for v in line.split(",")] for line in lines], oracle)
    for name, (_, result, log_p) in rules.items():
        assert report["rules"][name]["energy_distance"] == result.statistic
        assert report["rules"][name]["mean_terminal_log_p_cond"] == log_p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, column", [("trace_divergence", "div_cond"),
                                          ("sweep_beta", "div_g_par")])
def test_trace_kind_with_a_non_finite_cell_exits_2_before_writing(
        tmp_path, capsys, kind, column):
    # At t = 1e-308, |b_t| = sigma / alpha is near 1e308, so a divergence
    # (the conditional target's, and that of g_par) overflows.
    cfg = _write_config(tmp_path, {"kind": kind, "schedule": {"t_min": 1e-308}})
    out = tmp_path / "out"
    assert cli.main([kind, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"column {column} is not finite at step 0" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["trace_divergence", "sweep_beta"])
def test_trace_kind_runs_where_the_normal_norm_squared_overflows(tmp_path, kind):
    # At t = 1e-300, |b_t| is near 1e300: ||n||^2 of the unscaled normal
    # would overflow, but each row's normal is scaled by a power of two
    # before it is squared, so every cell is finite.
    cfg = _write_config(tmp_path, {"kind": kind, "schedule": {"t_min": 1e-300}})
    out = tmp_path / "out"
    assert cli.main([kind, "--config", cfg, "--out", str(out)]) == 0
    header, *lines = (out / f"{kind}.csv").read_text().splitlines()
    cells = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert cells[0, header.split(",").index("t")] == 1e-300
    assert np.isfinite(cells).all()


def test_cli_verify_smoke(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) >= 14
    assert all(chk["passed"] for chk in report["checks"])


def test_verify_report_is_strict_json_when_a_check_raises(tmp_path, monkeypatch):
    def check_raises(config):
        raise DomainError("forced failure")

    monkeypatch.setattr(verify, "ALL_CHECKS",
                        (verify.check_decompose_scale_free, check_raises))
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out)]) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads((out / "verify_report.json").read_text(),
                        parse_constant=reject)
    failed = report["checks"][1]
    assert failed["name"] == "raises" and failed["passed"] is False
    assert failed["measured"] is None and failed["tolerance"] is None


def test_cli_error_paths(tmp_path):
    # kind mismatch between CLI argument and config file
    cfg = _write_config(tmp_path, {"kind": "sweep_beta"})
    assert cli.main(["trace_divergence", "--config", cfg]) == 2
    # missing config file
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    # unknown config key
    cfg = _write_config(tmp_path, {"kind": "verify", "guidance_sclae": 99},
                        name="typo.json")
    assert cli.main(["verify", "--config", cfg]) == 2
    # a guidance rule key: each kind fixes its own rules
    cfg = _write_config(tmp_path, {"kind": "verify", "guidance": {"rule": "cfg"}},
                        name="rule.json")
    assert cli.main(["verify", "--config", cfg]) == 2
    # unknown kind is rejected by argparse itself
    with pytest.raises(SystemExit):
        cli.main(["explode"])


def test_cli_unwritable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["sweep_beta", "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cli_too_few_permutations_exits_2_before_any_artifact(tmp_path):
    cfg = _write_config(tmp_path, {
        "kind": "sample_compare",
        "sampler": {"steps": 4},
        "samples": {"count": 20, "n_perm": 10},
    })
    out = tmp_path / "out"
    assert cli.main(["sample_compare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


_SMALL_COMPARE = {"kind": "sample_compare", "sampler": {"steps": 4},
                  "samples": {"count": 20, "n_perm": 100}}
_RING_TARGET = {"dim": 2, "components": [
    {"weight": 1.0, "mean": [4.0, 0.0], "cov_diag": [1.0, 1.0]}]}


def _with(block, **fields):
    return {**_SMALL_COMPARE, block: {**_SMALL_COMPARE.get(block, {}), **fields}}


def _with_component(**fields):
    bad = {**_RING_TARGET,
           "components": [{**_RING_TARGET["components"][0], **fields}]}
    return {**_SMALL_COMPARE,
            "targets": {"conditional": bad, "unconditional": _RING_TARGET}}


def _with_dim(dim):
    """Both targets of dimension ``dim``, each list of length ``dim``."""
    target = {"dim": dim, "components": [
        {"weight": 1.0, "mean": [0.0] * dim, "cov_diag": [1.0] * dim}]}
    return {**_SMALL_COMPARE,
            "targets": {"conditional": target, "unconditional": target}}


@pytest.mark.parametrize("payload, flags", [
    (_SMALL_COMPARE, ["--seed", "-1"]),
    ({**_SMALL_COMPARE, "seed": -3}, []),
    (_with("sampler", seed=-1), []),
    (_with_component(weight=float("nan")), []),
    (_with_component(cov_diag=[float("inf"), 1.0]), []),
    (_with("guidance", omega_sweep=[1.0, float("nan")]), []),
    (_with("sampler", t_start=0.01), []),
    (_with("sampler", t_end=0.99), []),
    (_with("guidance", guidance_scale=10 ** 400), []),
    (_with_component(mean=[10 ** 400, 0.0]), []),
    (_with("sampler", steps=10 ** 400), []),
    (_with("samples", count=MAX_SAMPLE_COUNT + 1), []),
    (_with("samples", n_perm=MAX_PERMUTATIONS + 1), []),
    (_with_dim(0), []),
    (_with_dim(MAX_DIM + 1), []),
    (b'{"kind": "sample_compare", "seed": ' + b"1" * 5000 + b"}", []),
    (b'{"kind": "sample_compare", "output_dir": "\xff"}', []),
    # Sweep values whose artifact labels (``f"{value:g}"``) collide.
    ({"kind": "trace_divergence",
      "guidance": {"beta_sweep": [0.1, 0.1000001, 1.0]}}, []),
    ({"kind": "sweep_beta", "guidance": {"beta_sweep": [0.1, 0.1000001]}}, []),
    ({"kind": "sweep_omega", "guidance": {"omega_sweep": [3.0, 3.0000001]}}, []),
    ({"kind": "sweep_beta", "guidance": {"beta_sweep": [0.5, 1.0, 0.5]}}, []),
    ({"kind": "trace_divergence", "guidance": {"beta_sweep": [0.0, -0.0]}}, []),
], ids=["seed-flag", "seed", "sampler-seed", "nan-weight", "inf-cov",
        "nan-sweep", "sampler-t-start", "sampler-t-end", "huge-int-scale",
        "huge-int-mean", "huge-steps", "count-over-cap", "n-perm-over-cap",
        "dim-0", "dim-over-cap", "over-long-integer",
        "not-utf8", "trace-beta-labels", "sweep-beta-labels", "omega-labels",
        "repeated-beta", "signed-zero-beta"])
def test_cli_invalid_config_exits_2_before_any_artifact(tmp_path, capsys,
                                                         payload, flags):
    # json.dumps writes NaN and Infinity, which json.load reads back; a bytes
    # payload is written as it stands.
    if isinstance(payload, bytes):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(payload)
        kind = "sample_compare"
    else:
        cfg = _write_config(tmp_path, payload)
        kind = payload["kind"]
    out = tmp_path / "out"
    assert cli.main([kind, "--config", str(cfg), "--out", str(out),
                     *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
