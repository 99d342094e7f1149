"""Tests for tools/artifact_digests.py, the artifact digest map and its diff."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "artifact_digests.py")


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("artifact_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Only the runs a test names: no default kinds.
    monkeypatch.setattr(module, "KINDS", ())
    return module


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_compare_names_every_difference(tool, tmp_path, capsys):
    a = {"verify/verify_report.json": "aa", "sweep_beta/sweep_beta.csv": "bb",
         "sweep_omega/sweep_omega.csv": "cc"}
    b = {**a, "sweep_beta/sweep_beta.csv": "bd"}
    del b["sweep_omega/sweep_omega.csv"]
    paths = [_write(tmp_path / "a.json", a), _write(tmp_path / "b.json", b)]
    assert tool.main(["--compare", *paths]) == 1
    assert capsys.readouterr().out.split() == [
        "sweep_beta/sweep_beta.csv", "sweep_omega/sweep_omega.csv"]
    assert tool.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == ""


def test_digest_map_holds_each_artifact_of_a_config_run(tool, tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "kind": "trace_divergence", "sampler": {"steps": 6},
        "guidance": {"guidance_scale": 1.0, "min_scale": 1.0,
                     "decay_power": 0.0, "beta_sweep": [0.0, 1.0]}})
    out = tmp_path / "digests.json"
    assert tool.main([str(out), "--seeds", "--configs", cfg]) == 0
    digests = json.loads(out.read_text())
    assert list(digests) == [f"{cfg}/trace_divergence.csv"]
    assert all(len(value) == 64 for value in digests.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_digest_map_is_written_when_a_run_fails(tool, tmp_path):
    # The profile is not finite at t = 1e-300, so the run exits 2 and
    # writes no artifact.
    cfg = _write(tmp_path / "cfg.json", {
        "kind": "trace_divergence", "schedule": {"t_min": 1e-300},
        "sampler": {"t_start": 1e-300}})
    out = tmp_path / "digests.json"
    assert tool.main([str(out), "--seeds", "--configs", cfg]) == 1
    assert json.loads(out.read_text()) == {}
