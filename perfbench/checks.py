"""Per-job correctness checks, each by a route independent of the value
the program wrote.

* ``trace_divergence``: |div| in the profile against the trace of the
  field's exact Jacobian (Hessian algebra, not the Laplacian route the
  program used for the velocity columns) and against the scalar
  decomposition identity ``scale(t) (div g - (1 - beta) div g_par)``.
* ``sweep_beta``: every column against the trace of the matching field's
  exact Jacobian.
* ``sample_compare``: the reported energy distance recomputed from the
  written sample CSVs; null quantiles finite and non-decreasing in q.
* ``sweep_omega``: CSV and report agree and cover every (rule, omega).

Every artifact must also hold only finite numbers.  A check returns a list
of failure messages; an empty list means the job passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from guidance_lab import config as cfg_mod
from guidance_lab import guidance as gd
from guidance_lab import metrics
from guidance_lab import sampler as smp
from guidance_lab import schedule as sched

IDENTITY_TOL = 1e-8
ENERGY_TOL = 1e-12
ROWS_CHECKED = 8


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numeric_table(path):
    header, rows = read_csv(path)
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


def _nonfinite_in_json(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite_in_json(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite_in_json(v) for v in value)
    return False


def _finite_artifacts(out_dir):
    failures = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                if _nonfinite_in_json(json.load(fh)):
                    failures.append(f"{name}: non-finite value")
        elif name.endswith(".csv"):
            _, rows = read_csv(path)
            for row in rows:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # text column, e.g. the rule name
                    if not math.isfinite(value):
                        failures.append(f"{name}: non-finite value {cell}")
                        break
    return failures


def _rel_gap(a, b):
    """Relative gap with the floor of 1 the package's own verify checks use."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _sampled_rows(count, seed):
    rng = np.random.default_rng([seed, 77])
    picks = rng.choice(count - 1, size=min(ROWS_CHECKED - 1, count - 1), replace=False)
    return sorted(set(int(k) for k in picks) | {count - 1})


def _projected(config, beta):
    base = config.guidance
    return dataclasses.replace(
        base, rule=gd.GuidanceRule.PROJECTED, parallel_scale=float(beta),
        min_scale=min(base.min_scale, base.guidance_scale),
    )


def _reference_states(config):
    """The conditional (CFG scale 1) trajectory the profiles are taken on."""
    rule = gd.GuidanceConfig(
        rule=gd.GuidanceRule.CFG, guidance_scale=1.0, min_scale=0.0,
        decay_power=0.0, parallel_scale=1.0,
    )
    x0 = smp.draw_initial_state(config.pair.dim, config.sampler.seed)
    return smp.integrate(x0, config.pair, config.schedule, rule, config.sampler)


def _compare_column(failures, table, column, k, expected, dim, route):
    written = float(table[column][k]) * dim
    gap = _rel_gap(written, abs(expected))
    if not gap <= IDENTITY_TOL:
        failures.append(f"row {k} {column}: {route} gap {gap:.3e}")


def _check_profile_frame(config, table):
    record = _reference_states(config)
    if not np.array_equal(table["t"], record.times):
        return None, ["t column differs from the reference trajectory grid"]
    if not np.array_equal(table["step"], np.arange(record.times.shape[0])):
        return None, ["step column is not 0..steps"]
    return record, []


def check_trace_divergence(config, out_dir):
    table = _numeric_table(os.path.join(out_dir, "trace_divergence.csv"))
    record, failures = _check_profile_frame(config, table)
    if failures:
        return failures
    pair, schedule, dim = config.pair, config.schedule, config.pair.dim
    velocity = {"cond": gd.velocity_field(pair.conditional, schedule),
                "uncond": gd.velocity_field(pair.unconditional, schedule)}
    g_field = gd.residual_field(pair.conditional, pair.unconditional, schedule)
    par_field = gd.parallel_component_field(
        pair.conditional, pair.unconditional, schedule,
        normal_source=config.guidance.normal_source,
    )
    for k in _sampled_rows(record.times.shape[0], config.seed):
        t, x = float(record.times[k]), record.states[k]
        for label, field in velocity.items():
            _compare_column(failures, table, f"div_{label}", k,
                            np.trace(field.jacobian(x, t)), dim, "jacobian trace")
        div_g, div_par = g_field.divergence(x, t), par_field.divergence(x, t)
        for beta in config.beta_sweep:
            rule = _projected(config, beta)
            column = f"div_g_beta_{beta:g}"
            update = gd.projected_update_field(
                pair.conditional, pair.unconditional, schedule, rule)
            _compare_column(failures, table, column, k,
                            np.trace(update.jacobian(x, t)), dim, "jacobian trace")
            scale = sched.guidance_scale_at(rule, t)
            _compare_column(failures, table, column, k,
                            scale * (div_g - (1.0 - beta) * div_par), dim,
                            "decomposition identity")
    return failures


def check_sweep_beta(config, out_dir):
    table = _numeric_table(os.path.join(out_dir, "sweep_beta.csv"))
    record, failures = _check_profile_frame(config, table)
    if failures:
        return failures
    pair, schedule, dim = config.pair, config.schedule, config.pair.dim
    g_field = gd.residual_field(pair.conditional, pair.unconditional, schedule)
    par_field = gd.parallel_component_field(
        pair.conditional, pair.unconditional, schedule,
        normal_source=config.guidance.normal_source,
    )
    base = _projected(config, config.guidance.parallel_scale)
    for k in _sampled_rows(record.times.shape[0], config.seed):
        t, x = float(record.times[k]), record.states[k]
        jac_g = np.trace(g_field.jacobian(x, t))
        jac_par = np.trace(par_field.jacobian(x, t))
        _compare_column(failures, table, "div_g", k, jac_g, dim, "jacobian trace")
        _compare_column(failures, table, "div_g_par", k, jac_par, dim,
                        "jacobian trace")
        _compare_column(failures, table, "div_g_perp", k, jac_g - jac_par, dim,
                        "jacobian trace")
        omega = sched.guidance_scale_at(base, t)
        for beta in config.beta_sweep:
            tag = f"{beta:g}"
            update = gd.projected_update_field(
                pair.conditional, pair.unconditional, schedule,
                dataclasses.replace(base, parallel_scale=float(beta)))
            _compare_column(failures, table, f"div_update_beta_{tag}", k,
                            np.trace(update.jacobian(x, t)), dim, "jacobian trace")
            _compare_column(failures, table, f"div_update_par_beta_{tag}", k,
                            omega * beta * jac_par, dim, "jacobian trace")
            _compare_column(failures, table, f"div_update_perp_beta_{tag}", k,
                            omega * (jac_g - jac_par), dim, "jacobian trace")
    return failures


def _samples(out_dir, name, config):
    table = _numeric_table(os.path.join(out_dir, f"samples_{name}.csv"))
    matrix = np.column_stack([table[f"x_{i}"] for i in range(config.pair.dim)])
    if matrix.shape != (config.sample_count, config.pair.dim):
        raise ValueError(f"samples_{name}.csv has shape {matrix.shape}")
    return matrix


def _check_quantiles(failures, rule, quantiles):
    qs = sorted((float(q), v) for q, v in quantiles.items())
    values = [v for _, v in qs]
    if not all(math.isfinite(v) for v in values):
        failures.append(f"{rule}: non-finite null quantile")
    elif any(b < a for a, b in zip(values, values[1:])):
        failures.append(f"{rule}: null quantiles decrease in q: {qs}")


def check_sample_compare(config, out_dir):
    with open(os.path.join(out_dir, "sample_compare_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    failures = []
    oracle = _samples(out_dir, "oracle", config)
    if report["sample_count"] != config.sample_count:
        failures.append(f"sample_count {report['sample_count']} != config")
    for rule in ("cfg", "projected"):
        entry = report["rules"][rule]
        recomputed = metrics.energy_distance(_samples(out_dir, rule, config), oracle)
        reported = entry["energy_distance"]
        gap = abs(recomputed - reported) / max(abs(recomputed), abs(reported))
        if not gap <= ENERGY_TOL:
            failures.append(f"{rule}: energy distance from CSVs differs by {gap:.3e}")
        if entry["n_perm"] != config.n_perm:
            failures.append(f"{rule}: n_perm {entry['n_perm']} != {config.n_perm}")
        _check_quantiles(failures, rule, entry["null_quantiles"])
    return failures


def check_sweep_omega(config, out_dir):
    header, rows = read_csv(os.path.join(out_dir, "sweep_omega.csv"))
    with open(os.path.join(out_dir, "sweep_omega_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    failures = []
    col = {name: i for i, name in enumerate(header)}
    seen = {}
    for row in rows:
        omega = float(row[col["omega"]])
        seen[(row[col["rule"]], omega)] = float(row[col["energy_distance"]])
    expected = {(rule, float(w)) for rule in ("cfg", "projected")
                for w in config.omega_sweep}
    if set(seen) != expected:
        failures.append(f"rows cover {sorted(seen)}, expected {sorted(expected)}")
        return failures
    for (rule, omega), value in seen.items():
        if report["energy_distances"].get(f"{rule}_omega_{omega:g}") != value:
            failures.append(f"{rule} omega={omega:g}: report and CSV disagree")
    top = max(config.omega_sweep)
    flag = seen[("projected", top)] <= seen[("cfg", top)]
    if report["projected_le_cfg_at_omega_max"] != flag:
        failures.append("projected_le_cfg_at_omega_max contradicts the CSV")
    return failures


CHECKS = {
    "trace_divergence": check_trace_divergence,
    "sweep_beta": check_sweep_beta,
    "sample_compare": check_sample_compare,
    "sweep_omega": check_sweep_omega,
}


def check_job(job):
    """Failure messages for one finished job (empty when it passed)."""
    if not os.path.isdir(job.out_dir):
        return ["no artifacts written"]
    config = cfg_mod.load_config(job.config_path)
    failures = _finite_artifacts(job.out_dir)
    try:
        failures += CHECKS[job.kind](config, job.out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failures.append(f"artifact unreadable: {type(exc).__name__}: {exc}")
    return failures
