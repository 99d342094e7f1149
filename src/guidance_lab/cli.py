"""Config-driven experiment runner.

Usage::

    guidance-lab <kind> [--config cfg.json] [--out DIR] [--seed N]

with ``kind`` one of ``verify``, ``trace_divergence``, ``sweep_beta``,
``sweep_omega``, ``sample_compare``.  Without ``--config`` the built-in
default configuration for the kind is used.  All artifacts are CSV/JSON
files in the output directory; runs are deterministic per (config, seed),
so re-running a config reproduces its outputs byte for byte.
``trace_divergence`` and ``sweep_beta`` take every column from one oracle
pass over the reference trajectory's states, and write nothing if a cell
is not finite.  ``sweep_omega`` and ``sample_compare`` both compare CFG
with the projected rule through one routine, ``_compare_rules``, each at
its own seeds.  Exit status 0 means every check in the run passed (for
``verify``) or the run completed (for the experiment kinds); configuration
problems and non-finite profiles exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import config as cfg_mod
from . import guidance as gd
from . import metrics
from . import mixture as mix
from . import sampler as smp
from . import schedule as sched
from . import verify
from .errors import ConfigurationError, DomainError, GuidanceLabError
from .tables import Table, write_json


def _child_seed(base, *branch):
    return int(np.random.SeedSequence([int(base), *branch]).generate_state(1)[0])


def _write_json(payload, path):
    write_json(payload, path)
    print(f"wrote {path}")


def _write_table(table, path):
    table.write_csv(path)
    print(f"wrote {path}")


def _reference_trajectory(config):
    """Conditional-only trajectory whose states anchor the profiles.

    Every divergence row of an experiment is evaluated at the same states
    so that sweep values are compared at identical points; conditional
    sampling (CFG at scale 1) defines those states.
    """
    x0 = smp.draw_initial_state(config.pair.dim, config.sampler.seed)
    return smp.integrate(x0, config.pair, config.schedule, _cfg_rule(1.0),
                         config.sampler)


def _projected(config, beta=None, omega=None):
    """The configured guidance forced to the projected rule, with overrides."""
    base = config.guidance
    omega = base.guidance_scale if omega is None else float(omega)
    return dataclasses.replace(
        base, rule=gd.GuidanceRule.PROJECTED, guidance_scale=omega,
        parallel_scale=base.parallel_scale if beta is None else float(beta),
        min_scale=min(base.min_scale, omega),
    )


def _cfg_rule(omega):
    return gd.GuidanceConfig(
        rule=gd.GuidanceRule.CFG, guidance_scale=float(omega), min_scale=0.0,
        decay_power=0.0, parallel_scale=1.0,
    )


def run_verify(config):
    results = verify.run_all_checks(config)
    report = verify.report_dict(results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: measured={res.measured:.3e} "
              f"tolerance={res.tolerance:.3e}")
    _write_json(report, os.path.join(config.output_dir, "verify_report.json"))
    return 0 if report["passed"] else 1


def _write_profile(config, name, profile):
    """Write ``<name>.csv``: step, time and ``|div| / dim`` of each column
    ``profile(times, (a, b), terms)`` maps to its signed divergences, given
    the reference trajectory's times, the path coefficients at them and one
    :func:`guidance._pair_terms` pass over all its states.  A non-finite
    cell raises DomainError, naming its column and step, before anything is
    written."""
    pair, schedule = config.pair, config.schedule
    record = _reference_trajectory(config)
    times = record.times
    terms = gd._pair_terms(pair._stack, schedule, times, record.states,
                           config.guidance.normal_source)
    divs = profile(times, sched.coefficients(schedule, times), terms)
    columns = ["t", *divs]
    matrix = np.column_stack([times] + [np.abs(div) / pair.dim
                                        for div in divs.values()])
    finite = np.isfinite(matrix)
    if not finite.all():
        step, column = np.argwhere(~finite)[0]
        raise DomainError(f"{name}: column {columns[column]} is not finite "
                          f"at step {step}")
    rows = [[k] + row for k, row in enumerate(matrix.tolist())]
    _write_table(Table(columns=["step", *columns], rows=rows),
                 os.path.join(config.output_dir, f"{name}.csv"))
    return 0


def run_trace_divergence(config):
    """|div| / dim of both velocities, ``dim * a - b * lap``, and of the
    projected update at every ``beta``."""

    def profile(times, coefficients, terms):
        a, b = coefficients
        divs = {f"div_{name}": config.pair.dim * a - b * lap
                for name, lap in zip(("cond", "uncond"), terms.lap)}
        for beta in config.beta_sweep:
            divs[f"div_g_beta_{beta:g}"] = gd._update_divergence(
                terms, _projected(config, beta=beta), times)
        return divs

    return _write_profile(config, "trace_divergence", profile)


def run_sweep_beta(config):
    """|div| / dim of the residual, ``-b * (lap_c - lap_u)``, of its parallel
    and orthogonal parts, and of the update's three parts at every ``beta``."""

    def profile(times, coefficients, terms):
        lap_c, lap_u = terms.lap
        div_g = -coefficients[1] * (lap_c - lap_u)
        div_par, div_perp = terms.div_par, div_g - terms.div_par
        omega = sched.guidance_scale_at(_projected(config), times)
        divs = {"div_g": div_g, "div_g_par": div_par, "div_g_perp": div_perp}
        for beta in config.beta_sweep:
            tag = f"{beta:g}"
            divs[f"div_update_beta_{tag}"] = omega * (
                div_g - (1.0 - beta) * div_par)
            divs[f"div_update_par_beta_{tag}"] = omega * beta * div_par
            divs[f"div_update_perp_beta_{tag}"] = omega * div_perp
        return divs

    return _write_profile(config, "sweep_beta", profile)


def _oracle_terminal_draws(config, seed):
    """``sample_count`` draws of the conditional target's marginal at the
    grid's last time."""
    marg = mix.marginal_at(config.pair.conditional, config.schedule,
                           config.sampler.t_end)
    return marg.sample(config.sample_count, seed=seed)


def _compare_rules(config, omega, x0s, oracle, null_seed):
    """CFG at ``omega``, then the projected rule at ``omega``, each
    integrated from the same initial states ``x0s`` and tested against the
    draws ``oracle`` with the permutation null seeded ``null_seed(i)`` for
    rule ``i``.  Yields, per rule, its name, its terminal states, the
    ``TwoSampleResult`` and the mean of ``log p_c`` over the terminal
    states at the grid's last time, ``t_end``."""
    rules = (("cfg", _cfg_rule(omega)),
             ("projected", _projected(config, omega=omega)))
    for index, (name, rule) in enumerate(rules):
        # A copy, so that the trajectory is freed here: a view of it would
        # stay alive in the caller's loop through the next rule's run.
        terminal = smp.integrate(x0s, config.pair, config.schedule, rule,
                                 config.sampler).terminal_state.copy()
        result = metrics.permutation_test(terminal, oracle, n_perm=config.n_perm,
                                          seed=null_seed(index))
        log_p = mix.log_density(config.pair.conditional, config.schedule,
                                config.sampler.t_end, terminal)
        yield name, terminal, result, float(log_p.mean())


def run_sweep_omega(config):
    rows = []
    summary = {}
    for oi, omega in enumerate(config.omega_sweep):
        x0s = smp.initial_states(config.sample_count, config.pair.dim,
                                 _child_seed(config.seed, 1, oi))
        oracle = _oracle_terminal_draws(config, _child_seed(config.seed, 2, oi))
        for name, _, result, log_p in _compare_rules(
                config, omega, x0s, oracle,
                functools.partial(_child_seed, config.seed, 3, oi)):
            rows.append([name, float(omega), result.statistic,
                         result.null_quantiles[0.95], log_p])
            summary[f"{name}_omega_{omega:g}"] = result.statistic
    columns = ["rule", "omega", "energy_distance", "null_q95", "mean_log_p_cond"]
    _write_table(Table(columns=columns, rows=rows),
                 os.path.join(config.output_dir, "sweep_omega.csv"))
    top = max(config.omega_sweep)
    report = {
        "energy_distances": summary,
        "omega_max": float(top),
        "projected_le_cfg_at_omega_max": bool(
            summary[f"projected_omega_{top:g}"] <= summary[f"cfg_omega_{top:g}"]
        ),
    }
    _write_json(report, os.path.join(config.output_dir, "sweep_omega_report.json"))
    return 0


def _write_samples(config, name, matrix):
    table = Table(columns=[f"x_{i}" for i in range(matrix.shape[1])],
                  rows=matrix.tolist())
    _write_table(table, os.path.join(config.output_dir, f"samples_{name}.csv"))


def run_sample_compare(config):
    omega = config.guidance.guidance_scale
    oracle = _oracle_terminal_draws(config, _child_seed(config.seed, 4))
    _write_samples(config, "oracle", oracle)
    report = {"sample_count": config.sample_count, "guidance_scale": omega,
              "rules": {}}
    x0s = smp.initial_states(config.sample_count, config.pair.dim,
                             config.sampler.seed)
    for name, terminal, result, log_p in _compare_rules(
            config, omega, x0s, oracle,
            functools.partial(_child_seed, config.seed, 5)):
        _write_samples(config, name, terminal)
        report["rules"][name] = {
            "energy_distance": result.statistic,
            "null_quantiles": {repr(q): v
                               for q, v in result.null_quantiles.items()},
            "n_perm": result.n_perm,
            "mean_terminal_log_p_cond": log_p,
        }
    _write_json(report, os.path.join(config.output_dir,
                                     "sample_compare_report.json"))
    return 0


_RUNNERS = {
    "verify": run_verify,
    "trace_divergence": run_trace_divergence,
    "sweep_beta": run_sweep_beta,
    "sweep_omega": run_sweep_omega,
    "sample_compare": run_sample_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="guidance-lab",
        description="Guided probability-flow sampling laboratory with "
                    "exact Gaussian-mixture oracles.",
    )
    parser.add_argument("kind", choices=cfg_mod.KINDS,
                        help="experiment to run")
    parser.add_argument("--config", default=None,
                        help="JSON config path; built-in defaults when omitted")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment and sampler seeds")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            config = cfg_mod.default_config(args.kind)
        else:
            config = cfg_mod.load_config(args.config)
            if config.kind != args.kind:
                raise GuidanceLabError(
                    f"config kind {config.kind!r} does not match requested "
                    f"{args.kind!r}"
                )
        if args.out is not None or args.seed is not None:
            # Rebuilt through the parser, so an override is checked as a
            # config file's value would be.
            overrides = cfg_mod.config_to_dict(config)
            if args.out is not None:
                overrides["output_dir"] = args.out
            if args.seed is not None:
                overrides["seed"] = args.seed
                overrides["sampler"]["seed"] = args.seed
            config = cfg_mod.config_from_dict(overrides)
        try:
            os.makedirs(config.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create output directory {config.output_dir!r}: {exc}"
            ) from exc
        return _RUNNERS[config.kind](config)
    except GuidanceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
