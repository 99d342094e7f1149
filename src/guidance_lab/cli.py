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
is not finite; both write the update's divergence by the scalar identity,
from Hessian-vector products, with no ``(dim, dim)`` array per state.
``sweep_omega`` and ``sample_compare`` both compare CFG with the projected
rule through one routine, ``_compare_rules``, each at its own seeds: it
integrates both rules at every omega of the job in one Euler loop
(``sampler.job_terminal_states``), keeping each run's terminal states
alone, then draws the oracles and runs every permutation null of the job
in one threaded pass (``metrics.permutation_tests``).  Every kind also
completes with NumPy set to raise on every floating-point error, and
nothing here handles underflow: each oracle pass and the Euler loop
ignore the underflow they expect themselves.  Exit status 0 means every
check in the run passed (for ``verify``) or the run completed (for the
experiment kinds); configuration problems and non-finite profiles exit 2.
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


def _projected(config, omega=None):
    """The configured guidance forced to the projected rule, at ``omega`` if given."""
    base = config.guidance
    omega = base.guidance_scale if omega is None else float(omega)
    return dataclasses.replace(base, rule=gd.GuidanceRule.PROJECTED,
                               guidance_scale=omega,
                               min_scale=min(base.min_scale, omega))


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
    ``profile(a, b, terms, div_g, omega)`` maps to its signed divergences,
    given the path coefficients at the reference trajectory's times, one
    :func:`guidance._pair_terms` pass over all its states, the residual's
    divergence ``-b * (lap_c - lap_u)`` and the projected rule's scale
    ``omega(t)`` there, all inside that pass.  A non-finite cell raises
    DomainError, naming its column and step, before anything is written."""
    pair, schedule = config.pair, config.schedule
    record = _reference_trajectory(config)
    times = record.times
    with gd._pair_terms(pair, schedule, times, record.states,
                        config.guidance.normal_source) as terms:
        a, b = sched.coefficients(schedule, times)
        lap_c, lap_u = terms.lap
        divs = profile(a, b, terms, -b * (lap_c - lap_u),
                       sched.guidance_scale_at(_projected(config), times))
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
    projected update at every ``beta``, by the scalar identity
    ``omega(t) * (div g - (1 - beta) * div g_par)`` as in ``sweep_beta``."""

    def profile(a, b, terms, div_g, omega):
        divs = {f"div_{name}": config.pair.dim * a - b * lap
                for name, lap in zip(("cond", "uncond"), terms.lap)}
        for beta in config.beta_sweep:
            divs[f"div_g_beta_{beta:g}"] = omega * (
                div_g - (1.0 - beta) * terms.div_par)
        return divs

    return _write_profile(config, "trace_divergence", profile)


def run_sweep_beta(config):
    """|div| / dim of the residual, ``-b * (lap_c - lap_u)``, of its parallel
    and orthogonal parts, and of the update's three parts at every ``beta``."""

    def profile(a, b, terms, div_g, omega):
        div_par, div_perp = terms.div_par, div_g - terms.div_par
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
    schedule's last time, ``t_max``."""
    return mix.sample(config.pair.conditional, config.schedule,
                      config.schedule.t_max, config.sample_count, seed)


def _compare_rules(config, runs):
    """CFG, then the projected rule, at each ``(omega, x0_seed, oracle_seed,
    null_seed)`` of ``runs``, both integrated from the run's initial states
    and tested against its ``sample_count`` oracle draws at ``t_max``.

    Every rule of every run is integrated first, in one Euler loop over the
    whole job, CFG's runs and then the projected rule's, each kept as its
    terminal copy alone (:func:`sampler.job_terminal_states`); then each
    run's oracle is drawn, and one :func:`metrics.permutation_tests` call
    runs every null of the job in one pass, rule ``i`` of a run with seed
    ``null_seed(i)``.  The job hands it two equal nulls per run, one per
    rule, and each thread of the pass runs whole nulls, so the pair keeps
    two threads busy.  Each value equals that of its own
    :func:`sampler.terminal_states` and :func:`metrics.permutation_test`,
    bit for bit.  Returns, per run, its
    oracle draws and, per rule, its name, its terminal states, the
    ``TwoSampleResult`` and the mean of ``log p_c`` over the terminal states
    at the grid's last time, the schedule's ``t_max``."""
    names = ("cfg", "projected")
    x0s = [smp.initial_states(config.sample_count, config.pair.dim, x0_seed)
           for _, x0_seed, _, _ in runs]
    omegas = [omega for omega, *_ in runs]
    finals = smp.job_terminal_states(
        [(x0, _cfg_rule(omega)) for omega, x0 in zip(omegas, x0s)]
        + [(x0, _projected(config, omega=omega)) for omega, x0 in zip(omegas, x0s)],
        config.pair, config.schedule, config.sampler)
    del x0s  # not held through the nulls
    terminals = list(zip(finals[:len(runs)], finals[len(runs):]))
    oracles = [_oracle_terminal_draws(config, oracle_seed)
               for _, _, oracle_seed, _ in runs]
    results = iter(metrics.permutation_tests(
        [(terminal, oracle, null_seed(index))
         for (*_, null_seed), rules, oracle in zip(runs, terminals, oracles)
         for index, terminal in enumerate(rules)], n_perm=config.n_perm))
    compared = []
    for rules, oracle in zip(terminals, oracles):
        compared.append((oracle, [
            (name, terminal, next(results), float(mix.log_density(
                config.pair.conditional, config.schedule,
                config.schedule.t_max, terminal).mean()))
            for name, terminal in zip(names, rules)]))
    return compared


def run_sweep_omega(config):
    rows = []
    summary = {}
    runs = [(omega, _child_seed(config.seed, 1, oi), _child_seed(config.seed, 2, oi),
             functools.partial(_child_seed, config.seed, 3, oi))
            for oi, omega in enumerate(config.omega_sweep)]
    for omega, (_, rules) in zip(config.omega_sweep, _compare_rules(config, runs)):
        for name, _, result, log_p in rules:
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
    (oracle, rules), = _compare_rules(config, [(
        omega, config.sampler.seed, _child_seed(config.seed, 4),
        functools.partial(_child_seed, config.seed, 5))])
    _write_samples(config, "oracle", oracle)
    report = {"sample_count": config.sample_count, "guidance_scale": omega,
              "rules": {}}
    for name, terminal, result, log_p in rules:
        _write_samples(config, name, terminal)
        report["rules"][name] = {
            "energy_distance": result.statistic,
            "null_quantiles": {repr(q): v
                               for q, v in result.null_quantiles.items()},
            "n_perm": config.n_perm,
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
        # Each override is checked by its config's __post_init__, as a
        # config file's value would be, without parsing the config again.
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
        if args.seed is not None:
            config = dataclasses.replace(
                config, seed=args.seed,
                sampler=dataclasses.replace(config.sampler, seed=args.seed))
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
