"""Command-line interface.

Subcommands: ``lambda``, ``expected-n``, ``simulate``, ``dist``,
``validate``.  Model flags can also come from a JSON config file
(``--config``); explicit flags override file values.

Exit codes: 0 success, 1 usage error, 2 numerical failure (an allocation
failure included), 3 validation criteria failed.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import sys

import click
import numpy as np

from .analytics import ModelParams, expected_n, lambda_exact, lambda_image
from .errors import DomainError, FHawkesError
from .harness import (
    count_distributions,
    count_matrix,
    expected_n_ilt_curve,
    mean_and_se,
)
from .io import write_curves_csv, write_dist_csv, write_events_csv, write_report_json
from .laplace import ilt_grid
from .simulate import sample_paths
from .validation import run_validation

_MODEL_FLAGS = ("lambda0", "alpha", "beta", "gamma")
_COUNT = click.IntRange(min=1)
_OUT = click.option("--out", type=click.Path(dir_okay=False), required=True)
_SEED = click.option("--seed", type=int, default=0, show_default=True)


def _model_options(fn):
    """Give the command ``fn(p, **options)`` ``--config`` and the model
    flags, ahead of its own options, and call it with the ``ModelParams``
    that :func:`_resolve_params` makes of them."""

    @functools.wraps(fn)
    def command(config, **options):
        flags = {key: options.pop(key) for key in _MODEL_FLAGS}
        return fn(_resolve_params(config, **flags), **options)

    for flag in reversed(_MODEL_FLAGS):
        command = click.option(f"--{flag}", type=float, default=None)(command)
    return click.option(
        "--config",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="JSON file mirroring the flags; explicit flags override it.",
    )(command)


def _resolve_params(config, **flags) -> ModelParams:
    """Model parameters from the config file, overridden by the flags; a
    config file that is not a JSON object or has a key that is not a model
    flag, or a value that is not a number (JSON booleans included), is a
    usage error."""
    values = {}
    if config:
        try:
            loaded = json.loads(pathlib.Path(config).read_text())
        except ValueError as exc:
            raise click.UsageError(f"cannot parse --config {config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise click.UsageError(f"--config {config} must hold a JSON object")
        unknown = sorted(set(loaded) - set(_MODEL_FLAGS))
        if unknown:
            raise click.UsageError(
                f"--config {config} has unknown keys: {', '.join(unknown)}"
            )
        values.update(loaded)
    for key in _MODEL_FLAGS:
        if flags.get(key) is not None:
            values[key] = flags[key]
    missing = [k for k in _MODEL_FLAGS if k not in values]
    if missing:
        raise click.UsageError(f"missing model parameters: {', '.join(missing)}")
    numbers = {}
    for key in _MODEL_FLAGS:
        try:
            # float() reads a JSON true or false as 1.0 or 0.0
            if isinstance(values[key], bool):
                raise TypeError
            numbers[key] = float(values[key])
        except (TypeError, ValueError) as exc:
            raise click.UsageError(
                f"model parameter {key} must be a number, got {values[key]!r}"
            ) from exc
    return ModelParams(**numbers)


def _grid(t_max: float, grid: int) -> np.ndarray:
    """``grid`` evenly spaced times on ``(0, t_max]``; DomainError unless
    ``t_max`` is positive and finite, before ``np.linspace`` could turn an
    infinite one into NaN with a raw RuntimeWarning."""
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"--t-max must be positive and finite, got {t_max}")
    return np.linspace(0.0, t_max, grid + 1)[1:]


@click.group(name="fhawkes")
def cli():
    """Self-exciting point process with Mittag-Leffler kernel."""


@cli.command(name="lambda")
@_model_options
@click.option("--t-max", type=float, default=50.0, show_default=True)
@click.option("--grid", type=_COUNT, default=500, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["exact", "ilt", "both"]),
    default="exact",
    show_default=True,
)
@_OUT
def lambda_cmd(p, t_max, grid, method, out):
    """Expected intensity curve on a uniform grid."""
    t = _grid(t_max, grid)
    table = {"t": t}
    if method in ("exact", "both"):
        table["exact"] = lambda_exact(t, p)
    line = f"wrote {t.size} rows to {out}"
    if method in ("ilt", "both"):
        table["ilt"], est = ilt_grid(lambda_image(p), t)
        rel = est / np.maximum(np.abs(table["ilt"]), 1e-300)
        line += f" (max ilt estimate/|ilt| = {rel.max():.2e})"
    write_curves_csv(out, table)
    click.echo(line)


@cli.command(name="expected-n")
@_model_options
@click.option("--t-max", type=float, default=10.0, show_default=True)
@click.option("--grid", type=_COUNT, default=10, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["exact", "ilt", "mc", "all"]),
    default="exact",
    show_default=True,
)
@click.option("--replicas", type=_COUNT, default=10_000, show_default=True)
@_SEED
@_OUT
def expected_n_cmd(p, t_max, grid, method, replicas, seed, out):
    """Expected event count: closed form, numerical inversion, Monte Carlo."""
    times = _grid(t_max, grid)
    table = {"t": times}
    if method in ("mc", "all"):
        table["mc_mean"], table["mc_se"] = mean_and_se(
            count_matrix(p, times, replicas, seed)
        )
    table["exact"] = expected_n(times, p)
    if method in ("ilt", "all"):
        table["ilt"] = expected_n_ilt_curve(p, times)
    write_curves_csv(out, table)
    line = f"wrote {times.size} rows to {out}"
    if "mc_mean" in table:
        # a time where every replica has the same count has se = 0
        se = table["mc_se"]
        pos = se > 0.0
        gap = np.abs(table["mc_mean"] - table["exact"])[pos] / se[pos]
        dev = f"{gap.max():.2f}" if gap.size else "n/a"
        line += f" (max |mc-exact|/se = {dev})"
    click.echo(line)


@cli.command(name="simulate")
@_model_options
@click.option("--horizon", type=float, default=10.0, show_default=True)
@click.option("--replicas", type=_COUNT, default=1, show_default=True)
@_SEED
@click.option(
    "--engine",
    type=click.Choice(["thinning", "cluster"]),
    default="thinning",
    show_default=True,
)
@_OUT
def simulate_cmd(p, horizon, replicas, seed, engine, out):
    """Draw sample paths and write (replica, k, T_k) rows."""
    seqs = sample_paths(p, horizon, seed, range(replicas), engine)
    write_events_csv(out, seqs)
    total = sum(len(s) for s in seqs)
    click.echo(f"wrote {total} events over {replicas} replicas to {out}")


@cli.command(name="dist")
@_model_options
@click.option("--t", "times", type=str, required=True,
              help="Comma-separated observation times.")
@click.option("--replicas", type=_COUNT, default=10_000, show_default=True)
@_SEED
@click.option(
    "--compare",
    type=click.Choice(["poisson", "exp-hawkes", "none"]),
    default="none",
    show_default=True,
)
@_OUT
def dist_cmd(p, times, replicas, seed, compare, out):
    """Empirical distribution of the event count at fixed times."""
    try:
        ts = tuple(sorted(float(x) for x in times.split(",")))
    except ValueError as exc:
        raise click.UsageError(f"cannot parse --t {times!r}") from exc
    reference = None if compare == "none" else compare.replace("-", "_")
    label = "exp_hawkes_empirical" if reference == "exp_hawkes" else reference
    lines, records = [], []
    for d, ref in count_distributions(p, ts, replicas, seed, reference):
        line = f"t={d.t:g}: support 0..{max(d.counts)}"
        if ref is not None:
            line += f", TV vs {label} = {d.tv_distance(ref):.4f}"
        lines.append(line)
        p_hat = d.pmf()
        for k in sorted(set(p_hat) | set(ref or {})):
            p_ref = math.nan if ref is None else ref.get(k, math.nan)
            records.append((d.t, k, d.counts.get(k, 0), p_hat.get(k, 0.0), p_ref))
    write_dist_csv(out, records)
    for line in lines:
        click.echo(line)
    click.echo(f"wrote distribution table to {out}")


@cli.command(name="validate")
@click.option("--smoke", is_flag=True, help="Reduced replica counts.")
@click.option("--seed", type=int, default=20240801, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def validate_cmd(smoke, seed, out):
    """Run the acceptance suite; exit 3 if any criterion fails."""
    report = run_validation(smoke=smoke, seed=seed)
    for rec in report["criteria"]:
        status = "PASS" if rec["passed"] else "FAIL"
        # a criterion with several rules names the ones that failed
        failed = rec.get("details", {}).get("failed")
        click.echo(
            f"[{status}] {rec['name']}: measured {rec['measured']:.4g} "
            f"vs bound {rec['bound']:.4g} ({rec['seconds']:.1f}s)"
            + (f"; failed: {', '.join(failed)}" if failed else "")
        )
    if out:
        write_report_json(out, report)
        click.echo(f"report written to {out}")
    if not report["all_passed"]:
        sys.exit(3)


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except FHawkesError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    except MemoryError as exc:
        reason = str(exc).partition("\n")[0] or "allocation failed"
        click.echo(f"numerical failure: out of memory: {reason}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
