"""``curves``: closed-form and inverted expected-intensity / expected-count
curves over the parameter grid, plus Prabhakar batches.

All the work is in ``special``, ``laplace``, ``analytics`` and the ILT
quadrature of ``harness``; nothing reaches ``simulate``.  An operation is
one curve: one parameter set and one method, or one Prabhakar shape over
its batch of arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from core import rel_err
from reference import prabhakar_mp

from fhawkes import analytics, harness, laplace, special
from fhawkes.analytics import ModelParams

ALPHAS = (0.1, 0.5)
BETAS = (0.3, 0.5, 0.7, 0.9, 0.99)
GAMMAS = (0.1, 0.8, 1.7)
T_MIN, T_MAX = 1e-2, 1e3
N_GEOM, N_LIN = 48, 32
# Prabhakar batches: arguments in the series band [-40, 5] and log-uniform
# in [-1e6, -40), per shape and round.
N_BAND, N_LARGE = 40, 40
N_MP_SAMPLES = 2  # per shape and round, checked against mpmath

# Tolerances of the checks (measured today: ILT ~5e-11, beta=1/2 forms
# ~1e-15, Prabhakar vs mpmath ~6e-13, ILT quadrature of E[N] ~3e-3).
ILT_RTOL = 1e-4
HALF_RTOL = 1e-9
MP_RTOL = 1e-9
EN_ILT_RTOL = 1e-2  # trapezoid rule on the library's fixed 500-point grid

# prabhakar raises AccuracyError within about 2e-3 of the zero of
# E_{0.7,1.3}^2 at z = -6.1145: no regime certifies a relative accuracy at
# a zero, and one such argument fails its whole batch.  Seeded batches draw
# no argument from ROOT_GAP; the fixed operation at ROOT_Z runs every round
# and counts as failed while the fault stands.  Its check is absolute.
ROOT_SHAPE = (0.7, 1.3, 2.0)
ROOT_GAP = (-6.125, -6.105)
ROOT_Z = -6.1145
ROOT_ATOL = 1e-12


@dataclass(frozen=True)
class Inputs:
    seed: int
    params: tuple
    shapes: tuple


@dataclass(frozen=True)
class RoundInputs:
    t: np.ndarray
    params: tuple
    shapes: tuple
    z: dict
    mp_pick: dict


def make_inputs(seed: int, out_dir=None) -> Inputs:
    params = tuple(
        ModelParams(1.0, a, b, g) for a in ALPHAS for b in BETAS for g in GAMMAS
    )
    shapes = tuple((b, c_b, 1.0) for b in BETAS for c_b in (1.0, b, 2.0))
    return Inputs(seed, params, shapes + ((0.7, 1.3, 2.0),))


def _jittered(points, rng, log: bool):
    """Interior points moved by up to 40% of their cell; ends kept."""
    x = np.log(points) if log else points.copy()
    step = x[1] - x[0]
    x[1:-1] += 0.4 * step * rng.uniform(-1.0, 1.0, x.size - 2)
    return np.exp(x) if log else x


def band_z(rng, n: int, shape) -> np.ndarray:
    """``n`` arguments uniform on the series band [-40, 5], outside
    ``ROOT_GAP`` for ``ROOT_SHAPE``."""
    z = rng.uniform(-40.0, 5.0, n)
    if shape == ROOT_SHAPE:
        inside = (z > ROOT_GAP[0]) & (z < ROOT_GAP[1])
        while np.any(inside):
            z[inside] = rng.uniform(-40.0, 5.0, int(inside.sum()))
            inside = (z > ROOT_GAP[0]) & (z < ROOT_GAP[1])
    return z


def round_inputs(inp: Inputs, r: int) -> RoundInputs:
    rng = np.random.default_rng([inp.seed, 1, r])
    geo = _jittered(np.geomspace(T_MIN, T_MAX, N_GEOM), rng, log=True)
    lin = _jittered(np.linspace(T_MIN, T_MAX, N_LIN), rng, log=False)
    t = np.unique(np.concatenate([geo, lin]))
    # keep points at least 1e-3 apart in relative terms, so that strict
    # growth is resolvable in double precision
    keep = np.concatenate([[True], np.diff(t) > 1e-3 * t[1:]])
    t = t[keep]
    z, pick = {}, {}
    for shape in inp.shapes:
        band = band_z(rng, N_BAND, shape)
        large = -np.exp(rng.uniform(np.log(40.0), np.log(1e6), N_LARGE))
        z[shape] = np.concatenate([band, large])
        pick[shape] = rng.choice(z[shape].size, N_MP_SAMPLES, replace=False)
    return RoundInputs(t, inp.params, inp.shapes, z, pick)


def run_round(rin: RoundInputs, tr, tally) -> dict:
    t0 = np.concatenate([[0.0], rin.t])  # exact forms start at t = 0
    curves = []
    for p in rin.params:
        rec = {"p": p}
        rec["lam"] = tally.attempt(
            lambda: tr.call("analytics.lambda_exact", analytics.lambda_exact, t0, p))
        rec["en"] = tally.attempt(
            lambda: tr.call("analytics.expected_n", analytics.expected_n, t0, p))
        rec["lam_ilt"] = tally.attempt(lambda: tr.call(
            "laplace.ilt_grid", laplace.ilt_grid,
            tr.call("analytics.lambda_image", analytics.lambda_image, p), rin.t)[0])
        rec["en_ilt"] = tally.attempt(lambda: tr.call(
            "harness.expected_n_ilt_curve", harness.expected_n_ilt_curve, p, rin.t))
        if p.beta == 0.5:
            rec["lam_half"] = tally.attempt(lambda: tr.call(
                "analytics.lambda_exact_half", analytics.lambda_exact_half, t0, p))
            rec["en_half"] = tally.attempt(lambda: tr.call(
                "analytics.expected_n_half", analytics.expected_n_half, t0, p))
        curves.append(rec)
    prab = {
        shape: tally.attempt(
            lambda: tr.call("special.prabhakar", special.prabhakar, *shape, rin.z[shape]))
        for shape in rin.shapes
    }
    at_root = tally.attempt(
        lambda: tr.call("special.prabhakar", special.prabhakar, *ROOT_SHAPE, ROOT_Z))
    return {"curves": curves, "prabhakar": prab, "at_root": at_root}


def check(rounds) -> list[str]:
    """Problems found in the outputs of every round (empty when correct)."""
    bad = []
    for rin, out in rounds:
        for rec in out["curves"]:
            bad += _check_curve(rec, rin.t)
        for shape, vals in out["prabhakar"].items():
            bad += _check_prabhakar(shape, rin.z[shape], vals, rin.mp_pick[shape])
        if out["at_root"] is not None:
            ref = prabhakar_mp(*ROOT_SHAPE, ROOT_Z)
            if not abs(out["at_root"] - ref) <= ROOT_ATOL:
                bad.append(f"prabhakar{ROOT_SHAPE} at its zero z={ROOT_Z}: "
                           f"{out['at_root']!r} vs mpmath {ref!r}")
    return bad


def _check_curve(rec, t) -> list[str]:
    p = rec["p"]
    tag = f"(alpha={p.alpha}, beta={p.beta}, gamma={p.gamma})"
    bad = []
    lam, en = rec["lam"], rec["en"]
    if lam is not None:
        lim = p.lambda0 / (1.0 - p.alpha)
        if not (lam[0] == p.lambda0 and np.all(np.diff(lam) > 0.0)
                and np.all(lam < lim)):
            bad.append(f"lambda_exact {tag} does not rise strictly from "
                       f"lambda0 toward lambda0/(1-alpha)")
        if rec["lam_ilt"] is not None:
            e = rel_err(rec["lam_ilt"], lam[1:])
            if not e <= ILT_RTOL:
                bad.append(f"ilt_grid vs lambda_exact {tag}: {e:.2e} > {ILT_RTOL}")
        if rec.get("lam_half") is not None:
            e = rel_err(rec["lam_half"], lam)
            if not e <= HALF_RTOL:
                bad.append(f"lambda_exact_half vs lambda_exact {tag}: {e:.2e}")
    if en is not None:
        if not (en[0] == 0.0 and np.all(np.diff(en) >= 0.0)):
            bad.append(f"expected_n {tag} is not nondecreasing from 0")
        if rec["en_ilt"] is not None:
            e = rel_err(rec["en_ilt"], en[1:])
            if not e <= EN_ILT_RTOL:
                bad.append(f"expected_n_ilt_curve vs expected_n {tag}: {e:.2e}")
        if rec.get("en_half") is not None:
            e = rel_err(rec["en_half"], en)
            if not e <= HALF_RTOL:
                bad.append(f"expected_n_half vs expected_n {tag}: {e:.2e}")
    return bad


def _check_prabhakar(shape, z, vals, pick) -> list[str]:
    if vals is None:
        return []
    if not np.all(np.isfinite(vals)):
        return [f"prabhakar{shape} returned non-finite values"]
    bad = []
    for i in pick:
        ref = prabhakar_mp(*shape, float(z[i]))
        e = rel_err(vals[i], ref)
        if not e <= MP_RTOL:
            bad.append(f"prabhakar{shape} at z={z[i]!r}: {vals[i]!r} vs mpmath "
                       f"{ref!r} ({e:.2e})")
    return bad
