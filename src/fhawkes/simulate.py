"""Sample-path generation for the self-exciting process with Mittag-Leffler
kernel, by two independent constructions:

* exact thinning of the process whose kernel is a certified
  sum-of-exponentials surrogate of the Mittag-Leffler density: the
  intensity is a vector of exponentially decaying components, so each
  proposal costs O(Q) for Q components, and it never increases between
  events, so the intensity at the last proposal is a valid dominating rate;
* the branching (immigrants-and-offspring) representation, where each event
  spawns a Poisson(alpha) number of children at kernel-distributed delays.

The exponential-kernel process, the reference of the beta -> 1 limit, is
the one-component case of the thinning loop: the ``exp_hawkes`` engine.

Every path comes through one route from ``(engine, p, horizon, seed,
replica indices)`` to epochs, which checks its inputs and certifies the
thinning kernel once per call: :func:`sample_paths` returns its paths,
:func:`simulate_thinning` and :func:`simulate_cluster` one path, and
:func:`count_matrix` counts N(t) on them for :mod:`fhawkes.harness`, the
CLI and the validation criteria.  Thinning paths advance in lockstep, in
blocks of at most ``_LOCKSTEP_BLOCK``: one vector step gives every active
replica its next proposal.  Below ``_LOCKSTEP_MIN`` (K) active replicas,
each finishes in the scalar loop, which also draws every batch narrower
than K.  Both read the same draws in the same order, so each path is the
same, epoch for epoch, whatever the batch width.

All engines draw from counter-based generator streams keyed by
``(seed, engine, replica)``, so independent replicas are reproducible and
insensitive to execution order.  Every engine raises BudgetError once a
path passes ``DEFAULT_MAX_EVENTS`` events; a thinning path whose mean
immigrant count makes that certain raises before drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .analytics import ModelParams
from .errors import AccuracyError, BudgetError, DomainError
from .special import MLKernelParams, ml_density, ml_one, ml_sample, ml_spectral

__all__ = [
    "EventSequence",
    "count_matrix",
    "intensity",
    "replica_stream",
    "sample_paths",
    "simulate_cluster",
    "simulate_thinning",
]

# the stream key of each engine, fixed: renumbering would move every seeded
# result
ENGINES = MappingProxyType({"thinning": 0, "cluster": 1, "exp_hawkes": 3})

DEFAULT_MAX_EVENTS = 10_000_000

# The thinning kernel surrogate: its relative error on lags [_LAG_MIN,
# horizon] and its lost mass on [0, horizon] are held to _MIXTURE_RTOL on
# _CERT_LAGS lags; its top rate _RATE_MAX makes exp(-rate * _LAG_MIN) = e^-40.
_LAG_MIN, _MIXTURE_RTOL, _CERT_LAGS = 1e-8, 1e-6, 48
_RATE_MAX = 40.0 / _LAG_MIN
# Composite Gauss-Legendre rule in log-rate: panel width and nodes.
_PANEL = 1.5
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(8)
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_MEAN_MAX = _INT64_MAX - 10.0 * math.sqrt(_INT64_MAX)
# a thinning path raises up front when it passes DEFAULT_MAX_EVENTS with
# probability above 1 - _BUDGET_CERTAIN
_BUDGET_CERTAIN = 1e-12
# Replica-batched thinning: paths advance in lockstep while at least
# _LOCKSTEP_MIN are active, in blocks of at most _LOCKSTEP_BLOCK replicas.
# Below about 16 active paths a lockstep step costs more than their scalar
# proposals; blocks of 512 were fastest from 64 to 4096 and keep the
# (paths x Q) work arrays near 5 MB at Q = 217.
_LOCKSTEP_MIN, _LOCKSTEP_BLOCK = 16, 512
# exp(x) rounds to 0.0 for every x below -745.14
_EXP_ZERO = -746.0


def replica_stream(seed: int, engine: str, replica: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (seed, engine, replica); seed and
    replica must be nonnegative integers."""
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    if not (int(seed) >= 0 and int(replica) >= 0):
        raise DomainError(
            f"seed and replica must be nonnegative, got {seed} and {replica}"
        )
    key = np.random.SeedSequence((int(seed), ENGINES[engine], int(replica)))
    return np.random.Generator(np.random.Philox(key))


def _check_horizon(horizon: float) -> None:
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")


def _check_poisson_mean(mean: float) -> None:
    """numpy's Poisson sampler cannot draw a mean above int64 max minus ten
    of its square roots (about 9.2e18)."""
    if not mean <= _POISSON_MEAN_MAX:
        raise DomainError(
            f"lambda0 * horizon = {mean:g} exceeds the largest Poisson mean "
            f"{_POISSON_MEAN_MAX:.4g}"
        )


@dataclass(frozen=True)
class EventSequence:
    """Ordered event epochs from one simulated path, with provenance."""

    epochs: np.ndarray
    horizon: float
    seed: int
    engine: str
    replica: int = 0
    params: ModelParams | None = field(default=None, compare=False)

    def __post_init__(self):
        # a copy, so a path drawn in a lockstep block does not pin the block
        epochs = np.array(self.epochs, dtype=float)
        object.__setattr__(self, "epochs", epochs)
        if self.engine not in ENGINES:
            raise DomainError(f"unknown engine {self.engine!r}")
        _check_horizon(self.horizon)
        if epochs.size:
            if epochs[0] <= 0.0 or epochs[-1] > self.horizon:
                raise DomainError("epochs must lie in (0, horizon]")
            if np.any(np.diff(epochs) <= 0.0):
                raise DomainError("epochs must be strictly increasing")

    def __len__(self):
        return int(self.epochs.size)


def intensity(t: float, history, p: ModelParams) -> float:
    """Conditional intensity ``lambda0 + alpha * sum_{T_k < t} f(t - T_k)``.

    Events at exactly ``t`` are excluded (left-limit convention), which
    keeps the value finite at every epoch.
    """
    if not t >= 0.0:
        raise DomainError("intensity requires t >= 0")
    epochs = np.asarray(getattr(history, "epochs", history), dtype=float)
    past = epochs[epochs < t]
    if past.size == 0:
        return p.lambda0
    dens = ml_density(t - past, p.kernel())
    return p.lambda0 + p.alpha * float(np.sum(dens))


def _exp_mixture(kernel: MLKernelParams, horizon: float):
    """Rates ``r`` and weights ``c`` of the kernel surrogate
    ``f_Q(t) = sum_q c_q * exp(-r_q * t)``, certified on ``(0, horizon]``.

    With ``s = gamma**(1/beta)``, ``f(t) = int s*theta * exp(-s*theta*t) *
    ml_spectral(theta) dtheta``.  The rule is Gauss-Legendre on panels in
    ``log(theta)``, graded towards the mixing density's pole, which lies
    ``pi*(1/beta - 1)`` off the axis at ``theta = 1``.  The rates below the
    rule carry a share ~1e-9 of ``f`` on lags up to ``horizon``; the mixing
    mass above ``_RATE_MAX``, in closed form, becomes one faster component,
    so ``f_Q`` keeps the mass of ``f``'s singular head yet is finite at 0.
    At ``beta = 1`` the surrogate is the kernel: rate and weight ``gamma``.
    Raises AccuracyError if the relative error on lags ``[_LAG_MIN,
    horizon]``, or the mass lost on ``[0, horizon]``, exceeds
    ``_MIXTURE_RTOL``.
    """
    beta, gamma = kernel.beta, kernel.gamma
    if beta == 1.0:
        return np.array([gamma]), np.array([gamma])
    s = gamma ** (1.0 / beta)
    u_hi = math.log(_RATE_MAX / s)
    u_lo = math.log(min(1.0, 1.0 / (s * horizon))) + math.log(1e-9) / (1.0 + beta)
    pole = math.pi * (1.0 / beta - 1.0)
    graded = pole * 2.0 ** np.arange(-1.0, math.log2(_PANEL / pole))
    panels = _PANEL * np.arange(math.ceil(u_lo / _PANEL), u_hi / _PANEL)
    knots = np.concatenate([[u_lo, u_hi], panels, graded, -graded])
    knots = np.unique(knots[(knots >= u_lo) & (knots <= u_hi)])
    half = 0.5 * np.diff(knots)[:, None]
    theta = np.exp(knots[:-1, None] + half * (1.0 + _PANEL_X)).ravel()
    rates = s * theta
    weights = (half * _PANEL_W).ravel() * theta * ml_spectral(theta, beta) * rates
    # mixing mass above theta_hi, in closed form through v = theta**beta
    tail = math.atan2(
        math.sin(beta * math.pi), math.exp(beta * u_hi) + math.cos(beta * math.pi)
    ) / (math.pi * beta)
    rates = np.append(rates, 4.0 * _RATE_MAX)
    weights = np.append(weights, tail * rates[-1])

    lags = np.geomspace(min(_LAG_MIN, horizon), horizon, _CERT_LAGS)
    exact = ml_density(lags, kernel)
    approx = np.exp(-np.outer(lags, rates)) @ weights
    rel = float(np.max(np.abs(approx - exact) / exact))
    kept = float(weights / rates @ -np.expm1(-rates * horizon))
    lost = abs(1.0 - ml_one(beta, -gamma * horizon**beta) - kept)
    if not (rel <= _MIXTURE_RTOL and lost <= _MIXTURE_RTOL):
        raise AccuracyError(
            f"sum-of-exponentials kernel (beta={beta}, gamma={gamma}) on "
            f"(0, {horizon:g}]: relative error {rel:.2e}, lost mass "
            f"{lost:.2e}, budget {_MIXTURE_RTOL:.0e}"
        )
    return rates, weights


def _proposal_draws(rng: np.random.Generator, steps=(), uniforms=()):
    """Endless (standard exponential, uniform) pairs: the given ones, then
    pairs drawn from ``rng`` 64 at a time."""
    yield from zip(steps, uniforms)
    while True:
        yield from zip(rng.standard_exponential(64).tolist(), rng.random(64).tolist())


def _thin(lam0, rates, jumps, horizon, draws, start=None) -> np.ndarray:
    """Thinning epochs on ``(0, horizon]`` for the intensity
    ``lam0 + sum_q jumps_q * sum_{T_k < t} exp(-rates_q * (t - T_k))``, kept
    per component at the last epoch.  It never increases between events, so
    its value at the last proposal is a valid bound until the next event.
    ``start = (t, last, bound, state, events)`` resumes a path at time ``t``
    after ``events`` epochs, the last at ``last``; only the new epochs are
    returned."""
    t, last, bound, state, events = start or (0.0, 0.0, lam0, np.zeros_like(rates), 0)
    decay = np.empty_like(rates)
    jump = float(jumps.sum())
    epochs = []
    for step, u in draws:
        t += step / bound
        if t > horizon:
            break
        np.multiply(rates, last - t, out=decay)
        np.exp(decay, out=decay)
        lam = lam0 + float(decay.dot(state))
        if u * bound > lam:
            bound = lam
            continue
        # a step below one ulp of t would repeat the last epoch
        t = max(t, math.nextafter(last, math.inf))
        if t > horizon:
            break
        state *= decay
        state += jumps
        last = t
        epochs.append(t)
        if events + len(epochs) > DEFAULT_MAX_EVENTS:
            raise BudgetError(
                f"thinning exceeded {DEFAULT_MAX_EVENTS} events by t={t:g}"
            )
        bound = lam + jump
    return np.array(epochs)


def _thin_lockstep(lam0, rates, jumps, horizon, rngs) -> list:
    """Epochs on ``(0, horizon]``, one array per stream of ``rngs``, of the
    paths that :func:`_thin` draws from ``_proposal_draws(rng)``, pair for
    pair and epoch for epoch.

    While at least ``_LOCKSTEP_MIN`` paths are active, one step advances
    them all: one (paths x Q) ``exp``, one dot product per row (the same
    BLAS ``ddot`` as ``_thin``'s), one accept mask, and state updates on the
    accepted rows.  Every active path takes one pair per step, so all of
    them refill their 64-pair blocks together.  Below ``_LOCKSTEP_MIN``,
    each remaining path finishes in :func:`_thin`, resumed from its state
    and its unread pairs; fewer streams start there."""
    if len(rngs) < _LOCKSTEP_MIN:
        return [_thin(lam0, rates, jumps, horizon, _proposal_draws(rng)) for rng in rngs]
    jump = float(jumps.sum())
    rows = np.arange(len(rngs))
    t, last = np.zeros(rows.size), np.zeros(rows.size)
    bound = np.full(rows.size, lam0)
    events = np.zeros(rows.size, dtype=np.int64)
    state = np.zeros((rows.size, rates.size))
    steps = uniforms = np.empty((rows.size, 0))
    # (paths x Q) work arrays, used through their leading rows
    arg_buf, decay_buf = np.empty_like(state), np.empty_like(state)
    live_buf = np.empty(state.shape, dtype=bool)
    # the stream and epoch of every lockstep event, in order of time
    hit, when = [np.empty(0, dtype=rows.dtype)], [np.empty(0)]
    k = 0
    while rows.size >= _LOCKSTEP_MIN:
        if k == steps.shape[1]:
            steps = np.array([rngs[r].standard_exponential(64) for r in rows])
            uniforms = np.array([rngs[r].random(64) for r in rows])
            k = 0
        t += steps[:, k] / bound
        n = rows.size
        arg, decay, live = arg_buf[:n], decay_buf[:n], live_buf[:n]
        np.multiply.outer(last - t, rates, out=arg)
        # exp is slow where it underflows; below _EXP_ZERO it is 0.0 exactly
        np.greater(arg, _EXP_ZERO, out=live)
        decay.fill(0.0)
        np.exp(arg, out=decay, where=live)
        lam = lam0 + np.matmul(decay[:, None, :], state[:, :, None])[:, 0, 0]
        accept = uniforms[:, k] * bound <= lam
        k += 1
        np.copyto(bound, lam, where=~accept)
        # a step below one ulp of t would repeat the last epoch
        np.maximum(t, np.nextafter(last, math.inf), out=t, where=accept)
        done = t > horizon
        accept &= ~done
        if accept.any():
            np.multiply(state, decay, out=state, where=accept[:, None])
            np.add(state, jumps, out=state, where=accept[:, None])
            np.copyto(last, t, where=accept)
            np.copyto(bound, lam + jump, where=accept)
            events += accept
            hit.append(rows[accept])
            when.append(t[accept])
            over = np.flatnonzero(events > DEFAULT_MAX_EVENTS)
            if over.size:
                raise BudgetError(
                    f"thinning exceeded {DEFAULT_MAX_EVENTS} events by t={t[over[0]]:g}"
                )
        if done.any():
            keep = ~done
            rows, t, last, bound, events, state, steps, uniforms = (
                a[keep] for a in (rows, t, last, bound, events, state, steps, uniforms)
            )
    hit, when = np.concatenate(hit), np.concatenate(when)
    when = when[np.argsort(hit, kind="stable")]
    ends = np.cumsum(np.bincount(hit, minlength=len(rngs))).tolist()
    paths = [when[a:b] for a, b in zip([0] + ends, ends)]
    for i, r in enumerate(rows.tolist()):
        draws = _proposal_draws(rngs[r], steps[i, k:].tolist(), uniforms[i, k:].tolist())
        start = (float(t[i]), float(last[i]), float(bound[i]), state[i], int(events[i]))
        paths[r] = np.concatenate([paths[r], _thin(lam0, rates, jumps, horizon, draws, start)])
    return paths


def _check_budget_reachable(mean: float) -> None:
    """N(H) is stochastically at least Poisson(lambda0 * H).  Raise
    BudgetError before any drawing when the Chernoff bound
    ``exp(-mu) * (e * mu / k)**k`` on P(Poisson(mu) <= k), with
    ``mu = lambda0 * H`` and ``k = DEFAULT_MAX_EVENTS``, is at most
    ``_BUDGET_CERTAIN``: passing the budget is then certain up to that."""
    k = DEFAULT_MAX_EVENTS
    if mean > k and (
        mean == math.inf
        or mean - k * (1.0 + math.log(mean / k)) >= -math.log(_BUDGET_CERTAIN)
    ):
        raise BudgetError(
            f"lambda0 * horizon = {mean:g} passes {k} events with probability "
            f"above 1 - {_BUDGET_CERTAIN:g}"
        )


def _paths(engine: str, p: ModelParams, horizon: float, seed: int, replicas):
    """``(p, epochs)``: the model that draws the ``engine``'s paths (``beta``
    1 for ``exp_hawkes``) and an iterator over each replica's epochs, drawn
    a lockstep block at a time.  Every check runs once, before any stream is
    keyed: the horizon, then the cluster's Poisson mean (``ModelParams``
    holds ``alpha < 1``), or the thinning event budget and kernel
    certification."""
    _check_horizon(horizon)
    if engine == "cluster":
        _check_poisson_mean(p.lambda0 * horizon)
        return p, (_cluster(p, horizon, replica_stream(seed, engine, r)) for r in replicas)
    if engine == "exp_hawkes":
        p = replace(p, beta=1.0)
    elif engine != "thinning":
        raise DomainError(f"unknown engine {engine!r}")
    _check_budget_reachable(p.lambda0 * horizon)
    rates, weights = _exp_mixture(p.kernel(), horizon)
    jumps = p.alpha * weights

    def blocks():
        for lo in range(0, len(replicas), _LOCKSTEP_BLOCK):
            rngs = [replica_stream(seed, engine, r) for r in replicas[lo:lo + _LOCKSTEP_BLOCK]]
            yield from _thin_lockstep(p.lambda0, rates, jumps, horizon, rngs)

    return p, blocks()


def sample_paths(
    p: ModelParams, horizon: float, seed: int, replicas, engine: str = "thinning"
) -> list[EventSequence]:
    """Paths on ``(0, horizon]``, one per index of the sequence ``replicas``,
    each from its own ``(seed, engine, replica)`` stream: ``"thinning"`` and
    ``"cluster"`` as :func:`simulate_thinning` and :func:`simulate_cluster`
    draw them, ``"exp_hawkes"`` the exponential-kernel process with ``p``'s
    ``lambda0``, ``alpha`` and ``gamma``.  The thinning kernel is built and
    certified once for all of them.  Raises as the one-path draws do, and
    DomainError for an unknown engine or a negative replica index."""
    p, paths = _paths(engine, p, horizon, seed, replicas)
    return [EventSequence(e, horizon, seed, engine, r, p) for r, e in zip(replicas, paths)]


def count_matrix(
    p: ModelParams, times, replicas: int, seed: int, engine: str = "thinning"
) -> np.ndarray:
    """(replicas x len(times)) matrix of counts N(t): row ``r`` counts the
    path that :func:`sample_paths` draws for replica ``r`` on ``(0,
    max(times)]``, so ``count_matrix(p, times, R, seed)[:r]`` equals
    ``count_matrix(p, times, r, seed)``.  Raises DomainError if ``times`` is
    empty, has a negative time or has largest entry 0 (no horizon), or if
    ``replicas`` is negative, and otherwise as :func:`sample_paths` does."""
    times = np.asarray(times, dtype=float)
    if not (times.size > 0 and times.min() >= 0.0 and replicas >= 0):
        raise DomainError(
            "count_matrix needs at least one time, all times >= 0 and replicas >= 0"
        )
    _, paths = _paths(engine, p, float(times.max()), seed, range(replicas))
    out = np.empty((replicas, times.size), dtype=np.int64)
    for r, epochs in enumerate(paths):
        out[r] = epochs.searchsorted(times, side="right")
    return out


def simulate_thinning(
    p: ModelParams, horizon: float, seed: int, replica: int = 0
) -> EventSequence:
    """Thinning draw of the process on ``(0, horizon]``, exact for a
    sum-of-exponentials kernel surrogate with relative error on lags
    ``[1e-8, horizon]``, and lost mass on ``[0, horizon]``, certified below
    1e-6.  The intensity is a vector of Q decaying components, to which each
    event adds ``alpha`` times the surrogate's weights, so a proposal costs
    O(Q) whatever the history.  An event whose step does not advance the
    time in floating point moves to the next float after the last epoch.
    :func:`sample_paths` certifies the surrogate once for many paths.
    """
    return sample_paths(p, horizon, seed, [replica], "thinning")[0]


def simulate_cluster(
    p: ModelParams, horizon: float, seed: int, replica: int = 0
) -> EventSequence:
    """Branching-representation draw of the process on ``(0, horizon]``.

    Immigrants arrive as a Poisson(lambda0) stream; every event spawns a
    Poisson(alpha) number of offspring at delays drawn exactly from the
    kernel law.  Offspring beyond the horizon are discarded together with
    their descendants, which cannot precede them.  A child whose delay is
    below one ulp of its parent's epoch moves to the next float after the
    epoch before it.  Raises DomainError if ``lambda0 * horizon`` exceeds
    about 9.2e18, and BudgetError once the events pass
    ``DEFAULT_MAX_EVENTS``.
    """
    return sample_paths(p, horizon, seed, [replica], "cluster")[0]


def _cluster(p: ModelParams, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Epochs of one cluster path drawn from ``rng``, on inputs _paths checked."""
    kernel = p.kernel()
    n_imm = rng.poisson(p.lambda0 * horizon)
    if n_imm > DEFAULT_MAX_EVENTS:
        raise BudgetError(f"cluster engine exceeded {DEFAULT_MAX_EVENTS} events")
    generation = np.sort(rng.uniform(0.0, horizon, n_imm))
    collected = [generation]
    total = generation.size
    while generation.size:
        n_children = rng.poisson(p.alpha, generation.size)
        parents = np.repeat(generation, n_children)
        if parents.size == 0:
            break
        children = parents + ml_sample(rng, kernel, parents.size)
        children = children[children <= horizon]
        total += children.size
        if total > DEFAULT_MAX_EVENTS:
            raise BudgetError(f"cluster engine exceeded {DEFAULT_MAX_EVENTS} events")
        collected.append(children)
        generation = children
    epochs = np.sort(np.concatenate(collected))
    epochs = epochs[epochs > 0.0]
    stuck = np.flatnonzero(np.diff(epochs) <= 0.0)
    if stuck.size:
        for i in range(stuck[0] + 1, epochs.size):
            epochs[i] = max(epochs[i], math.nextafter(epochs[i - 1], math.inf))
        epochs = epochs[epochs <= horizon]
    return epochs
