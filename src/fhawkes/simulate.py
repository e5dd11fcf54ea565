"""Sample-path generation for the self-exciting process with Mittag-Leffler
kernel, by two independent constructions:

* exact thinning of the process whose kernel is a certified
  sum-of-exponentials surrogate of the Mittag-Leffler density: the
  intensity is a vector of exponentially decaying components, so each
  proposal costs O(Q) for Q components, and it never increases between
  events, so the intensity at the last proposal is a valid dominating rate;
* the branching (immigrants-and-offspring) representation, where each event
  spawns a Poisson(alpha) number of children at kernel-distributed delays.

Reference simulators for the homogeneous Poisson process and for the
exponential-kernel process (the one-component case of the thinning loop)
are included for the limit comparisons.

All engines draw from counter-based generator streams keyed by
``(seed, engine, replica)``, so independent replicas are reproducible and
insensitive to execution order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analytics import ModelParams
from .errors import AccuracyError, BudgetError, DomainError
from .special import MLKernelParams, ml_density, ml_one, ml_sample, ml_spectral

__all__ = [
    "EventSequence",
    "intensity",
    "replica_stream",
    "simulate_cluster",
    "simulate_exp_hawkes",
    "simulate_poisson",
    "simulate_thinning",
]

ENGINES = ("thinning", "cluster", "poisson", "exp_hawkes")

DEFAULT_MAX_EVENTS = 10_000_000

# The thinning kernel surrogate: its relative error on lags [_LAG_MIN,
# horizon] and its lost mass on [0, horizon] are held to _MIXTURE_RTOL on
# _CERT_LAGS lags; its top rate _RATE_MAX makes exp(-rate * _LAG_MIN) = e^-40.
_LAG_MIN, _MIXTURE_RTOL, _CERT_LAGS = 1e-8, 1e-6, 48
_RATE_MAX = 40.0 / _LAG_MIN
# Composite Gauss-Legendre rule in log-rate: panel width and nodes.
_PANEL = 1.5
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(8)


def replica_stream(seed: int, engine: str, replica: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (seed, engine, replica)."""
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    key = np.random.SeedSequence((int(seed), ENGINES.index(engine), int(replica)))
    return np.random.Generator(np.random.Philox(key))


def _check_horizon(horizon: float) -> None:
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")


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
        epochs = np.asarray(self.epochs, dtype=float)
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

    def count_at(self, t: float) -> int:
        """Number of events with epoch <= t."""
        return int(np.searchsorted(self.epochs, t, side="right"))

    def to_json(self) -> str:
        payload = {
            "engine": self.engine,
            "seed": self.seed,
            "replica": self.replica,
            "horizon": self.horizon,
            "params": None if self.params is None else asdict(self.params),
            "epochs": self.epochs.tolist(),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EventSequence":
        d = json.loads(text)
        params = None if d["params"] is None else ModelParams(**d["params"])
        return cls(
            d["epochs"], d["horizon"], d["seed"], d["engine"], d["replica"], params
        )


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


def _proposal_draws(rng: np.random.Generator):
    """Endless (standard exponential, uniform) pairs, drawn 64 at a time."""
    while True:
        yield from zip(rng.standard_exponential(64).tolist(), rng.random(64).tolist())


def _thin(lam0, rates, jumps, horizon, rng, max_events) -> np.ndarray:
    """Thinning epochs on ``(0, horizon]`` for the intensity
    ``lam0 + sum_q jumps_q * sum_{T_k < t} exp(-rates_q * (t - T_k))``, kept
    per component at the last epoch.  It never increases between events, so
    its value at the last proposal is a valid bound until the next event."""
    state, decay = np.zeros_like(rates), np.empty_like(rates)
    jump = float(jumps.sum())
    epochs = []
    last = t = 0.0
    bound = lam0
    for step, u in _proposal_draws(rng):
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
        if len(epochs) > max_events:
            raise BudgetError(f"thinning exceeded {max_events} events by t={t:g}")
        bound = lam + jump
    return np.array(epochs)


def _sampler(engine: str, p: ModelParams, horizon: float):
    """``draw(seed, replica=0, max_events=DEFAULT_MAX_EVENTS)`` of one
    engine's paths on ``(0, horizon]``, with the horizon checked and the
    thinning kernel built and certified once for all of them.  ``exp_hawkes``
    takes ``p``'s ``lambda0``, ``alpha`` and ``gamma``."""
    _check_horizon(horizon)
    if engine == "cluster":
        return functools.partial(simulate_cluster, p, horizon)
    if engine == "poisson":
        return lambda seed, replica=0: simulate_poisson(
            p.lambda0, horizon, seed, replica
        )
    if engine == "exp_hawkes":
        p = replace(p, beta=1.0)
    elif engine != "thinning":
        raise DomainError(f"unknown engine {engine!r}")
    rates, weights = _exp_mixture(p.kernel(), horizon)

    def draw(seed, replica=0, max_events=DEFAULT_MAX_EVENTS):
        rng = replica_stream(seed, engine, replica)
        epochs = _thin(p.lambda0, rates, p.alpha * weights, horizon, rng, max_events)
        return EventSequence(epochs, horizon, seed, engine, replica, p)

    return draw


def simulate_thinning(
    p: ModelParams,
    horizon: float,
    seed: int,
    replica: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EventSequence:
    """Thinning draw of the process on ``(0, horizon]``, exact for a
    sum-of-exponentials kernel surrogate with relative error on lags
    ``[1e-8, horizon]``, and lost mass on ``[0, horizon]``, certified below
    1e-6.  The intensity is a vector of Q decaying components, to which each
    event adds ``alpha`` times the surrogate's weights, so a proposal costs
    O(Q) whatever the history.  An event whose step does not advance the
    time in floating point moves to the next float after the last epoch.
    :func:`fhawkes.harness.count_matrix` certifies the surrogate once for
    all its paths.
    """
    return _sampler("thinning", p, horizon)(seed, replica, max_events)


def simulate_cluster(
    p: ModelParams,
    horizon: float,
    seed: int,
    replica: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EventSequence:
    """Branching-representation draw of the process on ``(0, horizon]``.

    Immigrants arrive as a Poisson(lambda0) stream; every event spawns a
    Poisson(alpha) number of offspring at delays drawn exactly from the
    kernel law.  Offspring beyond the horizon are discarded together with
    their descendants, which cannot precede them.  A child whose delay is
    below one ulp of its parent's epoch moves to the next float after the
    epoch before it.
    """
    _check_horizon(horizon)
    if p.alpha >= 1.0:
        raise DomainError("subcritical branching requires alpha < 1")
    rng = replica_stream(seed, "cluster", replica)
    kernel = p.kernel()
    n_imm = rng.poisson(p.lambda0 * horizon)
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
        if total > max_events:
            raise BudgetError(f"cluster engine exceeded {max_events} events")
        collected.append(children)
        generation = children
    epochs = np.sort(np.concatenate(collected))
    epochs = epochs[epochs > 0.0]
    stuck = np.flatnonzero(np.diff(epochs) <= 0.0)
    if stuck.size:
        for i in range(stuck[0] + 1, epochs.size):
            epochs[i] = max(epochs[i], math.nextafter(epochs[i - 1], math.inf))
        epochs = epochs[epochs <= horizon]
    return EventSequence(epochs, horizon, seed, "cluster", replica, p)


def simulate_exp_hawkes(
    lambda0: float,
    alpha: float,
    gamma: float,
    horizon: float,
    seed: int,
    replica: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EventSequence:
    """Exponential-kernel self-exciting process (kernel ``gamma*exp(-gamma*t)``)
    by exact thinning: the one-component case of :func:`simulate_thinning`,
    on its own ``exp_hawkes`` streams."""
    params = ModelParams(lambda0, alpha, 1.0, gamma)
    return _sampler("exp_hawkes", params, horizon)(seed, replica, max_events)


def simulate_poisson(
    lambda0: float, horizon: float, seed: int, replica: int = 0
) -> EventSequence:
    """Homogeneous Poisson(lambda0) reference stream on ``(0, horizon]``."""
    _check_horizon(horizon)
    params = ModelParams(lambda0, 0.0, 1.0, 1.0)
    rng = replica_stream(seed, "poisson", replica)
    n = rng.poisson(lambda0 * horizon)
    epochs = np.sort(rng.uniform(0.0, horizon, n))
    return EventSequence(epochs, horizon, seed, "poisson", replica, params)
