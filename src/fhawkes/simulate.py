"""Sample-path generation for the self-exciting process with Mittag-Leffler
kernel, by two independent constructions:

* exact thinning of the process whose kernel is a certified
  sum-of-exponentials surrogate of the Mittag-Leffler density: the
  intensity is a vector of exponentially decaying components, so each
  proposal costs O(Q) for Q components.  The dominating rate is the
  intensity just before the last event, which bounds the part of the
  intensity that never increases between events, plus a step envelope of
  the last event's own kernel, tabulated once per kernel at two cells per
  octave of lag (Lewis & Shedler 1979; Ogata 1981);
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
replica its next proposal, until the block's last path is done.  A batch
narrower than ``_LOCKSTEP_MIN`` (K = 16) draws in the scalar loop instead,
where a proposal costs three numpy calls over the Q components and an event
two more, about 4 us per event in all.  Both loops read the same draws in
the same order, so each path is the same, epoch for epoch, whatever the
batch width.

All engines draw from counter-based generator streams keyed by
``(seed, engine, replica)``, so independent replicas are reproducible and
insensitive to execution order.  Every engine raises BudgetError once a
path passes ``DEFAULT_MAX_EVENTS`` events; a thinning path whose mean
immigrant count makes that certain raises before drawing.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .analytics import ModelParams
from .errors import AccuracyError, BudgetError, DomainError
from .special import Z_MAX, MLKernelParams, ml_density, ml_one, ml_sample, ml_spectral

__all__ = [
    "EventSequence",
    "count_matrix",
    "intensity",
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
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(6)
_LOG_MAX = math.log(np.finfo(float).max)
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_MEAN_MAX = _INT64_MAX - 10.0 * math.sqrt(_INT64_MAX)
# a thinning path raises up front when it passes DEFAULT_MAX_EVENTS with
# probability above 1 - _BUDGET_CERTAIN
_BUDGET_CERTAIN = 1e-12
# Replica-batched thinning: a batch narrower than _LOCKSTEP_MIN (K) draws in
# the scalar loop; a wider one advances in lockstep, in blocks of at most
# _LOCKSTEP_BLOCK replicas, each run to its last path.  K lies between the
# two engines' crossovers, measured on a 2-vCPU x86-64 host at alpha = 1/2,
# gamma = 1, scalar against lockstep: at 16 paths thinning (beta = 1/2)
# took 1.3 against 1.8 ms at horizon 10, 10.8 against 12.9 ms at 100 and
# 116 against 120 ms at 1000, with lockstep ahead from about 20 paths at
# horizons of 100 and more, while exp_hawkes took 13.1 against 9.3 ms at
# horizon 100 and is ahead in lockstep from about 12.  Blocks of 512 were
# fastest from 64 to 4096 and keep the (paths x Q) work arrays near 4 MB at
# Q = 163.
_LOCKSTEP_MIN, _LOCKSTEP_BLOCK = 16, 512
# exp(x) rounds to 0.0 for every x below -745.14
_EXP_ZERO = -746.0
# the thinning envelope's first cell past lag 0 starts at 2**-40 (about
# 1e-12), where every rate of the surrogate has decayed by at most 2%; its
# levels sit a relative 1e-12 above the kernel, more than the rounding of
# a sum of the kernel's Q positive terms in any order
_ENVELOPE_LOG2_MIN, _ENVELOPE_MARGIN = -40, 1.0 + 1e-12
# NumPy's SeedSequence hash: O'Neill's seed_seq hashmix and mix on a pool of
# four 32-bit words, with these constants
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _index(name: str, value) -> int:
    """``value`` as a nonnegative Python int: an integer, numpy integers
    included, but not a bool; DomainError otherwise."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise DomainError(f"{name} must be nonnegative, got {n}")
    return n


def _stream_keys(seed: int, engine: str, replicas) -> np.ndarray:
    """(n, 2) ``uint64`` Philox keys of the streams ``(seed, engine, r)``
    for the nonnegative integers ``r`` of ``replicas``: row ``i`` is
    ``np.random.SeedSequence((seed, ENGINES[engine], replicas[i]))
    .generate_state(2, np.uint64)``.  While ``seed`` and every replica
    fit one 32-bit word, the hash runs in ``uint32`` arithmetic, vectorised
    over replicas; otherwise each key comes from ``SeedSequence``."""
    code = ENGINES[engine]
    if seed > _MASK32 or max(replicas, default=0) > _MASK32:
        return np.array(
            [np.random.SeedSequence((seed, code, r)).generate_state(2, np.uint64)
             for r in replicas], dtype=np.uint64).reshape(-1, 2)
    const = _HASH_INIT_A

    def hashmix(value, mult=_HASH_MULT_A):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    words = np.zeros((4, len(replicas)), dtype=np.uint32)
    words[0], words[1], words[2] = seed, code, replicas
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = value ^ (value >> np.uint32(16))
    const = _HASH_INIT_B
    state = np.stack([hashmix(value, _HASH_MULT_B) for value in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Key(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is a Philox key computed ahead."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _stream(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_Key(key)))


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
    keeps the value finite at every epoch.  Raises DomainError for a
    negative ``t``, or an epoch that is NaN, infinite or negative.
    """
    if not t >= 0.0:
        raise DomainError("intensity requires t >= 0")
    epochs = np.asarray(getattr(history, "epochs", history), dtype=float)
    if not ((epochs >= 0.0) & (epochs < math.inf)).all():
        raise DomainError("intensity requires finite epochs >= 0")
    past = epochs[epochs < t]
    if past.size == 0:
        return p.lambda0
    dens = ml_density(t - past, p.kernel())
    return p.lambda0 + p.alpha * float(np.sum(dens))


def _exp_mixture(kernel: MLKernelParams, horizon: float):
    """Rates ``r`` and weights ``c`` of the kernel surrogate
    ``f_Q(t) = sum_q c_q * exp(-r_q * t)``, certified on ``(0, horizon]``.

    With ``s = gamma**(1/beta)``, ``f(t) = int s*theta * exp(-s*theta*t) *
    ml_spectral(theta) dtheta``.  The rule is six-node Gauss-Legendre on
    panels ``_PANEL`` wide in ``log(theta)``, graded towards the mixing
    density's pole, which lies ``pi*(1/beta - 1)`` off the axis at
    ``theta = 1``: Q = 163 at ``beta = 1/2``, ``gamma = 1.7`` and horizon
    10, 229 at ``beta = 0.99``.  The rates below the
    rule carry a share ~1e-9 of ``f`` on lags up to ``horizon``; the mixing
    mass above ``_RATE_MAX``, in closed form, becomes one faster component,
    so ``f_Q`` keeps the mass of ``f``'s singular head yet is finite at 0.
    At ``beta = 1`` the surrogate is the kernel: rate and weight ``gamma``.
    Raises DomainError if ``gamma * horizon**beta`` exceeds ``Z_MAX``,
    checked first for every ``beta``; AccuracyError if ``s``, the rule's
    top node ``_RATE_MAX / s``, or the mixing density at either end of the
    rule would leave the double range (checked in logs, before any of them
    is formed), or if the relative error on lags ``[_LAG_MIN, horizon]``,
    or the mass lost on ``[0, horizon]``, exceeds ``_MIXTURE_RTOL``.
    """
    beta, gamma = kernel.beta, kernel.gamma
    # below beta = 1, certification's ml_density guard at lag horizon, with
    # the power formed as there; at beta = 1 it keeps gamma * ulp(t) << 1,
    # lest proposals land on the last epoch while its jump is still whole
    reach = gamma * float(np.power(horizon, beta))
    if not reach <= Z_MAX:
        raise DomainError(f"gamma * horizon**beta = {reach:g} exceeds Z_MAX={Z_MAX:g}")
    if beta == 1.0:
        return np.array([gamma]), np.array([gamma])
    # the rule's nodes theta = rate / s lie inside (u_lo, u_hi) in log(theta):
    # s and e**u_hi must be finite, as must ml_spectral's theta**(2*beta) and
    # theta**(beta-1) at either end
    log_s = math.log(gamma) / beta
    u_hi = math.log(_RATE_MAX) - log_s
    u_lo = min(0.0, -log_s - math.log(horizon)) + math.log(1e-9) / (1.0 + beta)
    if not max(log_s, u_hi, 2.0 * beta * u_hi, (beta - 1.0) * u_lo) < _LOG_MAX:
        raise AccuracyError(
            f"kernel rates s*theta with s = gamma**(1/beta) = exp({log_s:.6g}) leave "
            f"the double range on (0, {horizon:g}]: beta={beta}, gamma={gamma}"
        )
    s = gamma ** (1.0 / beta)
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


def _envelope(rates, jumps, horizon: float):
    """``(lags, levels, cum)``: a step envelope of the last event's kernel
    ``k(lag) = sum_q jumps_q * exp(-rates_q * lag)``.  Cell ``j`` covers
    lags ``[lags[j], lags[j+1])``, the last one unbounded, at level
    ``levels[j] = k(lags[j])`` (times ``_ENVELOPE_MARGIN``), which
    dominates ``k`` on the cell since ``k`` decreases; ``cum[j]`` is the
    envelope's integral up to ``lags[j]``.  The cells start at 0,
    ``2**_ENVELOPE_LOG2_MIN`` (about 1e-12) and every half octave after
    it, past the horizon; a cell whose level underflows to 0 adds nothing
    to ``cum``."""
    top = max(math.ceil(2.0 * math.log2(horizon)) + 1, 2 * _ENVELOPE_LOG2_MIN)
    lags = np.append(0.0, np.exp2(0.5 * np.arange(2 * _ENVELOPE_LOG2_MIN, top + 1)))
    levels = _ENVELOPE_MARGIN * (np.exp(-np.outer(lags, rates)) @ jumps)
    cum = np.append(0.0, np.cumsum(levels[:-1] * np.diff(lags)))
    return lags, levels, cum


def _proposal_draws(rng: np.random.Generator):
    """Endless proposal draws ``(step, env_step, u)``: a standard
    exponential to the next point of the constant part of the dominating
    rate, one to the next point of the envelope part, and the acceptance
    uniform, 64 at a time from ``rng``: a (64 x 2) array of standard
    exponentials, then 64 uniforms, each iterated as lists."""
    while True:
        steps = rng.standard_exponential((64, 2))
        yield from zip(steps[:, 0].tolist(), steps[:, 1].tolist(), rng.random(64).tolist())


def _thin(lam0, rates, jumps, envelope, horizon, draws) -> np.ndarray:
    """Thinning epochs on ``(0, horizon]`` for the intensity
    ``lam0 + sum_q jumps_q * sum_{T_k < t} exp(-rates_q * (t - T_k))``, kept
    per component at the last epoch.

    The dominating rate is ``bound + E(t - last)``, with ``E`` the step
    envelope of :func:`_envelope`.  The intensity less the last event's own
    kernel never increases between events, so ``bound``, the intensity
    just before the last event, bounds it; each rejection lowers ``bound``
    to the intensity there.  A proposal is the earlier of the next points
    of Poisson(bound) and Poisson(E): the second inverts the envelope's
    cumulative ``cum`` with a bisect, from ``pos``, its value at the
    current lag.

    Every batch narrower than ``_LOCKSTEP_MIN`` (K = 16) paths runs here.
    A proposal makes three numpy calls over the Q components (multiply,
    exp and a BLAS ``ddot``) and an accepted one two more (the state
    update); the rest is Python float arithmetic on locals.  At alpha = 1/2
    and horizon 1000 (Q = 175 to 211) an event takes 3.6 to 3.8 us on a
    2-vCPU x86-64 host, most of it in those numpy calls."""
    lags, levels, cum = (a.tolist() for a in envelope)
    cum_end = cum[-1]
    max_events = DEFAULT_MAX_EVENTS
    # (-r) * lag is r * (-lag) bit for bit; a 0-d array holds the lag, since
    # numpy converts a Python float operand anew on every call
    neg_rates, held = -rates, np.empty(())
    multiply, exp, add = np.multiply, np.exp, np.add
    bisect = bisect_right
    t = last = pos = 0.0
    bound = lam0
    state = np.zeros_like(rates)
    decay = np.empty_like(rates)
    dot = decay.dot
    epochs = []
    append = epochs.append
    for step, env_step, u in draws:
        t += step / bound
        target = pos + env_step
        if target < cum_end:
            i = bisect(cum, target) - 1
            t_env = last + (lags[i] + (target - cum[i]) / levels[i])
            if t_env < t:
                t = t_env
        if t > horizon:
            break
        lag = t - last
        j = bisect(lags, lag) - 1
        level = levels[j]
        held[()] = lag
        multiply(neg_rates, held, decay)
        exp(decay, decay)
        lam = lam0 + float(dot(state))
        if u * (bound + level) > lam:
            bound = lam
            pos = cum[j] + level * (lag - lags[j])
            continue
        # a step below one ulp of t would repeat the last epoch
        if t <= last:
            t = math.nextafter(last, math.inf)
            if t > horizon:
                break
        multiply(state, decay, state)
        add(state, jumps, state)
        last = t
        append(t)
        if len(epochs) > max_events:
            raise BudgetError(f"thinning exceeded {max_events} events by t={t:g}")
        bound, pos = lam, 0.0
    return np.array(epochs)


def _thin_lockstep(lam0, rates, jumps, envelope, horizon, rngs) -> list:
    """Epochs on ``(0, horizon]``, one array per stream of ``rngs``, of the
    paths that :func:`_thin` draws from ``_proposal_draws(rng)``, draw for
    draw and epoch for epoch.

    Fewer than ``_LOCKSTEP_MIN`` streams draw in :func:`_thin`.  More
    advance in lockstep until the last of them passes the horizon: one step
    gives every active path its next proposal through two ``searchsorted``
    calls on the envelope, one (paths x Q) ``exp``, one dot product per row
    (the same BLAS ``ddot`` as ``_thin``'s), one accept mask, and state
    updates on the accepted rows, with the same float operations as
    ``_thin``.  Every active path takes one proposal per step, so all of
    them refill their 64-proposal blocks together.  Each event goes into one
    flat buffer of (stream, epoch) pairs that doubles when full."""
    if len(rngs) < _LOCKSTEP_MIN:
        return [_thin(lam0, rates, jumps, envelope, horizon, _proposal_draws(rng))
                for rng in rngs]
    lags, levels, cum = envelope
    cum_end, neg_rates = cum[-1], -rates
    rows = np.arange(len(rngs))
    t, last, pos = np.zeros(rows.size), np.zeros(rows.size), np.zeros(rows.size)
    bound = np.full(rows.size, lam0)
    events = np.zeros(rows.size, dtype=np.int64)
    state = np.zeros((rows.size, rates.size))
    steps = uniforms = np.empty((rows.size, 0))
    # (paths x Q) work arrays, used through their leading rows
    arg_buf, decay_buf = np.empty_like(state), np.empty_like(state)
    live_buf = np.empty(state.shape, dtype=bool)
    # the stream and epoch of every lockstep event, in order of time
    hit = np.empty(64 * rows.size, dtype=np.min_scalar_type(rows.size))
    when = np.empty(hit.size)
    fill = 0
    k = 0
    n = rows.size
    arg, decay, live = arg_buf, decay_buf, live_buf
    while rows.size:
        if k == uniforms.shape[1]:
            steps = np.array([rngs[r].standard_exponential((64, 2)) for r in rows])
            uniforms = np.array([rngs[r].random(64) for r in rows])
            k = 0
        target = pos + steps[:, k, 1]
        i = cum.searchsorted(target, side="right") - 1
        env_lag = np.full(n, math.inf)
        np.divide(target - cum[i], levels[i], out=env_lag, where=target < cum_end)
        np.minimum(t + steps[:, k, 0] / bound, last + (lags[i] + env_lag), out=t)
        lag = t - last
        j = lags.searchsorted(lag, side="right") - 1
        level = levels[j]
        np.multiply.outer(lag, neg_rates, out=arg)
        # exp is slow where it underflows; below _EXP_ZERO it is 0.0 exactly
        np.greater(arg, _EXP_ZERO, out=live)
        decay.fill(0.0)
        np.exp(arg, out=decay, where=live)
        lam = lam0 + np.matmul(decay[:, None, :], state[:, :, None])[:, 0, 0]
        accept = uniforms[:, k] * (bound + level) <= lam
        k += 1
        reject = ~accept
        np.copyto(bound, lam, where=reject)
        np.copyto(pos, cum[j] + level * (lag - lags[j]), where=reject)
        # a step below one ulp of t would repeat the last epoch
        np.maximum(t, np.nextafter(last, math.inf), out=t, where=accept)
        done = t > horizon
        accept &= ~done
        if accept.any():
            mask = accept[:, None]
            np.multiply(state, decay, out=state, where=mask)
            np.add(state, jumps, out=state, where=mask)
            np.copyto(last, t, where=accept)
            np.copyto(bound, lam, where=accept)
            np.copyto(pos, 0.0, where=accept)
            events += accept
            new = rows[accept]
            if fill + new.size > hit.size:
                hit, when = (np.concatenate([a[:fill], np.empty_like(a)]) for a in (hit, when))
            hit[fill:fill + new.size] = new
            when[fill:fill + new.size] = t[accept]
            fill += new.size
            # no path passes the budget before its block does
            if fill > DEFAULT_MAX_EVENTS:
                over = np.flatnonzero(events > DEFAULT_MAX_EVENTS)
                if over.size:
                    raise BudgetError(
                        f"thinning exceeded {DEFAULT_MAX_EVENTS} events by t={t[over[0]]:g}"
                    )
        if done.any():
            keep = ~done
            rows, t, last, bound, pos, events, state, steps, uniforms = (
                a[keep] for a in (rows, t, last, bound, pos, events, state, steps, uniforms)
            )
            n = rows.size
            arg, decay, live = arg_buf[:n], decay_buf[:n], live_buf[:n]
    hit = hit[:fill]
    when = when[np.argsort(hit, kind="stable")]
    ends = np.cumsum(np.bincount(hit, minlength=len(rngs))).tolist()
    return [when[a:b] for a, b in zip([0] + ends, ends)]


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
    """``(p, replicas, epochs)``: the model that draws the ``engine``'s paths
    (``beta`` 1 for ``exp_hawkes``), the replica indices as a list of ints
    and an iterator over each replica's epochs, drawn a lockstep block at a
    time.  Every check runs once, before any stream is
    keyed: the seed and replica indices, the horizon, then the cluster's
    Poisson mean (``ModelParams`` holds ``alpha < 1``), or the thinning
    event budget, the kernel's argument range and its certification.  The
    streams' keys are hashed together, and each Generator is made when its
    path is drawn."""
    seed = _index("seed", seed)
    replicas = [_index("replica", r) for r in replicas]
    _check_horizon(horizon)
    if engine == "cluster":
        _check_poisson_mean(p.lambda0 * horizon)
        keys = _stream_keys(seed, engine, replicas)
        return p, replicas, (_cluster(p, horizon, _stream(key)) for key in keys)
    if engine == "exp_hawkes":
        p = replace(p, beta=1.0)
    elif engine != "thinning":
        raise DomainError(f"unknown engine {engine!r}")
    _check_budget_reachable(p.lambda0 * horizon)
    rates, weights = _exp_mixture(p.kernel(), horizon)
    jumps = p.alpha * weights
    envelope = _envelope(rates, jumps, horizon)
    keys = _stream_keys(seed, engine, replicas)

    def blocks():
        for lo in range(0, len(keys), _LOCKSTEP_BLOCK):
            rngs = [_stream(key) for key in keys[lo:lo + _LOCKSTEP_BLOCK]]
            yield from _thin_lockstep(p.lambda0, rates, jumps, envelope, horizon, rngs)

    return p, replicas, blocks()


def sample_paths(
    p: ModelParams, horizon: float, seed: int, replicas, engine: str = "thinning"
) -> list[EventSequence]:
    """Paths on ``(0, horizon]``, one per index of the iterable ``replicas``,
    each from its own ``(seed, engine, replica)`` stream: ``"thinning"`` and
    ``"cluster"`` as :func:`simulate_thinning` and :func:`simulate_cluster`
    draw them, ``"exp_hawkes"`` the exponential-kernel process with ``p``'s
    ``lambda0``, ``alpha`` and ``gamma``.  The thinning kernel is built and
    certified once for all of them.  Raises as the one-path draws do, and
    DomainError for an unknown engine, or a seed or replica index that is
    not a nonnegative integer."""
    p, replicas, paths = _paths(engine, p, horizon, seed, replicas)
    return [EventSequence(e, horizon, seed, engine, r, p) for r, e in zip(replicas, paths)]


def count_matrix(
    p: ModelParams, times, replicas: int, seed: int, engine: str = "thinning"
) -> np.ndarray:
    """(replicas x len(times)) matrix of counts N(t): row ``r`` counts the
    path that :func:`sample_paths` draws for replica ``r`` on ``(0,
    max(times)]``, so ``count_matrix(p, times, R, seed)[:r]`` equals
    ``count_matrix(p, times, r, seed)``.  Raises DomainError if ``times`` has
    more than one dimension, is empty, has a negative time or has largest
    entry 0 (no horizon), or if ``replicas`` is not a nonnegative integer,
    and otherwise as :func:`sample_paths` does."""
    replicas = _index("replicas", replicas)
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise DomainError(f"count_matrix needs a scalar or 1-d times, got shape {times.shape}")
    if not (times.size > 0 and times.min() >= 0.0):
        raise DomainError("count_matrix needs at least one time and all times >= 0")
    _, _, paths = _paths(engine, p, float(times.max()), seed, range(replicas))
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
    O(Q) whatever the history.  The dominating rate is the intensity just
    before the last event, lowered to the intensity at each rejection,
    plus a step envelope of the last event's kernel at two cells per
    octave of lag: about 1.2 proposals per event at alpha = 0.5 and beta =
    1/2 or 0.9.  An event whose step does not advance the time in floating
    point moves to the next float after the last epoch.  Every ``beta``
    keeps ``gamma * horizon**beta`` within ``Z_MAX``, else DomainError.
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
    # bits[i] = max(bits[i], bits[i-1] + 1), a running maximum of bits - i:
    # positive doubles order as their bits, and the next float is bits + 1
    bits = epochs[epochs > 0.0].view(np.int64)
    i = np.arange(bits.size)
    epochs = (np.maximum.accumulate(bits - i) + i).view(float)
    return epochs[epochs <= horizon]
