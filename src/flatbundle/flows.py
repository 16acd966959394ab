"""Flows of the scaled principal directions Y_i = lambda_i X_i and the
coordinate map they generate.

The vector fields only exist after a pointwise eigen-decomposition, so each
integration step re-decomposes and aligns the frame to the trajectory's
running gauge (signed permutation of maximal container overlap).  All
trajectory work is one stream: each row flows a chain of legs (axis, time)
back to back, each leg from the end point and in the end gauge of the one
before, and one RK4 step advances every live row at once.  Rows whose
point, gauge, axis and step are bitwise equal are decomposed once, so the
rows that leave one point together take their shared steps once, and each
row still gets the arithmetic of a flow on its own.  The flow map and the
identity checks are :class:`Chains` from the base point: rows, and what
their end points make.  ``coords`` flows both in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engines import DEFAULT_TOL
from .errors import (CoherenceError, DomainError, DomainExitError,
                     HypothesisViolation)
from .fields import (Grid, _overlaps, _signed_codes, per_axis,
                     principal_field, resolution_per_axis)
from .fundamental import (_components, _signs, flatness_violation,
                          fundamental_batch, gap_violation)
from .principal import (DEFAULT_SEED, comparison_metric, principal_batch,
                        principal_decomposition)
from .verifiers import residual_report

DEFAULT_STEP = 0.02
SPENT = 1e-9        # a leg with at most SPENT steps of time left is spent
MAX_BOX_SHRINKS = 8
BOX_SHRINK = 0.8
COMMUTATOR_TOL = 1e-4


def _require_hypotheses(fb):
    """Raise :class:`HypothesisViolation` unless the flow fields exist on
    the batch: the chart's gap C > 0 first, then a flat normal bundle."""
    reason = gap_violation(fb.chart) or flatness_violation(fb)
    if reason is not None:
        raise HypothesisViolation(reason)


def aligned_principal(chart, U, refs=None):
    """Principal decomposition at U, gauge-aligned to reference frames.
    Raises :class:`HypothesisViolation` where the flow fields do not exist.

    refs : (..., n, N) container direction frames to match (label and sign
           by maximal overlap), or None for the canonical pointwise gauge.
    """
    fb = fundamental_batch(chart, U)
    _require_hypotheses(fb)
    if refs is None:
        return principal_batch(fb)
    R, signs = _components(refs, 2), _signs(chart.ambient)
    return principal_batch(fb, lambda X: _signed_codes(
        _overlaps(R, X, signs))[0])


def _speeds(pb):
    """Chart components of every Y_i = lambda_i X_i, axis i in row i."""
    return pb.lambdas[..., None] * pb.X_chart


def _check_step(step):
    """Refuse an RK4 step that is not finite and positive: a zero step
    never spends a leg, and a negative one flies each leg backwards."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step = {step!r} must be finite and > 0")


def _groups(*columns):
    """The first row of each group of bitwise-equal rows of the columns
    (each (m, ...), None skipped), and the group of every row."""
    key = np.ascontiguousarray(np.concatenate(
        [np.reshape(c, (len(c), -1)) for c in columns if c is not None],
        axis=1, dtype=float))
    _, first, group = np.unique(
        key.view(np.dtype((np.void, 8 * key.shape[1])))[:, 0],
        return_index=True, return_inverse=True)
    return first, group


def flow_points(chart, U0, i, t, refs=None, step=DEFAULT_STEP):
    """Flow each point of U0 (M, n) through its own chain of legs: along
    axis i[r, 0] for parameter time t[r, 0], then along i[r, 1] for
    t[r, 1], and so on.  i and t are (M, L); (M,) is one leg, and scalars
    broadcast.

    Every trajectory carries its own frame gauge: RK4 stage decompositions
    are aligned to the frame at the step's start point, and the gauge is
    refreshed after each accepted step.  A leg is spent, on its last whole
    step, when at most SPENT steps of its time are left; the row starts
    its next leg in the same RK4 step, from there and in that gauge.  A
    step advances only the live rows and decomposes rows whose point,
    gauge, axis and step are bitwise equal once, so each row gets the
    arithmetic of one call per leg on that row alone.  Leaving the chart's
    usable domain raises :class:`DomainExitError` with the first leaving
    row's elapsed time on its leg and its last point.  A ``step`` that is
    not finite and > 0 raises ValueError.

    Returns (U1, refs1).
    """
    _check_step(step)
    U = np.array(U0, dtype=float)
    M = U.shape[0]
    i, t = np.broadcast_arrays(i, np.asarray(t, dtype=float))
    if i.ndim < 2:                      # one leg per row
        i, t = i.reshape(-1, 1), t.reshape(-1, 1)
    axes, times = (np.broadcast_to(a, (M, a.shape[1])) for a in (i, t))
    leg, last = np.zeros(M, dtype=int), axes.shape[1] - 1
    remaining, elapsed = times[:, 0].copy(), np.zeros(M)
    # rows of one state have bitwise-equal points, gauges and speeds, and
    # decompose() takes one point per state of the live rows
    live = np.arange(M)
    first, state = _groups(U, refs)

    def decompose(V, ref):
        inside = chart.contains(V)[state[live]]
        if not np.all(inside):
            k = live[int(np.argmin(inside))]
            raise DomainExitError(
                f"flow left the usable domain of {chart.name}",
                exit_time=float(elapsed[k]), last_point=U[k].copy())
        return aligned_principal(chart, V, refs=ref)

    pb = decompose(U[first], None if refs is None else refs[first])
    refs, Y = pb.X_cont[state], _speeds(pb)[state]
    while True:
        for _ in range(last):           # spent legs hand over to the next
            go = np.flatnonzero((np.abs(remaining) <= SPENT * step)
                                & (leg < last))
            leg[go] += 1
            remaining[go], elapsed[go] = times[go, leg[go]], 0.0
        live = np.flatnonzero(np.abs(remaining) > SPENT * step)
        if not live.size:
            return U, refs
        il = axes[live, leg[live]]
        dt = np.clip(remaining[live], -step, step)
        first, state[live] = _groups(state[live], il, dt)
        g, ig, h, at = live[first], il[first], dt[first, None], state[live]
        X, R, rows = U[g], refs[g], np.arange(len(g))
        k1 = Y[g, ig]
        k2 = _speeds(decompose(X + 0.5 * h * k1, R))[rows, ig]
        k3 = _speeds(decompose(X + 0.5 * h * k2, R))[rows, ig]
        k4 = _speeds(decompose(X + h * k3, R))[rows, ig]
        U[live] = (X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))[at]
        elapsed[live] += dt
        remaining[live] -= dt
        pb = decompose(U[g], R)
        refs[live], Y[live] = pb.X_cont[at], _speeds(pb)[at]


@dataclass
class Chains:
    """Rows of flow legs from a base point: row r flows along axes[r, 0]
    for time times[r, 0], then along axes[r, 1], and so on.  :func:`_flow`
    sets ``outcome`` to what ``finish`` makes of the end points, or to what
    flowing the rows on their own raised, which ``result()`` raises, and
    refuses a ``t_range`` the rows were drawn from within SPENT steps of 0."""

    axes: np.ndarray
    times: np.ndarray
    finish: object
    t_range: tuple = None
    outcome: object = None

    def result(self):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _flow(chart, x0, chains, step):
    """Flow the rows of every :class:`Chains` from x0, starting in the
    canonical gauge there, in one :func:`flow_points` call, shorter chains
    padded with zero-time legs, and set each one's outcome.  If that call
    raises, each one's rows are flowed again on their own, one call per
    leg, so each gets the error it raises alone."""
    _check_step(step)
    for c in chains:
        if c.t_range is not None \
                and max(map(abs, c.t_range)) <= SPENT * step:
            raise ValueError(f"t_range {tuple(c.t_range)} lies within "
                             f"{SPENT:g} * step of 0: no flow takes a step")
    L = max(c.times.shape[1] for c in chains)
    axes, times = (np.concatenate([
        np.pad(getattr(c, f), ((0, 0), (0, L - c.times.shape[1])))
        for c in chains]) for f in ("axes", "times"))
    U0 = np.broadcast_to(x0, (len(times), len(x0)))
    try:
        U, _ = flow_points(chart, U0, axes, times, step=step)
    except Exception:            # any error: each sees what it raises
        for c in chains:
            U, R = U0[:len(c.times)], None
            try:
                for ax, t in zip(c.axes.T, c.times.T):
                    U, R = flow_points(chart, U, ax, t, refs=R, step=step)
                c.outcome = c.finish(U)
            except Exception as exc:
                c.outcome = exc
        return
    cut = np.cumsum([len(c.times) for c in chains])[:-1]
    for c, Uc in zip(chains, np.split(U, cut)):
        c.outcome = c.finish(Uc)


@dataclass
class FlowMap:
    """Candidate principal coordinates: F(t) = flow of axis n-1 after ...
    after flow of axis 0 from the base point."""

    chart: object
    x0: np.ndarray
    grid: Grid                  # the parameter times, not periodic
    points: np.ndarray          # (res_1, ..., res_n, n) chart coordinates
    warnings: list = field(default_factory=list)


def build_flow_map(chart, x0, t_box, resolution, step=DEFAULT_STEP,
                   beside=()):
    """Sample F(t_1, ..., t_n) on a parameter-time grid.

    ``t_box`` gives per-axis (lo, hi) time ranges and ``resolution`` the
    number of samples per axis.  Each sample is one chain from x0: axis 0
    for its first time, then axis 1 for its second, and so on.  If a flow
    exits the chart's usable domain the whole box is shrunk toward zero
    and the construction retried; the shrink is recorded as a warning.  A
    chart without the flows' hypotheses raises
    :class:`HypothesisViolation`.

    ``beside`` are :class:`Chains` from x0, such as
    :func:`identity_chains`, flowed in the map's first flow_points call;
    each gets its own outcome, and one whose ``t_range`` lies within SPENT
    steps of 0 raises ValueError before any flow.  An x0 outside the
    usable domain raises :class:`DomainError`; a ``t_box`` or
    ``resolution`` that is not one value or n, or a resolution below 2,
    raises :class:`ConfigError`.
    """
    n = chart.n
    t_box = [tuple(b) for b in per_axis("t_box", t_box, n)]
    resolution = resolution_per_axis(resolution, n)
    x0 = np.asarray(x0, dtype=float)
    if not chart.contains(x0):          # no box shrink can bring it in
        raise DomainError(f"point {x0.tolist()} is outside the usable "
                          f"domain of {chart.name}")
    warnings = []
    for _ in range(MAX_BOX_SHRINKS + 1):
        t_axes = tuple(np.linspace(lo, hi, r)
                       for (lo, hi), r in zip(t_box, resolution))
        grid = Grid(t_axes, np.array([t[1] - t[0] for t in t_axes]),
                    (False,) * n)
        times = grid.points.reshape(-1, n)
        samples = Chains(np.broadcast_to(np.arange(n), times.shape), times,
                         lambda U: U.reshape(grid.shape + (n,)))
        _flow(chart, x0, [samples, *beside], step)
        beside = ()
        if not isinstance(samples.outcome, DomainExitError):
            return FlowMap(chart, x0, grid, samples.result(), warnings)
        warnings.append(
            f"axis box {t_box} exits the domain at "
            f"t={samples.outcome.exit_time:.3g}; shrinking by {BOX_SHRINK}")
        t_box = [(lo * BOX_SHRINK, hi * BOX_SHRINK) for lo, hi in t_box]
    raise DomainExitError(
        f"flow map box for {chart.name} still exits the domain after "
        f"{MAX_BOX_SHRINKS} shrinks", exit_time=None, last_point=None)


def identity_chains(chart, x0, t_range, rng, n_pairs=100):
    """The :class:`Chains` of :func:`check_flow_identities`, drawing its
    pairs from the generator ``rng``; its outcome is the reports."""
    x0 = np.asarray(x0, dtype=float)
    n = chart.n
    t = rng.uniform(t_range[0], t_range[1], n_pairs)
    s = rng.uniform(t_range[0], t_range[1], n_pairs)
    i = rng.integers(0, n, n_pairs)
    j = (i + rng.integers(1, n, n_pairs)) % n
    # the endpoint farther from 0, so that the round trip flies somewhere
    t1 = t_range[0] if abs(t_range[0]) > abs(t_range[1]) else t_range[1]

    def finish(U):
        Uts, Usum, Uij, Uji, back = np.split(U, n_pairs * np.arange(1, 5))
        add = np.max(np.abs(Uts - Usum), axis=-1)
        comm = np.max(np.abs(Uij - Uji), axis=-1)
        tol = DEFAULT_TOL[chart.engine]
        return {
            "flow_group_law": residual_report(
                "flow_group_law", np.concatenate([add, comm]),
                max(1e-6, tol), chart,
                notes=f"{n_pairs} random (t, s) pairs in {t_range}"),
            "flow_round_trip": residual_report(
                "flow_round_trip", np.max(np.abs(back - x0), axis=-1),
                tol, chart, notes=f"axis 0 to t = {t1:g} and back"),
        }

    # flow_i(s) after flow_i(t), flow_i(t + s), flow_j(s) after flow_i(t),
    # flow_i(t) after flow_j(s), and axis 0 by t1 and back by -t1
    z = np.zeros(n_pairs, dtype=int)
    return Chains(np.array([np.r_[i, i, i, j, 0], np.r_[i, z, j, i, 0]]).T,
                  np.array([np.r_[t, t + s, t, s, t1],
                            np.r_[s, z, s, t, -t1]]).T, finish, t_range)


def check_flow_identities(chart, x0, t_range, n_pairs=100, step=DEFAULT_STEP,
                          seed=DEFAULT_SEED):
    """One-parameter group law, pairwise commutation and a round trip of
    the flows.

    For ``n_pairs`` random draws (t, s) in ``t_range`` and random axis
    pairs (i, j), all drawn from ``seed``, compares in chart coordinates:

    * additivity: flow_i(t) then flow_i(s)  vs  flow_i(t + s)
    * commutation: flow_i(t) then flow_j(s)  vs  flow_j(s) then flow_i(t)

    The round trip flows axis 0 from x0 by t1, the endpoint of
    ``t_range`` with the larger magnitude (``t_range[1]`` on a tie), and
    back by -t1 in the gauge of the forward leg, and compares the end
    with x0.  A ``t_range`` within SPENT steps of 0 raises ValueError.

    Returns a dict of ResidualReports keyed by check name:
    ``flow_group_law`` over both families and ``flow_round_trip``.
    """
    checks = identity_chains(chart, x0, t_range, np.random.default_rng(seed),
                             n_pairs)
    _flow(chart, np.asarray(x0, dtype=float), [checks], step)
    return checks.result()


def commutator_residual(chart, u0):
    """Max g-norm of [Y_i, Y_j] at u0 from a local finite-difference stencil,
    relative to max(1, |alpha|).  The stencil u0 +- 2h stays in the usable
    domain: on a non-periodic axis, h is at most half the distance from u0
    to the nearer edge, and a u0 on the edge raises :class:`DomainError`."""
    u0 = np.asarray(u0, dtype=float)
    n = chart.n
    h = np.full(n, 1e-2 * min(hi - lo for lo, hi in chart.domain))
    for k, (lo, hi) in enumerate(chart.usable_domain()):
        if not chart.periodic[k]:
            h[k] = min(h[k], 0.5 * (u0[k] - lo), 0.5 * (hi - u0[k]))
    if not np.all(h > 0):
        raise DomainError(
            f"x0 = {','.join('%g' % x for x in u0)} leaves the commutator "
            f"stencil no room in the usable domain of {chart.name}")
    axes = tuple(u0[k] + h[k] * np.arange(-2, 3) for k in range(n))
    grid = Grid(axes, h, (False,) * n)
    fb = fundamental_batch(chart, grid.points)
    _require_hypotheses(fb)
    pf = principal_field(fb, grid)
    if not np.all(pf.coherent):
        raise CoherenceError(
            f"principal gauge incoherent on the local stencil at {u0}")
    Y = _speeds(pf.pb)                                     # grid + (n, n)
    dY = np.stack(grid.gradient(Y), axis=-3)
    center = (2,) * n
    Yc, dYc = Y[center], dY[center]                        # (n,n), (n,n,n)
    g = pf.fb.g[center]
    scale = max(1.0, float(np.sqrt(pf.fb.sff_sq[center])))
    worst = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            br = np.einsum("m,mk->k", Yc[a], dYc[:, b, :]) \
                - np.einsum("m,mk->k", Yc[b], dYc[:, a, :])
            worst = max(worst, float(np.sqrt(br @ g @ br)) / scale)
    return worst


def check_commutator(chart, u0):
    """The ``commutator`` report: :func:`commutator_residual` at u0
    against COMMUTATOR_TOL."""
    return residual_report("commutator", [commutator_residual(chart, u0)],
                           COMMUTATOR_TOL, chart)


def verify_principal_frame_property(flow_map):
    """Check that the flow map is a principal-coordinate chart.

    The parameter-time Jacobian columns J_ax (grid finite differences of
    the mapped points) must satisfy, at every interior grid node:

    * orthonormality: sqrt(|eta|^2 + C)-scaled columns are g-orthonormal
    * alignment: each column is parallel to a principal direction
    * pullback: the columns are orthonormal for the comparison metric g0

    Each is judged against max(1e-3, the time grid's stencil floor).
    Requires n distinct principal normals at the base point; raises
    :class:`HypothesisViolation` otherwise.  Returns a dict of
    ResidualReports keyed by check name.
    """
    chart = flow_map.chart
    n = chart.n

    fb0 = fundamental_batch(chart, flow_map.x0)
    dec = principal_decomposition(fb0)
    if dec.s < n:
        raise HypothesisViolation(
            f"only {dec.s} distinct principal normals at the base point "
            f"(need {n}): flow map is not a coordinate candidate")

    U = flow_map.points
    J = np.stack(flow_map.grid.gradient(U), axis=-2)       # grid + (ax, k)

    pb = aligned_principal(chart, U)
    fb = pb.fb
    g = fb.g
    JgJ = np.einsum("...ak,...kl,...bl->...ab", J, g, J)
    norms = np.sqrt(np.einsum("...aa->...a", JgJ))

    # match Jacobian columns to principal directions by maximal overlap
    O = np.einsum("...ak,...kl,...bl->...ab", J, g, pb.X_chart)
    match = np.argmax(np.abs(O), axis=-1)                   # grid + (ax,)
    align = 1.0 - np.abs(np.take_along_axis(O, match[..., None], axis=-1)
                         [..., 0]) / norms
    align = np.maximum(np.max(align, axis=-1), 0.0)   # rounding dips below 0

    eta_sq = np.take_along_axis(pb.eta_sq, match, axis=-1)
    scale = np.sqrt(eta_sq + chart.C)
    Mmat = scale[..., :, None] * scale[..., None, :] * JgJ
    ortho = np.max(np.abs(Mmat - np.eye(n)), axis=(-2, -1))

    g0 = comparison_metric(fb)
    P = np.einsum("...ak,...kl,...bl->...ab", J, g0, J)
    pull = np.max(np.abs(P - np.eye(n)), axis=(-2, -1))

    grid = flow_map.grid
    tol = max(1e-3, grid.stencil_floor)
    notes = (f"grid {U.shape[:-1]}, t-spacing max "
             f"{float(np.max(grid.spacing)):.3g}")
    return {name: residual_report(name, r, tol, chart, notes=notes)
            for name, r in (("frame_orthonormality", ortho),
                            ("frame_alignment", align),
                            ("pullback_identity", pull))}
