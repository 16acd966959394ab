"""Flows of the scaled principal directions Y_i = lambda_i X_i and the
coordinate map they generate.

The vector fields only exist after a pointwise eigen-decomposition, so each
integration step re-decomposes and aligns the frame to the trajectory's
running gauge (signed permutation of maximal container overlap).  All
trajectory work is batched: one RK4 step advances every live trajectory at
once, and only those: a trajectory that has reached its parameter time is
not decomposed again, so each one gets the arithmetic of a flow on its own.
Independent flows share a batch.  The flow map and the identity check are
plans that ask for their flows round by round: the map one round per
axis, which flows every point it has by every sample time of that axis,
and the identity check two rounds, its six group-law flows and the two
legs of its round trip.  :func:`_drive` runs plans side by side with one
call per round for the rows of all of them, so ``coords`` flows the map
and the identity checks together in n calls, not n + 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engines import AD, DEFAULT_TOL
from .errors import (CoherenceError, DomainError, DomainExitError,
                     HypothesisViolation)
from .fields import (Grid, _alignment_matrices, _signed_permutation,
                     principal_field)
from .fundamental import flatness_violation, fundamental_batch, gap_violation
from .principal import (DEFAULT_SEED, comparison_metric, principal_batch,
                        principal_decomposition)
from .verifiers import residual_report

DEFAULT_STEP = 0.02
MAX_BOX_SHRINKS = 8
BOX_SHRINK = 0.8


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
    pb = principal_batch(fb)
    if refs is not None:
        Q = _alignment_matrices(refs, pb.X_cont, chart.ambient.signature)
        pb.regauge(_signed_permutation(Q)[0])
    return pb


def _velocity(pb, i):
    """Chart components of Y_i = lambda_i X_i, one axis i per row."""
    Y = pb.lambdas[..., None] * pb.X_chart      # (M, n, n)
    return np.take_along_axis(Y, i[:, None, None], axis=-2)[:, 0, :]


def flow_points(chart, U0, i, t, refs=None, step=DEFAULT_STEP):
    """Advance each point of U0 (M, n) by its own parameter time t along
    its own axis i (scalars broadcast) of the scaled principal direction
    fields.

    Every trajectory carries its own frame gauge: RK4 stage decompositions
    are aligned to the frame at the step's start point, and the gauge is
    refreshed after each accepted step.  A step advances only the live
    trajectories, those with more than 1e-9 steps of parameter time left,
    so each row gets the arithmetic of a call on that row alone and ends
    on its last whole step.  Leaving the chart's usable domain raises
    :class:`DomainExitError` with that trajectory's elapsed time and last
    point.

    Returns (U1, refs1).
    """
    U = np.array(U0, dtype=float)
    M = U.shape[0]
    remaining = np.broadcast_to(np.asarray(t, dtype=float), (M,)).copy()
    elapsed = np.zeros(M)
    i = np.broadcast_to(np.asarray(i), (M,))

    def decompose(V, ref, rows):
        inside = chart.contains(V)
        if not np.all(inside):
            k = rows[int(np.argmin(inside))]
            raise DomainExitError(
                f"flow left the usable domain of {chart.name}",
                exit_time=float(elapsed[k]), last_point=U[k].copy())
        return aligned_principal(chart, V, refs=ref)

    pb = decompose(U, refs, np.arange(M))
    refs, vel = pb.X_cont, _velocity(pb, i)
    while (live := np.flatnonzero(np.abs(remaining) > 1e-9 * step)).size:
        X, R, il = U[live], refs[live], i[live]
        dt = np.clip(remaining[live], -step, step)[:, None]
        k1 = vel[live]
        k2 = _velocity(decompose(X + 0.5 * dt * k1, R, live), il)
        k3 = _velocity(decompose(X + 0.5 * dt * k2, R, live), il)
        k4 = _velocity(decompose(X + dt * k3, R, live), il)
        U[live] = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        elapsed[live] += dt[:, 0]
        remaining[live] -= dt[:, 0]
        pb = decompose(U[live], R, live)
        refs[live], vel[live] = pb.X_cont, _velocity(pb, il)
    return U, refs


def _flow_rounds(chart, rounds, step):
    """Each round's ``(U, refs)`` from one :func:`flow_points` call over
    the rows of all the rounds.  If that call raises, each round is run
    again on its own, and a round that raises gets its exception in place
    of its result."""
    sizes = [len(r[0]) for r in rounds]
    U0 = np.concatenate([r[0] for r in rounds])
    i, t = (np.concatenate([np.broadcast_to(r[c], (m,))
                            for r, m in zip(rounds, sizes)]) for c in (1, 2))
    refs = None if all(r[3] is None for r in rounds) \
        else np.concatenate([r[3] for r in rounds])
    try:
        U, R = flow_points(chart, U0, i, t, refs=refs, step=step)
    except Exception as exc:      # any error: each plan sees what it raises
        if len(rounds) == 1:
            return [exc]
        return [_flow_rounds(chart, [r], step)[0] for r in rounds]
    cut = np.cumsum(sizes)[:-1]
    return list(zip(np.split(U, cut), np.split(R, cut)))


def _drive(chart, plans, step):
    """Run flow plans side by side, round by round.

    A plan is a generator that yields each round's flows as
    ``(U0, i, t, refs)``, the arguments of :func:`flow_points`, and is sent
    that round's ``(U, refs)`` back; what it returns is its outcome.  A
    round's ``refs`` are None for every live plan or for none.  One
    flow_points call carries the rows of every live plan, and gives each
    row the arithmetic of a call on its own plan's rows.  If that call
    raises, the round is run again one plan at a time, and each plan has
    only its own exception thrown in at its yield.

    The first plan leads: the exception that ends it propagates.  Returns
    the plans' outcomes, where a later plan that an exception ended has
    that exception as its outcome.
    """
    outcomes = [None] * len(plans)
    asks = {}                       # live plan -> the flows of its round

    def resume(k, advance, arg):
        try:
            asks[k] = advance(arg)
        except StopIteration as stop:
            outcomes[k] = stop.value
        except Exception as exc:
            if k == 0:
                raise
            outcomes[k] = exc

    for k, plan in enumerate(plans):
        resume(k, plan.send, None)
    while asks:
        live = list(asks)
        got = _flow_rounds(chart, [asks.pop(k) for k in live], step)
        for k, res in zip(live, got):
            plan = plans[k]
            resume(k, plan.throw if isinstance(res, Exception) else plan.send,
                   res)
    return outcomes


@dataclass
class FlowMap:
    """Candidate principal coordinates: F(t) = flow of axis n-1 after ...
    after flow of axis 0 from the base point."""

    chart: object
    x0: np.ndarray
    grid: Grid                  # the parameter times, not periodic
    points: np.ndarray          # (res_1, ..., res_n, n) chart coordinates
    warnings: list = field(default_factory=list)
    riders: list = field(default_factory=list)  # outcomes, see build_flow_map

    @property
    def n(self):
        return self.chart.n


def _flow_map_plan(chart, x0, refs0, t_box, resolution):
    """The plan of :func:`build_flow_map`: one round per axis, begun again
    on a shrunk box where a flow leaves the domain."""
    n = chart.n
    if np.isscalar(resolution):
        resolution = (int(resolution),) * n
    t_box = [tuple(b) for b in t_box]
    warnings = []
    for attempt in range(MAX_BOX_SHRINKS + 1):
        t_axes = tuple(np.linspace(lo, hi, r)
                       for (lo, hi), r in zip(t_box, resolution))
        grid = Grid(t_axes, np.array([t[1] - t[0] for t in t_axes]),
                    (False,) * n)
        A, refs = x0[None, :], refs0
        try:
            for ax, t in enumerate(t_axes):
                # every point by every time of the axis, the new axis
                # running fastest: each sample is one flow per axis
                A, refs = yield (np.repeat(A, len(t), axis=0), ax,
                                 np.tile(t, len(A)),
                                 np.repeat(refs, len(t), axis=0))
            return FlowMap(chart, x0, grid, A.reshape(grid.shape + (n,)),
                           warnings)
        except DomainExitError as exc:
            warnings.append(
                f"axis box {t_box} exits the domain at t={exc.exit_time:.3g}; "
                f"shrinking by {BOX_SHRINK}")
            t_box = [(lo * BOX_SHRINK, hi * BOX_SHRINK) for lo, hi in t_box]
    raise DomainExitError(
        f"flow map box for {chart.name} still exits the domain after "
        f"{MAX_BOX_SHRINKS} shrinks", exit_time=None, last_point=None)


def build_flow_map(chart, x0, t_box, resolution, step=DEFAULT_STEP,
                   riders=()):
    """Sample F(t_1, ..., t_n) on a parameter-time grid.

    ``t_box`` gives per-axis (lo, hi) time ranges and ``resolution`` the
    number of samples per axis.  If a flow exits the chart's usable domain
    the whole box is shrunk toward zero and the construction retried; the
    shrink is recorded as a warning.  A chart without the flows'
    hypotheses raises :class:`HypothesisViolation`.

    ``riders`` are functions that return a plan from x0 given the
    canonical frame there as ``refs``, such as :func:`identity_plan`; the
    plans are driven beside the map's (see :func:`_drive`).
    Their outcomes, each a return value or the exception that ended the
    plan, are kept in ``FlowMap.riders``.
    """
    x0 = np.asarray(x0, dtype=float)
    refs = aligned_principal(chart, x0[None, :]).X_cont
    fm, *outcomes = _drive(
        chart, [_flow_map_plan(chart, x0, refs, t_box, resolution)]
        + [rider(refs=refs) for rider in riders], step)
    fm.riders = outcomes
    return fm


def identity_plan(chart, x0, t_range, rng, n_pairs=100, refs=None):
    """The plan of :func:`check_flow_identities`, in two rounds, drawing
    its pairs from the generator ``rng``.  ``refs`` is the frame at x0
    that its first flows start in, None for the canonical gauge."""
    x0 = np.asarray(x0, dtype=float)
    n = chart.n
    t = rng.uniform(t_range[0], t_range[1], n_pairs)
    s = rng.uniform(t_range[0], t_range[1], n_pairs)
    i = rng.integers(0, n, n_pairs)
    j = (i + rng.integers(1, n, n_pairs)) % n if n > 1 else i
    # the endpoint farther from 0, so that the round trip flies somewhere
    t1 = t_range[0] if abs(t_range[0]) > abs(t_range[1]) else t_range[1]

    # flow_i(t), flow_i(t + s), flow_j(s) and the forward flow_0(t1) from x0
    # in one round, then flow_i(s) and flow_j(s) after flow_i(t), flow_i(t)
    # after flow_j(s) and the back flow_0(-t1) after flow_0(t1)
    m = 3 * n_pairs + 1
    U1, R1 = yield (np.broadcast_to(x0, (m, n)),
                    np.concatenate([i, i, j, [0]]),
                    np.concatenate([t, t + s, s, [t1]]),
                    None if refs is None
                    else np.broadcast_to(refs, (m,) + refs.shape[1:]))
    rows = n_pairs * np.arange(1, 4)
    Ut, Usum, Us, y = np.split(U1, rows)
    Rt, _, Rs, Ry = np.split(R1, rows)
    U2, _ = yield (np.concatenate([Ut, Ut, Us, y]),
                   np.concatenate([i, j, i, [0]]),
                   np.concatenate([s, s, t, [-t1]]),
                   np.concatenate([Rt, Rt, Rs, Ry]))
    Uts, Uij, Uji, back = np.split(U2, rows)
    add = np.max(np.abs(Uts - Usum), axis=-1)
    comm = np.max(np.abs(Uij - Uji), axis=-1)

    tol = 1e-6 if chart.engine == AD else DEFAULT_TOL[chart.engine]
    rt_tol = 1e-8 if chart.engine == AD else DEFAULT_TOL[chart.engine]
    return {
        "flow_group_law": residual_report(
            "flow_group_law", np.concatenate([add, comm]), tol, chart,
            notes=f"{n_pairs} random (t, s) pairs in {t_range}"),
        "flow_round_trip": residual_report(
            "flow_round_trip", np.max(np.abs(back - x0), axis=-1), rt_tol,
            chart, notes=f"axis 0 to t = {t1:g} and back"),
    }


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
    with x0.

    Returns a dict of ResidualReports keyed by check name:
    ``flow_group_law`` over both families and ``flow_round_trip``.
    """
    plan = identity_plan(chart, x0, t_range, np.random.default_rng(seed),
                         n_pairs=n_pairs)
    return _drive(chart, [plan], step)[0]


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
    Y = pf.pb.lambdas[..., None] * pf.pb.X_chart          # grid + (n, n)
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


def verify_principal_frame_property(flow_map):
    """Check that the flow map is a principal-coordinate chart.

    The parameter-time Jacobian columns J_ax (grid finite differences of
    the mapped points) must satisfy, at every interior grid node:

    * orthonormality: sqrt(|eta|^2 + C)-scaled columns are g-orthonormal
    * alignment: each column is parallel to a principal direction
    * pullback: the columns are orthonormal for the comparison metric g0

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

    hmax = float(np.max(flow_map.grid.spacing))
    fd_floor = 100.0 * hmax ** 4
    tol_frame = max(1e-3, fd_floor)
    notes = f"grid {U.shape[:-1]}, t-spacing max {hmax:.3g}"
    return {
        "frame_orthonormality": residual_report(
            "frame_orthonormality", ortho, tol_frame, chart, notes=notes),
        "frame_alignment": residual_report(
            "frame_alignment", align, tol_frame, chart, notes=notes),
        "pullback_identity": residual_report(
            "pullback_identity", pull, max(1e-3, fd_floor), chart,
            notes=notes),
    }
