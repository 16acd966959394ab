"""Flows of the scaled principal directions: group law, commutation,
round trips, the flow-map coordinates and their guards."""

import dataclasses

import numpy as np
import pytest

from flatbundle import catalog, cli, flows
from flatbundle.errors import DomainError, DomainExitError, HypothesisViolation
from flatbundle.exprchart import parse_chart
from flatbundle.flows import (aligned_principal, build_flow_map,
                              check_flow_identities, commutator_residual,
                              flow_points, identity_chains,
                              verify_principal_frame_property)

DINI_X0 = (3.1, 0.75)
PS_X0 = (1.2, 1.5)      # away from the |eta_1| = |eta_2| locus sinh(u) = 1


def test_round_trip_both_axes(pseudosphere, dini):
    """Forward/backward flow returns to the start.  The return leg reuses
    the forward trajectory's frame gauge so paths crossing the locus where
    two principal-normal norms tie stay on the same direction label."""
    for entry, x0 in ((pseudosphere, PS_X0), (dini, DINI_X0)):
        for axis in range(2):
            U0 = np.asarray(x0, float)[None, :]
            y, refs = flow_points(entry.chart, U0, axis, 0.3)
            back, _ = flow_points(entry.chart, y, axis, -0.3, refs=refs)
            assert np.max(np.abs(back[0] - np.asarray(x0))) < 1e-8


def test_aligned_principal_to_own_frame_is_canonical(pseudosphere):
    """Aligning to the canonical frame itself reproduces it exactly."""
    U = np.array([[0.6, 0.5], [1.3, 2.0], [2.4, 5.0], PS_X0])
    pb = aligned_principal(pseudosphere.chart, U)
    again = aligned_principal(pseudosphere.chart, U, refs=pb.X_cont)
    for f in ("X_chart", "X_cont", "eta", "eta_cont", "eta_sq", "lambdas"):
        np.testing.assert_array_equal(getattr(again, f), getattr(pb, f),
                                      err_msg=f)


def test_group_law_and_commutation(dini):
    reports = check_flow_identities(dini.chart, DINI_X0, (-0.3, 0.3),
                                    n_pairs=40)
    assert set(reports) == {"flow_group_law", "flow_round_trip"}
    for rep in reports.values():
        assert rep.passed, rep.summary_line()
    assert reports["flow_group_law"].max < 1e-6
    assert reports["flow_round_trip"].max < 1e-8


def test_commutator_residual_small(pseudosphere, dini):
    assert commutator_residual(pseudosphere.chart, PS_X0) < 1e-4
    assert commutator_residual(dini.chart, DINI_X0) < 1e-4


def test_commutator_stencil_stays_in_the_usable_domain(pseudosphere):
    """The stencil u0 +- 2h used to take h = 1e-2 of the smallest span
    whatever the edge: at u1 = -1.59 it read the sine-Gordon spline at
    u1 = -1.619, outside the declared -1.6, and the residual came out
    3.5e-1.  A u0 on the edge leaves no step and is refused."""
    sg = catalog.get("sine_gordon_surface").chart
    assert commutator_residual(sg, (-1.59, -1.0)) < 1e-4
    lo = pseudosphere.chart.usable_domain()[0][0]
    with pytest.raises(DomainError, match="x0 = "):
        commutator_residual(pseudosphere.chart, (lo, 1.0))


def test_a_flow_map_from_outside_the_domain_is_refused(pseudosphere,
                                                       monkeypatch):
    """An x0 outside the usable domain raises the chart's DomainError
    before any flow, so no box shrink is tried around it."""
    calls = []
    monkeypatch.setattr(flows, "aligned_principal",
                        lambda *a, **k: calls.append(1))
    with pytest.raises(DomainError, match=r"^point \[0.1, 1.0\] is outside "
                       "the usable domain of pseudosphere$"):
        build_flow_map(pseudosphere.chart, (0.1, 1.0), ((-0.2, 0.2),) * 2, 5)
    assert calls == []


def test_flow_map_is_principal_coordinates(dini):
    fm = build_flow_map(dini.chart, DINI_X0, ((-0.25, 0.25),) * 2, 9)
    assert fm.points.shape == (9, 9, 2)
    # t = 0 maps to the base point
    np.testing.assert_allclose(fm.points[4, 4], DINI_X0, atol=1e-12)
    reports = verify_principal_frame_property(fm)
    assert set(reports) == {"frame_orthonormality", "frame_alignment",
                            "pullback_identity"}
    for rep in reports.values():
        assert rep.passed, rep.summary_line()


def test_flow_map_refuses_umbilic_base(sphere_control):
    # asserting c = -1 gives the sphere the gap C = 1 the flows need
    fm = build_flow_map(dataclasses.replace(sphere_control.chart, c=-1.0),
                        (0.5, 0.2), ((-0.1, 0.1),) * 2, 5)
    with pytest.raises(HypothesisViolation):
        verify_principal_frame_property(fm)


@pytest.mark.parametrize("name, x0", [
    ("product_torus_r4", (3.0, 3.0)),                        # C = 0
    # C = -1, and |eta|^2 + C rounds to +4e-16 here
    ("sphere_negative_control", (0.1, 0.5897435897435896)),
])
def test_flows_refuse_nonpositive_gap(name, x0):
    """The flows need C > 0 as a rule on the chart, not |eta|^2 + C > 0
    point by point: the sphere used to get lambdas near 1e7 here and end
    in a DomainExitError, and the C = 0 torus used to flow."""
    chart = catalog.get(name).chart
    with pytest.raises(HypothesisViolation, match="curvature gap C"):
        build_flow_map(chart, x0, ((-0.1, 0.1),) * 2, 5)
    with pytest.raises(HypothesisViolation, match="curvature gap C"):
        check_flow_identities(chart, x0, (-0.1, 0.1), n_pairs=4)
    with pytest.raises(HypothesisViolation, match="curvature gap C"):
        commutator_residual(chart, x0)


def test_flow_map_refuses_non_flat_normal_bundle():
    """Asserting c = -1 gives veronese_r5 the gap C = 1, but its shape
    operators do not commute: the flows raise HypothesisViolation before
    the joint diagonalization, which used to fail with NumericalError."""
    chart = dataclasses.replace(catalog.get("veronese_r5").chart, c=-1.0)
    with pytest.raises(HypothesisViolation, match="normal bundle not flat"):
        build_flow_map(chart, (1.0, 0.0), ((-0.1, 0.1),) * 2, 5)


def test_domain_exit_raises(pseudosphere):
    # the u-direction flow reaches the u = 3 wall long before t = 50
    with pytest.raises(DomainExitError) as info:
        flow_points(pseudosphere.chart, np.array([[2.5, 1.0]]), 1, 50.0)
    assert info.value.exit_time is not None


def test_flow_map_shrinks_oversized_box(pseudosphere):
    fm = build_flow_map(pseudosphere.chart, PS_X0, ((-1.0, 1.0),) * 2, 5)
    assert fm.warnings                      # at least one shrink recorded
    assert all("shrink" in w for w in fm.warnings)
    assert fm.warnings[0].startswith(
        "axis box [(-1.0, 1.0), (-1.0, 1.0)] exits the domain at t=")
    hi = max(ax[-1] for ax in fm.grid.axes)
    assert hi < 1.0


def test_a_shrink_reports_the_first_leg_that_leaves(dini):
    """From (0.6, 0.75) the box +-1.5 leaves the domain on axis 0 at
    t = -0.6, and the samples near t_1 = 0, whose axis-1 legs start
    early in the stream, leave it on axis 1 sooner (t = 0.48): the WARN
    line reports the axis-0 exit, as flowing one axis at a time does."""
    chart = dini.chart
    x0 = np.array([0.6, 0.75])
    fm = build_flow_map(chart, x0, ((-1.5, 1.5),) * 2, 9)
    refs = aligned_principal(chart, x0[None, :]).X_cont
    with pytest.raises(DomainExitError) as axis0:
        flow_points(chart, np.broadcast_to(x0, (9, 2)), 0,
                    np.linspace(-1.5, 1.5, 9),
                    refs=np.broadcast_to(refs, (9,) + refs.shape[1:]))
    assert fm.warnings[0] == (
        "axis box [(-1.5, 1.5), (-1.5, 1.5)] exits the domain at "
        f"t={axis0.value.exit_time:.3g}; shrinking by 0.8")
    assert f"{axis0.value.exit_time:.3g}" == "-0.6"


def test_flow_needs_curvature_gap():
    entry = catalog.get("ps3")              # c unasserted: C is None
    with pytest.raises(HypothesisViolation):
        flow_points(entry.chart, np.array([[1.2, 1.5, 0.0]]), 0, 0.1)


def test_pseudosphere_chart_is_already_principal(pseudosphere):
    """The standard pseudosphere parametrization has coordinate principal
    directions, so Y-flows move one chart coordinate at constant speed
    modulation; flowing along axis 0 keeps u frozen."""
    y = flow_points(pseudosphere.chart, np.array([PS_X0]), 0, 0.25)[0][0]
    assert abs(y[0] - PS_X0[0]) < 1e-12
    assert y[1] != PS_X0[1]


# ---------------------------------------------------------------------------
# batching: a batch of flows gives each trajectory the arithmetic of a flow
# on its own, bit for bit

def test_flow_points_batch_equals_single_trajectories(dini):
    """A mixed batch: a t = 0 row, rows of different lengths and signs,
    per-row axes and given reference frames."""
    chart = dini.chart
    U0 = np.array([DINI_X0, (3.0, 0.7), (3.2, 0.8), (2.9, 0.75),
                   (3.1, 0.72)])
    axes = np.array([0, 1, 0, 1, 1])
    t = np.array([0.0, 0.13, -0.05, 0.3, -0.021])
    refs = aligned_principal(chart, U0 + 0.01).X_cont
    U1, R1 = flow_points(chart, U0, axes, t, refs=refs)
    for k in range(len(U0)):
        u, r = flow_points(chart, U0[k:k + 1], axes[k], t[k],
                           refs=refs[k:k + 1])
        np.testing.assert_array_equal(U1[k], u[0], err_msg=f"row {k}")
        np.testing.assert_array_equal(R1[k], r[0], err_msg=f"row {k}")


def _legs_one_call_at_a_time(chart, U0, axes, times, refs=None):
    """Each row's chain flowed on its own, one flow_points call per leg."""
    out = []
    for k in range(len(U0)):
        u, r = U0[k:k + 1], None if refs is None else refs[k:k + 1]
        for ax, t in zip(axes[k], times[k]):
            u, r = flow_points(chart, u, ax, t, refs=r)
        out.append((u[0], r[0]))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stream_of_chains_equals_its_legs_flowed_alone(dini, seed):
    """Random chains of one to three legs, bit for bit: rows from shared
    and from distinct start points, zero-time legs, both signs of time,
    and rows that share their first leg, partial step included, and then
    part."""
    chart = dini.chart
    rng = np.random.default_rng(seed)
    M, L = 14, 3
    starts = np.array([DINI_X0, (3.0, 0.7), (3.2, 0.8)])
    U0 = starts[rng.integers(0, 3, M)]
    axes = rng.integers(0, 2, (M, L))
    times = rng.choice([-1.0, 1.0], (M, L)) * rng.uniform(0.0, 0.09, (M, L))
    times[rng.random((M, L)) < 0.2] = 0.0
    times[rng.random(M) < 0.3, 2] = 0.0              # shorter chains
    times[rng.random(M) < 0.3, 1:] = 0.0
    # rows 0 and 1 share a first leg of 2 whole steps and a partial one
    U0[1], axes[1, 0], times[:2, 0] = U0[0], axes[0, 0], 0.05
    times[1, 1] = -times[0, 1] if times[0, 1] else 0.03
    for refs in (None, aligned_principal(chart, U0 + 0.01).X_cont):
        U1, R1 = flow_points(chart, U0, axes, times, refs=refs)
        alone = _legs_one_call_at_a_time(chart, U0, axes, times, refs)
        for k, (u, r) in enumerate(alone):
            np.testing.assert_array_equal(U1[k], u, err_msg=f"row {k}")
            np.testing.assert_array_equal(R1[k], r, err_msg=f"row {k}")


def test_a_domain_exit_in_a_shared_step_is_the_rows_own(pseudosphere):
    """Row 1 flows u by 0.1 and then by 50, row 2 by 50.1 at once: after
    five steps they share every step to the u = 3 wall.  The error is row
    1's, the first leaving row, with the time and point that its second
    leg gets flowed alone, not row 2's; row 0 flows v, inside the domain,
    all the while."""
    chart = pseudosphere.chart
    start = np.array([[2.5, 1.0]])
    with pytest.raises(DomainExitError) as whole:
        flow_points(chart, start, 1, 50.1)
    y, refs = flow_points(chart, start, 1, 0.1)
    with pytest.raises(DomainExitError) as second:
        flow_points(chart, y, 1, 50.0, refs=refs)
    assert whole.value.exit_time < 2.0
    U0 = np.array([PS_X0, (2.5, 1.0), (2.5, 1.0), PS_X0, (2.5, 1.0)])
    with pytest.raises(DomainExitError) as mixed:
        flow_points(chart, U0,
                    np.array([[0, 0], [1, 1], [1, 1], [0, 1], [1, 0]]),
                    np.array([[2.0, 0.0], [0.1, 50.0], [50.1, 0.0],
                              [0.05, -0.03], [0.0, 0.0]]))
    assert mixed.value.exit_time == second.value.exit_time
    assert mixed.value.exit_time < whole.value.exit_time - 0.05
    np.testing.assert_array_equal(mixed.value.last_point,
                                  second.value.last_point)


def test_a_t_range_that_takes_no_step_is_refused(dini):
    """With both ends of t_range within 1e-9 steps of 0 no group-law or
    round-trip flow took a step, and the checks passed on nothing:
    flow_group_law PASS max=0.000e+00."""
    with pytest.raises(ValueError, match="t_range"):
        check_flow_identities(dini.chart, DINI_X0, (-1e-12, 1e-12),
                              n_pairs=4)
    with pytest.raises(ValueError, match="t_range"):
        check_flow_identities(dini.chart, DINI_X0, (-1e-3, 1e-3),
                              n_pairs=4, step=1e7)
    rep = check_flow_identities(dini.chart, DINI_X0, (-1e-12, 1e-10),
                                n_pairs=4)["flow_round_trip"]
    assert rep.notes == "axis 0 to t = 1e-10 and back"


def _six_flow_group_law(chart, x0, t_range, n_pairs, seed):
    """The group-law residuals as six separate flows (the draws of
    check_flow_identities)."""
    n = chart.n
    rng = np.random.default_rng(seed)
    t = rng.uniform(t_range[0], t_range[1], n_pairs)
    s = rng.uniform(t_range[0], t_range[1], n_pairs)
    i = rng.integers(0, n, n_pairs)
    j = (i + rng.integers(1, n, n_pairs)) % n
    U0 = np.broadcast_to(np.asarray(x0, float), (n_pairs, n))
    Ut, Rt = flow_points(chart, U0, i, t)
    Uts, _ = flow_points(chart, Ut, i, s, refs=Rt)
    Usum, _ = flow_points(chart, U0, i, t + s)
    Uij, _ = flow_points(chart, Ut, j, s, refs=Rt)
    Us, Rs = flow_points(chart, U0, j, s)
    Uji, _ = flow_points(chart, Us, i, t, refs=Rs)
    return np.concatenate([np.max(np.abs(Uts - Usum), axis=-1),
                           np.max(np.abs(Uij - Uji), axis=-1)])


def test_flow_identities_equal_six_separate_flows(dini):
    rep = check_flow_identities(dini.chart, DINI_X0, (-0.2, 0.2),
                                n_pairs=12, seed=7)["flow_group_law"]
    want = _six_flow_group_law(dini.chart, DINI_X0, (-0.2, 0.2), 12, 7)
    np.testing.assert_array_equal(rep.residual_grid, want)


@pytest.mark.parametrize("name, x0", [("dini", DINI_X0),
                                      ("pseudosphere", PS_X0)])
def test_round_trip_rides_in_the_group_law_batches(monkeypatch, name, x0):
    """The round trip is the last row of the group-law call, and its two
    legs equal two standalone flow_points calls on their own, bit for
    bit."""
    chart = catalog.get(name).chart
    t_range = (-0.2, 0.15)
    t1 = t_range[0]         # the endpoint with the larger magnitude
    U0 = np.asarray(x0, float)[None, :]
    y, refs = flow_points(chart, U0, 0, t1)
    back, rback = flow_points(chart, y, 0, -t1, refs=refs)

    legs = []

    def recording(*args, **kw):
        out = flow_points(*args, **kw)
        legs.append(out)
        return out

    monkeypatch.setattr(flows, "flow_points", recording)
    rep = check_flow_identities(chart, x0, t_range, n_pairs=10,
                                seed=3)["flow_round_trip"]
    # one call: the round trip's chain [(0, t1), (0, -t1)] beside the
    # group law's chains (two calls when the forward legs and the back
    # legs flowed in rounds)
    assert len(legs) == 1
    np.testing.assert_array_equal(legs[0][0][-1], back[0])
    np.testing.assert_array_equal(legs[0][1][-1], rback[0])
    assert rep.residual_grid.tolist() == [
        float(np.max(np.abs(back[0] - np.asarray(x0))))]
    assert rep.passed and rep.tolerance == 1e-8, rep.summary_line()


@pytest.mark.parametrize("box", [(-0.25, 0.25), (-0.1, 0.25), (0.05, 0.2)])
def test_flow_map_equals_separate_flows(dini, box):
    """A sample F(t_0, t_1) is one flow along axis 0 from x0 and then one
    along axis 1, bit for bit, not a chain of hops through the earlier
    sample times; the boxes straddle t = 0 evenly and unevenly, or miss
    it."""
    chart = dini.chart
    fm = build_flow_map(chart, DINI_X0, (box,) * 2, 7)
    t0, t1 = fm.grid.axes
    U0 = np.asarray(DINI_X0, float)[None, :]
    refs = aligned_principal(chart, U0).X_cont
    for a, b in ((0, 0), (1, 5), (3, 3), (6, 2), (6, 6)):
        u, r = flow_points(chart, U0, 0, t0[a], refs=refs)
        u, _ = flow_points(chart, u, 1, t1[b], refs=r)
        np.testing.assert_array_equal(fm.points[a, b], u[0],
                                      err_msg=f"sample {a, b}")


def test_domain_exit_in_a_mixed_batch(pseudosphere):
    """The exiting trajectory sits beside ones that finish early: the
    error reports its own elapsed time and last point."""
    chart = pseudosphere.chart
    with pytest.raises(DomainExitError) as alone:
        flow_points(chart, np.array([[2.5, 1.0]]), 1, 50.0)
    U0 = np.array([PS_X0, (2.5, 1.0), (1.0, 2.0)])
    with pytest.raises(DomainExitError) as mixed:
        flow_points(chart, U0, np.array([0, 1, 1]),
                    np.array([0.05, 50.0, -0.1]))
    assert mixed.value.exit_time == alone.value.exit_time > 0.1
    np.testing.assert_array_equal(mixed.value.last_point,
                                  alone.value.last_point)


# Dini at DINI_X0.  Each flow_points call decomposes once at the start and
# four times per RK4 step of its longest chain.  The group law at seed 1
# (100 pairs in t_range +-0.2) and the round trip along axis 0 to t = 0.2
# and back are one call whose longest chains take 20 steps (two legs of 10,
# or of 9 whole steps and a partial one): 1 + 4 * 20 = 81 decompositions.
# Flowed in two rounds of calls they took 81 + 41 = 122, and 14134 points.
# The 9 x 9 flow map is one call whose longest chain, t = 0.25 along each
# axis, takes 13 + 13 steps: 1 + 4 * 26 = 105.  With a separate frame at
# the base point first it took 106, and flowed one call per axis
# 1 + 2 * (1 + 4 * 13) = 107, and 2811 points.  The points count rows that
# share their steps once.
IDENTITY_DECOMPOSITIONS, IDENTITY_POINTS = 81, 7777
MAP_DECOMPOSITIONS, MAP_POINTS = 105, 1281
# The whole coords run: one call for the map's chains and the identities'
# together, whose longest chain is the map's 26 steps, then the frame
# check: 1 + 4 * 26 + 1.  With a separate base frame it took 107, and
# flowed in two shared rounds 1 + 81 + 53 + 1 = 136.
COORDS_DECOMPOSITIONS = 1 + 4 * 26 + 1

COORDS_DINI = """[chart]
name = dini
a = 1
b = 0.5
[growth]
x0 = 3.1, 0.75
flow_box = -0.25 : 0.25
flow_resolution = 9
t_range = -0.2 : 0.2
pairs = 100
flow_step = 0.02
"""


def test_decomposition_counts_stay_batched(dini, monkeypatch, tmp_path,
                                           capsys):
    """Batched flows decompose once per RK4 stage of the longest chain in
    each call, and only the live rows, once per group of rows that share a
    step: pinned so that running the flows one by one, or each row's
    steps on its own, again fails here."""
    calls, points = [], []

    def counting(chart, U, refs=None):
        calls.append(1)
        points.append(len(U))
        return aligned(chart, U, refs=refs)

    aligned = flows.aligned_principal
    monkeypatch.setattr(flows, "aligned_principal", counting)
    check_flow_identities(dini.chart, DINI_X0, (-0.2, 0.2), n_pairs=100,
                          seed=1)
    assert (len(calls), sum(points)) == (IDENTITY_DECOMPOSITIONS,
                                         IDENTITY_POINTS)
    calls.clear()
    points.clear()
    build_flow_map(dini.chart, DINI_X0, ((-0.25, 0.25),) * 2, 9)
    assert (len(calls), sum(points)) == (MAP_DECOMPOSITIONS, MAP_POINTS)
    calls.clear()
    (tmp_path / "run.ini").write_text(COORDS_DINI)
    assert cli.main(["coords", "--config", str(tmp_path / "run.ini"),
                     "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
    assert "flow_round_trip PASS" in capsys.readouterr().out
    assert len(calls) == COORDS_DECOMPOSITIONS == 106


def test_a_row_ends_on_its_last_whole_step(dini, monkeypatch):
    """t = 0.2 is ten steps of 0.02, though ten subtractions leave about
    2e-17 of it: one decomposition at the start and four per RK4 step
    make 41, and no eleventh step is taken over the remainder."""
    calls = []

    def counting(chart, U, refs=None):
        calls.append(1)
        return aligned(chart, U, refs=refs)

    aligned = flows.aligned_principal
    monkeypatch.setattr(flows, "aligned_principal", counting)
    flow_points(dini.chart, np.array([DINI_X0]), 0, 0.2, step=0.02)
    assert len(calls) == 41


def test_a_round_trip_flies_to_the_farther_endpoint(tmp_path, capsys, dini):
    """With t_range = -0.2 : 0 the round trip used to fly axis 0 by 0, take
    no RK4 step and compare x0 with itself (max=0.000e+00): it now flies
    to t = -0.2 and back."""
    code, _ = _run_coords(tmp_path, COORDS_DINI.replace(
        "t_range = -0.2 : 0.2", "t_range = -0.2 : 0"))
    assert code == 0
    U0 = np.asarray(DINI_X0, float)[None, :]
    y, refs = flow_points(dini.chart, U0, 0, -0.2)
    back, _ = flow_points(dini.chart, y, 0, 0.2, refs=refs)
    want = float(np.max(np.abs(back[0] - U0[0])))
    assert want > 0.0
    assert (f"flow_round_trip PASS max={want:.3e} tol=1.0e-08"
            in capsys.readouterr().out.splitlines())
    rep = check_flow_identities(dini.chart, DINI_X0, (-0.2, 0.0), n_pairs=4,
                                seed=1)["flow_round_trip"]
    assert rep.notes == "axis 0 to t = -0.2 and back"


def test_the_commutator_line_is_its_report(tmp_path, capsys, dini):
    """coords prints the commutator residual at x0 against its fixed
    tolerance 1e-4, as one value: no point counts."""
    code, _ = _run_coords(tmp_path, COORDS_DINI)
    assert code == 0
    want = commutator_residual(dini.chart, DINI_X0)
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("commutator ")] == [
        f"commutator PASS max={want:.3e} tol=1.0e-04"]


# ---------------------------------------------------------------------------
# one shared call: coords flows the map's chains and the identities' in one
# flow_points call, and each gets what it gets on its own

H3_CHART = """name = h3
n = 3
ambient = euclidean 5
c = -1
domain = -3 : -0.7, 0 : 6.283185307179586, 0 : 6.283185307179586
periodic = false, true, true
map = exp(u1)*cos(u2), exp(u1)*sin(u2), exp(u1)*cos(u3), exp(u1)*sin(u3), \
sqrt(1 - 2*exp(2*u1)) - 0.5*log((1 + sqrt(1 - 2*exp(2*u1)))\
/(1 - sqrt(1 - 2*exp(2*u1))))
"""


@pytest.mark.parametrize("name", ["dini", "h3"])
def test_shared_rounds_equal_standalone_calls(monkeypatch, name):
    """Bit for bit: the map's points and both identity residual grids and
    summary lines.  On the n = 3 chart the identities' two-leg chains are
    padded with a zero-time leg beside the map's three-leg ones."""
    if name == "dini":
        chart, x0, box, res = catalog.get("dini").chart, DINI_X0, 0.25, 9
        t_range, pairs, seed = (-0.2, 0.2), 100, 1
    else:
        chart, x0, box, res = (parse_chart(H3_CHART), (-1.5, np.pi, np.pi),
                               0.2, 5)
        t_range, pairs, seed = (-0.3, 0.3), 100, 12345
    box = ((-box, box),) * chart.n
    fm = build_flow_map(chart, x0, box, res)
    checks = check_flow_identities(chart, x0, t_range, n_pairs=pairs,
                                   seed=seed)

    rows = []

    def recording(chart, U0, *args, **kw):
        rows.append(len(U0))
        return flow_points(chart, U0, *args, **kw)

    monkeypatch.setattr(flows, "flow_points", recording)
    beside = identity_chains(chart, x0, t_range, np.random.default_rng(seed),
                             n_pairs=pairs)
    shared = build_flow_map(chart, x0, box, res, beside=[beside])
    # one call: every map sample, and the identities' four chains per
    # pair and the round trip (one call per axis and two per round before)
    assert rows == [res ** chart.n + 4 * pairs + 1]
    np.testing.assert_array_equal(shared.points, fm.points)
    assert shared.warnings == fm.warnings == []
    got = beside.result()
    assert set(got) == set(checks)
    for key, rep in checks.items():
        np.testing.assert_array_equal(got[key].residual_grid,
                                      rep.residual_grid, err_msg=key)
        assert got[key].summary_line() == rep.summary_line()
        assert got[key].notes == rep.notes


# The H^3 map at flow_resolution 9, box +-0.2: one call whose longest
# chains take 10 steps on each of the three axes: 1 + 4 * 30
# decompositions.  The 729 chains share their axis-0 legs 81 at a time and
# their axis-1 legs 9 at a time, and rows that share a step are decomposed
# once: 9101 points, where each row's own steps took 19748 (and 124
# decompositions in one call per axis, after a frame at the base point).
H3_MAP_DECOMPOSITIONS, H3_MAP_POINTS = 1 + 4 * 30, 9101


def test_a_fine_map_takes_each_shared_step_once(monkeypatch):
    """Pinned so that a change that stops sharing steps fails here."""
    points = []

    def counting(chart, U, refs=None):
        points.append(len(U))
        return aligned(chart, U, refs=refs)

    aligned = flows.aligned_principal
    monkeypatch.setattr(flows, "aligned_principal", counting)
    build_flow_map(parse_chart(H3_CHART), (-1.5, np.pi, np.pi),
                   ((-0.2, 0.2),) * 3, 9)
    assert (len(points), sum(points)) == (H3_MAP_DECOMPOSITIONS,
                                          H3_MAP_POINTS)


def _run_coords(tmp_path, config, seed=1):
    (tmp_path / "run.ini").write_text(config)
    out = tmp_path / "out"
    code = cli.main(["coords", "--config", str(tmp_path / "run.ini"),
                     "--out", str(out), "--seed", str(seed)])
    return code, out


def _csv_points(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _map_points(fm):
    n = fm.n
    return np.concatenate([fm.grid.points.reshape(-1, n),
                           fm.points.reshape(-1, n)], axis=1)


PS_COORDS = """[chart]
name = pseudosphere
[growth]
x0 = {x0}
flow_box = {box}
flow_resolution = 5
t_range = {t_range}
pairs = 20
"""


def test_a_shrinking_map_keeps_its_own_warnings(pseudosphere, tmp_path,
                                                capsys):
    """The box +-1 leaves the domain in the round that the map shares with
    the identities' first flows: the map still shrinks and retries, and
    its WARN lines and coords.csv are those of build_flow_map alone."""
    fm = build_flow_map(pseudosphere.chart, PS_X0, ((-1.0, 1.0),) * 2, 5)
    assert fm.warnings
    code, out = _run_coords(tmp_path, PS_COORDS.format(
        x0="1.2, 1.5", box="-1 : 1", t_range="-0.2 : 0.2"))
    assert code == 0
    warns = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("WARN ")]
    assert warns == [f"WARN {w}" for w in fm.warnings]
    np.testing.assert_array_equal(_csv_points(out / "coords.csv"),
                                  _map_points(fm))


def test_an_identity_flow_error_waits_for_its_check(pseudosphere, tmp_path,
                                                    monkeypatch, capsys):
    """A group-law flow leaves the domain while the map stays inside: the
    error is raised where the identity checks run, after coords.csv and
    the commutator, with the same exit code and message as their own
    call."""
    x0, box = (2.7, 1.5), ((-0.05, 0.05),) * 2
    fm = build_flow_map(pseudosphere.chart, x0, box, 5)
    assert fm.warnings == []
    with pytest.raises(DomainExitError) as alone:
        check_flow_identities(pseudosphere.chart, x0, (-1.5, 1.5),
                              n_pairs=20, seed=1)
    done = []

    def commutator(*args):
        done.append("commutator")
        return commutator_residual(*args)

    monkeypatch.setattr(flows, "commutator_residual", commutator)
    code, out = _run_coords(tmp_path, PS_COORDS.format(
        x0="2.7, 1.5", box="-0.05 : 0.05", t_range="-1.5 : 1.5"))
    assert code == cli.EXIT_NUMERICAL
    assert done == ["commutator"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {alone.value}\n"
    assert str(alone.value) == "flow left the usable domain of pseudosphere"
    np.testing.assert_array_equal(_csv_points(out / "coords.csv"),
                                  _map_points(fm))
    assert not (out / "coords_summary.txt").exists()


@pytest.mark.parametrize("owner", ["map", "identities"])
def test_a_mid_flow_hypothesis_violation_stays_with_its_plan(
        dini, tmp_path, monkeypatch, capsys, owner):
    """Past u1 = 3.2 the hypotheses are made to fail.  Either the map's
    flows reach there (box +-0.25, t_range +-0.01) or the identities'
    (box +-0.01, t_range +-0.2), in the round the two share; the run
    takes the path it takes when the plans run one after the other."""
    require = flows._require_hypotheses

    def guarded(fb):
        if np.max(fb.points[..., 0]) > 3.2:
            raise HypothesisViolation("made to fail past u1 = 3.2")
        require(fb)

    monkeypatch.setattr(flows, "_require_hypotheses", guarded)
    box, t_range = (0.25, 0.01) if owner == "map" else (0.01, 0.2)
    config = COORDS_DINI.replace("-0.25 : 0.25", f"-{box} : {box}").replace(
        "-0.2 : 0.2", f"-{t_range} : {t_range}")
    code, out = _run_coords(tmp_path, config)
    assert code == 0
    stdout = capsys.readouterr().out
    why = "made to fail past u1 = 3.2"
    if owner == "map":
        with pytest.raises(HypothesisViolation, match=why):
            build_flow_map(dini.chart, DINI_X0, ((-box, box),) * 2, 9)
        check_flow_identities(dini.chart, DINI_X0, (-t_range, t_range))
        assert (f"principal_coordinates SKIPPED by hypothesis ({why})"
                in stdout.splitlines())
        assert not (out / "coords.csv").exists()
    else:
        fm = build_flow_map(dini.chart, DINI_X0, ((-box, box),) * 2, 9)
        with pytest.raises(HypothesisViolation, match=why):
            check_flow_identities(dini.chart, DINI_X0, (-t_range, t_range))
        assert stdout == f"skipped by hypothesis: {why}\n"
        np.testing.assert_array_equal(_csv_points(out / "coords.csv"),
                                      _map_points(fm))
        assert not (out / "coords_summary.txt").exists()
