"""Flows of the scaled principal directions: group law, commutation,
round trips, the flow-map coordinates and their guards."""

import dataclasses
import functools

import numpy as np
import pytest

from flatbundle import catalog, cli, flows
from flatbundle.errors import DomainError, DomainExitError, HypothesisViolation
from flatbundle.exprchart import parse_chart
from flatbundle.flows import (aligned_principal, build_flow_map,
                              check_flow_identities, commutator_residual,
                              flow_points, identity_plan,
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
    hi = max(ax[-1] for ax in fm.grid.axes)
    assert hi < 1.0


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
    """The round trip is the last row of both group-law calls, and each
    leg equals a standalone flow_points call on its own, bit for bit."""
    chart = catalog.get(name).chart
    t_range = (-0.2, 0.15)
    t1 = t_range[0]         # the endpoint with the larger magnitude
    U0 = np.asarray(x0, float)[None, :]
    y, refs = flow_points(chart, U0, 0, t1)
    back, _ = flow_points(chart, y, 0, -t1, refs=refs)

    legs = []

    def recording(*args, **kw):
        out = flow_points(*args, **kw)
        legs.append(out)
        return out

    monkeypatch.setattr(flows, "flow_points", recording)
    rep = check_flow_identities(chart, x0, t_range, n_pairs=10,
                                seed=3)["flow_round_trip"]
    assert len(legs) == 2
    np.testing.assert_array_equal(legs[0][0][-1], y[0])
    np.testing.assert_array_equal(legs[0][1][-1], refs[0])
    np.testing.assert_array_equal(legs[1][0][-1], back[0])
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


# Dini at DINI_X0.  The group law at seed 1 (100 pairs in t_range +-0.2)
# and the round trip along axis 0 to t = 0.2 and back: 81 decompositions
# for the longest first flow (20 RK4 steps), 41 for the second, whose
# longest flow is the back leg (10 steps of 0.02; the 2e-17 that the
# subtractions leave of -0.2 takes no step).  The 9 x 9 flow map: the base
# point, then one call per axis whose longest flow, to t = 0.25, takes 13
# steps: 1 + 2 * (1 + 4 * 13) = 107 decompositions.  Six separate flows
# took 286, and a separate round trip 90 more; the map's chains of hops,
# two separate chains per axis, took 273, and marched together 137.
IDENTITY_DECOMPOSITIONS, IDENTITY_POINTS = 122, 14134
MAP_DECOMPOSITIONS, MAP_POINTS = 107, 2811
# The whole coords run: the map's base point, then two rounds that each
# share one call between the map and the identities, so the longest flow
# of the round sets its count: the identities' first flows (20 steps, 81)
# beside the map's axis 0 (13 steps), then the map's axis 1 (13 steps, 53)
# beside the identities' second flows (10 steps); then the frame check.
# Run one after the other, the map and the identities took 107 + 122 + 1.
COORDS_DECOMPOSITIONS = 1 + 81 + 53 + 1

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
    """Batched flows decompose once per RK4 stage of the longest flow in
    each call, and only the live rows: pinned so that running the flows
    one by one again fails here."""
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
    assert len(calls) == COORDS_DECOMPOSITIONS == 136


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


# ---------------------------------------------------------------------------
# shared rounds: coords drives the map and the identity flows together, one
# flow_points call per round, and each plan gets what it gets on its own

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
    summary lines.  On the n = 3 chart the map's third round runs alone."""
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
    rider = functools.partial(identity_plan, chart, x0, t_range,
                              np.random.default_rng(seed), n_pairs=pairs)
    shared = build_flow_map(chart, x0, box, res, riders=[rider])
    legs = 3 * pairs + 1
    assert rows == [res + legs, res ** 2 + legs, res ** 3][:chart.n]
    np.testing.assert_array_equal(shared.points, fm.points)
    assert shared.warnings == fm.warnings == []
    got, = shared.riders
    assert set(got) == set(checks)
    for key, rep in checks.items():
        np.testing.assert_array_equal(got[key].residual_grid,
                                      rep.residual_grid, err_msg=key)
        assert got[key].summary_line() == rep.summary_line()
        assert got[key].notes == rep.notes


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

    monkeypatch.setattr(cli, "commutator_residual", commutator)
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
