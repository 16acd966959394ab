"""Flows of the scaled principal directions: group law, commutation,
round trips, the flow-map coordinates and their guards."""

import dataclasses

import numpy as np
import pytest

from flatbundle import catalog
from flatbundle.errors import DomainExitError, HypothesisViolation
from flatbundle.flows import (aligned_principal, build_flow_map,
                              check_flow_identities, commutator_residual,
                              integrate_flow, verify_principal_frame_property)

DINI_X0 = (3.1, 0.75)
PS_X0 = (1.2, 1.5)      # away from the |eta_1| = |eta_2| locus sinh(u) = 1


def test_round_trip_both_axes(pseudosphere, dini):
    """Forward/backward flow returns to the start.  The return leg reuses
    the forward trajectory's frame gauge so paths crossing the locus where
    two principal-normal norms tie stay on the same direction label."""
    from flatbundle.flows import flow_points
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
    rep = check_flow_identities(dini.chart, DINI_X0, (-0.3, 0.3), n_pairs=40)
    assert rep.passed, rep.summary_line()
    assert rep.max < 1e-6


def test_commutator_residual_small(pseudosphere, dini):
    assert commutator_residual(pseudosphere.chart, PS_X0) < 1e-4
    assert commutator_residual(dini.chart, DINI_X0) < 1e-4


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
        integrate_flow(pseudosphere.chart, (2.5, 1.0), 1, 50.0)
    assert info.value.exit_time is not None


def test_flow_map_shrinks_oversized_box(pseudosphere):
    fm = build_flow_map(pseudosphere.chart, PS_X0, ((-1.0, 1.0),) * 2, 5)
    assert fm.warnings                      # at least one shrink recorded
    assert all("shrink" in w for w in fm.warnings)
    hi = max(ax[-1] for ax in fm.t_axes)
    assert hi < 1.0


def test_flow_needs_curvature_gap():
    entry = catalog.get("ps3")              # c unasserted: C is None
    with pytest.raises(HypothesisViolation):
        integrate_flow(entry.chart, (1.2, 1.5, 0.0), 0, 0.1)


def test_pseudosphere_chart_is_already_principal(pseudosphere):
    """The standard pseudosphere parametrization has coordinate principal
    directions, so Y-flows move one chart coordinate at constant speed
    modulation; flowing along axis 0 keeps u frozen."""
    y = integrate_flow(pseudosphere.chart, PS_X0, 0, 0.25)
    assert abs(y[0] - PS_X0[0]) < 1e-12
    assert y[1] != PS_X0[1]
