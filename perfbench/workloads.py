"""The pinned benchmark workloads.

Each workload is one `flatbundle` CLI subcommand and the INI config it
receives.  The config is the traffic, so it is fixed here; only the seed
passed with `--seed` varies between runs.  Alongside each config this
module states what a correct run must print (the summary verdicts), how
closely its CSV columns must match the stored reference, and which traced
layers must see calls on it.
"""

from __future__ import annotations

from dataclasses import dataclass

# CLI seed of the stored reference outputs (the CLI's own default seed).
REFERENCE_SEED = 12345

_GROWTH_RADII = ("0.5", "0.75", "1", "1.25", "1.5")

# Layers every workload passes through.
_COMMON = ("cli", "config.load", "catalog.get", "charts.map", "engines.jet",
           "fundamental.batch")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    config: str             # INI text the program receives
    verdicts: tuple         # (identity, verdict) lines the summary must hold
    summary: str            # summary file name
    csv_rtol: dict          # csv name -> {column: relative tolerance}
    active_layers: tuple    # traced layers that must see calls
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-ps257",
        command="verify",
        config=("[chart]\nname = pseudosphere\n"
                "[grid]\nresolution = 257\nengine = ad\n"),
        verdicts=(("intrinsic_curvature", "PASS"), ("gauss", "PASS"),
                  ("codazzi_c1", "PASS"), ("codazzi_c2", "PASS(vacuous)"),
                  ("connection_nn", "PASS"), ("g0_flat", "PASS")),
        summary="verify_summary.txt",
        csv_rtol={f"verify_{k}.csv": {"u1": 1e-12, "u2": 1e-12}
                  for k in ("intrinsic_curvature", "gauss", "codazzi_c1",
                            "connection_nn", "g0_flat")},
        active_layers=_COMMON + ("principal.batch",
                                 "principal.comparison_metric",
                                 "fields.principal_field",
                                 "verifiers.curvature", "verifiers.checks"),
        why=("big-batch AD through every identity check and about 19 MB of "
             "residual CSV output; bypasses growth and flows"),
    ),
    Workload(
        name="growth-ps257",
        command="growth",
        config=("[chart]\nname = pseudosphere\n"
                "[growth]\nx0 = 0.88137358701954305, 3.1415926535897931\n"
                "radii = " + ", ".join(_GROWTH_RADII) + "\n"
                "resolution = 257\n"),
        verdicts=(("length_comparison", "PASS"),
                  ("distance_comparison", "PASS"))
        + tuple((f"{kind}(r={r})", "PASS") for r in _GROWTH_RADII
                for kind in ("ball_containment", "volume_bound")),
        summary="growth_summary.txt",
        csv_rtol={"growth.csv": {c: 1e-6 for c in
                                 ("r", "S", "psi", "vol", "bound",
                                  "ref_vol")}},
        active_layers=_COMMON + ("principal.comparison_metric",
                                 "growth.report", "growth.distance_fields",
                                 "growth.dijkstra", "growth.path_max",
                                 "growth.length_check", "growth.balls"),
        why=("edge weights from 32 fundamental batches over about 2.1M "
             "stencil midpoints, then Dijkstra and the bound chain"),
    ),
    Workload(
        name="coords-dini",
        command="coords",
        config=("[chart]\nname = dini\na = 1\nb = 0.5\n"
                "[growth]\nx0 = 3.1, 0.75\nflow_box = -0.25 : 0.25\n"
                "flow_resolution = 9\nt_range = -0.2 : 0.2\npairs = 100\n"
                "flow_step = 0.02\n"),
        verdicts=(("commutator", "PASS"), ("flow_group_law", "PASS"),
                  ("flow_round_trip", "PASS"),
                  ("frame_orthonormality", "PASS"),
                  ("frame_alignment", "PASS"),
                  ("pullback_identity", "PASS")),
        summary="coords_summary.txt",
        csv_rtol={"coords.csv": {"t1": 1e-12, "t2": 1e-12,
                                 "u1": 1e-8, "u2": 1e-8}},
        active_layers=_COMMON + ("principal.batch",
                                 "principal.comparison_metric",
                                 "fields.principal_field", "flows"),
        why=("hundreds of small batches through RK4 flows, so per-call "
             "overhead dominates; bypasses growth and the grid checks"),
    ),
    Workload(
        name="verify-sg-fd",
        command="verify",
        config=("[chart]\nname = sine_gordon_surface\n"
                "[grid]\nresolution = 129\nengine = fd\n"),
        verdicts=(("intrinsic_curvature", "PASS"), ("gauss", "PASS"),
                  ("codazzi_c1", "PASS"), ("codazzi_c2", "PASS(vacuous)"),
                  ("connection_nn", "PASS"), ("g0_flat", "PASS")),
        summary="verify_summary.txt",
        csv_rtol={f"verify_{k}.csv": {"u1": 1e-12, "u2": 1e-12}
                  for k in ("intrinsic_curvature", "gauss", "codazzi_c1",
                            "connection_nn", "g0_flat")},
        active_layers=_COMMON + ("principal.batch",
                                 "principal.comparison_metric",
                                 "fields.principal_field",
                                 "verifiers.curvature", "verifiers.checks",
                                 "sinegordon.integrate"),
        why=("the only FD-engine workload: chart maps are spline "
             "evaluations of an integrated sine-Gordon surface"),
    ),
)}

# Columns holding identity residuals: checked against the identity's
# tolerance, not against reference values (they are rounding noise).
RESIDUAL_COLUMN = "residual"
