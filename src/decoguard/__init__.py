"""Weak-measurement quantum state protection over damping channels.

Density-matrix simulation of the WMQMR, QFBC and QFFC protection schemes
(plus the WMPPF and composite variants and one-sided entanglement
protection) against phase and amplitude damping, with grid-search
optimization of the control parameters and deterministic comparison sweeps.
"""

from .channels import (
    KrausChannel,
    ad_kraus,
    ad_rate_to_r,
    ad_unravel,
    apply_channel,
    flip_to_kraus_r,
    identity_channel,
    lift_local,
    make_channel,
    pd_flip,
    pd_kraus,
    pd_lambda_to_r,
)
from .measurements import (
    Branch,
    BranchEnsemble,
    MeasurementPair,
    PartialMeasurement,
    flips,
    measure,
    partial_measure,
    post_wm_ops,
    povm_axis,
    povm_generalized,
    pre_wm_pair,
    qmr_map,
    rotation,
    wm_map,
)
from .optimize import (
    GridSpec,
    OptResult,
    SweepResult,
    f_diff,
    optimize_qfbc,
    optimize_qffc_rot,
    optimize_scheme,
    sweep_fig6,
    sweep_fig6_surfaces,
    sweep_optimal,
)
from .qmath import (
    BlochVector,
    InitialState,
    bloch_to_density,
    concurrence,
    density_to_bloch,
    eig_hermitian,
    fidelity,
    purity,
    state_from_angles,
    tensor,
)
from .schemes import (
    SchemeResult,
    matched_post_wm_strength,
    matched_qmr_strength,
    pair_average_fidelity,
    run_composite,
    run_ent_wmqmr,
    run_qfbc,
    run_qffc_ps,
    run_qffc_rot,
    run_scheme,
    run_wmppf,
    run_wmqmr,
)

__version__ = "0.1.0"
