"""Exact simulation and analytics for post-selected entanglement distillation."""

from .densop import (
    DensityOperator,
    UnitaryOp,
    apply_unitary,
    bell_fidelity,
    bell_pairs_on,
    bell_state,
    expectation,
    partial_trace,
)
from .channels import (
    DampingDephasingParams,
    GlobalDepolarizingChannel,
    KrausChannel,
    PauliChannelParams,
    apply_channel,
    bit_flip,
    damping_dephasing,
    depolarizing_global,
    depolarizing_local,
    gp_from_t1t2,
    pauli_channel,
)
from .circuit import (
    Barrier,
    ChannelOp,
    Delay,
    Gate,
    Measure,
    NothingAcceptedError,
    execute_exact,
    postselect,
    simplify,
    with_gate_noise,
)
from .protocols import (
    Outcome,
    ProtocolSpec,
    build_x2b,
    build_z2b,
    build_zx3b,
    distill,
    general_distill,
    get_protocol,
    run_protocol,
)
from .analytic import (
    enumerate_accepted,
    enumerate_protocol,
    global_depol_distill,
    improvement_region,
    recurrence_bitflip,
    z2b_local_depol,
    zx3b_local_depol,
)

__version__ = "0.1.0"
