"""microgait: Int8 policy quantization, cycle/power budgeting, and gait
selection for microcontroller-class locomotion controllers."""

from .errors import DataError, DomainError, MicrogaitError, ProtocolError
from .policy import (
    ActivationKind,
    ActivationSpec,
    Fp32Policy,
    PolicySpec,
    activate,
    activation_count,
    elu,
    infer_fp32,
    leaky_relu,
    load_policy,
    mac_count,
    neuron_count,
    param_count,
    random_policy,
    save_policy,
)
from .quant import (
    QuantScheme,
    QuantizedPolicy,
    RequantParams,
    dequantize_action,
    derive_requant,
    load_quantized,
    quantize_policy,
    save_quantized,
    sqnr_db,
)
from .kernel import OpCounters, fused_infer_dequant, infer_int8, quantize_obs
from .cost import (
    CycleCoeffs,
    PowerParams,
    RateMeasurement,
    cycles_decomposed,
    feasible_update_rate,
    fit_coeffs,
    max_clock,
    max_update_rate,
    measured_cycles,
    required_clock,
)
from .gait import (
    GaitRegime,
    GaitTable,
    RewardCurve,
    load_gait_table,
    reward_at,
    select_gait,
)
from .kinematics import EndEffector, IkSolution, LegGeometry, ik
from .harness import (
    DRConfig,
    DRPerturbation,
    PlantParams,
    PlantState,
    SimConfig,
    hold_targets,
    plant_step,
    reward_step,
    run_episode,
    sample_dr,
)

__version__ = "0.1.0"
