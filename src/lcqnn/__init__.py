"""Statevector simulation and trainability experiments for linear-combination QNNs."""

__version__ = "0.5.0"

from .errors import (
    ArchitectureError,
    CapacityError,
    EncodingError,
    IdxFormatError,
    LcqnnError,
    TrainingError,
)
from .sim import (
    GateOp,
    PauliZSum,
    RngStream,
    StateVector,
    amplitude_encode,
    apply_gate,
    cnot,
    expectation,
    haar_unitary,
    init_zero,
    u3,
    u3_matrix,
)
from .gradients import (
    GradStats,
    cost_flat,
    default_probe_param,
    estimate_grad_stats,
    finite_diff_grad,
    grad_full,
    num_params,
    param_shift_grad,
    sample_param_draw,
    split_params,
)
from .model import (
    LcqnnModel,
    LocalBlockSpec,
    branch_angles,
    branch_gates,
    coeff_probabilities,
    coeff_probability_gradients,
    cost,
    default_groups,
    entangling_gates,
    lcqnn_forward,
    make_model,
    theta_layout_size,
    tree_angles,
    tree_node,
)
from .experiments import (
    BlockSpectrum,
    GroupScanResult,
    ScanRecord,
    balanced_z_diag,
    fit_log2_slope,
    group_block_variance,
    run_variance_point,
    select_blocks,
    su2_block_dims,
    z0_observable,
)
from .mnist import (
    GridCell,
    MnistExample,
    RunMetrics,
    TrainConfig,
    evaluate_accuracy,
    example_loss_and_grad,
    fetch_instructions,
    load_dataset,
    minibatch_loss_and_grads,
    parse_idx,
    preprocess,
    run_accuracy_grid,
    train_runs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
