"""Random walks on the irreducible-representation tree of a free unitary
quantum group: fusion rules, classical and perturbed transition matrices,
Green and Martin kernels, and numerical audits of the kernel estimates."""

from .words import (
    ball,
    ball_words,
    branch,
    classical_dim,
    format_word,
    heap_index,
    heap_indices,
    indecomposable_factors,
    involution,
    parse_word,
    qbinom,
    qdim,
    qnumber,
    tree_distance,
    word,
)
from .fusion import (
    Measure,
    TransitionMatrix,
    dual_audit,
    fuse,
    is_generating,
    multiplicity,
    norm_upper_bound,
    transition_matrix,
    transition_prob,
    uniform_irreducibility_constants,
)
from .intertwiners import (
    Intertwiner,
    IntertwinerEngine,
    ModelConfig,
    TensorCapError,
    vtilde_norm_indecomposable,
)
from .kernels import (
    KernelTable,
    green_rows,
    green_table,
    harnack_audit,
    last_entry_audit,
    martin_rows,
    multiplicativity_audit,
    ray_words,
    tail_decreasing,
    truncation_error_bound,
    weighted_operator_norm,
)
from .perturbed import (
    BranchContext,
    decay_audit,
    gdif_audit,
    green_Q,
    q_matrix,
    qhat_entry,
    qhat_oracle,
    residual_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ball", "ball_words", "branch", "classical_dim", "format_word", "heap_index",
    "heap_indices", "indecomposable_factors", "involution", "parse_word", "qbinom",
    "qdim", "qnumber", "tree_distance", "word",
    "Measure", "TransitionMatrix", "dual_audit", "fuse", "is_generating",
    "multiplicity", "norm_upper_bound", "transition_matrix", "transition_prob",
    "uniform_irreducibility_constants",
    "Intertwiner", "IntertwinerEngine", "ModelConfig", "TensorCapError",
    "vtilde_norm_indecomposable",
    "KernelTable", "green_rows", "green_table", "harnack_audit",
    "last_entry_audit", "martin_rows", "multiplicativity_audit", "ray_words",
    "tail_decreasing", "truncation_error_bound", "weighted_operator_norm",
    "BranchContext", "decay_audit", "gdif_audit", "green_Q",
    "q_matrix", "qhat_entry", "qhat_oracle", "residual_matrix",
    "__version__",
]
