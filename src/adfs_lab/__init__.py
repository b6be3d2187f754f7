"""Desk-scale simulator for accelerated decentralized finite-sum optimization."""

from .adfs import primal_estimate, run_adfs, run_adfs_efficient, run_ns_adfs
from .augmented import (
    AugmentedProblem,
    BlockDraw,
    SamplingScheme,
    build_augmented,
    build_augmented_ns,
    expected_time,
)
from .baselines import FlatProblem, point_saga, pool_objectives, reference_optimum
from .objective import (
    ConditionReport,
    LocalObjective,
    LossKind,
    condition_numbers,
    primal_grad,
    primal_value,
)
from .records import LogRow, RunRecord, RunResult
from .topology import (
    CommunicationGraph,
    SymmetricSpectrum,
    build_topology,
    laplacian,
    symmetric_eigensolve,
)

__version__ = "0.1.0"
