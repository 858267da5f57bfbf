"""Graph LSTM over stochastically coarsened multi-level graph structures.

The engine propagates LSTM state over a graph, predicts per-edge merging
probabilities, coarsens the graph by Metropolis-Hastings sampling, stacks
this over several levels with shared cell weights, and trains end-to-end
on node labeling tasks.
"""

from sevolve.graph import (
    LevelGraph,
    CliquePartition,
    HierarchyTrace,
    build_graph,
    coarsen,
    aggregate_node_values,
)
from sevolve.cell import CellParams
from sevolve.evolve import (
    EvolveConfig,
    TrialLog,
    posterior_ratio,
    evolve_step,
    evolve_deterministic,
)
from sevolve.network import (
    NetworkConfig,
    ModelParams,
    Sample,
    ForwardResult,
    init_params,
    forward,
    compute_loss,
    backward,
    predict,
    save_checkpoint,
    load_checkpoint,
)
from sevolve.optim import OptimConfig, OptimState, sgd_step, grad_check, train
from sevolve.data import GenConfig, DatasetFile, generate_sample, save_dataset, load_dataset

__version__ = "0.1.0"
