"""Graph LSTM over stochastically coarsened multi-level graph structures.

The engine propagates LSTM state over a graph, predicts per-edge merging
probabilities, coarsens the graph by Metropolis-Hastings sampling, stacks
this over several levels with shared cell weights, and trains end-to-end
on node labeling tasks.
"""

__version__ = "0.1.0"
