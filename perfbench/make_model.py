"""Train the checkpoint the benchmark starts every workload from.

The train workloads report held-out accuracy as a quality guard, and an
untrained model's accuracy swings between 0.17 and 0.46 with the data seed,
so it guards nothing. Training to a steady accuracy at the CLI learning rate
takes minutes per run, so the trained weights are made once by this script
and kept in `model.ckpt`. The model has no per-graph-size parameters, so it
is trained on small 8x8 grids and used on 16x16 and 32x32 ones.

Run from the repository root:

    python3 perfbench/make_model.py

It prints the held-out accuracy on 16x16 grids and rewrites
`perfbench/model.ckpt`. The training is seeded, so the same numpy and BLAS
rewrite the same file.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from sevolve import data, network, optim  # noqa: E402
from workloads import model_config  # noqa: E402

MODEL_PATH = os.path.join(HERE, "model.ckpt")


def main():
    net = model_config()
    train_set = data.generate_dataset(
        data.GenConfig(grid_n=8, num_labels=net.num_classes,
                       feature_dim=net.input_dim, seed=0), 32)
    held_out = data.generate_dataset(
        data.GenConfig(grid_n=16, num_labels=net.num_classes,
                       feature_dim=net.input_dim, seed=1), 8)
    params = network.init_params(net, np.random.default_rng([0, 100]))
    opt = optim.OptimConfig(learning_rate=0.01, epochs=15, seed=0)
    rows = optim.train(train_set.samples, params, net, opt,
                       eval_dataset=held_out.samples,
                       progress=lambda row: print(row, flush=True))
    network.save_checkpoint(MODEL_PATH, params, net)
    print(f"held-out accuracy {rows[-1]['eval_accuracy']:.4f}; wrote {MODEL_PATH}")


if __name__ == "__main__":
    main()
