"""Watch the mixing-weight negotiation pick a shared alpha each round.

Every node scores each candidate alpha on its own test set; the coordinator
then picks the column with the best across-node mean (or smallest variance).
The run below shows the negotiated trajectory and what the policies disagree
about on a synthetic accuracy matrix.
"""

import numpy as np

from scei import (
    AccuracyMatrix,
    PartitionSpec,
    Policy,
    Scheme,
    SyntheticSource,
    build_grid,
    negotiate_alpha,
    run_experiment,
    summarize,
)
from scei.harness import ExperimentConfig
from scei.model import TrainingConfig

grid = build_grid(0.5, 0.8, 0.05)
print(f"negotiation grid: {[round(a, 2) for a in grid.alphas]}")

# a hand-made matrix where the two policies disagree: the last column has the
# best mean but also the largest spread between nodes
values = np.array(
    [
        [0.70, 0.72, 0.74, 0.75, 0.76, 0.77, 0.95],
        [0.70, 0.71, 0.73, 0.74, 0.75, 0.76, 0.60],
        [0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.90],
    ]
)
matrix = AccuracyMatrix(node_ids=(0, 1, 2), values=values)
for policy in Policy:
    alpha, idx = negotiate_alpha(matrix, grid, policy)
    print(f"  {policy.value:12s} -> alpha {alpha:.2f} (column {idx})")

cfg = ExperimentConfig(
    scheme=Scheme.SCEI,
    dataset=SyntheticSource(num_classes=10, per_class=1500, input_dim=20, separation=4.0),
    partition=PartitionSpec(num_nodes=10, samples_per_node=600, labels_per_node=4, rng_seed=7),
    hidden=(32, 32),
    training=TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.01, rng_seed=7),
    rounds=10,
    seed=7,
)
print("\nrunning 10 negotiated rounds on non-iid synthetic data...")
result = run_experiment(cfg)
alphas = {m.round_no: m.alpha for m in result.metrics}
for row in summarize(result.metrics).rounds:
    print(f"  round {row.round_no:2d}: alpha {alphas[row.round_no]:.2f}, mean accuracy {row.mean_accuracy:.3f}")
