"""Side-by-side run of all four schemes on the same non-iid data and seed.

Writes one metrics CSV per scheme (the same files the CLI produces) and
prints the mean-accuracy trajectories for a quick comparison.
"""

from scei import PartitionSpec, Scheme, SyntheticSource, run_experiment, summarize, write_csv
from scei.harness import ExperimentConfig
from scei.model import TrainingConfig

SEED = 11


def config(scheme, fixed_alpha=None):
    return ExperimentConfig(
        scheme=scheme,
        dataset=SyntheticSource(num_classes=10, per_class=1500, input_dim=20, separation=4.0),
        partition=PartitionSpec(num_nodes=10, samples_per_node=600, labels_per_node=4, rng_seed=SEED),
        hidden=(32, 32),
        training=TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.01, rng_seed=SEED),
        rounds=15,
        seed=SEED,
        fixed_alpha=fixed_alpha,
    )


curves = {}
for name, scheme, alpha in (
    ("scei", Scheme.SCEI, None),
    ("fedavg", Scheme.FEDAVG, None),
    ("local", Scheme.LOCAL, None),
    ("fixed_alpha_0.75", Scheme.FIXED_ALPHA, 0.75),
):
    result = run_experiment(config(scheme, alpha))
    write_csv(result.metrics, f"metrics_{name}.csv")
    curves[name] = [row.mean_accuracy for row in summarize(result.metrics).rounds]
    print(f"{name}: wrote metrics_{name}.csv")

print("\nround " + "".join(f"{name:>18s}" for name in curves))
for r in range(15):
    print(f"{r + 1:5d} " + "".join(f"{curves[name][r]:18.3f}" for name in curves))
