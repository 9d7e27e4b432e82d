"""Poison two nodes from round 1 and a third mid-run, and watch the defence.

The coordinator screens every round's uploads by their distance to the
temporary average, flags outliers with widening box-plot fences, and expels
any node flagged five rounds in a row. Compare the same attack under plain
averaging, where there is no defence at all.
"""

from scei import AdditiveNoise, PartitionSpec, Scheme, SyntheticSource, run_experiment
from scei.harness import ExperimentConfig
from scei.ledger import RecordKind
from scei.model import TrainingConfig

ATTACKS = (
    (1, AdditiveNoise(sigma=10.0, start_round=1)),
    (2, AdditiveNoise(sigma=10.0, start_round=1)),
    (9, AdditiveNoise(sigma=10.0, start_round=20)),
)


def config(scheme, attacks):
    return ExperimentConfig(
        scheme=scheme,
        dataset=SyntheticSource(num_classes=10, per_class=1500, input_dim=20, separation=4.0),
        partition=PartitionSpec(num_nodes=10, samples_per_node=600, labels_per_node=4, rng_seed=3),
        hidden=(32, 32),
        training=TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.01, rng_seed=3),
        rounds=30,
        seed=3,
        attacks=attacks,
    )


def honest_mean(result, round_no):
    rows = [m.accuracy for m in result.metrics if m.round_no == round_no and m.node_id not in (1, 2, 9)]
    return sum(rows) / len(rows)


print("scei with defence:")
guarded = run_experiment(config(Scheme.SCEI, ATTACKS))
for round_no in range(1, 31):
    [(_, flags)] = guarded.ledger.read(round_no, RecordKind.SUSPICION_SET)
    expelled = [node_id for node_id, _ in guarded.ledger.read(round_no, RecordKind.EXPULSION)]
    if flags or expelled:
        note = f"flags {list(flags)}" + (f", EXPELLED {expelled}" if expelled else "")
        print(f"  round {round_no:2d}: {note}")
print(f"  honest-node mean accuracy at round 30: {honest_mean(guarded, 30):.3f}")

print("\nplain averaging, same attack, no defence:")
exposed = run_experiment(config(Scheme.FEDAVG, ATTACKS))
baseline = run_experiment(config(Scheme.FEDAVG, ()))
for round_no in (1, 10, 20, 30):
    print(
        f"  round {round_no:2d}: honest mean {honest_mean(exposed, round_no):.3f} "
        f"(attack-free run: {honest_mean(baseline, round_no):.3f})"
    )
