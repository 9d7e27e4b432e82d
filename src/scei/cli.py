"""Command-line entry points: run experiments, verify ledger dumps, summarize CSVs."""

from __future__ import annotations

import click

from .data import PartitionError, SkewError
from .harness import (
    ExperimentAbort,
    build_config,
    parse_config_file,
    read_metrics_csv,
    run_experiment,
    summarize,
)
from .ledger import verify_dump_file


@click.group()
def main():
    """Deterministic simulator of contract-coordinated personalized federated learning."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scheme", default=None, help="Override: scei | fedavg | local | fixed_alpha")
@click.option("--rounds", default=None, type=int, help="Override: number of federated rounds")
@click.option("--seed", default=None, type=int, help="Override: master seed")
@click.option("--out", default=None, type=click.Path(dir_okay=False), help="Override: metrics CSV path")
@click.option("--ledger-out", default=None, type=click.Path(dir_okay=False), help="Override: ledger dump path")
def run(config_path, scheme, rounds, seed, out, ledger_out):
    """Run one experiment from a flat key=value config file."""
    # a refused value, data that cannot fill the partition and an aborted
    # run each end as one line naming the cause
    try:
        cfg = build_config(
            parse_config_file(config_path), scheme=scheme, rounds=rounds, seed=seed, out=out, ledger_out=ledger_out
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        result = run_experiment(cfg)
    except (ExperimentAbort, PartitionError, SkewError) as exc:
        raise click.ClickException(str(exc))
    summary = summarize(result.metrics)
    final = summary.rounds[-1]
    # an expelled node reports no more rows, so the final mean covers the rest
    reporting = sum(m.round_no == final.round_no for m in result.metrics)
    expelled = sorted(
        {m.node_id for m in result.metrics if m.expelled}
    )
    click.echo(
        f"{cfg.scheme.value}: {cfg.rounds} rounds, {cfg.partition.num_nodes} nodes, "
        f"seed {cfg.seed}"
    )
    click.echo(
        f"final round mean accuracy {final.mean_accuracy:.4f} "
        f"over {reporting} of {cfg.partition.num_nodes} nodes "
        f"(variance {final.variance:.6f})"
    )
    if expelled:
        click.echo(f"expelled nodes: {expelled}")
    click.echo(f"ledger head {result.ledger.head_hash.hex()}")
    if cfg.output_path:
        click.echo(f"metrics written to {cfg.output_path}")
    if cfg.ledger_path:
        click.echo(f"ledger dump written to {cfg.ledger_path}")


@main.command("verify-ledger")
@click.argument("dump", type=click.Path(exists=True, dir_okay=False))
def verify_ledger(dump):
    """Check the hash chain of a ledger dump file, one record at a time."""
    bad, count = verify_dump_file(dump)
    if bad is None:
        click.echo(f"ok: {count} records, chain intact")
    else:
        click.echo(f"TAMPERED: first bad record index {bad}")
        raise SystemExit(1)


@main.command("summarize")
@click.argument("metrics_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", default=None, type=float, help="Report the first round whose mean accuracy reaches this level")
def summarize_cmd(metrics_csv, threshold):
    """Per-round mean/variance of accuracy from a metrics CSV."""
    try:
        metrics = read_metrics_csv(metrics_csv)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    summary = summarize(metrics, threshold=threshold)
    click.echo("round,mean_accuracy,variance")
    for row in summary.rounds:
        click.echo(f"{row.round_no},{row.mean_accuracy:.6f},{row.variance:.6f}")
    if threshold is not None:
        if summary.rounds_to_threshold is None:
            click.echo(f"threshold {threshold}: never reached")
        else:
            click.echo(f"threshold {threshold}: reached at round {summary.rounds_to_threshold}")


if __name__ == "__main__":
    main()
