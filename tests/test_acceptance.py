"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight federated runs are cached and shared across criteria,
so the file is fastest when run as a whole.

Shared scenario pinning (values the criteria leave open):
  synthetic pool        1500 examples per class (covers any label assignment)
  architecture          hidden (64, 64) for accuracy/skew criteria,
                        hidden (32, 32) for the attack criteria 6 and 7,
                        (784, [200, 200], 10) for the MNIST smoke
  training              batch 10, 5 local epochs, learning rate 0.01
  negotiation           grid 0.5..0.8 step 0.05, max-mean policy
  seeds                 101, 202, 303
  class separation      4.0, except criterion 3, which runs at 2.0: at 4.0
                        the nearest-class-mean ceiling over each node's four
                        labels is ~99.0%, local training already scores
                        98.3%, and no program can clear the +1pt margin over
                        local; at 2.0 the ceiling (~81.7%) leaves room for
                        both margins. Criterion 3 asserts that headroom
                        (oracle_ceiling) so the scenario cannot drift back
                        to one no program can pass.
"""

import math
import os
import struct
import time

import numpy as np
import pytest

from scei.contract import AccuracyMatrix, Policy, build_grid, detect_anomalies, negotiate_alpha
from scei.data import PartitionSpec, generate_synthetic, partition_non_iid
from scei.harness import (
    ExperimentConfig,
    MnistSource,
    Scheme,
    SyntheticSource,
    run_experiment,
    summarize,
)
from scei.ledger import Ledger, RecordKind, decode_node_set, decode_params, encode_params, verify_dump_bytes
from scei.model import MlpArchitecture, TrainingConfig, init_params, loss_and_grad
from scei.node import AdditiveNoise

SEEDS = (101, 202, 303)
ATTACKS = (
    (1, AdditiveNoise(sigma=10.0, start_round=1)),
    (2, AdditiveNoise(sigma=10.0, start_round=1)),
    (9, AdditiveNoise(sigma=10.0, start_round=39)),
)
HONEST = tuple(n for n in range(10) if n not in (1, 2, 9))
NON_IID_SEPARATION = 2.0  # criterion 3 only; see the module docstring

MNIST_DIR = os.environ.get("MNIST_DIR", os.path.join("data", "mnist"))
MNIST_TRAIN = (
    os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
    os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"),
)

_RUN_CACHE = {}


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def synth_config(scheme, seed, *, rounds=20, skew=0.0, attacks=(), fixed_alpha=None,
                 hidden=(64, 64), num_nodes=10, separation=4.0):
    return ExperimentConfig(
        scheme=scheme,
        dataset=SyntheticSource(num_classes=10, per_class=1500, input_dim=20, separation=separation),
        partition=PartitionSpec(
            num_nodes=num_nodes,
            samples_per_node=600,
            labels_per_node=4,
            skew_ratio=skew,
            rng_seed=seed,
        ),
        hidden=hidden,
        training=TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.01, rng_seed=seed),
        rounds=rounds,
        policy=Policy.MAX_MEAN,
        attacks=tuple(attacks),
        fixed_alpha=fixed_alpha,
        seed=seed,
    )


def cached_run(cfg: ExperimentConfig):
    if cfg not in _RUN_CACHE:
        _RUN_CACHE[cfg] = run_experiment(cfg)
    return _RUN_CACHE[cfg]


def final_mean(result, nodes=None):
    last = max(m.round_no for m in result.metrics)
    values = [
        m.accuracy
        for m in result.metrics
        if m.round_no == last and (nodes is None or m.node_id in nodes)
    ]
    return sum(values) / len(values)


def mean_curve(result):
    return {s.round_no: s.mean_accuracy for s in summarize(result.metrics).rounds}


# --- independent oracles (recoded here so the acceptance file stands alone) ---


def oracle_quantile(values, level):
    xs = sorted(float(v) for v in values)
    pos = (len(xs) - 1) * level
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def oracle_detect(diffs, round_no, total_rounds):
    lb = 0.25 - 0.15 / total_rounds * round_no
    ub = 0.75 + 0.15 / total_rounds * round_no
    q_lo = oracle_quantile(diffs, lb)
    q_hi = oracle_quantile(diffs, ub)
    iqr = q_hi - q_lo
    if max(diffs) - min(diffs) <= max(1e-12, 1e-8 * max(diffs)):
        return set()
    return {
        i for i, d in enumerate(diffs) if d < q_lo - 1.5 * iqr or d > q_hi + 1.5 * iqr
    }


def oracle_ceiling(cfg, restrict_to_assigned=True):
    """Mean per-node test accuracy of the nearest-class-mean rule on cfg's data.

    Class means come from the whole generated pool; with restrict_to_assigned
    each node only chooses among its own labels. For isotropic unit-variance
    blobs this is (up to the estimated means) the Bayes-optimal rule, so no
    trained model can score meaningfully above it.
    """
    src = cfg.dataset
    ds = generate_synthetic(src.num_classes, src.per_class, src.input_dim, src.separation, cfg.seed)
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(src.num_classes)])
    per_node = []
    for split in partition_non_iid(ds, cfg.partition):
        labels = np.asarray(
            sorted(split.assigned_labels) if restrict_to_assigned else range(src.num_classes)
        )
        dist = ((split.test.features[:, None, :] - means[labels][None, :, :]) ** 2).sum(axis=2)
        per_node.append(float(np.mean(labels[dist.argmin(axis=1)] == split.test.labels)))
    return sum(per_node) / len(per_node)


def oracle_negotiate(values, policy):
    n_nodes, n_grid = values.shape
    scores = []
    for r in range(n_grid):
        total = 0.0
        for k in range(n_nodes):
            total += float(values[k, r])
        mean = total / n_nodes
        if policy is Policy.MAX_MEAN:
            scores.append(mean)
        else:
            spread = 0.0
            for k in range(n_nodes):
                spread += (float(values[k, r]) - mean) ** 2
            scores.append(spread / n_nodes)
    best = 0
    for r in range(1, n_grid):
        if policy is Policy.MAX_MEAN and scores[r] > scores[best]:
            best = r
        if policy is Policy.MIN_VARIANCE and scores[r] < scores[best]:
            best = r
    return best


def test_criterion_1_scheme_reductions():
    start = time.perf_counter()
    seed = SEEDS[0]

    def cfg(scheme, fixed_alpha=None):
        return synth_config(
            scheme, seed, rounds=10, num_nodes=5, hidden=(32, 32), fixed_alpha=fixed_alpha
        )

    fixed0 = run_experiment(cfg(Scheme.FIXED_ALPHA, fixed_alpha=0.0))
    fedavg = run_experiment(cfg(Scheme.FEDAVG))
    fixed1 = run_experiment(cfg(Scheme.FIXED_ALPHA, fixed_alpha=1.0))
    local = run_experiment(cfg(Scheme.LOCAL))

    globals_equal = all(
        np.array_equal(
            decode_params(fixed0.ledger.query_round(r, RecordKind.GLOBAL_WEIGHTS)[0].payload),
            decode_params(fedavg.ledger.query_round(r, RecordKind.GLOBAL_WEIGHTS)[0].payload),
        )
        for r in range(1, 11)
    )
    acc_equal_fedavg = [m.accuracy for m in fixed0.metrics] == [m.accuracy for m in fedavg.metrics]
    acc_equal_local = [m.accuracy for m in fixed1.metrics] == [m.accuracy for m in local.metrics]
    elapsed = time.perf_counter() - start

    ok = globals_equal and acc_equal_fedavg and acc_equal_local and elapsed < 30
    _report(
        1,
        "scheme reductions",
        ok,
        f"alpha0==fedavg globals {globals_equal}, accuracies {acc_equal_fedavg}; "
        f"alpha1==local accuracies {acc_equal_local}; {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_gradient_correctness():
    from scei.model import _forward_layers, unpack_params

    start = time.perf_counter()
    arch = MlpArchitecture(4, (3, 3), 2)
    rng = np.random.default_rng(20)
    worst = 0.0
    checked = 0
    while checked < 50:
        params = init_params(arch, int(rng.integers(0, 2**31)))
        batch = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, size=6)
        z1, _, z2, _, _ = _forward_layers(unpack_params(params, arch), batch)
        if min(np.abs(z1).min(), np.abs(z2).min()) <= 1e-3:
            continue  # the loss is not differentiable at ReLU kinks
        _, grad = loss_and_grad(params, arch, batch, labels)
        fd = np.zeros_like(params)
        eps = 1e-5
        for i in range(params.size):
            up, down = params.copy(), params.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (loss_and_grad(up, arch, batch, labels)[0]
                     - loss_and_grad(down, arch, batch, labels)[0]) / (2 * eps)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5
    _report(
        2,
        "gradient correctness",
        ok,
        f"max relative error {worst:.2e} over {checked} points (tolerance 1e-4); "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_criterion_3_non_iid_advantage():
    start = time.perf_counter()
    scei, fedavg, local, ceiling4, ceiling10 = [], [], [], [], []
    for seed in SEEDS:
        def cfg(scheme):
            return synth_config(scheme, seed, separation=NON_IID_SEPARATION)

        scei.append(final_mean(cached_run(cfg(Scheme.SCEI))))
        fedavg.append(final_mean(cached_run(cfg(Scheme.FEDAVG))))
        local.append(final_mean(cached_run(cfg(Scheme.LOCAL))))
        ceiling4.append(oracle_ceiling(cfg(Scheme.SCEI)))
        ceiling10.append(oracle_ceiling(cfg(Scheme.SCEI), restrict_to_assigned=False))
    scei_m, fedavg_m, local_m, ceil4_m, ceil10_m = (
        sum(v) / len(v) for v in (scei, fedavg, local, ceiling4, ceiling10)
    )
    margin_fedavg = 100 * (scei_m - fedavg_m)
    margin_local = 100 * (scei_m - local_m)
    # the margins must be attainable: the ceiling has to leave room above both baselines
    room_local = 100 * (ceil4_m - local_m)
    room_fedavg = 100 * (ceil4_m - fedavg_m)
    attainable = room_local >= 1.0 and room_fedavg >= 5.0
    elapsed = time.perf_counter() - start
    ok = attainable and margin_fedavg >= 5.0 and margin_local >= 1.0 and elapsed < 300
    _report(
        3,
        "non-iid advantage",
        ok,
        ("" if attainable else f"UNATTAINABLE scenario at separation {NON_IID_SEPARATION}: ")
        + f"ceilings 4-class {100 * ceil4_m:.2f}%, 10-class {100 * ceil10_m:.2f}%, "
        f"room {room_local:+.2f}pt over local (need >= +1), "
        f"{room_fedavg:+.2f}pt over fedavg (need >= +5); "
        f"scei {100 * scei_m:.2f}%, fedavg {100 * fedavg_m:.2f}%, local {100 * local_m:.2f}%; "
        f"margins {margin_fedavg:+.2f}pt vs fedavg (need >= +5), "
        f"{margin_local:+.2f}pt vs local (need >= +1); {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_4_convergence_rate():
    reach_rounds = []
    for seed in SEEDS:
        scei_curve = mean_curve(cached_run(synth_config(Scheme.SCEI, seed)))
        fedavg_final = mean_curve(cached_run(synth_config(Scheme.FEDAVG, seed)))[20]
        reached = next(
            (r for r in sorted(scei_curve) if scei_curve[r] >= fedavg_final), None
        )
        assert reached is not None, f"seed {seed}: scei never reaches fedavg's final level"
        reach_rounds.append(reached)
    avg_reach = sum(reach_rounds) / len(reach_rounds)
    ok = avg_reach <= 10
    _report(
        4,
        "convergence rate",
        ok,
        f"scei reaches fedavg's round-20 mean at rounds {reach_rounds} "
        f"(average {avg_reach:.1f}, need <= 10)",
    )


def test_criterion_5_skew_degradation_ordering():
    schemes = {
        "local": dict(scheme=Scheme.LOCAL),
        "fixed075": dict(scheme=Scheme.FIXED_ALPHA, fixed_alpha=0.75),
        "scei": dict(scheme=Scheme.SCEI),
        "fedavg": dict(scheme=Scheme.FEDAVG),
    }
    seeds_ok = 0
    details = []
    for seed in SEEDS:
        drops = {}
        all_lower = True
        for name, kw in schemes.items():
            base = final_mean(cached_run(synth_config(seed=seed, **kw)))
            skewed = final_mean(cached_run(synth_config(seed=seed, skew=0.20, **kw)))
            drops[name] = (base - skewed) / base
            all_lower = all_lower and skewed < base
        fedavg_smallest = drops["fedavg"] == min(drops.values())
        seeds_ok += all_lower and fedavg_smallest
        details.append(
            f"seed {seed}: drops "
            + " ".join(f"{k}={100 * v:.1f}%" for k, v in drops.items())
            + f" lower_ok={all_lower} fedavg_smallest={fedavg_smallest}"
        )
    ok = seeds_ok >= 2
    _report(5, "skew degradation ordering", ok, f"{seeds_ok}/3 seeds hold; " + "; ".join(details))


def test_criterion_6_defence_effectiveness():
    start = time.perf_counter()
    seed = SEEDS[0]
    attacked = cached_run(
        synth_config(Scheme.SCEI, seed, rounds=50, hidden=(32, 32), attacks=ATTACKS)
    )
    clean = cached_run(synth_config(Scheme.SCEI, seed, rounds=50, hidden=(32, 32)))

    round1_flags = set(
        decode_node_set(attacked.ledger.query_round(1, RecordKind.SUSPICION_SET)[0].payload)
    )
    expulsions = {
        r.node_id: r.round_no
        for r in attacked.ledger.records
        if r.kind is RecordKind.EXPULSION
    }
    flags_ok = {1, 2} <= round1_flags
    expel_ok = expulsions.get(1, 99) <= 5 and expulsions.get(2, 99) <= 5
    late_ok = expulsions.get(9, 99) <= 43
    acc_attacked = final_mean(attacked, HONEST)
    acc_clean = final_mean(clean, HONEST)
    gap = 100 * abs(acc_attacked - acc_clean)
    elapsed = time.perf_counter() - start

    ok = flags_ok and expel_ok and late_ok and gap <= 2.0 and elapsed < 300
    _report(
        6,
        "defence effectiveness",
        ok,
        f"round-1 flags {sorted(round1_flags)}, expulsions {expulsions}; honest mean "
        f"attacked {100 * acc_attacked:.2f}% vs clean {100 * acc_clean:.2f}% "
        f"(gap {gap:.2f}pt, need <= 2); {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7_attack_damage_baseline():
    seeds_ok = 0
    details = []
    for seed in SEEDS:
        attacked = cached_run(
            synth_config(Scheme.FEDAVG, seed, rounds=50, hidden=(32, 32), attacks=ATTACKS)
        )
        clean = cached_run(synth_config(Scheme.FEDAVG, seed, rounds=50, hidden=(32, 32)))
        drop = 100 * (final_mean(clean, HONEST) - final_mean(attacked, HONEST))
        seeds_ok += drop >= 15.0
        details.append(f"seed {seed}: drop {drop:.1f}pt")
    ok = seeds_ok >= 2
    _report(
        7,
        "attack damage baseline",
        ok,
        f"{seeds_ok}/3 seeds with >= 15pt honest-accuracy drop; " + "; ".join(details),
    )


def test_criterion_8_ledger_integrity():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    book = Ledger()
    kinds = (
        RecordKind.LOCAL_WEIGHTS,
        RecordKind.GLOBAL_WEIGHTS,
        RecordKind.ACCURACY_LIST,
        RecordKind.SUSPICION_SET,
    )
    while len(book) < 500:
        kind = kinds[len(book) % len(kinds)]
        node_id = int(rng.integers(0, 10)) if kind is RecordKind.LOCAL_WEIGHTS else None
        book.append(1 + len(book) // 22, kind, node_id, encode_params(rng.normal(size=24)))
    blob = book.to_bytes()

    frames = []
    offset = 0
    while offset < len(blob):
        (length,) = struct.unpack_from("<I", blob, offset)
        frames.append((offset, 4 + length))
        offset += 4 + length

    failures = []
    for _ in range(100):
        record_idx = int(rng.integers(0, len(frames)))
        frame_start, frame_len = frames[record_idx]
        byte_idx = int(rng.integers(0, frame_len))
        mutated = bytearray(blob)
        mutated[frame_start + byte_idx] ^= 0xA7
        bad = verify_dump_bytes(bytes(mutated))
        if bad is None or bad > record_idx + 1:
            failures.append((record_idx, byte_idx, bad))
    elapsed = time.perf_counter() - start
    ok = not failures and verify_dump_bytes(blob) is None and elapsed < 10
    _report(
        8,
        "ledger integrity",
        ok,
        f"100/100 single-byte mutations detected at index <= mutated+1 "
        f"(failures: {failures}); {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_9_negotiation_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    grid = build_grid(0.5, 0.8, 0.05)
    mismatches = 0
    for trial in range(1000):
        values = rng.uniform(0.0, 1.0, size=(10, 7))
        if trial % 4 == 0:
            values[:, 5] = values[:, 2]  # exact tie between two columns
        if trial % 11 == 0:
            values = np.tile(values[:, :1], (1, 7))  # all columns tie
        matrix = AccuracyMatrix(node_ids=tuple(range(10)), values=values)
        for policy in Policy:
            _, idx = negotiate_alpha(matrix, grid, policy)
            if idx != oracle_negotiate(values, policy):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5
    _report(
        9,
        "negotiation oracle equivalence",
        ok,
        f"{mismatches} mismatches over 1000 matrices x 2 policies; "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_criterion_10_detector_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    total = 50
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(5, 20))
        diffs = rng.lognormal(mean=0.0, sigma=1.2, size=n)
        if trial % 4 == 0:
            diffs[int(rng.integers(0, n))] *= 100
        if trial % 9 == 0:
            diffs[:] = diffs[0]
        for round_no in (0, total // 2, total):
            report = detect_anomalies(diffs, round_no, total)
            if report.flagged != frozenset(oracle_detect(diffs, round_no, total)):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5
    _report(
        10,
        "detector oracle equivalence",
        ok,
        f"{mismatches} mismatches over 1000 samples x 3 round settings; "
        f"{elapsed:.1f}s (budget 5s)",
    )


@pytest.mark.skipif(
    not all(os.path.exists(p) for p in MNIST_TRAIN),
    reason="MNIST train files not present (set MNIST_DIR to enable)",
)
def test_criterion_11_mnist_smoke():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scheme=Scheme.SCEI,
        dataset=MnistSource(*MNIST_TRAIN),
        partition=PartitionSpec(
            num_nodes=10, samples_per_node=600, labels_per_node=4, rng_seed=SEEDS[0]
        ),
        hidden=(200, 200),
        training=TrainingConfig(batch_size=10, local_epochs=5, learning_rate=0.01, rng_seed=SEEDS[0]),
        rounds=10,
        policy=Policy.MAX_MEAN,
        seed=SEEDS[0],
    )
    result = run_experiment(cfg)
    acc = final_mean(result)
    elapsed = time.perf_counter() - start
    ok = acc >= 0.88 and elapsed < 900
    _report(
        11,
        "mnist smoke",
        ok,
        f"scei mean local accuracy {100 * acc:.2f}% after 10 rounds (need >= 88%); "
        f"{elapsed:.0f}s (budget 900s)",
    )
