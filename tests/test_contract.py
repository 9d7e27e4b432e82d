import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scei
from scei.contract import (
    MAX_GRID_CANDIDATES,
    AccuracyMatrix,
    AggregationError,
    ContractState,
    DefenceReport,
    NegotiationGrid,
    Policy,
    build_grid,
    detect_anomalies,
    dynamic_bounds,
    fed_avg,
    interpolated_quantile,
    mix,
    model_diffs,
    negotiate_alpha,
    robust_aggregate,
    screen,
    update_suspicions,
)


def oracle_quantile(values, level):
    """Interpolated quantile recoded independently for the detector oracle."""
    xs = sorted(float(v) for v in values)
    pos = (len(xs) - 1) * level
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


def oracle_detect(diffs, round_no, total_rounds):
    """Fence screening recoded from scratch: returns the flagged index set."""
    lb = 0.25 - 0.15 / total_rounds * round_no
    ub = 0.75 + 0.15 / total_rounds * round_no
    q_lo = oracle_quantile(diffs, lb)
    q_hi = oracle_quantile(diffs, ub)
    iqr = q_hi - q_lo
    spread = max(diffs) - min(diffs)
    if spread <= max(1e-12, 1e-8 * max(diffs)):
        return set()
    return {
        i
        for i, d in enumerate(diffs)
        if d < q_lo - 1.5 * iqr or d > q_hi + 1.5 * iqr
    }


def oracle_negotiate(values, policy):
    """Exhaustive column scan with sequential sums, kept separate from the impl."""
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


class TestFedAvg:
    def test_identical_vectors_returned_exactly(self):
        v = np.array([0.1, -2.7, 3.14159, 1e-9])
        out = fed_avg([v.copy() for _ in range(3)])
        assert np.array_equal(out, v)
        out10 = fed_avg([v.copy() for _ in range(10)])
        assert np.array_equal(out10, v)

    def test_two_vector_arithmetic(self):
        out = fed_avg([np.array([1.0, 3.0]), np.array([3.0, 1.0])])
        assert np.array_equal(out, [2.0, 2.0])

    def test_matches_compensated_summation_oracle(self):
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=50) for _ in range(10)]
        out = fed_avg(vectors)
        expected = np.array(
            [math.fsum(v[i] for v in vectors) / 10 for i in range(50)]
        )
        assert np.abs(out - expected).max() < 1e-12

    def test_sorting_by_node_index_gives_canonical_result(self):
        rng = np.random.default_rng(4)
        pairs = [(node, rng.normal(size=20)) for node in range(8)]
        canonical = fed_avg([v for _, v in pairs])
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        resorted = [v for _, v in sorted(shuffled, key=lambda p: p[0])]
        assert np.array_equal(fed_avg(resorted), canonical)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fed_avg([np.ones(3), np.ones(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fed_avg([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_idempotence_property(self, values):
        v = np.array(values)
        assert np.array_equal(fed_avg([v.copy() for _ in range(5)]), v)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("placement", [[0], [3], [3, 5], [0, 6]])
    def test_uploads_at_the_float64_limit_blame_only_themselves(self, placement, sign):
        """Uploads of +-1e308 overflow the anchored residual sum; the global
        stays finite and the screen flags exactly those uploads."""
        rng = np.random.default_rng(17)
        vectors = [rng.normal(size=50) for _ in range(8)]
        for node in placement:
            vectors[node] = np.full(50, sign * 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            global_ = fed_avg(vectors)
            report = detect_anomalies(model_diffs(vectors, global_), 1, 12)
        assert np.isfinite(global_).all()
        assert report.flagged == frozenset(placement)

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, -0.0, 5e-324, -5e-324]),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_vectors_give_a_finite_average(self, rows):
        out = fed_avg([np.array(row) for row in rows])
        assert np.isfinite(out).all()


class TestMix:
    L = np.array([2.0, 0.0, -1.5])
    G = np.array([0.0, 2.0, 4.5])

    def test_alpha_zero_returns_global_exactly(self):
        assert np.array_equal(mix(self.L, self.G, 0.0), self.G)

    def test_alpha_one_returns_local_exactly(self):
        assert np.array_equal(mix(self.L, self.G, 1.0), self.L)

    def test_midpoint(self):
        out = mix(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
        assert np.array_equal(out, [1.0, 1.0])

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mix(self.L, self.G, 1.5)
        with pytest.raises(ValueError):
            mix(self.L, self.G, -0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix(np.ones(2), np.ones(3), 0.5)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_between_inputs(self, values, alpha):
        local = np.array(values)
        global_ = -2.0 * local + 1.0
        out = mix(local, global_, alpha)
        lo = np.minimum(local, global_)
        hi = np.maximum(local, global_)
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


class TestBuildGrid:
    def test_canonical_grid(self):
        grid = build_grid(0.5, 0.8, 0.05)
        assert len(grid) == 7
        assert grid.alphas == pytest.approx((0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8))
        assert grid.alphas[0] == 0.5
        assert grid.alphas[-1] == 0.8

    def test_oversized_step_gives_single_point(self):
        grid = build_grid(0.5, 0.50001, 1.0)
        assert grid.alphas == (0.5,)

    def test_count_matches_arithmetic_oracle(self):
        cases = [(0.0, 1.0, 0.25), (0.5, 0.8, 0.05), (0.1, 0.9, 0.2), (0.25, 0.8, 0.11)]
        for start, end, step in cases:
            grid = build_grid(start, end, step)
            assert len(grid) == math.floor((end - start) / step + 1e-12) + 1

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            build_grid(0.8, 0.5, 0.05)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.1, 0.05)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 0.0)
        for step in (math.nan, math.inf, -math.inf, -0.05):
            with pytest.raises(ValueError, match=rf"^step must be finite and positive, got {step}$"):
                build_grid(0.5, 0.8, step)

    def test_length_capped_before_building(self):
        """The finest full-range grid the cap allows builds; a finer step is
        refused before any candidate is built (1e-7 would build 3,000,001,
        1e-300 about 3e299, and 5e-324 overflows the count to inf)."""
        assert len(build_grid(0.0, 1.0, 0.01)) == MAX_GRID_CANDIDATES == 101
        for step in (1e-7, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=rf"^step {step} gives more than 101 candidates$"):
                build_grid(0.5, 0.8, step)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            NegotiationGrid(alphas=(0.5, 0.5))
        with pytest.raises(ValueError):
            NegotiationGrid(alphas=())


class TestNegotiateAlpha:
    def test_max_mean_example(self):
        grid = NegotiationGrid(alphas=(0.5, 0.8))
        acc = AccuracyMatrix(node_ids=(0, 1), values=np.array([[0.6, 0.9], [0.6, 0.7]]))
        alpha, idx = negotiate_alpha(acc, grid, Policy.MAX_MEAN)
        assert (alpha, idx) == (0.8, 1)

    def test_min_variance_example(self):
        grid = NegotiationGrid(alphas=(0.5, 0.8))
        acc = AccuracyMatrix(node_ids=(0, 1), values=np.array([[0.6, 0.9], [0.6, 0.7]]))
        alpha, idx = negotiate_alpha(acc, grid, Policy.MIN_VARIANCE)
        assert (alpha, idx) == (0.5, 0)

    def test_identical_columns_tie_break_to_smallest_alpha(self):
        grid = build_grid(0.5, 0.8, 0.05)
        column = np.array([0.7, 0.8, 0.9])
        acc = AccuracyMatrix(node_ids=(0, 1, 2), values=np.tile(column[:, None], (1, 7)))
        for policy in Policy:
            alpha, idx = negotiate_alpha(acc, grid, policy)
            assert (alpha, idx) == (0.5, 0)

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(9)
        grid = build_grid(0.5, 0.8, 0.05)
        for trial in range(300):
            values = rng.uniform(0, 1, size=(10, 7))
            if trial % 3 == 0:  # force exact ties between some columns
                values[:, 4] = values[:, 1]
            acc = AccuracyMatrix(node_ids=tuple(range(10)), values=values)
            for policy in Policy:
                _, idx = negotiate_alpha(acc, grid, policy)
                assert idx == oracle_negotiate(values, policy)

    def test_incomplete_matrix_rejected(self):
        grid = build_grid(0.5, 0.8, 0.05)
        with pytest.raises(ValueError):
            AccuracyMatrix(node_ids=(0,), values=np.array([[0.5, np.nan, 0.5, 0.5, 0.5, 0.5, 0.5]]))
        acc = AccuracyMatrix(node_ids=(0,), values=np.full((1, 3), 0.5))
        with pytest.raises(ValueError):
            negotiate_alpha(acc, grid, Policy.MAX_MEAN)


class TestModelDiffs:
    def test_zero_distance_for_equal_vectors(self):
        v = np.array([1.0, 2.0])
        assert model_diffs([v], v)[0] == 0.0

    def test_three_four_five(self):
        global_ = np.zeros(2)
        assert model_diffs([np.array([3.0, 4.0])], global_)[0] == 5.0

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(11)
        global_ = rng.normal(size=40)
        vectors = [rng.normal(size=40) for _ in range(6)]
        diffs = model_diffs(vectors, global_)
        for d, v in zip(diffs, vectors):
            expected = math.sqrt(math.fsum((x - g) ** 2 for x, g in zip(v, global_)))
            assert abs(d - expected) <= 1e-12 * max(expected, 1.0)


    def test_overflowing_sum_of_squares_is_rescaled(self):
        """Entries of 1e200 overflow the sum of squares; the distance is still
        the finite one, with no warning, and a distance that fits is untouched."""
        global_ = np.zeros(3)
        huge = np.array([1e200, -1e200, 1e200])
        small = np.array([3.0, 4.0, 12.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            diffs = model_diffs([huge, small, np.array([np.inf, 0.0, 0.0])], global_)
        assert math.isclose(diffs[0], math.sqrt(3) * 1e200, rel_tol=1e-15)
        assert diffs[1] == np.linalg.norm(small) == 13.0
        assert diffs[2] == np.inf

    def test_distances_past_the_float64_limit_are_divided_by_one_power_of_two(self):
        """Distances of 8e308 and 4e308 exceed the float64 limit even rescaled:
        every distance of the call is divided by the same power of two, so all
        are finite and their ratios are exact."""
        global_ = np.zeros(64)
        small = np.zeros(64)
        small[:3] = (3.0, 4.0, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            diffs = model_diffs([np.full(64, 1e308), np.full(64, 5e307), small], global_)
        assert np.isfinite(diffs).all()
        assert diffs[0] == 2 * diffs[1]
        assert math.frexp(13.0 / diffs[2])[0] == 0.5  # 13 divided by a power of two
        assert math.isclose(diffs[0] / diffs[2], 1e308 / 13.0 * 8, rel_tol=1e-15)

    def test_same_bits_on_one_and_two_blas_threads(self):
        """A replay on a machine with another BLAS thread count must screen on
        the same distances. np.linalg.norm goes through BLAS and, for a
        199,210-entry vector, differs in the last bit between 1 and 2 threads."""
        script = (
            "import numpy as np\n"
            "from scei.contract import model_diffs\n"
            "rng = np.random.default_rng(5)\n"
            "temp_global = rng.normal(size=199_210)\n"
            "uploads = [temp_global + rng.normal(0.0, 10.0 ** -k, size=199_210) for k in range(6)]\n"
            "print(' '.join(float(d).hex() for d in model_diffs(uploads, temp_global)))\n"
        )
        path = os.path.dirname(os.path.dirname(scei.__file__))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0].split()) == 6
        assert outputs[0] == outputs[1]


class TestDynamicBounds:
    def test_start_levels(self):
        assert dynamic_bounds(0, 50) == (0.25, 0.75)

    def test_end_levels(self):
        lb, ub = dynamic_bounds(50, 50)
        assert (lb, ub) == pytest.approx((0.10, 0.90))

    def test_midpoint_levels(self):
        lb, ub = dynamic_bounds(25, 50)
        assert (lb, ub) == pytest.approx((0.175, 0.825))

    def test_monotone_in_round(self):
        total = 40
        levels = [dynamic_bounds(r, total) for r in range(total + 1)]
        for (lb0, ub0), (lb1, ub1) in zip(levels, levels[1:]):
            assert lb1 <= lb0
            assert ub1 >= ub0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dynamic_bounds(51, 50)
        with pytest.raises(ValueError):
            dynamic_bounds(-1, 50)


class TestDetectAnomalies:
    def test_all_equal_diffs_flag_nobody(self):
        report = detect_anomalies([2.5] * 8, 0, 50)
        assert report.flagged == frozenset()
        assert report.iqr == 0.0

    def test_single_huge_outlier_flagged(self):
        diffs = [1.0] * 9 + [100.0]
        report = detect_anomalies(diffs, 0, 50)
        assert report.flagged == frozenset({9})
        # confirm against hand-computed fences on the sorted sample
        q_lo = oracle_quantile(diffs, 0.25)
        q_hi = oracle_quantile(diffs, 0.75)
        assert 100.0 > q_hi + 1.5 * (q_hi - q_lo)

    def test_fences_widen_with_round(self):
        diffs = [1.0, 1.1, 1.3, 1.7, 2.0, 2.4, 3.0, 3.5, 4.1, 9.0]
        early = detect_anomalies(diffs, 0, 50)
        late = detect_anomalies(diffs, 50, 50)
        q_hi_early = oracle_quantile(diffs, early.quantile_ub)
        q_hi_late = oracle_quantile(diffs, late.quantile_ub)
        assert q_hi_late >= q_hi_early
        assert late.iqr >= early.iqr
        assert late.flagged <= early.flagged

    def test_node_ids_carried_through(self):
        report = detect_anomalies([1.0, 1.0, 1.0, 1.0, 50.0], 0, 10, node_ids=[3, 7, 9, 11, 13])
        assert report.flagged == frozenset({13})
        assert set(report.diffs) == {3, 7, 9, 11, 13}

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(21)
        total = 50
        for trial in range(1000):
            n = int(rng.integers(4, 16))
            diffs = rng.lognormal(mean=0.0, sigma=1.0, size=n)
            if trial % 5 == 0:
                diffs[rng.integers(0, n)] *= 50  # plant an outlier
            if trial % 7 == 0:
                diffs[:] = diffs[0]  # degenerate sample
            for round_no in (0, total // 2, total):
                report = detect_anomalies(diffs, round_no, total)
                assert report.flagged == frozenset(oracle_detect(diffs, round_no, total))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detect_anomalies([], 0, 10)

    def test_non_finite_distances_flagged_and_left_out_of_the_fences(self):
        finite = [1.0, 1.1, 1.3, 1.7, 2.0, 2.4, 3.0, 9.0]
        diffs = finite[:3] + [math.nan] + finite[3:5] + [math.inf] + finite[5:]
        for round_no in (0, 25, 50):
            report = detect_anomalies(diffs, round_no, 50)
            clean = detect_anomalies(finite, round_no, 50)
            assert report.iqr == clean.iqr
            # indices past the nan shift by one, past the inf by two
            shift = {i: i + (i >= 3) + (i >= 5) for i in range(len(finite))}
            assert report.flagged == {3, 6} | {shift[i] for i in clean.flagged}
        assert detect_anomalies([math.inf, math.nan], 0, 10).flagged == {0, 1}

    def test_agreeing_clusters_never_flagged(self):
        # any sample whose values agree to within a factor 1 + 1e-9 flags nobody
        for base in (1e-6, 1e-3, 1.0, 1e4):
            diffs = [base] * 9 + [base * (1 + 1e-9)]
            for round_no in (0, 25, 50):
                assert detect_anomalies(diffs, round_no, 50).flagged == frozenset()


class TestInterpolatedQuantile:
    def test_matches_oracle_on_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            xs = rng.normal(size=int(rng.integers(1, 30)))
            level = float(rng.uniform(0, 1))
            assert interpolated_quantile(xs, level) == pytest.approx(
                oracle_quantile(xs, level), abs=1e-12
            )

    def test_extremes(self):
        xs = [3.0, 1.0, 2.0]
        assert interpolated_quantile(xs, 0.0) == 1.0
        assert interpolated_quantile(xs, 1.0) == 3.0
        assert interpolated_quantile(xs, 0.5) == 2.0


def _state(active=range(10)):
    return ContractState.fresh(active)


def _report(flagged):
    return DefenceReport(
        diffs={}, quantile_lb=0.25, quantile_ub=0.75, iqr=1.0, flagged=frozenset(flagged)
    )


class TestUpdateSuspicions:
    def test_five_consecutive_flags_expel_at_fifth(self):
        state = _state()
        for t in range(1, 6):
            state, expelled = update_suspicions(state, _report({4}), t)
            if t < 5:
                assert 4 in state.active_nodes
                assert expelled == ()
            else:
                assert 4 not in state.active_nodes
                assert expelled == (4,)

    def test_broken_streak_resets(self):
        state = _state()
        for t in (1, 2, 3, 4):
            state, _ = update_suspicions(state, _report({2}), t)
        state, _ = update_suspicions(state, _report(set()), 5)
        for t in (6, 7, 8, 9):
            state, expelled = update_suspicions(state, _report({2}), t)
        assert 2 in state.active_nodes
        assert expelled == ()

    def test_sliding_window_rounds_3_to_7(self):
        state = _state()
        for t in range(3, 8):
            state, expelled = update_suspicions(state, _report({6}), t)
        assert 6 not in state.active_nodes
        assert expelled == (6,)

    def test_history_accumulates_for_all_flagged(self):
        state, _ = update_suspicions(_state(), _report({1, 2}), 1)
        state, _ = update_suspicions(state, _report({2}), 2)
        assert state.suspicion_history == {1: (1,), 2: (1, 2)}

    def test_does_not_mutate_input_state(self):
        state = _state()
        update_suspicions(state, _report({0}), 1)
        assert state.suspicion_history == {}
        assert len(state.active_nodes) == 10


def inline_screen(uploads, state, round_no, total_rounds):
    """The round loop's screening as it was composed inline before `screen`."""
    ordered_ids = sorted(uploads)
    vectors = [uploads[n] for n in ordered_ids]
    finite = [v for v in vectors if np.isfinite(v).all()]
    diffs = model_diffs(vectors, fed_avg(finite or vectors))
    report = detect_anomalies(diffs, round_no, total_rounds, node_ids=ordered_ids)
    state, expelled = update_suspicions(state, report, round_no)
    return report, state, expelled


SPECIAL_VALUES = (np.inf, -np.inf, np.nan, 1e308, -1e308)


class TestScreen:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_inline_composition(self, seed, nodes, length, poison):
        """Same report, state and expulsions over six rounds of uploads whose
        entries are, with probability `poison`, inf, nan or +-1e308."""
        rng = np.random.default_rng(seed)
        ours = theirs = ContractState.fresh(rng.choice(12, size=nodes, replace=False))
        with np.errstate(all="ignore"):
            for round_no in range(1, 7):
                uploads = {}
                for node in ours.active_nodes:
                    v = rng.normal(size=length) * 10.0 ** int(rng.integers(-3, 4))
                    hit = rng.random(length) < poison
                    v[hit] = rng.choice(SPECIAL_VALUES, size=int(hit.sum()))
                    uploads[node] = v
                if not uploads:
                    break
                got = screen(uploads, ours, round_no, 6)
                want = inline_screen(uploads, theirs, round_no, 6)
                # repr compares nan distances too, and every float bit for bit
                assert repr(got) == repr(want)
                ours, theirs = got[1], want[1]

    def test_a_non_finite_upload_is_expelled_at_the_fifth_round(self):
        state = ContractState.fresh(range(6))
        for round_no in range(1, 7):
            uploads = {node: np.full(20, float(round_no)) for node in state.active_nodes}
            if 3 in uploads:
                uploads[3] = np.full(20, np.nan if round_no % 2 else np.inf)
            report, state, expelled = screen(uploads, state, round_no, 10)
            assert report.flagged == ({3} if round_no <= 5 else set())
            assert expelled == ((3,) if round_no == 5 else ())
        assert state.active_nodes == (0, 1, 2, 4, 5)
        assert state.suspicion_history == {3: (1, 2, 3, 4, 5)}


    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 12),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_upload_of_any_values_leaves_a_finite_global(self, seed, honest, round_no, data):
        """One upload of any float64 values, at any place among 1-9 honest
        ones, never leaves every node flagged, and the global is finite."""
        extremes = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308,
                    -1.7976931348623157e308, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
        values = st.one_of(st.floats(), st.sampled_from(extremes))
        # a filled vector with some entries replaced: 64 entries near the limit
        # overflow even the honest uploads' distances from their average
        wild = np.full(64, data.draw(values))
        for at, value in data.draw(st.lists(st.tuples(st.integers(0, 63), values), max_size=8)):
            wild[at] = value
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=64) for _ in range(honest)]
        vectors.insert(data.draw(st.integers(0, honest)), wild)
        uploads = dict(enumerate(vectors))
        report, _, _ = screen(uploads, ContractState.fresh(uploads), round_no, 12)
        assert np.isfinite(robust_aggregate(uploads, report.flagged)).all()


class TestRobustAggregate:
    def test_no_flags_equals_plain_fed_avg(self):
        rng = np.random.default_rng(31)
        uploads = {k: rng.normal(size=12) for k in range(5)}
        out = robust_aggregate(uploads, set())
        assert np.array_equal(out, fed_avg([uploads[k] for k in range(5)]))

    def test_flagged_node_excluded(self):
        honest = np.full(4, 7.0)
        evil = np.full(4, 1e6)
        uploads = {0: honest.copy(), 1: evil, 2: honest.copy()}
        out = robust_aggregate(uploads, {1})
        assert np.array_equal(out, honest)

    def test_matches_filter_then_average_oracle(self):
        rng = np.random.default_rng(32)
        uploads = {k: rng.normal(size=30) for k in range(8)}
        flagged = {2, 5}
        out = robust_aggregate(uploads, flagged)
        manual = fed_avg([uploads[k] for k in sorted(uploads) if k not in flagged])
        assert np.array_equal(out, manual)

    def test_all_flagged_raises(self):
        uploads = {0: np.ones(2), 1: np.ones(2)}
        with pytest.raises(AggregationError):
            robust_aggregate(uploads, {0, 1})
