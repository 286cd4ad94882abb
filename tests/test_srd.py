import gc
import importlib
import math
import warnings
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsckit import (
    PerformanceMatrix,
    ValidationError,
    exact_null_distribution,
    golden_standard,
    max_srd,
    normal_approx_null,
    rank_vector,
    srd,
    srd_loo,
    srd_report,
)
from nsckit.srd import exact_null_counts

import oracles
import table3

# the module itself: the package attribute nsckit.srd is the srd function
srd_module = importlib.import_module("nsckit.srd")


class TestPerformanceMatrix:
    def test_repeated_column_name_rejected(self):
        with pytest.raises(ValidationError, match="column name 'A' is repeated"):
            PerformanceMatrix(np.ones((3, 4)), ("a", "b", "c"), ("x", "A", "A", "B"))

    def test_values_are_a_read_only_copy(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        M = PerformanceMatrix(source, ("a", "b", "c"), ("x", "y"))
        source[0, 0] = 99.0
        assert M.values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert not M.values.flags.writeable
        with pytest.raises(ValueError):
            M.values[0, 0] = 99.0


class TestGoldenStandard:
    def test_row_min(self):
        M = PerformanceMatrix(
            np.array([[1.33, 0.0, 2.7], [5.0, 6.0, 7.0]]),
            ("a", "b"), ("x", "y", "z"),
        )
        np.testing.assert_array_equal(golden_standard(M, "min"), [0.0, 5.0])

    def test_single_column(self):
        M = PerformanceMatrix(np.array([[3.0], [1.0]]), ("a", "b"), ("x",))
        for strategy in ("min", "max", "mean"):
            np.testing.assert_array_equal(golden_standard(M, strategy), [3.0, 1.0])

    def test_row_mean(self):
        M = PerformanceMatrix(np.array([[2.0, 4.0], [0.0, 1.0]]), ("a", "b"), ("x", "y"))
        np.testing.assert_array_equal(golden_standard(M, "mean"), [3.0, 0.5])

    def test_default_is_the_best_value_in_the_ranking_direction(self):
        values = np.array([[1.33, 0.0, 2.7], [5.0, 6.0, 7.0]])
        for lower, want in ((True, [0.0, 5.0]), (False, [2.7, 7.0])):
            M = PerformanceMatrix(values, ("a", "b"), ("x", "y", "z"), lower)
            np.testing.assert_array_equal(golden_standard(M), want)

    def test_unknown_strategy(self):
        M = PerformanceMatrix(np.ones((2, 1)), ("a", "b"), ("x",))
        with pytest.raises(ValidationError):
            golden_standard(M, "mode")


class TestRankVector:
    def test_ascending(self):
        np.testing.assert_array_equal(rank_vector([0.5, 0.1, 0.9]), [2, 1, 3])

    def test_tie_broken_by_row_order(self):
        np.testing.assert_array_equal(rank_vector([1.0, 1.0, 2.0]), [1, 2, 3])

    def test_descending(self):
        np.testing.assert_array_equal(
            rank_vector([0.5, 0.1, 0.9], ascending=False), [2, 3, 1]
        )

    def test_table3_oth_column(self):
        col = [o for _, _, o, _ in table3.ROWS]
        np.testing.assert_array_equal(
            rank_vector(col), [1, 2, 3, 6, 4, 5, 7, 8, 9, 10]
        )


class TestMaxSrd:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_matches_enumeration(self, r):
        assert max_srd(r) == oracles.max_displacement_by_enumeration(r)

    def test_r10(self):
        assert max_srd(10) == 50


class TestExactNull:
    def test_r2(self):
        assert exact_null_distribution(2) == {0: 0.5, 2: 0.5}

    def test_r3(self):
        dist = exact_null_distribution(3)
        assert dist == {0: 1 / 6, 2: 2 / 6, 4: 3 / 6}

    @pytest.mark.parametrize("r", range(2, 9))
    def test_matches_brute_force(self, r):
        brute = oracles.srd_null_by_enumeration(r)
        assert exact_null_counts(r) == oracles.srd_null_counts_direct(r) == brute

    # counts past 2**63 from r = 21 on: 20! < 2**63 < 21!
    @pytest.mark.parametrize("r", range(9, 23))
    def test_matches_recurrence_oracle_across_the_dtype_switch(self, r):
        counts = exact_null_counts(r)
        assert counts == oracles.srd_null_counts_direct(r)
        assert all(type(v) is int and type(c) is int for v, c in counts.items())

    def test_all_values_even(self):
        for r in range(2, 9):
            assert all(v % 2 == 0 for v in exact_null_counts(r))

    def test_r10_normalized_and_tail(self):
        dist = exact_null_distribution(10)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        assert sum(p for v, p in dist.items() if v <= 4) < 0.05

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_null_distribution(14)

    # 25! > 21! > 2**63 > 20!: the counts of r = 21 and 25 pass 2**63
    @pytest.mark.parametrize("r", [*range(2, 14), 20, 21, 25])
    def test_exact_moments_match_closed_forms(self, r):
        # Diaconis & Graham (1977): mean (r^2 - 1)/3, variance (r+1)(2r^2+7)/45
        counts = exact_null_counts(r)
        total = math.factorial(r)
        assert sum(counts.values()) == total
        mean = Fraction(sum(v * c for v, c in counts.items()), total)
        second = Fraction(sum(v * v * c for v, c in counts.items()), total)
        assert mean == Fraction(r * r - 1, 3)
        assert second - mean**2 == Fraction((r + 1) * (2 * r * r + 7), 45)


class TestNormalApprox:
    def test_rejects_small_r(self):
        with pytest.raises(ValidationError):
            normal_approx_null(13)

    def test_moments_match_exact_distribution_at_r13(self):
        # the moment computation must agree with the DP where both exist
        from nsckit.srd import _displacement_moments

        dist = exact_null_distribution(13)
        mean = sum(v * p for v, p in dist.items())
        var = sum(v * v * p for v, p in dist.items()) - mean**2
        got_mean, got_var = _displacement_moments(13)
        assert got_mean == pytest.approx(mean, rel=1e-10)
        assert got_var == pytest.approx(var, rel=1e-10)

    def test_monte_carlo_cross_check(self):
        r, draws = 20, 1_000_000
        null = normal_approx_null(r)
        rng = np.random.default_rng(99)
        idx = np.arange(1, r + 1)
        sums = np.empty(draws)
        chunk = 100_000
        for start in range(0, draws, chunk):
            block = rng.random((chunk, r)).argsort(axis=1) + 1
            sums[start : start + chunk] = np.abs(block - idx).sum(axis=1)
        mc_mean = sums.mean()
        mc_sd = sums.std(ddof=1)
        se_mean = mc_sd / math.sqrt(draws)
        assert abs(null.mean - mc_mean) <= 3 * se_mean
        # SE of the SD is approximately sd / sqrt(2 (n - 1))
        assert abs(null.stdev - mc_sd) <= 3 * mc_sd / math.sqrt(2 * (draws - 1))
        assert null.stdev > 0
        assert null.inv_cdf(0.5) == pytest.approx(null.mean, rel=1e-2)

    def test_displacement_moments_equal_the_closed_forms(self):
        # Diaconis & Graham (1977): mean (r^2 - 1)/3, variance (r+1)(2r^2+7)/45
        for r in range(2, 61):
            mean, var = srd_module._displacement_moments(r)
            assert mean == pytest.approx((r * r - 1) / 3, rel=1e-12, abs=0)
            assert var == pytest.approx((r + 1) * (2 * r * r + 7) / 45, rel=1e-12, abs=0)

    # at r = 40 the normal XX1, 444.09, is 2.09 above the exact 442
    @pytest.mark.parametrize("r", range(14, 40))
    def test_normal_xx1_is_within_one_step_of_the_exact_xx1(self, r):
        # the smallest value whose cumulative probability reaches 5 %, as srd
        # reads the exact null; SRD values are even, so one step is 2
        counts, total, cum = exact_null_counts(r), math.factorial(r), 0
        for v in sorted(counts):
            cum += counts[v]
            if 20 * cum >= total:
                break
        assert abs(normal_approx_null(r).inv_cdf(0.05) - v) < 2


class TestNullCalls:
    """The benchmark counts null builds by wrapping these names in srd's module."""

    def test_one_null_call_per_srd_through_the_module(self, monkeypatch, rng):
        calls = Counter()
        for name in ("exact_null_distribution", "normal_approx_null"):
            real = getattr(srd_module, name)

            def counted(r, real=real, name=name):
                calls[name] += 1
                return real(r)

            monkeypatch.setattr(srd_module, name, counted)
        for r in (13, 13, 40, 40, 40):
            M = PerformanceMatrix(
                rng.normal(size=(r, 3)), tuple(f"r{i}" for i in range(r)), ("a", "b", "c")
            )
            srd(M, "min")
            srd_loo(M, "min")
        assert calls == {"exact_null_distribution": 2, "normal_approx_null": 3}


class TestNullCache:
    """Each r's null is built once per process; every caller gets its own copy."""

    @staticmethod
    def matrix(rng, r):
        return PerformanceMatrix(
            rng.normal(size=(r, 3)), tuple(f"r{i}" for i in range(r)), ("a", "b", "c")
        )

    def test_one_build_per_r(self, monkeypatch, rng):
        srd_module._exact_null.cache_clear()
        srd_module._normal_moments.cache_clear()
        builds = Counter()
        for name in ("exact_null_counts", "_displacement_moments"):
            real = getattr(srd_module, name)

            def counted(r, real=real, name=name):
                builds[name, r] += 1
                return real(r)

            monkeypatch.setattr(srd_module, name, counted)
        for r in (13, 5, 40, 13, 20, 40, 5, 13, 40):
            srd(self.matrix(rng, r), "min")
        assert builds == {
            ("exact_null_counts", 5): 1, ("exact_null_counts", 13): 1,
            ("_displacement_moments", 20): 1, ("_displacement_moments", 40): 1,
        }

    def test_mutating_a_copy_leaves_later_calls_unchanged(self, rng):
        want = exact_null_distribution(13)
        got = exact_null_distribution(13)
        got[0] = 1.0
        del got[2]
        assert exact_null_distribution(13) == want
        M = self.matrix(rng, 13)
        first, second = srd(M), srd(M)
        assert first.null_distribution is not second.null_distribution
        first.null_distribution.clear()
        assert srd(M).null_distribution == second.null_distribution == want

    def test_cached_values_equal_a_fresh_build(self):
        for r in range(2, 14):
            total = math.factorial(r)
            fresh = [(v, c / total) for v, c in exact_null_counts(r).items()]
            for _ in range(2):
                assert list(exact_null_distribution(r).items()) == fresh
        for r in range(14, 41):
            mean, var = srd_module._displacement_moments(r)
            for _ in range(2):
                null = normal_approx_null(r)
                assert (null.mean, null.stdev) == (mean, math.sqrt(var))


class TestRankingSlot:
    """``srd`` and ``srd_loo`` on one matrix object and golden standard rank it once."""

    @staticmethod
    def matrix(rng, r=13):
        # error percentages over 72 samples, so columns tie
        values = 100.0 * rng.integers(0, 12, size=(r, 4)) / 72
        return PerformanceMatrix(values, tuple(f"r{i}" for i in range(r)), tuple("abcd"))

    @pytest.fixture
    def rankings(self, monkeypatch):
        """The matrices ``rank_vector`` ranks from here on, in call order."""
        monkeypatch.setattr(srd_module, "_last_ranking", [None])
        calls, real = [], srd_module.rank_vector
        monkeypatch.setattr(srd_module, "rank_vector", lambda v, *a: calls.append(v) or real(v, *a))
        return calls

    def test_a_pair_on_one_matrix_ranks_it_once(self, rng, rankings):
        for lower_is_better in (True, False):
            M = self.matrix(rng)
            M = PerformanceMatrix(M.values, M.row_names, M.col_names, lower_is_better)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                srd(M)
                srd_loo(M, "min" if lower_is_better else "max")  # the default, spelt out
        assert len(rankings) == 2

    def test_another_matrix_or_golden_standard_is_ranked_anew(self, rng, rankings):
        M = self.matrix(rng)
        twin = PerformanceMatrix(M.values, M.row_names, M.col_names)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for call, matrix, strategy in [
                (srd, M, None), (srd_loo, twin, None), (srd, twin, "mean"),
                (srd_loo, twin, "max"), (srd_loo, twin, "max"), (srd, M, "max"),
            ]:
                call(matrix, strategy)
        assert len(rankings) == 5

    def test_the_slot_holds_the_last_matrix_only(self, rng, rankings):
        first, last = self.matrix(rng), self.matrix(rng)
        gone = weakref.ref(first)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            srd(first)
            srd_loo(last)
        del first
        gc.collect()
        assert gone() is None
        assert len(srd_module._last_ranking) == 1 and srd_module._last_ranking[0][0] is last

    def test_loo_equals_reranking_after_a_hit_and_a_miss(self, rng, rankings):
        M = self.matrix(rng, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = srd(M, "mean")
            hit = srd_loo(M, "mean")
            miss = srd_loo(M, "min")
            assert len(rankings) == 2
            assert hit == oracles.srd_loo_direct(M, "mean")
            assert miss == oracles.srd_loo_direct(M, "min")
            assert miss != hit
        assert full.gold_rank.flags.writeable  # a copy, not the kept ranks


class TestSrdTable3:
    def test_gold_ranks_and_diffs(self):
        result = srd(table3.matrix(), "min")
        np.testing.assert_array_equal(result.gold_rank, table3.EXPECTED_GOLD_RANK)
        for name in table3.METHODS:
            np.testing.assert_array_equal(
                result.method_ranks[name], table3.EXPECTED_RANKS[name]
            )
            diffs = np.abs(result.method_ranks[name] - result.gold_rank)
            np.testing.assert_array_equal(diffs, table3.EXPECTED_DIFFS[name])

    def test_raw_and_scaled_sums(self):
        result = srd(table3.matrix(), "min")
        assert result.srd_raw == table3.EXPECTED_SRD
        assert result.srd_scaled == {"STh": 24.0, "OTh": 8.0, "HTh": 16.0}
        assert result.mode == "exact"

    def test_all_significant_at_five_percent(self):
        result = srd(table3.matrix(), "min")
        rows, _ = srd_report(result)
        verdicts = {row[0]: row[-1] for row in rows[1:]}
        assert verdicts == {"STh": "yes", "OTh": "yes", "HTh": "yes"}


class TestSrdGeneral:
    def test_identity_ranking_gives_zero(self, rng):
        gold = np.sort(rng.normal(size=(8,)))
        M = PerformanceMatrix(
            np.column_stack([gold, gold + 100.0]), tuple("abcdefgh"), ("m1", "m2")
        )
        result = srd(M, "min")
        assert result.srd_raw["m1"] == 0

    def test_monotone_transform_invariance(self, rng):
        values = rng.normal(size=(9, 3))
        M = PerformanceMatrix(values, tuple("abcdefghi"), ("x", "y", "z"))
        base = srd(M, "min")
        # a strictly increasing map of every entry preserves all rankings
        M2 = PerformanceMatrix(np.exp(2.0 * values), M.row_names, M.col_names)
        assert srd(M2, "min").srd_raw == base.srd_raw

    def test_bounds_and_parity(self, rng):
        for _ in range(30):
            r = int(rng.integers(2, 12))
            M = PerformanceMatrix(
                rng.normal(size=(r, 2)),
                tuple(f"r{i}" for i in range(r)),
                ("m1", "m2"),
            )
            result = srd(M, "min")
            for raw in result.srd_raw.values():
                assert 0 <= raw <= max_srd(r)
                assert raw % 2 == 0

    def test_ties_warn(self):
        M = PerformanceMatrix(
            np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 0.5]]),
            ("a", "b", "c"), ("x", "y"),
        )
        with pytest.warns(UserWarning, match="ties"):
            srd(M, "min")

    def test_tie_warnings_point_at_the_caller(self):
        M = PerformanceMatrix(
            np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 0.5]]),
            ("a", "b", "c"), ("x", "y"),
        )
        for call in (srd, srd_loo):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(M, "min")
            assert len(caught) == 2 and {w.filename for w in caught} == {__file__}

    def test_normal_mode_beyond_13_rows(self, rng):
        M = PerformanceMatrix(
            rng.normal(size=(15, 2)),
            tuple(f"r{i}" for i in range(15)),
            ("m1", "m2"),
        )
        result = srd(M, "min")
        assert result.mode == "normal"
        assert result.null_distribution == {}
        assert result.percentiles["xx1"] < result.percentiles["med"] < result.percentiles["xx19"]

    def test_random_column_near_median_not_significant(self):
        rng = np.random.default_rng(314)
        # a column whose ranking is unrelated to the gold ranking sits near
        # the null median, far above the 5% point; the offset keeps the
        # noise column out of the row minimum so the gold is untouched
        hits = 0
        for _ in range(30):
            values = np.column_stack(
                [np.sort(rng.normal(size=10)), rng.normal(size=10) + 100.0]
            )
            M = PerformanceMatrix(values, tuple(f"r{i}" for i in range(10)), ("gold-like", "noise"))
            result = srd(M, "min")
            rows, _ = srd_report(result)
            if dict((r[0], r[-1]) for r in rows[1:])["noise"] == "no":
                hits += 1
        assert hits >= 27


class TestReportAndLoo:
    def test_distribution_rows_normalized(self):
        result = srd(table3.matrix(), "min")
        _, dist_rows = srd_report(result)
        total = sum(float(p) for _, p in dist_rows[1:])
        assert abs(total - 1.0) < 1e-12

    def test_report_percentiles_scaled(self):
        result = srd(table3.matrix(), "min")
        rows, _ = srd_report(result)
        header = rows[0]
        xx1 = float(rows[1][header.index("xx1")])
        assert xx1 == pytest.approx(100.0 * result.percentiles["xx1"] / 50.0)

    def test_loo_spread_contains_full_value_neighborhood(self):
        M = table3.matrix()
        loo = srd_loo(M, "min")
        assert set(loo) == set(table3.METHODS)
        assert all(len(vals) == 10 for vals in loo.values())
        full = srd(M, "min").srd_scaled
        for name, vals in loo.items():
            assert min(vals) - 25.0 <= full[name] <= max(vals) + 25.0


@st.composite
def tied_matrices(draw, min_rows=3, max_cols=7):
    """Error percentages over 72 test samples: few levels, many ties."""
    r = draw(st.integers(min_rows, 45))
    c = draw(st.integers(1, max_cols))
    top = draw(st.integers(0, 20))
    errors = draw(st.lists(
        st.lists(st.integers(0, top), min_size=c, max_size=c), min_size=r, max_size=r
    ))
    return PerformanceMatrix(
        100.0 * np.array(errors) / 72,
        tuple(f"case{i}" for i in range(r)),
        tuple(f"m{j}" for j in range(c)),
        draw(st.booleans()),
    )


def tie_messages(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(M=tied_matrices(), strategy=st.sampled_from(["min", "max", "mean"]))
def test_loo_rank_shift_equals_reranking(M, strategy):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert srd_loo(M, strategy) == oracles.srd_loo_direct(M, strategy)


@settings(max_examples=50, deadline=None)
@given(M=tied_matrices(), strategy=st.sampled_from(["min", "max", "mean"]))
def test_loo_gives_the_tie_messages_of_srd_once_each(M, strategy):
    full = tie_messages(lambda: srd(M, strategy))
    loo = tie_messages(lambda: srd_loo(M, strategy))
    assert sorted(loo) == sorted(set(loo)) == sorted(set(full))


@settings(max_examples=200, deadline=None)
@given(M=tied_matrices(min_rows=2, max_cols=8), strategy=st.sampled_from(["min", "max", "mean"]))
def test_ranks_and_srd_equal_the_rank_formula(M, strategy):
    ascending = M.lower_is_better
    r = M.values.shape[0]
    columns = [golden_standard(M, strategy), *M.values.T]
    want = [oracles.rank_by_formula(col.tolist(), ascending) for col in columns]
    for col, ranks in zip(columns, want):
        assert rank_vector(col, ascending).tolist() == ranks
    assert rank_vector(np.column_stack(columns), ascending).T.tolist() == want
    results = []
    messages = tie_messages(lambda: results.append(srd(M, strategy)))
    result = results[0]
    assert result.gold_rank.tolist() == want[0]
    raw = {
        name: sum(abs(a - g) for a, g in zip(ranks, want[0]))
        for name, ranks in zip(M.col_names, want[1:])
    }
    assert result.srd_raw == raw
    assert result.srd_scaled == {name: 100.0 * v / max_srd(r) for name, v in raw.items()}
    names = ["golden standard", *(f"column {name!r}" for name in M.col_names)]
    assert messages == [
        f"ties detected in {name}; ranks were broken by row order but the null "
        "distribution assumes distinct ranks"
        for name, col in zip(names, columns)
        if len(set(col.tolist())) < r
    ]


@st.composite
def tie_free_matrices(draw):
    """Distinct values in every column, so no rank depends on row order."""
    r = draw(st.integers(2, 20))
    c = draw(st.integers(1, 6))
    columns = [
        draw(st.lists(st.integers(-1000, 1000), min_size=r, max_size=r, unique=True))
        for _ in range(c)
    ]
    return np.array(columns, dtype=float).T


@settings(max_examples=100, deadline=None)
@given(values=tie_free_matrices())
def test_higher_is_better_equals_negated_lower_is_better(values):
    rows = tuple(f"case{i}" for i in range(len(values)))
    cols = tuple(f"m{j}" for j in range(values.shape[1]))
    higher = PerformanceMatrix(values, rows, cols, lower_is_better=False)
    negated = PerformanceMatrix(-values, rows, cols)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the golden standard may tie
        assert srd(higher).srd_raw == srd(negated).srd_raw


class TestWholeOutputs:
    """Relations of a whole SRD result on tie-free tables: normal values, so
    no column and no golden standard ties, and no rank depends on row order."""

    @staticmethod
    def tie_free(rng, r, lower_is_better=True):
        return PerformanceMatrix(
            rng.normal(size=(r, 4)), tuple(f"r{i}" for i in range(r)), ("a", "b", "c", "d"),
            lower_is_better,
        )

    @staticmethod
    def whole(M):
        """Every output of srd, srd_report and srd_loo on M, as exact text."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a tie would warn
            result, loo = srd(M), srd_loo(M)
        ranks = {name: v.tolist() for name, v in result.method_ranks.items()}
        return (result.gold_rank.tolist(), ranks, repr(result.srd_raw), repr(result.srd_scaled),
                repr(result.null_distribution), repr(result.percentiles), result.mode,
                srd_report(result), repr(loo))

    @pytest.mark.parametrize("r", [3, 7, 13, 14, 40])
    def test_permuting_the_cases_permutes_each_loo_list(self, rng, r):
        M = self.tie_free(rng, r)
        perm = rng.permutation(r)
        P = PerformanceMatrix(M.values[perm], tuple(M.row_names[i] for i in perm), M.col_names)
        want, got = self.whole(M), self.whole(P)
        # srd_raw, srd_scaled, the null, the percentiles and the mode
        assert got[2:7] == want[2:7]
        loo, permuted = srd_loo(M), srd_loo(P)
        for name in M.col_names:
            assert repr(permuted[name]) == repr([loo[name][i] for i in perm])

    @pytest.mark.parametrize("r", [3, 7, 13, 14, 40])
    def test_scaling_or_negating_with_the_direction_is_bit_identical(self, rng, r):
        M = self.tie_free(rng, r)
        want = self.whole(M)
        for c in (2.0, 0.25, 1024.0):
            assert self.whole(PerformanceMatrix(M.values * c, M.row_names, M.col_names)) == want, c
        flipped = PerformanceMatrix(-M.values, M.row_names, M.col_names, lower_is_better=False)
        assert self.whole(flipped) == want
