import numpy as np
import pytest

from lsufdr.stepup import (PValueSample, _PROBES, _critical, _probed_counts,
                           _stepup_count, ecdf, lsd, lsu)


def make_sample(pvalues, nulls=None):
    pv = np.asarray(pvalues, dtype=float)
    if nulls is None:
        nulls = np.ones(pv.size, dtype=bool)
    return PValueSample(pvalues=pv, is_true_null=np.asarray(nulls))


class TestLsu:
    def test_hand_enumeration(self):
        # critical values at alpha=0.15, n=3: (0.05, 0.10, 0.15)
        s = make_sample([0.01, 0.5, 0.9])
        r = lsu(s, 0.15)
        assert r.m == 1
        assert r.threshold == pytest.approx(0.05)
        assert r.v == 1  # all entries are true nulls here

    def test_all_zero_false_nulls(self):
        s = make_sample([0.0] * 6, nulls=[False] * 6)
        r = lsu(s, 0.1)
        assert r.m == 6
        assert r.v == 0
        assert r.fdp == 0.0

    def test_all_one(self):
        s = make_sample([1.0] * 5)
        r = lsu(s, 0.2)
        assert r.m == 0
        assert r.fdp == 0.0
        assert r.threshold == 0.0

    def test_tie_at_critical_value_rejected(self):
        # p equal to its critical value counts as a rejection
        s = make_sample([0.05, 0.9])
        r = lsu(s, 0.1)
        assert r.m == 1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            make_sample([])

    def test_alpha_domain(self):
        s = make_sample([0.2])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                lsu(s, alpha)

    def test_rejected_count_matches_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 60)
            pv = rng.random(n) ** rng.uniform(0.5, 2.0)
            s = make_sample(pv)
            r = lsu(s, 0.2)
            assert np.count_nonzero(pv <= r.threshold) == r.m
            if r.m > 0:
                assert np.all(np.sort(pv)[r.m:] > r.threshold)

    def test_threshold_supremum_characterization(self):
        # t* = sup{t: ecdf(t) >= t/alpha} over the critical grid agrees
        rng = np.random.default_rng(3)
        alpha = 0.25
        for _ in range(100):
            n = int(rng.integers(2, 40))
            pv = rng.random(n)
            s = make_sample(pv)
            r = lsu(s, alpha)
            grid = alpha * np.arange(1, n + 1) / n
            holds = [ecdf(pv, float(t)) >= t / alpha for t in grid]
            sup_idx = max((i for i, h in enumerate(holds) if h), default=-1)
            m_from_sup = sup_idx + 1
            assert m_from_sup == r.m
            if r.m > 0:
                assert ecdf(pv, r.threshold) >= r.threshold / alpha
            for t in grid[r.m:]:
                assert ecdf(pv, float(t)) < t / alpha

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pv = rng.random(25)
        nulls = rng.random(25) < 0.6
        base = lsu(PValueSample(pvalues=pv, is_true_null=nulls), 0.1)
        for _ in range(20):
            perm = rng.permutation(25)
            r = lsu(PValueSample(pvalues=pv[perm], is_true_null=nulls[perm]),
                    0.1)
            assert (r.m, r.v, r.threshold) == (base.m, base.v, base.threshold)

    def test_monotone_in_single_pvalue(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            pv = rng.random(n)
            s = make_sample(pv)
            m0 = lsu(s, 0.3).m
            i = int(rng.integers(0, n))
            pv2 = pv.copy()
            pv2[i] = pv[i] * rng.random()
            assert lsu(make_sample(pv2), 0.3).m >= m0

    def test_input_not_mutated(self):
        pv = np.array([0.9, 0.1, 0.4])
        s = make_sample(pv)
        lsu(s, 0.2)
        assert list(s.pvalues) == [0.9, 0.1, 0.4]

    def test_independent_uniform_fdr_is_alpha(self):
        # all-null uniform p-values: FDR equals alpha exactly in
        # expectation; Monte Carlo within 3 standard errors
        rng = np.random.default_rng(11)
        alpha = 0.1
        reps = 20000
        n = 40
        fdps = np.empty(reps)
        for k in range(reps):
            s = make_sample(rng.random(n))
            fdps[k] = lsu(s, alpha).fdp
        se = fdps.std(ddof=1) / np.sqrt(reps)
        assert abs(fdps.mean() - alpha) < 3 * se


class TestLsd:
    def test_hand_enumeration(self):
        s = make_sample([0.01, 0.5, 0.9])
        assert lsd(s, 0.15).m == 1

    def test_first_step_fails(self):
        s = make_sample([0.09, 0.2])
        r = lsd(s, 0.1)  # critical values (0.05, 0.1); first fails
        assert r.m == 0

    def test_never_more_than_lsu(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            pv = rng.random(n) ** rng.uniform(0.3, 3.0)
            s = make_sample(pv)
            assert lsd(s, 0.2).m <= lsu(s, 0.2).m

    def test_all_pass(self):
        s = make_sample([0.0, 0.01])
        assert lsd(s, 0.2).m == 2


def reference_counts(pv, alpha):
    # the step-up and step-down rules written out rank by rank
    n = len(pv)
    ps = sorted(pv)
    passes = [ps[i] <= alpha * (i + 1) / n for i in range(n)]
    up = max((i + 1 for i in range(n) if passes[i]), default=0)
    down = 0
    while down < n and passes[down]:
        down += 1
    return up, down


class TestStepupKernel:
    def test_block_rows_match_lsu_and_lsd(self):
        rng = np.random.default_rng(21)
        alpha, n = 0.2, 30
        crit = alpha * np.arange(1, n + 1) / n
        block = rng.random((120, n)) ** rng.uniform(0.3, 4.0, (120, 1))
        # ties exactly at i*alpha/n: critical values at random ranks
        block[:40] = crit[rng.integers(0, n, (40, n))]
        block[40] = crit  # every p-value passes, each as a tie
        block[41] = rng.permutation(crit) * 0.5  # every p-value passes
        block[42] = 0.9  # none passes
        block[43] = crit + 1e-12  # none passes, each just above
        counts = _stepup_count(block, alpha)
        assert (counts[40], counts[41], counts[42], counts[43]) == (n, n, 0, 0)
        for row, count in zip(block, counts):
            s = make_sample(row)
            up, down = reference_counts(list(row), alpha)
            assert count == up == lsu(s, alpha).m
            assert lsd(s, alpha).m == down

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            pv = rng.random(int(rng.integers(1, 40))) ** 3
            count = _stepup_count(pv, 0.1)
            assert count.shape == ()
            assert count == reference_counts(list(pv), 0.1)[0]


class TestEcdf:
    def test_direct_count(self):
        assert ecdf(np.array([0.2, 0.4]), 0.3) == 0.5

    def test_all_below_one(self):
        v = np.array([0.1, 0.99, 1.0])
        assert ecdf(v, 1.0) == 1.0

    def test_zeros(self):
        v = np.array([0.0, 0.0, 0.5, 0.7])
        assert ecdf(v, 0.0) == 0.5

    def test_right_continuity(self):
        v = np.array([0.25, 0.5])
        assert ecdf(v, 0.25) == 0.5
        assert ecdf(v, 0.25 - 1e-12) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]), 0.5)

    def test_nan_level_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            ecdf(np.array([0.1, 0.4]), float("nan"))


class TestSampleValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PValueSample(pvalues=np.array([0.1, 0.2]),
                         is_true_null=np.array([True]))

    def test_range(self):
        with pytest.raises(ValueError):
            make_sample([-0.1, 0.5])
        with pytest.raises(ValueError):
            make_sample([0.1, 1.5])

    def test_counts(self):
        s = make_sample([0.1, 0.2, 0.3], nulls=[True, False, True])
        assert (s.n, s.n0, s.n1) == (3, 2, 1)


class TestHeldTail:
    """A sample may hold only its p-values at or below alpha, with n set."""

    def test_same_rejections_as_full_vector(self):
        rng = np.random.default_rng(23)
        alpha = 0.1
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pv = rng.random(n) ** rng.uniform(0.2, 3.0)
            nulls = rng.random(n) < 0.7
            held = pv <= alpha * rng.uniform(1.0, 3.0)  # some above alpha
            held |= pv <= alpha
            full = PValueSample(pvalues=pv, is_true_null=nulls)
            tail = PValueSample(pvalues=pv[held], is_true_null=nulls[held],
                                n=n)
            assert tail.n == full.n == n
            assert lsu(tail, alpha) == lsu(full, alpha)
            assert lsd(tail, alpha) == lsd(full, alpha)

    def test_nothing_held(self):
        s = PValueSample(pvalues=np.empty(0), is_true_null=np.empty(0, bool),
                         n=5)
        assert lsu(s, 0.1).m == lsd(s, 0.1).m == 0
        assert (s.n, s.n0, s.n1) == (5, 0, 0)

    def test_lsd_stops_after_the_held_values(self):
        # all held values pass, so lsd rejects them and nothing more
        s = PValueSample(pvalues=np.array([0.0, 0.001]),
                         is_true_null=np.array([False, True]), n=10)
        assert lsd(s, 0.05).m == lsu(s, 0.05).m == 2

    def test_n_below_held_count_rejected(self):
        with pytest.raises(ValueError):
            PValueSample(pvalues=np.array([0.1, 0.2]),
                         is_true_null=np.array([True, True]), n=1)
        with pytest.raises(ValueError):
            PValueSample(pvalues=np.empty(0), is_true_null=np.empty(0, bool))


class TestProbedCounts:
    """The search's (m, v) equal lsu's and lsd's on the whole vector, the
    searched p-values counted as true nulls and the others as false."""

    @staticmethod
    def both(searched, others, alpha, n, stepdown, slack):
        """(the search's (m, v), the reference's (m, v), the sizes of the
        position arrays it asked for)"""
        asked = []

        def at(i):
            asked.append(i.size)
            return searched[i]

        got = _probed_counts(at, searched.size, others, alpha, n, stepdown,
                             slack)
        p = np.concatenate((searched, others))
        ref = (lsd if stepdown else lsu)(
            PValueSample(p, np.arange(p.size) < searched.size, n), alpha)
        return got, (ref.m, ref.v), asked

    def test_matches_full_count(self):
        rng = np.random.default_rng(31)
        deep = []
        for _ in range(1500):
            size = int(rng.choice([0, 1, 63, 64, 65, 200, 4097, 20000]))
            alpha = float(rng.uniform(0.01, 0.5))
            # concave ecdfs, crossing Simes' line anywhere
            searched = np.sort(min(1.0, alpha * rng.uniform(0.3, 30.0))
                               * rng.random(size) ** rng.choice([1, 2, 3]))
            count = int(rng.choice([0, 1, 50, 3000]))
            others = np.zeros(count) if rng.random() < 0.5 \
                else np.sort(rng.uniform(0.0, 2.0 * alpha, count))
            total = size + count
            n = max(total, 1) + int(rng.integers(0, 2 * max(total, 1)))
            stepdown = bool(rng.random() < 0.5)
            got, ref, asked = self.both(searched, others, alpha, n, stepdown,
                                        1e-9)
            assert got == ref, (size, count, n, stepdown)
            if size == 20000:
                deep.append((ref[0], sum(asked)))
        # crossings at every depth, each found from a few hundred elements
        m, asked = np.array(deep).T
        assert (m == 0).any() and (m > 1000).sum() > 20
        assert asked.max() <= 8 * _PROBES

    def test_ties_at_critical_values(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            alpha = float(rng.uniform(0.01, 0.5))
            crit = _critical(alpha, n)
            searched = np.sort(crit[rng.integers(0, n, int(rng.integers(
                0, n + 1)))])
            others = np.sort(crit[rng.integers(0, n, int(rng.integers(
                0, n - searched.size + 1)))])
            for stepdown in (False, True):
                got, ref, _ = self.both(searched, others, alpha, n, stepdown,
                                        1e-9)
                assert got == ref

    def test_order_within_slack(self):
        # searched p-values out of order by up to a third of the slack,
        # many of them at a critical value, and from rank 300 on several
        # critical values to a slack's width: rank tests stay open and
        # count in full, and intervals there must not be dropped
        rng = np.random.default_rng(33)
        slack = 1e-2
        opened = 0
        for _ in range(400):
            n = int(rng.integers(2 * _PROBES, 6000))
            alpha = float(rng.uniform(0.01, 0.5))
            crit = _critical(alpha, n)
            size = int(rng.integers(_PROBES + 1, n + 1))
            searched = np.sort(alpha * rng.random(size) ** 2)
            near = rng.random(size) < 0.3
            searched[near] = crit[rng.integers(0, n, near.sum())]
            searched = np.sort(searched) * (
                1.0 + rng.uniform(-1.0, 1.0, size) * slack / 3.0)
            others = np.zeros(int(rng.integers(0, n - size + 1)))
            stepdown = bool(rng.random() < 0.5)
            got, ref, asked = self.both(np.minimum(searched, 1.0), others,
                                        alpha, n, stepdown, slack)
            assert got == ref, (n, size, others.size, stepdown)
            # past _PROBES, only a count in full asks for every position
            opened += size in asked
        assert opened > 20
