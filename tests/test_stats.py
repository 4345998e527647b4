
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bibliorank.errors import DataError, StatsError
from bibliorank.indicators import ScoreVector, average_ranks
from bibliorank.stats import (
    IndicatorTable,
    eigh_descending,
    pca_varimax,
    significance_flag,
    spearman,
    varimax_rotate,
)
from tests.oracles import (
    exact_spearman_pvalue,
    pearson,
    rank_average,
    spearman_closed_form,
)


class TestSpearman:
    def test_identical(self):
        x = [1, 2, 3, 4]
        r, p = spearman(x, x)
        assert r == 1.0 and p == 0.0

    def test_reversed(self):
        r, p = spearman([1, 2, 3], [3, 2, 1])
        assert r == -1.0 and p == 0.0

    def test_closed_form_example(self):
        # 1 - 6*2/(3*8) = 0.5, cross-checked with Pearson on ranks
        r, _ = spearman([1, 2, 3], [1, 3, 2])
        assert r == pytest.approx(0.5, abs=1e-15)
        assert r == pytest.approx(pearson([1, 2, 3], [1, 3, 2]), abs=1e-15)

    def test_matches_closed_form_on_tie_free_permutations(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            xs = rng.permutation(n) + 1
            ys = rng.permutation(n) + 1
            r, _ = spearman(xs, ys)
            assert abs(r - spearman_closed_form(xs, ys)) < 1e-12

    def test_tie_safe_equals_pearson_on_ranks(self):
        xs = [1.0, 2.5, 2.5, 4.0]
        ys = [2.0, 1.0, 3.5, 3.5]
        r, _ = spearman(xs, ys)
        assert r == pytest.approx(pearson(rank_average([-v for v in xs]),
                                          rank_average([-v for v in ys])), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.random(20)
        base = average_ranks(-scores)
        transformed = average_ranks(-np.exp(3 * scores))
        other = average_ranks(-rng.random(20))
        r1, _ = spearman(base, other)
        r2, _ = spearman(transformed, other)
        assert r1 == pytest.approx(r2, abs=1e-14)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            x = [float(rng.integers(0, 5)) for i in range(n)]
            y = [float(rng.integers(0, 5)) for i in range(n)]
            try:
                rxy, _ = spearman(x, y)
            except StatsError:
                continue
            ryx, _ = spearman(y, x)
            assert rxy == ryx
            assert -1.0 <= rxy <= 1.0

    def test_p_matches_exact_permutation_for_small_n(self):
        # at n in {7, 8} the t-approximation stays within 0.02 of the
        # exact permutation mid-p for every attainable r
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.integers(7, 9))
            xs = list(rng.permutation(n) + 1)
            ys = list(rng.permutation(n) + 1)
            r, p = spearman(xs, ys)
            if abs(r) == 1.0:
                continue
            exact = exact_spearman_pvalue(xs, ys)
            assert abs(p - exact) < 0.02

    def test_errors(self):
        x = [1, 2]
        with pytest.raises(StatsError):
            spearman(x, x)
        const = [1, 1, 1]
        var = [1, 2, 3]
        with pytest.raises(StatsError, match="degenerate"):
            spearman(const, var)

    @pytest.mark.parametrize("x,y", [
        ([1, 2, np.nan, 4], [4, 3, 1, 2]),
        ([4, 3, 1, 2], [1, 2, np.nan, 4]),
        ([np.nan] * 4, [np.nan] * 4),
    ], ids=["x", "y", "both"])
    def test_nan_raises(self, x, y):
        with pytest.raises(StatsError, match="NaN"):
            spearman(x, y)

    def test_inf_ranks(self):
        r, _ = spearman([1, 2, np.inf, -np.inf], [2, 3, 4, 1])
        assert r == 1.0


class TestCorrelationMatrix:
    def _table(self, cols):
        svs = [ScoreVector(name, sorted(vals), [vals[a] for a in sorted(vals)])
               for name, vals in cols.items()]
        return IndicatorTable.from_scores(svs, range(len(svs[0].authors)))

    def test_identical_columns(self):
        vals = {f"a{i}": float(i) for i in range(10)}
        r, _ = self._table({"x": vals, "y": dict(vals)}).correlations
        assert r[0, 1] == 1.0

    def test_single_column(self):
        vals = {f"a{i}": float(i) for i in range(5)}
        r, _ = self._table({"x": vals}).correlations
        assert r.shape == (1, 1) and r[0, 0] == 1.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(77)
        names = [f"a{i}" for i in range(100)]
        cols = {
            f"c{j}": {a: float(rng.random()) for a in names} for j in range(3)
        }
        table = self._table(cols)
        r, p = table.correlations
        labels = list(cols)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                want, wantp = spearman(table.ranks[:, i], table.ranks[:, j])
                assert r[i, j] == want
                assert p[i, j] == wantp
        assert np.array_equal(r, r.T)

    def test_flag_convention(self):
        assert significance_flag(0.2) == "*"
        assert significance_flag(0.05) == "*"
        assert significance_flag(0.03) == "**"
        assert significance_flag(0.01) == "**"
        assert significance_flag(0.001) == ""


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            a = rng.normal(size=(m, m))
            c = (a + a.T) / 2
            vals, vecs = eigh_descending(c)
            want = np.sort(np.linalg.eigvalsh(c))[::-1]
            assert np.allclose(vals, want, atol=1e-10)
            for j in range(m):
                residual = c @ vecs[:, j] - vals[j] * vecs[:, j]
                assert np.max(np.abs(residual)) < 1e-10

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8))
        c = a @ a.T
        _, vecs = eigh_descending(c)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(8))) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(StatsError):
            eigh_descending(np.array([[1.0, 2.0], [0.0, 1.0]]))


# permutation of 1..100 with exactly zero Pearson correlation against
# (1, ..., 100); found once by seeded hill climbing on sum(x*y)
ZERO_CORR_PERM = [
    83, 77, 21, 6, 95, 17, 94, 53, 80, 91, 82, 28, 84, 41, 66, 11, 76, 9,
    14, 19, 98, 24, 23, 35, 51, 99, 86, 45, 72, 5, 26, 71, 59, 40, 96, 58,
    8, 43, 67, 16, 44, 3, 36, 87, 31, 18, 37, 42, 88, 10, 81, 63, 2, 56,
    54, 25, 69, 22, 48, 1, 61, 7, 30, 68, 46, 85, 57, 52, 50, 92, 93, 100,
    38, 64, 13, 33, 97, 47, 20, 15, 62, 39, 89, 32, 90, 49, 78, 75, 12, 60,
    70, 79, 74, 55, 4, 29, 27, 34, 73, 65,
]


def _table_from_matrix(data, labels=None):
    n, m = data.shape
    labels = labels or [f"v{j}" for j in range(m)]
    authors = [f"a{i:03d}" for i in range(n)]
    svs = [ScoreVector(labels[j], authors, data[:, j]) for j in range(m)]
    return IndicatorTable.from_scores(svs, range(n))


class TestPcaVarimax:
    def test_two_block_fixture(self):
        # columns (a, a, b, b) where the rank permutations of a and b have
        # exactly zero Pearson correlation (frozen hill-climbed permutation),
        # so the rank correlation matrix is block diagonal with analytic
        # eigenvalues (2, 2, 0, 0)
        a = np.arange(1, 101, dtype=float)
        b = np.array(ZERO_CORR_PERM, dtype=float)
        data = np.column_stack([-a, -a, -b, -b])  # negated: rank 1 = best score
        res = pca_varimax(_table_from_matrix(data))
        assert np.allclose(np.sort(res.eigenvalues)[::-1], [2, 2, 0, 0], atol=1e-8)
        assert res.n_retained == 2
        explained = res.explained_variance_fractions[:2].sum()
        assert explained == pytest.approx(1.0, abs=1e-8)
        # each rotated component explains one block
        for j in range(2):
            loads = np.abs(res.rotated_loadings[:, j])
            assert set(np.flatnonzero(loads > 0.9)) in ({0, 1}, {2, 3})

    def test_trace_preservation_and_residual(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(80, 6)) @ rng.normal(size=(6, 6))
        table = _table_from_matrix(data)
        res = pca_varimax(table)
        m = 6
        assert abs(res.eigenvalues.sum() - m) < 1e-8
        z = (table.ranks - table.ranks.mean(axis=0)) / table.ranks.std(axis=0, ddof=1)
        corr = z.T @ z / (table.ranks.shape[0] - 1)
        vals, vecs = eigh_descending(corr)
        for j in range(m):
            assert np.max(np.abs(corr @ vecs[:, j] - vals[j] * vecs[:, j])) < 1e-10

    def test_collinear_columns_give_non_negative_eigenvalues(self):
        # a repeated and a reversed column make two eigenvalues exactly 0, which
        # the solver returns with rounding error of either sign
        d = np.random.default_rng(0).normal(size=(50, 3))
        res = pca_varimax(_table_from_matrix(np.column_stack([d, d[:, 0], -d[:, 1]])))
        assert not np.signbit(res.eigenvalues).any()
        assert np.allclose(res.eigenvalues[-2:], 0, atol=1e-12)

    def test_varimax_preserves_communalities_and_orthogonality(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        res = pca_varimax(_table_from_matrix(data))
        assert res.n_retained == 2  # eigenvalues 2.33 and 1.70 are above 1
        before = np.sum(res.loadings**2, axis=1)
        after = np.sum(res.rotated_loadings**2, axis=1)
        assert np.max(np.abs(before - after)) < 1e-8
        rot = res.rotation
        assert np.max(np.abs(rot.T @ rot - np.eye(rot.shape[1]))) < 1e-10

    def test_varimax_criterion_non_decreasing(self):
        rng = np.random.default_rng(41)
        loadings = rng.normal(size=(10, 4))
        _, _, history = varimax_rotate(loadings)
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_simple_structure_is_fixed_point(self):
        # one nonzero per row: criterion already maximal, rotation ~ identity
        loadings = np.zeros((6, 2))
        loadings[:3, 0] = [0.9, 0.8, 0.7]
        loadings[3:, 1] = [0.9, 0.85, 0.6]
        rotated, rot, _ = varimax_rotate(loadings)
        assert np.max(np.abs(np.abs(rot) - np.eye(2))) < 1e-6
        assert np.allclose(np.abs(rotated), np.abs(loadings), atol=1e-6)

    def test_uncorrelated_noise_fixed_k(self):
        rng = np.random.default_rng(51)
        data = rng.normal(size=(200, 4))
        res = pca_varimax(_table_from_matrix(data))
        assert res.n_retained == 2  # eigenvalues 1.13 and 1.07 are above 1
        assert np.all(np.abs(res.eigenvalues - 1.0) < 0.5)

    def test_sign_convention(self):
        # two factors, each in a column and its negation, so two components
        # are retained and each has loadings of both signs
        rng = np.random.default_rng(61)
        f = rng.normal(size=(50, 2))
        data = np.column_stack([f[:, 0], -f[:, 0], f[:, 1], -f[:, 1]])
        data += 0.3 * rng.normal(size=(50, 4))
        res = pca_varimax(_table_from_matrix(data))
        assert res.n_retained == 2
        for j in range(res.n_retained):
            col = res.rotated_loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_errors(self):
        rng = np.random.default_rng(71)
        data = rng.normal(size=(5, 6))
        with pytest.raises(StatsError, match="more authors"):
            pca_varimax(_table_from_matrix(data))
        const = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        # constant column: identical ranks -> zero variance
        with pytest.raises(StatsError, match="zero-variance"):
            pca_varimax(_table_from_matrix(const))


# Score values that tie often: signed zeros, repeats, and a few distinct values.
_TIE_HEAVY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300]),
                       st.floats(-1e6, 1e6))


@st.composite
def _tie_heavy_tables(draw):
    shape = (draw(st.integers(3, 60)), draw(st.integers(1, 13)))
    return _table_from_matrix(draw(arrays(np.float64, shape, elements=_TIE_HEAVY)))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# About a third of the tables have no constant column; the rest check the error.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=_tie_heavy_tables())
def test_one_correlation_matrix_for_table_spearman_and_pca(table):
    n, m = table.ranks.shape
    constant = [label for label, col in zip(table.indicators, table.ranks.T)
                if np.all(col == col[0])]
    if constant:
        with pytest.raises(StatsError, match="degenerate ranking: zero-variance") as exc:
            table.correlations
        assert repr(constant) in str(exc.value)
        return
    r, p = table.correlations
    assert np.array_equal(_bits(r), _bits(r.T))
    assert np.array_equal(_bits(np.diag(r)), _bits(np.ones(m)))
    assert np.array_equal(_bits(np.diag(p)), _bits(np.zeros(m)))
    assert np.max(np.abs(r - np.corrcoef(table.ranks, rowvar=False))) <= 1e-12
    for i in range(m):
        for j in range(i + 1, m):
            rij, pij = spearman(table.ranks[:, i], table.ranks[:, j])
            assert _bits(rij) == _bits(r[i, j]) and _bits(pij) == _bits(p[i, j])
    if n > m:
        want = np.maximum(eigh_descending(r)[0], 0.0)
        assert np.array_equal(_bits(pca_varimax(table).eigenvalues), _bits(want))


class TestIndicatorTable:
    def test_rank_sum_identity_per_column(self):
        rng = np.random.default_rng(81)
        data = rng.integers(0, 4, size=(30, 3)).astype(float)
        table = _table_from_matrix(data)
        n = 30
        for j in range(3):
            assert table.ranks[:, j].sum() == pytest.approx(n * (n + 1) / 2)

    def test_vectors_over_different_authors_rejected(self):
        a = ScoreVector("a", ["A", "B", "C"], [3.0, 2.0, 1.0])
        b = ScoreVector("b", ["A", "B", "D"], [3.0, 2.0, 1.0])
        message = "^score vectors 'a' and 'b' list different authors$"
        with pytest.raises(DataError, match=message) as info:
            IndicatorTable.from_scores([a, b], [0, 1, 2])
        assert type(info.value) is DataError  # not a StatsError, which skips the stats
