"""Rank statistics: Spearman correlation with significance, and PCA with
varimax rotation over an authors x indicators rank matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import stdtr

from bibliorank.errors import ConfigError, StatsError
from bibliorank.indicators import ScoreVector, average_ranks, shared_authors


def check_subset_size(size: int, n_indicators: int) -> None:
    """Refuse a rank-table subset too small for a Spearman correlation, or
    no larger than its ``n_indicators`` columns, which PCA needs it to exceed."""
    if size < 3:
        raise ConfigError(f"subset_size must be >= 3, got {size}")
    if size <= n_indicators:
        raise ConfigError(f"subset_size must be larger than the {n_indicators} indicators "
                          f"for PCA, got {size}")


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation with a two-tailed t-approximation p-value.

    ``x`` and ``y`` are aligned value arrays (scores or ranks); each is
    ranked on its own, so the direction of the values cancels.  Tie-safe:
    tied values share their average rank.  NaN is an error; inf ranks.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise StatsError(f"value arrays differ in shape: {x.shape} vs {y.shape}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise StatsError("cannot rank NaN values")
    r, p = rank_correlations(np.column_stack([average_ranks(x), average_ranks(y)]), ["x", "y"])
    return float(r[0, 1]), float(p[0, 1])


def rank_correlations(ranks: np.ndarray, labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Spearman r and its two-tailed t-approximation p for every column pair
    of an (authors x indicators) rank matrix whose columns are ``labels``.

    r is the Pearson correlation of the rank columns, which reduces to
    1 - 6*sum(d^2)/(n(n^2-1)) without ties.  Average ranks are multiples of
    1/2 with mean (n+1)/2, so the centred ranks, their products and sums
    are exact (for n below about 10^5) whatever order BLAS sums in: each r
    is the same float in any table, ``spearman`` included.  r is exactly
    symmetric with a diagonal of exactly 1, where p is 0.
    """
    n = ranks.shape[0]
    if n < 3:
        raise StatsError(f"need at least 3 authors, got {n}")
    d = ranks - ranks.mean(axis=0)
    gram = d.T @ d
    var = np.diag(gram)
    if not var.all():
        bad = [labels[j] for j in np.flatnonzero(var == 0)]
        raise StatsError(f"degenerate ranking: zero-variance columns {bad!r}")
    r = np.clip(gram / np.sqrt(np.outer(var, var)), -1.0, 1.0)
    with np.errstate(divide="ignore"):  # |r| = 1: t is infinite and p is 0
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
    return r, 2.0 * stdtr(n - 2, -np.abs(t))


@dataclass
class IndicatorTable:
    """Fractional ranks of a common author subset across indicators.

    Each column is re-ranked within the subset, so every column satisfies
    the rank-sum identity n(n+1)/2.
    """

    authors: list[str]
    indicators: list[str]
    ranks: np.ndarray  # shape (n authors, m indicators)

    @classmethod
    def from_scores(cls, score_vectors: list[ScoreVector], rows) -> "IndicatorTable":
        """The table of ``score_vectors``, which share one author list, over
        its distinct node ids ``rows``, such as ``top_k`` returns."""
        authors = shared_authors(score_vectors)
        return cls(
            authors=[authors[i] for i in rows],
            indicators=[sv.name for sv in score_vectors],
            ranks=np.column_stack([average_ranks(-sv.values[rows]) for sv in score_vectors]),
        )

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """The Spearman (r, p) matrices over the indicator columns, from
        ``rank_correlations``; computed once, for both the correlation
        table and the PCA."""
        return rank_correlations(self.ranks, self.indicators)


def significance_flag(p: float) -> str:
    """Flag convention: * not significant at 0.05, ** not at 0.01."""
    if p >= 0.05:
        return "*"
    if p >= 0.01:
        return "**"
    return ""


def eigh_descending(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by ``numpy.linalg.eigh``.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue;
    eigenvectors are columns.
    """
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m) or not np.allclose(a, a.T, atol=1e-12):
        raise StatsError("eigh_descending requires a symmetric square matrix")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return eigenvalues[::-1], eigenvectors[:, ::-1]


def _varimax_criterion(loadings: np.ndarray) -> float:
    p, _ = loadings.shape
    sq = loadings**2
    return float(np.sum(np.sum(sq**2, axis=0) / p - (np.sum(sq, axis=0) / p) ** 2))


def varimax_rotate(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Varimax rotation with Kaiser normalization.

    Rows are divided by their communality square roots, pairwise planar
    rotations maximize the varimax criterion, for at most 100 sweeps, until
    improvement per sweep drops below 1e-10, and rows are denormalized.
    Returns (rotated loadings, rotation matrix, criterion history).
    """
    a = np.array(loadings, dtype=np.float64)
    p, k = a.shape
    comm = np.sqrt(np.sum(a**2, axis=1))
    scale = np.where(comm > 0, comm, 1.0)
    a /= scale[:, None]
    rot = np.eye(k)
    history = [_varimax_criterion(a)]
    if k > 1:
        for _ in range(100):
            for i in range(k - 1):
                for j in range(i + 1, k):
                    x = a[:, i]
                    y = a[:, j]
                    u = x * x - y * y
                    w = 2.0 * x * y
                    su = u.sum()
                    sw = w.sum()
                    num = 2.0 * (u @ w) - 2.0 * su * sw / p
                    den = (u @ u - w @ w) - (su * su - sw * sw) / p
                    phi = 0.25 * math.atan2(num, den)
                    if abs(phi) < 1e-15:
                        continue
                    c = math.cos(phi)
                    s = math.sin(phi)
                    xi = c * x + s * y
                    yj = -s * x + c * y
                    a[:, i] = xi
                    a[:, j] = yj
                    ri = c * rot[:, i] + s * rot[:, j]
                    rj = -s * rot[:, i] + c * rot[:, j]
                    rot[:, i] = ri
                    rot[:, j] = rj
            history.append(_varimax_criterion(a))
            if history[-1] - history[-2] < 1e-10:
                break
    a *= scale[:, None]
    return a, rot, history


def _fix_column_signs(loadings: np.ndarray) -> np.ndarray:
    peak = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(loadings.shape[1])]
    return np.where(peak < 0, -loadings, loadings)


@dataclass
class PcaResult:
    labels: list[str]
    eigenvalues: np.ndarray  # all m, descending, none below 0
    explained_variance_fractions: np.ndarray
    n_retained: int
    loadings: np.ndarray  # unrotated, m x k, sign-fixed
    rotated_loadings: np.ndarray  # m x k, sign-fixed
    communalities: np.ndarray  # per variable over retained components
    loading_cutoff: float  # |loading| above it is salient
    rotation: np.ndarray
    criterion_history: list[float]


def parse_retention(spec: str, n_indicators: int) -> int | None:
    """The pca_retention setting -> the number of components it fixes:
    None for `kaiser` (eigenvalue > 1, at least one), K for `fixed:K`
    with 1 <= K <= ``n_indicators``."""
    mode, colon, value = spec.partition(":")
    mode = mode.strip()
    if mode == "kaiser" and not colon:
        return None
    if mode == "fixed" and value.strip().isdecimal() and 1 <= int(value) <= n_indicators:
        return int(value)
    raise ConfigError(f"pca_retention must be kaiser or fixed:K with 1 <= K <= {n_indicators}, "
                      f"the number of indicators, got {spec!r}")


def check_cutoff(cutoff: float) -> None:
    """Refuse a salient-loading cutoff outside [0, 1], nan included."""
    if not 0.0 <= cutoff <= 1.0:
        raise ConfigError(f"loading_cutoff must be in [0, 1], got {cutoff}")


def pca_varimax(
    table: IndicatorTable, retention: str = "kaiser", loading_cutoff: float = 0.4
) -> PcaResult:
    """Correlation-matrix PCA of the rank table with varimax rotation.

    The Spearman matrix ``table.correlations`` is diagonalized with
    ``numpy.linalg.eigh``; components are retained as ``parse_retention``
    reads ``retention``; loadings are rotated by varimax with Kaiser
    normalization and sign-fixed so the largest magnitude entry of each
    column is positive.
    """
    n, m = table.ranks.shape
    fixed_k = parse_retention(retention, m)
    check_cutoff(loading_cutoff)
    if n <= m:
        raise StatsError(f"need more authors ({n}) than indicators ({m})")
    corr, _ = table.correlations
    eigenvalues, eigenvectors = eigh_descending(corr)
    # corr is positive semidefinite, so a negative eigenvalue is rounding error
    eigenvalues = np.maximum(eigenvalues, 0.0)
    k = max(1, int(np.count_nonzero(eigenvalues > 1.0))) if fixed_k is None else fixed_k

    loadings = eigenvectors[:, :k] * np.sqrt(eigenvalues[:k])
    loadings = _fix_column_signs(loadings)
    rotated, rotation, history = varimax_rotate(loadings)
    rotated = _fix_column_signs(rotated)
    return PcaResult(
        labels=list(table.indicators),
        eigenvalues=eigenvalues,
        explained_variance_fractions=eigenvalues / m,
        n_retained=k,
        loadings=loadings,
        rotated_loadings=rotated,
        communalities=np.sum(rotated**2, axis=1),
        loading_cutoff=loading_cutoff,
        rotation=rotation,
        criterion_history=history,
    )
