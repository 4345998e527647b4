"""PageRank and weighted PageRank by sparse power iteration.

The update is

    pi_i <- (1 - d) * t_i + d * (sum_j pi_j * w(j->i) / L(j) + D * r_i)

where t is the teleport distribution (uniform for the original
formulation, node-weight proportional for the weighted one), L(j) is the
sum of out-edge weights of j, D is the total score mass sitting on
dangling nodes, and r is the dangling redistribution distribution
(the teleport vector by default, uniform as an alternative policy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bibliorank.errors import ConfigError, DegenerateTeleportError
from bibliorank.network import AuthorCitationGraph

UNIFORM = "uniform"
CITATION_WEIGHTED = "citation_weighted"
PUBLICATION_WEIGHTED = "publication_weighted"
CUSTOM = "custom"

TELEPORT_KINDS = (UNIFORM, CITATION_WEIGHTED, PUBLICATION_WEIGHTED, CUSTOM)


@dataclass(frozen=True)
class TeleportVector:
    """A probability distribution over graph nodes."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in TELEPORT_KINDS:
            raise ConfigError(f"unknown teleport kind {self.kind!r}")
        v = np.asarray(self.values, dtype=np.float64)
        if np.any(v < 0):
            raise ConfigError("teleport vector has negative entries")
        if abs(v.sum() - 1.0) > 1e-12:
            raise ConfigError(f"teleport vector sums to {v.sum()!r}, not 1")
        object.__setattr__(self, "values", v)


def make_teleport(g: AuthorCitationGraph, kind: str) -> TeleportVector:
    """Build a teleport vector from graph node attributes."""
    n = g.n_nodes
    if kind == UNIFORM:
        return TeleportVector(UNIFORM, np.full(n, 1.0 / n))
    if kind == CITATION_WEIGHTED:
        raw = g.citations_received.astype(np.float64)
    elif kind == PUBLICATION_WEIGHTED:
        raw = g.publications.astype(np.float64)
    else:
        raise ConfigError(f"cannot derive teleport kind {kind!r} from graph attributes")
    total = raw.sum()
    if total <= 0:
        raise DegenerateTeleportError(f"degenerate teleport: all {kind} weights are zero")
    return TeleportVector(kind, raw / total)


@dataclass(frozen=True)
class PageRankConfig:
    damping: float = 0.15
    tolerance: float = 1e-12
    max_iterations: int = 1000
    dangling_policy: str = "teleport"  # or "uniform"

    def __post_init__(self):
        if not (0.0 <= self.damping < 1.0):
            raise ConfigError(f"damping {self.damping} outside [0, 1)")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.dangling_policy not in ("teleport", "uniform"):
            raise ConfigError(f"unknown dangling_policy {self.dangling_policy!r}")


@dataclass
class PageRankResult:
    scores: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    damping: float = 0.15

    @property
    def error_bound(self) -> float:
        """Bound on the L1 distance from ``scores`` to the exact PageRank vector.

        One step contracts the L1 distance between distributions by
        ``damping``, so the error is at most d/(1-d) times the last step.
        """
        return self.damping / (1.0 - self.damping) * self.final_residual


def _power_iteration(
    g: AuthorCitationGraph, teleport: TeleportVector, cfg: PageRankConfig
) -> PageRankResult:
    n = g.n_nodes
    t = teleport.values
    d = cfg.damping

    trans, dangling = g.transition

    if cfg.dangling_policy == "teleport":
        redistribution = t
    else:
        redistribution = np.full(n, 1.0 / n)

    pi = np.full(n, 1.0 / n)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        dangling_mass = pi[dangling].sum()
        nxt = (1.0 - d) * t + d * (trans @ pi + dangling_mass * redistribution)
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < cfg.tolerance:
            break
    return PageRankResult(
        scores=pi,
        iterations=iterations,
        final_residual=residual,
        converged=residual < cfg.tolerance,
        damping=d,
    )


def pagerank(g: AuthorCitationGraph, cfg: PageRankConfig | None = None) -> PageRankResult:
    """Original PageRank (uniform teleport)."""
    cfg = cfg or PageRankConfig()
    uniform = TeleportVector(UNIFORM, np.full(g.n_nodes, 1.0 / g.n_nodes))
    return _power_iteration(g, uniform, cfg)


def weighted_pagerank(
    g: AuthorCitationGraph, teleport: TeleportVector, cfg: PageRankConfig | None = None
) -> PageRankResult:
    """Weighted PageRank with an arbitrary teleport distribution.

    With a uniform teleport this reduces to ``pagerank`` exactly.
    """
    cfg = cfg or PageRankConfig()
    if len(teleport.values) != g.n_nodes:
        raise ConfigError(
            f"teleport length {len(teleport.values)} != node count {g.n_nodes}"
        )
    return _power_iteration(g, teleport, cfg)

