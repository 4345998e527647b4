"""PageRank and weighted PageRank by sparse power iteration.

The update is

    pi_i <- (1 - d) * t_i + d * (sum_j pi_j * w(j->i) / L(j) + D * r_i)

where t is the teleport distribution (uniform for the original
formulation, node-weight proportional for the weighted one), L(j) is the
sum of out-edge weights of j, D is the total score mass sitting on
dangling nodes, and r = t: the dangling mass goes to the teleport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bibliorank.errors import ConfigError, DegenerateTeleportError
from bibliorank.network import AuthorCitationGraph

UNIFORM = "uniform"
CITATION_WEIGHTED = "citation_weighted"
PUBLICATION_WEIGHTED = "publication_weighted"

#: Each teleport kind: the tag of its score files and diagnostics entries,
#: and the graph attribute its weights are proportional to (None: uniform).
TELEPORTS = {
    UNIFORM: ("pagerank", None),
    CITATION_WEIGHTED: ("pagerank_cit", "citations_received"),
    PUBLICATION_WEIGHTED: ("pagerank_pub", "publications"),
}


def variant_label(kind: str, damping: float) -> str:
    """The name of the PageRank variant with teleport ``kind`` at ``damping``."""
    return f"{TELEPORTS[kind][0]}_d{damping:g}"


def make_teleport(g: AuthorCitationGraph, kind: str) -> np.ndarray:
    """The teleport distribution of ``kind``, a key of ``TELEPORTS``, over
    the graph's node ids."""
    attribute = TELEPORTS[kind][1]
    if attribute is None:
        return np.full(g.n_nodes, 1.0 / g.n_nodes)
    raw = getattr(g, attribute).astype(np.float64)
    total = raw.sum()
    if total <= 0:
        raise DegenerateTeleportError(f"degenerate teleport: all {kind} weights are zero")
    return raw / total


#: A solve stops at the first step whose L1 change is below this.
TOLERANCE = 1e-12

#: The largest iteration cap a solve may have.  Near d = 1 the residual's
#: float floor, about eps/(1-d), sits above ``TOLERANCE``, so such a solve
#: would run its whole cap, for hours, and still not converge.
CAP_LIMIT = 100_000


@dataclass(frozen=True)
class PageRankConfig:
    """One solve's damping, checked on construction."""

    damping: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ConfigError(f"dampings must be in [0, 1), got {self.damping}")
        object.__setattr__(self, "damping", abs(self.damping))  # -0.0 is the damping 0
        if self.max_iterations > CAP_LIMIT:
            raise ConfigError(f"dampings: {self.damping} needs up to {self.max_iterations} "
                              f"iterations, more than the {CAP_LIMIT} a solve may take")

    @property
    def max_iterations(self) -> int:
        """The most steps the solve takes.  Each step multiplies the L1
        residual by at most d and the first residual is at most 2, so
        ceil(1 + log(TOLERANCE/2)/log d) steps reach ``TOLERANCE`` (2 at
        d = 0), plus one step of slack, since the bound can be exactly tight."""
        if self.damping == 0:
            return 3
        return math.ceil(1 + math.log(TOLERANCE / 2) / math.log(self.damping)) + 1


@dataclass
class PageRankResult:
    """A solve's scores and convergence diagnostics.  ``error_bound`` bounds
    the L1 distance from ``scores`` to the exact PageRank vector: one step
    contracts the L1 distance between distributions by the damping d, so
    the error is at most d/(1-d) times the last step."""

    scores: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    error_bound: float


def pagerank(g: AuthorCitationGraph, cfg: PageRankConfig | None = None) -> PageRankResult:
    """Original PageRank (uniform teleport)."""
    return weighted_pagerank(g, make_teleport(g, UNIFORM), cfg)


def weighted_pagerank(
    g: AuthorCitationGraph, teleport: np.ndarray, cfg: PageRankConfig | None = None
) -> PageRankResult:
    """PageRank with ``teleport``, a distribution over the graph's node ids.

    With a uniform teleport this is ``pagerank`` exactly.
    """
    cfg = cfg or PageRankConfig()
    n = g.n_nodes
    teleport = np.asarray(teleport, dtype=np.float64)
    if teleport.shape != (n,):
        raise ConfigError(f"teleport shape {teleport.shape} != node count ({n},)")
    if np.any(teleport < 0):
        raise ConfigError("teleport vector has negative entries")
    if not abs(teleport.sum() - 1.0) <= 1e-12:  # a NaN sum fails too
        raise ConfigError(f"teleport vector sums to {teleport.sum()!r}, not 1")
    d = cfg.damping
    trans, dangling_ids = g.transition
    base = (1.0 - d) * teleport

    pi = np.full(n, 1.0 / n)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        nxt = base + d * (trans @ pi + pi[dangling_ids].sum() * teleport)
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < TOLERANCE:
            break
    return PageRankResult(
        scores=pi,
        iterations=iterations,
        final_residual=residual,
        converged=residual < TOLERANCE,
        error_bound=d / (1.0 - d) * residual,
    )
