"""Contrastive objectives over matched point features, with analytic gradients.

Two variants:

* ``info_nce``: softmax cross-entropy over the similarity matrix of the two
  matched feature sets, temperature tau.  Row k's positive is column k; all
  other matched columns act as negatives.  Mean reduction over rows.
* ``hardest_contrastive``: margin loss pushing matched features within m_p
  and each anchor's hardest mined negative beyond m_n:

      sum_pairs [d(f1, f2) - m_p]_+^2 / n_pos
      + 0.5 * mean_anchors [m_n - min_k d(f1, neg_k)]_+^2
      + 0.5 * mean_anchors [m_n - min_k d(f2, neg_k)]_+^2

  with Euclidean d, mining pools drawn from the opposite view, and the
  positive partner excluded from its anchor's pool.  Hinge subgradient at
  the boundary is 0; argmin ties resolve to the lowest pool index; gradients
  flow only to the argmin negative.

Feature rows are expected L2-normalized for the margin loss (the margins
assume unit-norm geometry); normalization helpers with exact Jacobians are
provided here and applied by the trainer for both variants by default.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import ConfigMixin
from .geometry import BLOCK_ELEMENTS, pairwise_sq_dists

log = logging.getLogger(__name__)

VARIANT_INFO_NCE = "info_nce"
VARIANT_HARDEST = "hardest_contrastive"
_TINY = 1e-12


@dataclass(frozen=True)
class LossConfig(ConfigMixin):
    variant: str = VARIANT_INFO_NCE
    tau: float = 0.07
    ns: int = 4096  # matched-pair subsample for info_nce
    m_p: float = 0.1
    m_n: float = 1.4
    pos_sample: int = 1024  # matched-pair subsample for hardest_contrastive
    hardest_neg_sample: int = 256  # mining pool size per direction
    normalize_features: bool = True
    # mining candidates closer than this (meters) to the anchor's true partner
    # are false negatives and excluded; 0 excludes only the partner itself
    neg_exclude_radius: float = 0.0

    def __post_init__(self):
        if self.variant not in (VARIANT_INFO_NCE, VARIANT_HARDEST):
            raise ValueError(f"unknown loss variant '{self.variant}'")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.ns < 2:
            raise ValueError("ns must be >= 2")
        if not 0.0 <= self.m_p < self.m_n:
            raise ValueError("require 0 <= m_p < m_n")
        if self.pos_sample < 1 or self.hardest_neg_sample < 0:
            raise ValueError("pos_sample >= 1 and hardest_neg_sample >= 0 required")
        if self.neg_exclude_radius < 0:
            raise ValueError("neg_exclude_radius must be non-negative")


@dataclass(frozen=True)
class MatchBatch:
    """Row-aligned matched features: row k of f1 corresponds to row k of f2.

    idx1/idx2 track the source rows in the per-view feature matrices so that
    gradients and mining exclusions can be scattered back.
    """

    f1: np.ndarray
    f2: np.ndarray
    idx1: np.ndarray
    idx2: np.ndarray

    def __post_init__(self):
        if self.f1.shape != self.f2.shape:
            raise ValueError(f"f1 and f2 must be congruent, got {self.f1.shape} vs {self.f2.shape}")
        if self.idx1.shape[0] != self.f1.shape[0] or self.idx2.shape[0] != self.f1.shape[0]:
            raise ValueError("index arrays must have one entry per row")

    def __len__(self) -> int:
        return self.f1.shape[0]

    @classmethod
    def from_features(cls, f1: np.ndarray, f2: np.ndarray) -> "MatchBatch":
        """Batch without source bookkeeping (indices -1: nothing is excluded)."""
        n = f1.shape[0]
        return cls(f1, f2, np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64))


def subsample_matches(
    matches: np.ndarray,
    f1_all: np.ndarray,
    f2_all: np.ndarray,
    ns: int,
    rng: np.random.Generator,
) -> MatchBatch:
    """Uniform sample without replacement of min(ns, M) of the (M, 2) int64
    row matches.

    When ns >= M all matches are kept in their original order.
    """
    count = matches.shape[0]
    if count < 1:
        raise ValueError("cannot subsample an empty correspondence map")
    if ns < count:
        sel = rng.choice(count, size=ns, replace=False)
        matches = matches[sel]
    i, j = matches[:, 0], matches[:, 1]
    return MatchBatch(f1_all[i], f2_all[j], i.copy(), j.copy())


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm; zero rows are an error."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    if np.any(norms <= 0.0):
        raise ValueError("cannot L2-normalize a zero feature row")
    return features / norms


def l2_normalize_rows_with_grad(features: np.ndarray):
    """Normalized rows plus a VJP closure mapping d_normalized -> d_raw.

    Zero rows stay zero and receive zero gradient, so a dead output row
    cannot stop a training step or an evaluation (`l2_normalize_rows`
    raises on them instead).
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    zero = norms <= 0.0
    if zero.any():
        norms = np.where(zero, 1.0, norms)
    unit = features / norms

    def vjp(d_unit: np.ndarray) -> np.ndarray:
        # d_raw = (d_unit - unit * <unit, d_unit>) / norm
        inner = (unit * d_unit).sum(axis=1, keepdims=True)
        d_raw = (d_unit - unit * inner) / norms
        if zero.any():
            d_raw = np.where(zero, 0.0, d_raw)
        return d_raw

    return unit, vjp


@dataclass(frozen=True)
class InfoNceResult:
    loss: float
    grad_f1: np.ndarray
    grad_f2: np.ndarray


def info_nce(batch: MatchBatch, tau: float) -> InfoNceResult:
    """Softmax cross-entropy over f1 @ f2.T / tau with diagonal labels.

    Memory: the rows of f1 are taken in blocks of max(1, BLOCK_ELEMENTS // n),
    so one block of logits (at most 8 MiB at n <= 2^20) is held at a time.
    Each row's softmax needs only its own row, so a block is complete as it
    stands.  In the block buffer the logits become the softmax and then the
    logit gradient; each step is done in place with the same elementwise
    operations, in the same order, as the out-of-place form.  grad_f1 takes
    the block's rows and grad_f2 sums every block's contribution.  When
    n * n <= BLOCK_ELEMENTS one block covers the batch and the result is
    bitwise that of the unblocked computation; with more blocks the GEMMs
    and the grad_f2 sum round differently.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    n = len(batch)
    if n < 1:
        raise ValueError("info_nce needs at least one match")
    f1, f2 = batch.f1, batch.f2
    rows = max(1, BLOCK_ELEMENTS // n)
    terms = np.empty(n)  # per-row log-softmax of the positive
    grad_f1 = np.empty_like(f1)
    grad_f2 = None
    for start in range(0, n, rows):
        r = slice(start, start + rows)
        z = f1[r] @ f2.T
        z /= tau
        if not np.isfinite(z).all():
            raise FloatingPointError("non-finite logits in info_nce")
        diag = z.reshape(-1)[start :: n + 1]  # view of entries (k, start + k)
        row_max = z.max(axis=1, keepdims=True)
        shifted_diag = diag - row_max[:, 0]  # taken before z is overwritten
        z -= row_max
        np.exp(z, out=z)
        denom = z.sum(axis=1, keepdims=True)
        terms[r] = shifted_diag - np.log(denom)[:, 0]
        z /= denom
        diag -= 1.0
        z /= n
        grad_f1[r] = z @ f2 / tau
        part = z.T @ f1[r]
        if grad_f2 is None:  # kept as is: adding it to zeros would turn -0.0 into +0.0
            grad_f2 = part
        else:
            grad_f2 += part
        del z, diag  # freed before the next block's logits are allocated
    grad_f2 /= tau
    return InfoNceResult(float(-terms.mean()), grad_f1, grad_f2)


@dataclass(frozen=True)
class NegativePool:
    """Mining candidates for one direction: feature rows plus their source
    row indices in the view they were drawn from."""

    features: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        if self.features.shape[0] != self.sources.shape[0]:
            raise ValueError("one source index per pool row required")

    def __len__(self) -> int:
        return self.features.shape[0]


def sample_negative_pool(features: np.ndarray, size: int, rng: np.random.Generator) -> NegativePool:
    """Uniform sample without replacement from a view's feature rows."""
    n = features.shape[0]
    sel = rng.choice(n, size=min(size, n), replace=False) if size < n else np.arange(n)
    return NegativePool(features[sel], sel.astype(np.int64))


@dataclass(frozen=True)
class HardestContrastiveResult:
    loss: float
    grad_f1: np.ndarray
    grad_f2: np.ndarray
    grad_neg1: np.ndarray | None
    grad_neg2: np.ndarray | None


def _mine_hardest(anchors, partner_src, pool: NegativePool, partner_pos=None,
                  pool_pos=None, exclude_radius=0.0):
    """Per-anchor hardest pool candidate, partner excluded.

    When candidate and partner positions are given, candidates within
    `exclude_radius` of the anchor's partner are excluded as false negatives.
    Returns (argmin pool row, min distance, validity mask); an anchor whose
    whole pool is excluded is invalid.
    """
    dist = np.sqrt(pairwise_sq_dists(anchors, pool.features))
    dist[pool.sources[None, :] == partner_src[:, None]] = np.inf  # exclude the partner
    if exclude_radius > 0.0 and partner_pos is not None and pool_pos is not None:
        gap = np.sqrt(pairwise_sq_dists(partner_pos, pool_pos))
        dist[gap <= exclude_radius] = np.inf
    arg = dist.argmin(axis=1)  # ties: lowest pool index
    dmin = dist[np.arange(dist.shape[0]), arg]
    valid = np.isfinite(dmin)
    return arg, dmin, valid


def hardest_contrastive(
    batch: MatchBatch,
    neg1: NegativePool | None,
    neg2: NegativePool | None,
    cfg: LossConfig,
    positions1: np.ndarray | None = None,
    positions2: np.ndarray | None = None,
) -> HardestContrastiveResult:
    """Margin loss with hardest-negative mining.

    neg1 holds candidates (drawn from view 2) mined against f1 anchors, neg2
    candidates (drawn from view 1) mined against f2 anchors.  An empty or
    missing pool drops that direction's term, leaving the positive term.
    positions1/positions2 are the per-row 3D points of the two views; they
    enable the false-negative exclusion radius (cfg.neg_exclude_radius).
    """
    n_pos = len(batch)
    if n_pos > cfg.pos_sample:
        raise ValueError(f"positive sample {n_pos} exceeds configured limit {cfg.pos_sample}")
    for pool in (neg1, neg2):
        if pool is not None and len(pool) > cfg.hardest_neg_sample:
            raise ValueError(
                f"negative pool {len(pool)} exceeds configured limit {cfg.hardest_neg_sample}"
            )
    if (neg1 is None or len(neg1) == 0) and (neg2 is None or len(neg2) == 0):
        log.warning("hardest_contrastive: empty negative pools; positive term only")
    diff = batch.f1 - batch.f2
    d_pos = np.sqrt((diff * diff).sum(axis=1))
    pos_hinge = np.maximum(d_pos - cfg.m_p, 0.0)
    loss = float((pos_hinge**2).sum() / n_pos)
    grad_f1 = np.zeros_like(batch.f1)
    grad_f2 = np.zeros_like(batch.f2)
    pos_active = (pos_hinge > 0.0) & (d_pos > _TINY)
    if pos_active.any():
        coef = (2.0 * pos_hinge[pos_active] / (n_pos * d_pos[pos_active]))[:, None]
        g = coef * diff[pos_active]
        grad_f1[pos_active] += g
        grad_f2[pos_active] -= g

    grad_neg1 = grad_neg2 = None
    for direction, anchors, partner_src, pool, view_pos in (
        (1, batch.f1, batch.idx2, neg1, positions2),
        (2, batch.f2, batch.idx1, neg2, positions1),
    ):
        if pool is None or len(pool) == 0:
            continue
        partner_pos = view_pos[partner_src] if view_pos is not None else None
        pool_pos = view_pos[pool.sources] if view_pos is not None else None
        arg, dmin, valid = _mine_hardest(
            anchors, partner_src, pool, partner_pos, pool_pos, cfg.neg_exclude_radius
        )
        n_valid = int(valid.sum())
        if n_valid == 0:
            continue
        hinge = np.maximum(cfg.m_n - dmin, 0.0)  # invalid anchors: m_n - inf -> 0
        loss += float(0.5 * (hinge**2).sum() / n_valid)
        g_anchor = np.zeros_like(anchors)
        g_pool = np.zeros_like(pool.features)
        active = valid & (hinge > 0.0) & (dmin > _TINY)
        if active.any():
            rows = np.nonzero(active)[0]
            coef = (-(hinge[rows]) / (n_valid * dmin[rows]))[:, None]  # 0.5 * 2 = 1
            delta = anchors[rows] - pool.features[arg[rows]]
            g_anchor[rows] = coef * delta
            np.add.at(g_pool, arg[rows], -coef * delta)
        if direction == 1:
            grad_f1 += g_anchor
            grad_neg1 = g_pool
        else:
            grad_f2 += g_anchor
            grad_neg2 = g_pool
    return HardestContrastiveResult(loss, grad_f1, grad_f2, grad_neg1, grad_neg2)


def collapse_metric(features: np.ndarray) -> float:
    """Mean per-dimension standard deviation of L2-normalized rows.

    Zero exactly when all rows coincide after normalization (the mode-collapse
    signature); zero rows are left at zero rather than raising.
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    unit = np.divide(features, norms, out=np.zeros_like(features), where=norms > 0)
    # shifting by the first row leaves the std unchanged but makes the
    # identical-rows case exactly zero instead of mean-rounding noise
    return float((unit - unit[0]).std(axis=0).mean())
