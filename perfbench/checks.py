"""Output checks made outside the program, and the broken outputs each must reject.

Every check is split in two: a reference computed here (brute-force nearest
neighbours, a dictionary-based sparse convolution, a feature-space search), and
a comparison of the program's output with that reference.  A comparison
returns a list of problems; an empty list means the output is correct.  The
`broken_*` helpers make a deliberately wrong copy of an output, so that a run
can show each comparison rejecting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# nearest-neighbour search -------------------------------------------------

_CHUNK_ELEMS = 1 << 20  # distance-matrix entries held at once


def nearest_both(x1: np.ndarray, x2: np.ndarray):
    """Brute-force nearest neighbours in both directions.

    Returns, for every x1 row, the index of and distance to its nearest x2
    point, and for every x2 row the distance to its nearest x1 point.  Squared
    distances are summed as dx*dx + dy*dy + dz*dz and ties go to the lowest
    index, the program's documented rule.
    """
    n, m = x1.shape[0], x2.shape[0]
    idx12 = np.empty(n, dtype=np.int64)
    sq12 = np.empty(n)
    sq21 = np.full(m, np.inf)
    rows = max(1, _CHUNK_ELEMS // m)
    for s in range(0, n, rows):
        a = x1[s : s + rows]
        dx = a[:, 0:1] - x2[:, 0]
        dy = a[:, 1:2] - x2[:, 1]
        dz = a[:, 2:3] - x2[:, 2]
        sq = dx * dx + dy * dy + dz * dz
        j = sq.argmin(axis=1)
        idx12[s : s + rows] = j
        sq12[s : s + rows] = sq[np.arange(a.shape[0]), j]
        np.minimum(sq21, sq.min(axis=0), out=sq21)
    return idx12, np.sqrt(sq12), np.sqrt(sq21)


def pair_reference(x1: np.ndarray, x2: np.ndarray, radius: float):
    """(overlap, matches) of a view pair, from the brute-force search."""
    j, d12, d21 = nearest_both(x1, x2)
    frac1 = float(np.count_nonzero(d12 <= radius)) / x1.shape[0]
    frac2 = float(np.count_nonzero(d21 <= radius)) / x2.shape[0]
    i = np.nonzero(d12 <= radius)[0]
    return min(frac1, frac2), np.stack([i, j[i]], axis=1)


@dataclass(frozen=True)
class EmittedPair:
    frames: tuple[int, int]
    matches: np.ndarray
    overlap: float


def compare_pairs(reference: dict, emitted: list[EmittedPair], threshold: float) -> list[str]:
    """`reference` maps every candidate (frame a, frame b) to (overlap, matches)."""
    problems = []
    keys = [p.frames for p in emitted]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append(f"pairs not in canonical order: {keys}")
    for p in emitted:
        if p.frames not in reference:
            problems.append(f"pair {p.frames} is not a candidate")
            continue
        overlap, matches = reference[p.frames]
        if overlap < threshold:
            problems.append(f"pair {p.frames} emitted with reference overlap {overlap!r} < {threshold}")
        if p.overlap != overlap:
            problems.append(f"pair {p.frames} overlap {p.overlap!r} != reference {overlap!r}")
        if p.matches.shape != matches.shape or not np.array_equal(p.matches, matches):
            problems.append(f"pair {p.frames} correspondences differ from the reference")
    for frames, (overlap, matches) in reference.items():
        if frames not in keys and overlap >= threshold and len(matches):
            problems.append(f"candidate {frames} has overlap {overlap!r} >= {threshold} but was not emitted")
    return problems


def broken_pairs(emitted: list[EmittedPair], view_sizes: dict[int, int]) -> list[EmittedPair]:
    """Shift the partner of the first correspondence of the first pair by one point."""
    first = emitted[0]
    m = first.matches.copy()
    m[0, 1] = (m[0, 1] + 1) % view_sizes[first.frames[1]]
    return [replace(first, matches=m), *emitted[1:]]


# sparse convolution ---------------------------------------------------------

_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


def dict_conv(coords: np.ndarray, feats: np.ndarray, kernel: np.ndarray, stride: int):
    """3x3x3 sparse convolution through a coordinate dictionary.

    Output site c sums kernel[k] . feat(stride*c + offset_k) over the input
    sites present; at stride 2 the outputs are the floor-halved input sites.
    Returns {output coordinate: output row}.
    """
    table = {c: r for r, c in enumerate(map(tuple, coords.tolist()))}
    if stride == 1:
        out_sites = list(table)
    else:
        out_sites = sorted({(x >> 1, y >> 1, z >> 1) for x, y, z in table})
    out = np.zeros((len(out_sites), kernel.shape[2]))
    for k, (ox, oy, oz) in enumerate(_OFFSETS):
        dst, src = [], []
        for r, (x, y, z) in enumerate(out_sites):
            nb = table.get((stride * x + ox, stride * y + oy, stride * z + oz))
            if nb is not None:
                dst.append(r)
                src.append(nb)
        if dst:
            np.add.at(out, dst, feats[src] @ kernel[k])
    return {site: out[r] for r, site in enumerate(out_sites)}


def compare_conv(reference: dict, coords: np.ndarray, out: np.ndarray, rel_tol: float = 1e-12) -> list[str]:
    sites = list(map(tuple, coords.tolist()))
    if len(sites) != len(reference) or set(sites) != set(reference):
        return [f"conv output sites differ: {len(sites)} vs reference {len(reference)}"]
    ref = np.stack([reference[s] for s in sites])
    scale = float(np.abs(ref).max()) or 1.0
    err = float(np.abs(out - ref).max()) / scale
    return [] if err <= rel_tol else [f"conv output relative error {err:.3e} > {rel_tol:g}"]


def broken_maps(maps):
    """Drop one entry from the first non-centre kernel offset that has any."""
    maps = list(maps)
    for k, (dst, src) in enumerate(maps):
        if k != len(maps) // 2 and dst.size:
            maps[k] = (dst[1:], src[1:])
            return maps
    raise ValueError("no kernel-map entry to drop")


# feature matching -----------------------------------------------------------

_TIE = 1e-9  # squared feature distances closer than this count as a tie


def own_voxelize(points: np.ndarray, voxel_size: float):
    """(row of every point, lowest point index of every row), rows in
    lexicographic coordinate order."""
    cells = np.floor(points / voxel_size).astype(np.int64)
    _, first, inverse = np.unique(cells, axis=0, return_index=True, return_inverse=True)
    return inverse.reshape(-1), first


def greedy_rows(matches: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """Voxel-row matches, keeping a match only if neither row is used yet."""
    used1, used2, kept = set(), set(), []
    for i, j in matches.tolist():
        a, b = int(rows1[i]), int(rows2[j])
        if a not in used1 and b not in used2:
            used1.add(a)
            used2.add(b)
            kept.append((a, b))
    return np.array(kept, dtype=np.int64).reshape(-1, 2)


def hit_bounds(x1, x2, matches, f1, f2, voxel_size: float, inlier: float):
    """(fewest hits, most hits, matched rows) allowed for one pair.

    Hits are counted with this module's own voxelization and feature-space
    search.  A match whose nearest feature ties to rounding with another, or
    whose error lies on the inlier distance, may go either way.
    """
    rows1, first1 = own_voxelize(x1, voxel_size)
    rows2, first2 = own_voxelize(x2, voxel_size)
    if f1.shape[0] != first1.shape[0] or f2.shape[0] != first2.shape[0]:
        raise ValueError("features are not one row per voxel")
    vm = greedy_rows(matches, rows1, rows2)
    rep2 = x2[first2]
    norms2 = (f2 * f2).sum(axis=1)
    certain = unsure = 0
    step = max(1, _CHUNK_ELEMS // f2.shape[0])
    for s in range(0, vm.shape[0], step):
        src, gt = vm[s : s + step, 0], vm[s : s + step, 1]
        a = f1[src]
        sq = (a * a).sum(axis=1)[:, None] + norms2[None, :] - 2.0 * (a @ f2.T)
        best = sq.min(axis=1)
        tied = (sq <= best[:, None] + _TIE).sum(axis=1) > 1
        d = rep2[sq.argmin(axis=1)] - rep2[gt]
        err = np.sqrt((d * d).sum(axis=1))
        edge = np.abs(err - inlier) <= 1e-12
        sure = ~(tied | edge)
        certain += int(np.count_nonzero(sure & (err <= inlier)))
        unsure += int(np.count_nonzero(~sure))
    return certain, certain + unsure, vm.shape[0]


def compare_eval(bounds: list[tuple[int, int, int]], ratios: list[float], fmr: float, threshold: float) -> list[str]:
    problems = []
    if len(bounds) != len(ratios):
        return [f"{len(ratios)} hit ratios for {len(bounds)} pairs"]
    flags_lo = flags_hi = 0
    for k, ((lo, hi, n), r) in enumerate(zip(bounds, ratios)):
        hits = round(r * n)
        if float(hits) / n != r or not lo <= hits <= hi:
            problems.append(f"pair {k}: hit ratio {r!r} is not hits/{n} with hits in [{lo}, {hi}]")
        flags_lo += lo / n > threshold
        flags_hi += hi / n > threshold
    lo_fmr, hi_fmr = flags_lo / len(bounds), flags_hi / len(bounds)
    if not lo_fmr <= fmr <= hi_fmr:
        problems.append(f"FMR {fmr!r} outside the reference range [{lo_fmr}, {hi_fmr}]")
    if fmr != sum(r > threshold for r in ratios) / len(ratios):
        problems.append(f"FMR {fmr!r} does not follow from the hit ratios")
    return problems


def broken_ratios(bounds, ratios: list[float]) -> list[float]:
    """Flip one hit of the first pair, outside what the reference allows."""
    lo, hi, n = bounds[0]
    hits = hi + 1 if hi < n else lo - 1
    return [hits / n, *ratios[1:]]


# training -------------------------------------------------------------------


def compare_losses(losses: list[float]) -> list[str]:
    """Every logged loss is finite and the last quarter's mean is below the first's."""
    if not losses:
        return ["no loss was logged"]
    if not all(math.isfinite(x) for x in losses):
        return ["a logged loss is not finite"]
    k = max(1, len(losses) // 4)
    first, last = sum(losses[:k]) / k, sum(losses[-k:]) / k
    return [] if last < first else [f"loss did not fall: first {first!r}, last {last!r}"]


def broken_losses(losses: list[float]) -> list[float]:
    return list(reversed(losses))


# files ----------------------------------------------------------------------


def compare_bytes(a: bytes, b: bytes, what: str) -> list[str]:
    return [] if a == b else [f"{what} differ"]


def broken_bytes(data: bytes) -> bytes:
    k = len(data) // 2
    return data[:k] + bytes([data[k] ^ 0x01]) + data[k + 1 :]
