import json
import logging
import os

import numpy as np
import pytest

from pointpair.evaluate import (
    FmrConfig,
    coordinate_feature_fn,
    feature_match_recall,
    hit_ratio,
    model_feature_fn,
    random_feature_fn,
    voxelize_pair,
    write_report,
)
from pointpair.geometry import PointCloud, RigidScaleTransform, apply_transform
from pointpair.losses import l2_normalize_rows_with_grad
from pointpair.net.unet import UNet, UNetConfig
from pointpair.pairs import CorrespondenceMap, ScenePair, compute_correspondences
from pointpair.verify import tiny_unet_config
from pointpair.voxel import quantize

VOX = 0.05


def _duplicate_pair(rng, n=400):
    pts = rng.uniform(0, 2, (n, 3))
    x1 = PointCloud(pts)
    x2 = PointCloud(pts.copy())
    m = compute_correspondences(x1, x2, 1e-9)
    return ScenePair(x1, x2, m, 1.0)


class TestHitRatio:
    def test_coordinate_features_on_duplicate_views(self, rng):
        pair = _duplicate_pair(rng)
        fn = coordinate_feature_fn(VOX)
        f1, f2 = fn(pair)
        assert hit_ratio(pair, f1, f2, 0.1, VOX) == 1.0

    def test_random_features_score_poorly(self, rng):
        pts = rng.uniform(0, 4, (800, 3))
        pair = ScenePair(PointCloud(pts), PointCloud(pts.copy()),
                         compute_correspondences(PointCloud(pts), PointCloud(pts), 1e-9), 1.0)
        fn = random_feature_fn(16, 3, VOX)
        f1, f2 = fn(pair)
        assert hit_ratio(pair, f1, f2, 0.1, VOX) < 0.05

    def test_constant_features_match_tie_break_oracle(self, rng):
        pair = _duplicate_pair(rng, 200)
        vp = voxelize_pair(pair, VOX)
        f1 = np.ones((len(vp.s1), 4))
        f2 = np.ones((len(vp.s2), 4))
        got = hit_ratio(pair, f1, f2, 0.1, VOX)
        # all feature distances tie, so every query resolves to row 0
        rep2 = pair.x2.points[vp.s2.first_points]
        hits = np.linalg.norm(rep2[0] - rep2[vp.row_matches[:, 1]], axis=1) <= 0.1
        assert got == pytest.approx(hits.mean(), abs=1e-15)

    def test_bounded(self, rng):
        pair = _duplicate_pair(rng, 100)
        fn = random_feature_fn(8, 0, VOX)
        f1, f2 = fn(pair)
        assert 0.0 <= hit_ratio(pair, f1, f2, 0.1, VOX) <= 1.0

    def test_invariant_under_joint_voxel_aligned_translation(self, rng):
        pair = _duplicate_pair(rng, 300)
        fn = random_feature_fn(8, 1, VOX)
        f1, f2 = fn(pair)
        base = hit_ratio(pair, f1, f2, 0.1, VOX)
        shift = RigidScaleTransform(np.eye(3), np.array([3, -2, 5]) * VOX, 1.0)
        moved = ScenePair(
            apply_transform(pair.x1, shift),
            apply_transform(pair.x2, shift),
            pair.correspondences,
            pair.overlap,
        )
        assert hit_ratio(moved, f1, f2, 0.1, VOX) == base

    def test_misaligned_features_rejected(self, rng):
        pair = _duplicate_pair(rng, 50)
        with pytest.raises(ValueError):
            hit_ratio(pair, np.zeros((3, 2)), np.zeros((3, 2)), 0.1, VOX)


class TestFmr:
    def test_coordinate_baseline_on_duplicates(self, rng):
        pairs = [_duplicate_pair(rng, 150) for _ in range(4)]
        report = feature_match_recall(pairs, coordinate_feature_fn(VOX), FmrConfig(), VOX)
        assert report.fmr == 1.0
        assert report.mean_hit_ratio == 1.0

    def test_baselines_stay_float64(self, rng):
        pair = _duplicate_pair(rng, 60)
        for fn in (coordinate_feature_fn(VOX), random_feature_fn(8, 7, VOX)):
            assert {f.dtype for f in fn(pair)} == {np.dtype(np.float64)}

    def test_random_features_fail_on_separated_views(self, rng):
        pts = rng.uniform(0, 5, (1200, 3))
        pc = PointCloud(pts)
        pairs = [ScenePair(pc, PointCloud(pts.copy()),
                           compute_correspondences(pc, pc, 1e-9), 1.0) for _ in range(4)]
        report = feature_match_recall(pairs, random_feature_fn(8, 7, VOX), FmrConfig(), VOX)
        assert report.fmr <= 0.25

    def test_model_eval_never_mutates_params(self, rng):
        cfg = tiny_unet_config()
        cfg = type(cfg)(levels=2, channels=(3, 4), blocks_per_level=1, in_dim=1, out_dim=3)
        params = UNet(cfg).init_params(0)
        digest = params.digest()
        pair = _duplicate_pair(rng, 200)
        report = feature_match_recall([pair], model_feature_fn(params, cfg, VOX), FmrConfig(), VOX)
        assert params.digest() == digest
        assert 0.0 <= report.fmr <= 1.0

    def test_report_files(self, rng, tmp_path):
        pairs = [_duplicate_pair(rng, 100) for _ in range(3)]
        report = feature_match_recall(pairs, coordinate_feature_fn(VOX), FmrConfig(), VOX,
                                      pair_ids=["a", "b", "c"])
        write_report(str(tmp_path), report, FmrConfig())
        lines = (tmp_path / "eval_pairs.csv").read_text().strip().splitlines()
        assert lines[0] == "pair_id,hit_ratio,inlier"
        assert len(lines) == 4
        summary = json.loads((tmp_path / "eval_summary.json").read_text())
        assert summary["fmr"] == 1.0
        assert summary["pairs"] == 3
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_warns_once_when_the_distance_makes_every_match_a_hit(self, rng, caplog):
        pairs = [_duplicate_pair(rng, 150) for _ in range(3)]
        random_fn = random_feature_fn(8, 7, VOX)
        with caplog.at_level(logging.WARNING, logger="pointpair.evaluate"):
            report = feature_match_recall(pairs, random_fn, FmrConfig(inlier_distance=1e3), VOX)
            assert report.fmr == 1.0
            assert [r.levelno for r in caplog.records] == [logging.WARNING]
            assert "in 3 of 3 pairs (first: pair0000)" in caplog.records[0].getMessage()
            caplog.clear()
            # at the default distance, random features miss and spatial ones hit: no warning
            feature_match_recall(pairs, random_fn, FmrConfig(), VOX)
            feature_match_recall(pairs, coordinate_feature_fn(VOX), FmrConfig(), VOX)
            assert caplog.records == []
            # the bound is the diagonal of view 2's representative points
            rep2 = pairs[0].x2.points[quantize(pairs[0].x2, VOX).first_points]
            diagonal = float(np.linalg.norm(rep2.max(axis=0) - rep2.min(axis=0)))
            feature_match_recall(pairs[:1], coordinate_feature_fn(VOX), FmrConfig(np.nextafter(diagonal, 0)), VOX)
            assert caplog.records == []
            feature_match_recall(pairs[:1], coordinate_feature_fn(VOX), FmrConfig(diagonal), VOX)
            assert len(caplog.records) == 1

    def test_pair_ids_must_match_the_pairs(self, rng):
        pairs = [_duplicate_pair(rng, 50) for _ in range(3)]
        with pytest.raises(ValueError, match="2 pair ids for 3 pairs"):
            feature_match_recall(pairs, coordinate_feature_fn(VOX), FmrConfig(), VOX, pair_ids=["a", "b"])

    def test_config_validation(self):
        # a hit ratio is at most 1, so a threshold of 1 or more would give FMR 0 by construction
        for key, value in [("inlier_distance", 0.0), ("inlier_distance", float("nan")),
                           ("inlier_distance", float("inf")),
                           ("inlier_ratio_threshold", 0.0), ("inlier_ratio_threshold", 1.0),
                           ("inlier_ratio_threshold", 2.0), ("inlier_ratio_threshold", float("nan"))]:
            with pytest.raises(ValueError, match=key):
                FmrConfig(**{key: value})


def _tiny_cfg(in_dim=1):
    return UNetConfig(levels=2, channels=(3, 4), blocks_per_level=1, in_dim=in_dim, out_dim=3)


def _forward_features(params, cfg, view, normalize):
    """One view's features straight from the network."""
    out, _ = UNet(cfg).forward(quantize(view, VOX), params, "eval")
    if not normalize:
        return out.features
    return l2_normalize_rows_with_grad(out.features)[0]


def _pair(x1, x2):
    return ScenePair(x1, x2, CorrespondenceMap(np.array([[0, 0]])), 1.0)


class TestViewReuse:
    """`model_feature_fn` runs the network once per view the previous pair
    does not hold, and returns what fresh forwards would."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []
        forward = UNet.forward

        def counting(self, inp, params, mode="train"):
            calls.append(len(inp))
            return forward(self, inp, params, mode)

        monkeypatch.setattr(UNet, "forward", counting)
        return calls

    @staticmethod
    def _views(rng, k, n=150):
        return [PointCloud(rng.uniform(0, 1, (n + 10 * i, 3))) for i in range(k)]

    def test_shared_views_bitwise_equal_fresh_forwards_and_run_once(self, rng, counted):
        cfg = _tiny_cfg()
        params = UNet(cfg).init_params(2)
        a, b, c, d = self._views(rng, 4)
        a_again = PointCloud(a.points.copy())  # equal values in a new object
        pairs = [_pair(a, b), _pair(b, c), _pair(c, b), _pair(a_again, b), _pair(d, a), _pair(d, a)]
        new_views = [2, 1, 0, 1, 1, 0]

        fn = model_feature_fn(params, cfg, VOX)
        for pair, n_new in zip(pairs, new_views):
            before = len(counted)
            got = fn(pair)
            assert len(counted) - before == n_new
            want = model_feature_fn(params, cfg, VOX)(pair)  # a fresh cache runs both views
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        for normalize in (True, False):
            f1, _ = model_feature_fn(params, cfg, VOX, normalize)(pairs[0])
            assert f1.tobytes() == _forward_features(params, cfg, a, normalize).tobytes()

    def test_equal_points_with_other_features_run_again(self, rng, counted):
        cfg = _tiny_cfg(in_dim=2)
        params = UNet(cfg).init_params(5)
        pts = rng.uniform(0, 1, (150, 3))
        other = PointCloud(rng.uniform(0, 1, (140, 3)), rng.standard_normal((140, 2)))
        v1 = PointCloud(pts, rng.standard_normal((150, 2)))
        v2 = PointCloud(pts.copy(), rng.standard_normal((150, 2)))
        fn = model_feature_fn(params, cfg, VOX)
        f_first, _ = fn(_pair(v1, other))
        assert len(counted) == 2
        f_second, _ = fn(_pair(v2, other))
        assert len(counted) == 3  # v2 runs, `other` is reused
        assert f_second.tobytes() != f_first.tobytes()

    def test_features_against_none_run_again(self, rng, counted):
        cfg = _tiny_cfg()
        params = UNet(cfg).init_params(5)
        pts = rng.uniform(0, 1, (150, 3))
        fn = model_feature_fn(params, cfg, VOX)
        (b,) = self._views(rng, 1)
        fn(_pair(PointCloud(pts), b))
        fn(_pair(PointCloud(pts.copy(), np.ones((150, 1))), b))
        assert len(counted) == 3

    def test_mutated_kept_points_run_again(self, rng, counted):
        cfg = _tiny_cfg()
        params = UNet(cfg).init_params(3)
        a, b = self._views(rng, 2)
        pair = _pair(a, b)
        fn = model_feature_fn(params, cfg, VOX)
        fn(pair)
        a.points.flags.writeable = True
        a.points[:10] += 0.3  # the same object, changed in place after the call
        got = fn(pair)
        assert len(counted) == 3  # `a` runs again, `b` is reused
        want = model_feature_fn(params, cfg, VOX)(pair)
        assert got[0].tobytes() == want[0].tobytes()

    def test_returned_features_are_read_only(self, rng):
        cfg = _tiny_cfg()
        params = UNet(cfg).init_params(1)
        a, b = self._views(rng, 2)
        for normalize in (True, False):
            fn = model_feature_fn(params, cfg, VOX, normalize)
            for f in fn(_pair(a, b)) + fn(_pair(b, a)):
                assert f.dtype == np.float32  # the network's compute dtype, not upcast
                assert not f.flags.writeable
                with pytest.raises(ValueError):
                    f[0, 0] = 1.0
