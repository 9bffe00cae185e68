import dataclasses
import gc
import importlib
import os
import weakref

import numpy as np
import pytest

from pointpair.augment import AugmentationConfig
from pointpair.errors import ConfigError, FormatError
from pointpair.frames import SyntheticSceneSpec, synthesize_scene
from pointpair.geometry import PointCloud
from pointpair.losses import LossConfig
from pointpair.net.params import GradientSet, ParameterSet, is_trainable
from pointpair.net.unet import UNet, UNetConfig
from pointpair.pairs import CorrespondenceMap, ScenePair, generate_pairs
from pointpair.train import (
    OptimizerState,
    SkipStep,
    TrainConfig,
    TrainLogRecord,
    forward_backward,
    load_checkpoint,
    load_resume,
    poly_lr,
    save_checkpoint,
    sgd_step,
    train,
    _pair_index,
    _step_rng,
)
from pointpair.voxel import collapse_matches_to_voxels, quantize
from pointpair.geometry import apply_transform
from pointpair.augment import sample_transform


def _tiny_unet():
    return UNetConfig(levels=2, channels=(4, 6), blocks_per_level=1, in_dim=1, out_dim=8)


def _tiny_cfg(max_iters=4, seed=0, variant="info_nce", **kw):
    loss = LossConfig(variant=variant, ns=64, tau=0.2, pos_sample=64, hardest_neg_sample=32)
    return TrainConfig(
        max_iters=max_iters,
        base_lr=kw.pop("base_lr", 0.05),
        voxel_size=0.05,
        seed=seed,
        loss=loss,
        augment=AugmentationConfig(rotation_enabled=False, scale_min=0.95, scale_max=1.05),
        unet=_tiny_unet(),
        **kw,
    )


@pytest.fixture(scope="module")
def small_corpus():
    spec = SyntheticSceneSpec(seed=77, n_boxes=8, box_extent=(0.2, 0.6), n_planes=0,
                              density=4000.0, image_width=96, image_height=72,
                              focal=80.0, n_cameras=4)
    pairs = generate_pairs(synthesize_scene(spec), stride=1, overlap_threshold=0.3,
                           radius=0.05, voxel_size=0.05)
    assert len(pairs) >= 2
    return pairs[:4]


class TestPolyLr:
    def test_paper_endpoints(self):
        cfg = TrainConfig(max_iters=100, base_lr=0.8)
        assert poly_lr(0, cfg) == 0.8
        assert poly_lr(100, cfg) == 0.0

    def test_midpoint_closed_form(self):
        cfg = TrainConfig(max_iters=100, base_lr=0.8)
        want = 0.8 * 0.5**0.9
        assert poly_lr(50, cfg) == pytest.approx(want, abs=1e-15)
        assert poly_lr(50, cfg) == pytest.approx(0.42871, abs=1e-4)

    def test_non_increasing(self):
        cfg = TrainConfig(max_iters=777, base_lr=0.3, lr_power=0.9)
        vals = [poly_lr(t, cfg) for t in range(778)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestSgdStep:
    def test_zero_lr_is_noop(self, rng):
        params = ParameterSet({"w": rng.standard_normal(5)})
        before = params["w"].copy()
        grads = GradientSet({"w": rng.standard_normal(5)})
        state = OptimizerState({"w": np.zeros(5)})
        sgd_step(params, grads, state, 0.0, 0.9, 1e-4)
        np.testing.assert_array_equal(params["w"], before)

    def test_plain_gradient_step(self, rng):
        w0 = rng.standard_normal(4)
        g = rng.standard_normal(4)
        params = ParameterSet({"w": w0.copy()})
        sgd_step(params, GradientSet({"w": g}), OptimizerState({"w": np.zeros(4)}), 0.1, 0.0, 0.0)
        np.testing.assert_array_equal(params["w"], w0 - 0.1 * g)

    def test_two_step_momentum_recursion(self):
        params = ParameterSet({"w": np.array([1.0])})
        g = np.array([0.5])
        state = OptimizerState({"w": np.zeros(1)})
        for _ in range(2):
            sgd_step(params, GradientSet({"w": g.copy()}), state, 0.01, 0.9, 0.0)
        want = 1.0 - 0.01 * 0.5 * (2 + 0.9)
        assert params["w"][0] == pytest.approx(want, abs=1e-15)

    def test_weight_decay_enters_gradient(self):
        params = ParameterSet({"w": np.array([2.0])})
        state = OptimizerState({"w": np.zeros(1)})
        sgd_step(params, GradientSet({"w": np.array([0.0])}), state, 0.1, 0.0, 0.5)
        assert params["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)


class TestTrainStep:
    def test_zero_lr_keeps_trainables_bit_identical(self, small_corpus):
        cfg = _tiny_cfg(max_iters=7)
        unet = UNet(cfg.unet)
        params = unet.init_params(0)
        before = {n: params[n].copy() for n in params.names() if is_trainable(n)}
        outcome = forward_backward(small_corpus[0], params, cfg, unet, _step_rng(0, 0))
        assert np.isfinite(outcome.loss)
        lr = poly_lr(cfg.max_iters, cfg)  # exactly 0
        sgd_step(params, outcome.grads, OptimizerState.zeros(params), lr, cfg.momentum, cfg.weight_decay)
        for name, t in before.items():
            np.testing.assert_array_equal(params[name], t)

    def test_identical_seed_identical_loss(self, small_corpus):
        cfg = _tiny_cfg()
        losses = []
        for _ in range(2):
            unet = UNet(cfg.unet)
            params = unet.init_params(cfg.seed)
            outcome = forward_backward(small_corpus[0], params, cfg, unet, _step_rng(cfg.seed, 0))
            losses.append(outcome.loss)
        assert losses[0] == losses[1]

    def test_skip_step_on_degenerate_pair(self):
        pc = PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]))
        pair = ScenePair(pc, pc, CorrespondenceMap(np.array([[0, 0]])), 1.0)
        cfg = _tiny_cfg()
        unet = UNet(cfg.unet)
        params = unet.init_params(0)
        with pytest.raises(SkipStep):
            forward_backward(pair, params, cfg, unet, _step_rng(0, 0))

    def test_augmented_matches_stay_physically_close(self, small_corpus):
        # matched voxel rows, mapped back through the inverse transforms, sit
        # within match radius + voxel diagonal of each other
        pair = small_corpus[0]
        cfg = _tiny_cfg()
        rng = _step_rng(3, 0)
        t1 = sample_transform(cfg.augment, rng)
        t2 = sample_transform(cfg.augment, rng)
        v1 = apply_transform(pair.x1, t1)
        v2 = apply_transform(pair.x2, t2)
        s1 = quantize(v1, cfg.voxel_size)
        s2 = quantize(v2, cfg.voxel_size)
        rows = collapse_matches_to_voxels(pair.correspondences.matches, s1.origin_map, s2.origin_map)
        w1 = t1.inverse().apply(v1.points[s1.first_points][rows[:, 0]])
        w2 = t2.inverse().apply(v2.points[s2.first_points][rows[:, 1]])
        diag = cfg.voxel_size * np.sqrt(3)
        bound = 0.05 + diag / t1.scale + diag / t2.scale
        assert np.linalg.norm(w1 - w2, axis=1).max() <= bound


class TestTrainLoop:
    def test_single_iteration_single_record(self, small_corpus):
        res = train(small_corpus, _tiny_cfg(max_iters=1))
        assert len(res.records) == 1
        assert res.records[0].iteration == 0
        assert res.state.iteration == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], _tiny_cfg())

    def test_loss_trace_is_deterministic(self, small_corpus):
        cfg = _tiny_cfg(max_iters=3, seed=5)
        a = train(small_corpus, cfg)
        b = train(small_corpus, cfg)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert a.params.digest() == b.params.digest()

    def test_resume_reproduces_suffix_bitwise(self, small_corpus, tmp_path):
        cfg = TrainConfig.from_dict(_tiny_cfg(max_iters=6, seed=2).to_dict() | {"checkpoint_every": 3})
        full = train(small_corpus, cfg, out_dir=str(tmp_path / "full"))
        resume = load_resume(str(tmp_path / "full" / "checkpoint_0000003.ckpt"), cfg)
        resumed = train(small_corpus, cfg, resume=resume)
        suffix = [r for r in full.records if r.iteration >= 3]
        assert [(r.iteration, r.lr, r.loss, r.collapse) for r in resumed.records] == [
            (r.iteration, r.lr, r.loss, r.collapse) for r in suffix
        ]
        assert resumed.params.digest() == full.params.digest()

    def test_pair_schedule_cycles_all_pairs(self, small_corpus):
        n = len(small_corpus)
        seen = {_pair_index(0, t, n) for t in range(n)}
        assert seen == set(range(n))  # one full epoch covers every pair

    def test_grad_accumulation_runs(self, small_corpus):
        cfg = TrainConfig.from_dict(_tiny_cfg(max_iters=2).to_dict() | {"grad_accum": 2})
        res = train(small_corpus, cfg)
        assert len(res.records) == 2

    def test_grad_accum_skipped_slot_steps_on_produced_gradient(self, small_corpus, monkeypatch):
        train_module = importlib.import_module("pointpair.train")  # the package exports train()

        cfg = dataclasses.replace(_tiny_cfg(max_iters=1), grad_accum=2)
        produced, stepped = [], []
        forward_backward, sgd = train_module.forward_backward, train_module.sgd_step

        def second_slot_skips(*args):
            if produced:
                raise SkipStep("forced skip")
            outcome = forward_backward(*args)
            produced.append({n: g.copy() for n, g in outcome.grads.tensors.items()})
            return outcome

        def record_step(params, grads, *rest):
            stepped.append({n: g.copy() for n, g in grads.tensors.items()})
            return sgd(params, grads, *rest)

        monkeypatch.setattr(train_module, "forward_backward", second_slot_skips)
        monkeypatch.setattr(train_module, "sgd_step", record_step)
        res = train(small_corpus, cfg)
        assert res.skipped == 1 and len(res.records) == 1 and len(stepped) == 1
        assert stepped[0].keys() == produced[0].keys()
        for name, grad in produced[0].items():
            np.testing.assert_array_equal(stepped[0][name], grad)

    def test_hardest_variant_trains(self, small_corpus):
        res = train(small_corpus, _tiny_cfg(max_iters=3, variant="hardest_contrastive"))
        assert len(res.records) == 3
        assert all(np.isfinite(r.loss) for r in res.records)


class TestStepMemory:
    """What a step keeps alive, checked with reference counting alone (gc off):
    a reference cycle would keep a loss result or a tape alive too long."""

    @pytest.mark.parametrize("variant", ["info_nce", "hardest_contrastive"])
    def test_loss_result_and_tapes_freed_in_forward_backward(self, small_corpus, monkeypatch,
                                                             variant):
        train_module = importlib.import_module("pointpair.train")
        unet_module = importlib.import_module("pointpair.net.unet")
        loss_refs, tape_refs, array_refs, seen_alive = [], [], [], []

        def spy(fn, *tape_fields):  # fn returns (output, tape)
            def wrapped(*args):
                out, tape = fn(*args)
                array_refs.extend(weakref.ref(getattr(tape, f)) for f in tape_fields)
                return out, tape
            return wrapped

        loss_fn = getattr(train_module, variant)

        def loss_spy(*args):
            res = loss_fn(*args)
            loss_refs.append(weakref.ref(res))
            return res

        unet_backward = UNet.backward

        def backward_spy(self, tape, d_out):
            seen_alive.append([r for r in loss_refs + tape_refs if r() is not None])
            tape_refs.append(weakref.ref(tape))
            return unet_backward(self, tape, d_out)

        monkeypatch.setattr(train_module, variant, loss_spy)
        monkeypatch.setattr(unet_module, "batch_norm_forward",
                            spy(unet_module.batch_norm_forward, "xhat", "inv_std"))
        monkeypatch.setattr(unet_module, "conv_forward", spy(unet_module.conv_forward, "feats_in"))
        monkeypatch.setattr(UNet, "backward", backward_spy)
        cfg = _tiny_cfg(variant=variant)
        unet = UNet(cfg.unet)
        params = unet.init_params(0)
        gc.collect()
        gc.disable()
        try:
            outcome = train_module.forward_backward(small_corpus[0], params, cfg, unet, _step_rng(0, 0))
            alive = [r for r in loss_refs + tape_refs + array_refs if r() is not None]
        finally:
            gc.enable()
        assert len(seen_alive) == 2 and len(loss_refs) >= 1 and len(array_refs) > 20
        assert seen_alive == [[], []]  # no loss result at either backward, no tape at the second
        assert alive == []
        n_bn = sum(1 for name in params.names() if name.endswith(".running_mean"))
        assert len(outcome.bn_stats) == 2 * n_bn

    def test_train_drops_each_outcome_before_the_next_slot(self, small_corpus, monkeypatch):
        train_module = importlib.import_module("pointpair.train")
        forward_backward = train_module.forward_backward
        outcome_refs, seen_alive = [], []

        def spy(*args):
            seen_alive.append(sum(r() is not None for r in outcome_refs))
            outcome = forward_backward(*args)
            outcome_refs.append(weakref.ref(outcome))
            return outcome

        monkeypatch.setattr(train_module, "forward_backward", spy)
        cfg = dataclasses.replace(_tiny_cfg(max_iters=2), grad_accum=2)
        gc.collect()
        gc.disable()
        try:
            train(small_corpus, cfg)
        finally:
            gc.enable()
        assert seen_alive == [0, 0, 0, 0]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        cfg = _tiny_cfg()
        unet = UNet(cfg.unet)
        params = unet.init_params(1)
        state = OptimizerState.zeros(params)
        state.iteration = 17
        for name in state.buffers:
            state.buffers[name] = rng.standard_normal(state.buffers[name].shape)
        path = str(tmp_path / "ck.ckpt")
        save_checkpoint(path, params, cfg.to_dict(), state)
        p2, echo, s2 = load_checkpoint(path)
        assert echo == cfg.to_dict()
        assert s2.iteration == 17
        assert p2.digest() == params.digest()
        for name in state.buffers:
            np.testing.assert_array_equal(s2.buffers[name], state.buffers[name])

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cfg = _tiny_cfg()
        params = UNet(cfg.unet).init_params(0)
        save_checkpoint(str(tmp_path / "a.ckpt"), params, {}, OptimizerState.zeros(params))
        assert sorted(os.listdir(tmp_path)) == ["a.ckpt"]

    def test_failed_save_leaves_no_file_and_keeps_the_old_one(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg()
        params = UNet(cfg.unet).init_params(0)
        state = OptimizerState.zeros(params)
        save_checkpoint(str(tmp_path / "a.ckpt"), params, {}, state)
        old = (tmp_path / "a.ckpt").read_bytes()

        def failing(fh, tensors):
            raise OSError("disk full")

        train_module = importlib.import_module("pointpair.train")  # the package exports train()
        monkeypatch.setattr(train_module, "write_tensor_section", failing)
        state.iteration = 5
        for name in ("a.ckpt", "b.ckpt"):
            with pytest.raises(OSError):
                save_checkpoint(str(tmp_path / name), params, {}, state)
        assert sorted(os.listdir(tmp_path)) == ["a.ckpt"]
        assert (tmp_path / "a.ckpt").read_bytes() == old

    def test_resume_rejects_mismatched_architecture(self, small_corpus, tmp_path):
        cfg = _tiny_cfg(max_iters=1)
        train(small_corpus, cfg, out_dir=str(tmp_path))
        other = TrainConfig.from_dict(
            cfg.to_dict() | {"unet": UNetConfig(levels=1, channels=(4,), in_dim=1, out_dim=8).to_dict()}
        )
        with pytest.raises(FormatError):
            load_resume(str(tmp_path / "checkpoint_final.ckpt"), other)

    def test_resume_rejects_a_reshaped_tensor(self, small_corpus, tmp_path):
        cfg = _tiny_cfg(max_iters=1)
        train(small_corpus, cfg, out_dir=str(tmp_path))
        params, echo, state = load_checkpoint(str(tmp_path / "checkpoint_final.ckpt"))
        params["down0.kernel"] = params["down0.kernel"][:4]  # names alone still match
        save_checkpoint(str(tmp_path / "cut.ckpt"), params, echo, state)
        with pytest.raises(FormatError, match="'down0.kernel' has shape"):
            load_resume(str(tmp_path / "cut.ckpt"), cfg)

    @pytest.mark.parametrize("change, key", [
        ({"seed": 3}, "'seed'"),
        ({"max_iters": 2}, "'max_iters'"),
        ({"loss": LossConfig(variant="info_nce", ns=64, tau=0.3, pos_sample=64,
                             hardest_neg_sample=32)}, "'loss.tau'"),
    ])
    def test_resume_rejects_changed_config(self, small_corpus, tmp_path, change, key):
        cfg = _tiny_cfg(max_iters=1)
        train(small_corpus, cfg, out_dir=str(tmp_path))
        with pytest.raises(ConfigError, match=key):
            load_resume(str(tmp_path / "checkpoint_final.ckpt"), dataclasses.replace(cfg, **change))

    def test_every_truncation_raises_format_error(self, small_corpus, tmp_path):
        unet = UNetConfig(levels=2, channels=(2, 3), kernel_size=1, in_dim=1, out_dim=2)
        cfg = dataclasses.replace(_tiny_cfg(max_iters=1), unet=unet)
        train(small_corpus, cfg, out_dir=str(tmp_path))
        blob = (tmp_path / "checkpoint_final.ckpt").read_bytes()
        load_checkpoint(str(tmp_path / "checkpoint_final.ckpt"))
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                load_checkpoint(str(cut))


class TestLogRecord:
    def test_csv_row_roundtrips_floats(self):
        rec = TrainLogRecord(3, 0.1 + 1e-17, 1.23456789012345678, 0.05, 42)
        row = rec.csv_row()
        parts = row.split(",")
        assert int(parts[0]) == 3
        assert float(parts[1]) == rec.lr
        assert float(parts[2]) == rec.loss
