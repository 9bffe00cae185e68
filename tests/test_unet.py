import dataclasses
import io

import numpy as np
import pytest

from pointpair.geometry import PointCloud
from pointpair.net.params import GradientSet, ParameterSet, is_trainable, load_params, save_params
from pointpair.net.unet import COMPUTE_DTYPE, UNet, UNetConfig, commit_bn_stats, relu_masks
from pointpair.verify import random_coords, tiny_unet_config
from pointpair.voxel import SparseVoxelTensor, quantize


def _input(rng, n=120, in_dim=1):
    coords = random_coords(rng, n, extent=10)
    feats = np.ones((n, in_dim)) if in_dim == 1 else rng.standard_normal((n, in_dim))
    return SparseVoxelTensor(coords, feats, 0.05)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            UNetConfig(levels=0, channels=())
        with pytest.raises(ValueError):
            UNetConfig(levels=2, channels=(4,))
        with pytest.raises(ValueError):
            UNetConfig(levels=1, channels=(4,), kernel_size=4)

    def test_dict_roundtrip(self):
        cfg = tiny_unet_config()
        assert UNetConfig.from_dict(cfg.to_dict()) == cfg


class TestForward:
    def test_full_resolution_contract(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        for n in (5, 40, 200):
            inp = _input(rng, n, cfg.in_dim)
            out, _ = unet.forward(inp, params, "train")
            np.testing.assert_array_equal(out.coords, inp.coords)
            assert out.features.shape == (n, cfg.out_dim)

    def test_output_keeps_the_quantized_bookkeeping(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        n = 300
        inp = quantize(PointCloud(rng.uniform(0, 1, (n, 3)), rng.standard_normal((n, cfg.in_dim))), 0.1)
        out, _ = unet.forward(inp, unet.init_params(0), "eval")
        assert out.origin_map is inp.origin_map and out.first_points is inp.first_points

    def test_permutation_equivariance(self, rng):
        self._check_permutation_equivariance(rng, np.float64, atol=1e-9)

    def test_permutation_equivariance_float32(self, rng):
        # a permuted row order changes float32 rounding by a few 1e-6
        self._check_permutation_equivariance(rng, np.float32, atol=1e-5)

    @staticmethod
    def _check_permutation_equivariance(rng, dtype, atol):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(3)
        inp = _input(rng, 80, cfg.in_dim)
        out, _ = unet.forward(inp, params, "train", dtype=dtype)
        perm = rng.permutation(80)
        shuffled = SparseVoxelTensor(inp.coords[perm], inp.features[perm], inp.voxel_size)
        out_p, _ = unet.forward(shuffled, params, "train", dtype=dtype)
        np.testing.assert_allclose(out_p.features, out.features[perm], atol=atol)

    def test_eval_mode_is_deterministic_and_stateless(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(1)
        inp = _input(rng, 60, cfg.in_dim)
        digest = params.digest()
        a, _ = unet.forward(inp, params, "eval")
        b, _ = unet.forward(inp, params, "eval")
        np.testing.assert_array_equal(a.features, b.features)
        assert params.digest() == digest

    def test_train_forward_never_mutates_params(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(1)
        inp = _input(rng, 60, cfg.in_dim)
        digest = params.digest()
        out, tape = unet.forward(inp, params, "train")
        grads, _ = unet.backward(tape, np.ones_like(out.features))
        assert params.digest() == digest
        commit_bn_stats(params, tape.bn_stats, cfg.bn_momentum)
        assert params.digest() != digest  # running stats move only on commit

    def test_commit_touches_only_running_stats(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(1)
        before = {name: params[name].copy() for name in params.names()}
        inp = _input(rng, 60, cfg.in_dim)
        _, tape = unet.forward(inp, params, "train")
        commit_bn_stats(params, tape.bn_stats, cfg.bn_momentum)
        for name in params.names():
            if is_trainable(name):
                np.testing.assert_array_equal(params[name], before[name])
            else:
                assert not np.array_equal(params[name], before[name])

    def test_backward_grads_cover_trainables(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        inp = _input(rng, 50, cfg.in_dim)
        out, tape = unet.forward(inp, params, "train")
        grads, d_in = unet.backward(tape, np.ones_like(out.features))
        assert d_in.shape == inp.features.shape
        assert set(grads.tensors) == {n for n in params.names() if is_trainable(n)}

    def test_input_width_mismatch_rejected(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        bad = _input(rng, 30, cfg.in_dim + 1)
        with pytest.raises(ValueError):
            unet.forward(bad, params, "train")

    def test_tape_single_use(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        inp = _input(rng, 30, cfg.in_dim)
        out, tape = unet.forward(inp, params, "train")
        unet.backward(tape, np.zeros_like(out.features))
        with pytest.raises(RuntimeError):
            unet.backward(tape, np.zeros_like(out.features))


def _float_arrays(tape):
    """Every floating array a unit or head tape holds, found by walking its fields."""
    if isinstance(tape, np.ndarray):
        if np.issubdtype(tape.dtype, np.floating):
            yield tape
    elif dataclasses.is_dataclass(tape):
        for f in dataclasses.fields(tape):
            yield from _float_arrays(getattr(tape, f.name))


class TestComputeDtype:
    """The network computes in float32 on float64 master weights; numpy
    promotes silently, so the dtype of every recorded array is pinned."""

    def _tape_arrays(self, rng, dtype=None):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        kwargs = {} if dtype is None else {"dtype": dtype}
        _, tape = unet.forward(_input(rng, 90, cfg.in_dim), unet.init_params(0), "train", **kwargs)
        arrays = [a for t in [*tape.units.values(), tape.head] for a in _float_arrays(t)]
        arrays += [a for _, _, stats in tape.bn_stats for a in _float_arrays(stats)]
        assert len(arrays) > 50  # conv inputs and kernels, BN arrays and stats
        return arrays

    def test_default_train_tape_is_float32(self, rng):
        assert COMPUTE_DTYPE == np.float32
        assert {a.dtype for a in self._tape_arrays(rng)} == {np.dtype(np.float32)}

    def test_float64_train_tape_is_float64(self, rng):
        assert {a.dtype for a in self._tape_arrays(rng, np.float64)} == {np.dtype(np.float64)}

    def test_backward_gives_float64_grads_and_leaves_params(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(2)
        digest = params.digest()
        inp = _input(rng, 70, cfg.in_dim)
        out, tape = unet.forward(inp, params, "train")
        assert out.features.dtype == np.float64
        d_out = rng.standard_normal(out.features.shape)
        grads, _ = unet.backward(tape, d_out)
        assert {g.dtype for g in grads.tensors.values()} == {np.dtype(np.float64)}
        assert {t.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}
        assert params.digest() == digest
        # the float64 loss gradient enters the float32 backward cast, not promoting it
        _, tape = unet.forward(inp, params, "train")
        grads32, _ = unet.backward(tape, d_out.astype(np.float32))
        assert grads32.digest() == grads.digest()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_float32_forward_tracks_float64(self, rng, mode):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(4)
        inp = _input(rng, 200, cfg.in_dim)
        _, tape = unet.forward(inp, params, "train", dtype=np.float64)
        commit_bn_stats(params, tape.bn_stats, 0.5)  # eval mode reads moved running statistics
        f64, _ = unet.forward(inp, params, mode, dtype=np.float64)
        f32, _ = unet.forward(inp, params, mode)
        scale = np.abs(f64.features).max()
        assert np.abs(f32.features - f64.features).max() <= 1e-5 * scale


def _bn(prefix, c):
    return [(f"{prefix}.{stat}", (c,)) for stat in ("gamma", "beta", "running_mean", "running_var")]


class TestRefactorInvariants:
    def test_param_specs_names_shapes_order(self):
        # the order drives the init RNG draws and so the checkpoint bytes
        want = [
            ("stem.kernel", (27, 2, 3)), *_bn("stem.bn", 3),
            ("enc0.block0.conv1.kernel", (27, 3, 3)), *_bn("enc0.block0.bn1", 3),
            ("enc0.block0.conv2.kernel", (27, 3, 3)), *_bn("enc0.block0.bn2", 3),
            ("down0.kernel", (27, 3, 4)), *_bn("down0.bn", 4),
            ("enc1.block0.conv1.kernel", (27, 4, 4)), *_bn("enc1.block0.bn1", 4),
            ("enc1.block0.conv2.kernel", (27, 4, 4)), *_bn("enc1.block0.bn2", 4),
            ("up0.kernel", (27, 4, 3)), *_bn("up0.bn", 3),
            ("dec0.block0.conv1.kernel", (27, 6, 3)), *_bn("dec0.block0.bn1", 3),
            ("dec0.block0.conv2.kernel", (27, 3, 3)), *_bn("dec0.block0.bn2", 3),
            ("dec0.block0.shortcut.kernel", (1, 6, 3)),
            ("head.kernel", (1, 3, 3)),
        ]
        assert list(UNet(tiny_unet_config()).param_specs()) == want

    def test_one_relu_mask_per_relu(self, rng):
        levels, blocks, ch = 3, 2, (2, 3, 4)
        cfg = UNetConfig(levels=levels, channels=ch, blocks_per_level=blocks, in_dim=1, out_dim=2)
        unet = UNet(cfg)
        _, tape = unet.forward(_input(rng, 150, 1), unet.init_params(0), "train")
        n = [ctx.n for ctx in tape.ctxs]
        # stem; two per encoder block; down l ends on level l + 1; up l and two per decoder block
        want = [(n[0], ch[0])]
        for l in range(levels):
            want += [(n[l], ch[l])] * (2 * blocks)
            if l < levels - 1:
                want += [(n[l + 1], ch[l + 1])] + [(n[l], ch[l])] * (1 + 2 * blocks)
        masks = relu_masks(tape)
        assert len(masks) == 1 + 2 * blocks * (2 * levels - 1) + 2 * (levels - 1) == len(want)
        assert sorted(m.shape for m in masks) == sorted(want)
        assert all(m.dtype == bool for m in masks)

    def test_commit_updates_each_running_stat_once(self, rng, monkeypatch):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        _, tape = unet.forward(_input(rng, 60, cfg.in_dim), params, "train")
        written = []
        setitem = ParameterSet.__setitem__

        def record(self, name, value):
            written.append(name)
            setitem(self, name, value)

        monkeypatch.setattr(ParameterSet, "__setitem__", record)
        commit_bn_stats(params, tape.bn_stats, cfg.bn_momentum)
        stats = [name for name, _ in unet.param_specs() if not is_trainable(name)]
        assert sorted(written) == sorted(stats)
        assert len(set(written)) == len(written)


class TestInit:
    def test_same_seed_identical(self):
        cfg = tiny_unet_config()
        a = UNet(cfg).init_params(9)
        b = UNet(cfg).init_params(9)
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_bn_init_values(self):
        params = UNet(tiny_unet_config()).init_params(0)
        for name in params.names():
            if name.endswith(".gamma") or name.endswith(".running_var"):
                assert np.all(params[name] == 1.0)
            elif name.endswith(".beta") or name.endswith(".running_mean"):
                assert np.all(params[name] == 0.0)

    def test_kernel_variance_follows_fan_in_law(self):
        cfg = UNetConfig(levels=1, channels=(48,), blocks_per_level=1, in_dim=48, out_dim=4)
        params = UNet(cfg).init_params(5)
        k = params["enc0.block0.conv1.kernel"]  # 27*48*48 samples
        fan_in = 27 * 48
        assert abs(k.var() / (2.0 / fan_in) - 1.0) < 0.2

    def test_registry_names_unique(self):
        unet = UNet(tiny_unet_config())
        names = [n for n, _ in unet.param_specs()]
        assert len(names) == len(set(names))

    def test_param_count(self):
        cfg = UNetConfig(levels=1, channels=(2,), blocks_per_level=1, in_dim=1, out_dim=3)
        unet = UNet(cfg)
        # stem 27*1*2 + block (27*4)*2 + head 2*3, plus BN gamma/beta pairs
        trainable = 54 + 108 + 108 + 6 + 2 * 2 * 3
        assert unet.param_count() == trainable


class TestParamsIO:
    def test_checkpoint_roundtrip_bitwise(self, rng):
        cfg = tiny_unet_config()
        params = UNet(cfg).init_params(4)
        buf = io.BytesIO()
        save_params(buf, params, {"unet": cfg.to_dict(), "note": 1})
        buf.seek(0)
        back, echo = load_params(buf)
        assert echo["unet"] == cfg.to_dict()
        assert back.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(back[name], params[name])

    def test_gradient_set_shapes(self):
        params = UNet(tiny_unet_config()).init_params(0)
        grads = GradientSet.zeros_like(params)
        assert all(is_trainable(n) for n in grads.names())
        for name in grads.names():
            assert grads[name].shape == params[name].shape

    def test_duplicate_name_rejected(self):
        p = ParameterSet()
        p.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            p.add("w", np.zeros(2))


class TestEvalTape:
    """An eval-mode forward keeps no unit tape, only the per-level contexts."""

    def test_eval_tape_holds_contexts_only(self, rng):
        cfg = tiny_unet_config()
        unet = UNet(cfg)
        params = unet.init_params(0)
        inp = _input(rng, 80, cfg.in_dim)
        out, tape = unet.forward(inp, params, "eval")
        assert len(tape.ctxs) == cfg.levels
        assert tape.ctxs[0].n == 80
        assert tape.units == {} and tape.head is None and tape.bn_stats == []
        assert relu_masks(tape) == []
        with pytest.raises(ValueError, match="eval-mode tape"):
            unet.backward(tape, np.ones_like(out.features))

    def test_eval_forward_peak_under_half_of_a_recording_forward(self, rng, monkeypatch):
        import tracemalloc

        import pointpair.net.unet as unet_module

        cfg = UNetConfig(levels=3, channels=(16, 32, 64), blocks_per_level=1, in_dim=1, out_dim=32)
        unet = UNet(cfg)
        params = unet.init_params(0)
        inp = SparseVoxelTensor(random_coords(rng, 3500, 24), np.ones((3500, 1)), 0.025)

        def peak_of_forward():
            tracemalloc.start()
            try:
                out, _ = unet.forward(inp, params, "eval")
                return out.features, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unet.forward(inp, params, "eval")  # warm any lazily built state
        lean, lean_peak = peak_of_forward()

        # A forward that holds every unit's tape until it returns, as a
        # recording (train-style) tape does.
        held = []

        def holding(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                held.append(result)
                return result
            return wrapper

        monkeypatch.setattr(unet_module.ConvBn, "forward", holding(unet_module.ConvBn.forward))
        monkeypatch.setattr(unet_module.ResidualBlock, "forward", holding(unet_module.ResidualBlock.forward))
        monkeypatch.setattr(unet_module, "conv_forward", holding(unet_module.conv_forward))
        recorded, recorded_peak = peak_of_forward()

        assert lean.tobytes() == recorded.tobytes()
        assert lean_peak < 0.5 * recorded_peak
