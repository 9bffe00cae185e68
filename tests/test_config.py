import configparser

import numpy as np
import pytest

from pointpair.augment import AugmentationConfig
from pointpair.errors import ConfigError
from pointpair.frames import SyntheticSceneSpec
from pointpair.losses import LossConfig
from pointpair.net.unet import UNetConfig
from pointpair.train import TrainConfig

_NON_DEFAULT = [
    LossConfig(variant="hardest_contrastive", tau=0.2, ns=64, m_p=0.05, m_n=1.2,
               pos_sample=32, hardest_neg_sample=16, normalize_features=False,
               neg_exclude_radius=0.1),
    AugmentationConfig(rotation_enabled=False, scale_min=0.9, scale_max=1.1,
                       jitter_sigma=0.01, dropout_fraction=0.2, rng_seed=4),
    UNetConfig(levels=2, channels=(4, 6), blocks_per_level=2, kernel_size=5, in_dim=3,
               out_dim=8, bn_epsilon=1e-3, bn_momentum=0.2),
    SyntheticSceneSpec(seed=9, n_boxes=2, n_planes=1, room_size=(3.0, 5.0, 2.0),
                       box_extent=(0.1, 0.3), plane_extent=(0.5, 0.7), density=100.0,
                       n_cameras=2, image_width=16, image_height=12, focal=14.0,
                       camera_ring_radius=1.0, camera_height=1.1, max_depth=6.0),
]
_NON_DEFAULT.append(TrainConfig(max_iters=7, base_lr=0.3, lr_power=0.5, momentum=0.8,
                                weight_decay=1e-3, voxel_size=0.04, seed=11, grad_accum=3,
                                checkpoint_every=2, loss=_NON_DEFAULT[0],
                                augment=_NON_DEFAULT[1], unet=_NON_DEFAULT[2]))


@pytest.mark.parametrize("cfg", _NON_DEFAULT, ids=lambda c: type(c).__name__)
def test_dict_roundtrip(cfg):
    d = cfg.to_dict()
    assert type(cfg).from_dict(d) == cfg
    assert all(not isinstance(v, tuple) for v in d.values())  # JSON-native echo


def test_train_dict_nests_sections():
    d = _NON_DEFAULT[-1].to_dict()
    assert d["unet"]["channels"] == [4, 6]
    assert d["augment"]["rng_seed"] == 4


def test_from_dict_rejects_unknown_and_missing_keys():
    d = UNetConfig().to_dict()
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        UNetConfig.from_dict(d | {"bogus": 1})
    del d["levels"]
    with pytest.raises(ConfigError, match="missing config key 'levels'"):
        UNetConfig.from_dict(d)


def test_from_dict_rejects_non_finite_values():
    # the checkpoint echo takes this path without an INI file
    d = SyntheticSceneSpec().to_dict()
    with pytest.raises(ConfigError, match="config key 'density' must be finite"):
        SyntheticSceneSpec.from_dict(d | {"density": float("nan")})
    with pytest.raises(ConfigError, match="config key 'room_size' must be finite"):
        SyntheticSceneSpec.from_dict(d | {"room_size": [4.0, float("inf"), 2.4]})


def _write_ini(path, sections: dict) -> None:
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


_DEFAULTS = [LossConfig(), AugmentationConfig(), UNetConfig(), SyntheticSceneSpec(), TrainConfig()]


def test_ini_roundtrip_and_casts(tmp_path):
    for cfg in _NON_DEFAULT + _DEFAULTS:
        (tmp_path / "c.ini").write_text(cfg.to_ini("section"))
        assert type(cfg).from_ini(str(tmp_path / "c.ini"), "section") == cfg


def test_to_ini_layout():
    text = TrainConfig(base_lr=np.float64(0.1) + 0.2).to_ini("train")
    sections = [line for line in text.splitlines() if line.startswith("[")]
    assert sections == ["[train]", "[loss]", "[augment]", "[unet]"]
    assert "base_lr = 0.30000000000000004  ; desk-scale setting" in text  # exact, for a numpy float too
    assert "\nnormalize_features = true\n" in text
    assert "\nchannels = 16,32,64\n" in text


@pytest.mark.parametrize("key, raw, message", [
    ("room_size", "4.0,4.0", "bad value for [scene] room_size: '4.0,4.0'"),
    ("room_size", "4.0,4.0,2.4,1.0", "bad value for [scene] room_size"),
    ("n_boxes", "2.5", "bad value for [scene] n_boxes: '2.5'"),
    ("n_boxes", "-1", "primitive counts must be non-negative"),
])
def test_scene_ini_bad_values(tmp_path, key, raw, message):
    d = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
         for k, v in SyntheticSceneSpec().to_dict().items()}
    _write_ini(tmp_path / "s.ini", {"scene": d | {key: raw}})
    with pytest.raises(ConfigError) as exc:
        SyntheticSceneSpec.from_ini(str(tmp_path / "s.ini"), "scene")
    assert message in str(exc.value)


def test_bool_keys_use_ini_booleans(tmp_path):
    d = {k: str(v) for k, v in AugmentationConfig().to_dict().items()}
    for raw, expected in (("no", False), ("on", True)):
        _write_ini(tmp_path / "a.ini", {"augment": d | {"rotation_enabled": raw}})
        assert AugmentationConfig.from_ini(str(tmp_path / "a.ini"), "augment").rotation_enabled is expected
    _write_ini(tmp_path / "a.ini", {"augment": d | {"rotation_enabled": "maybe"}})
    with pytest.raises(ConfigError, match="bad value for \\[augment\\] rotation_enabled"):
        AugmentationConfig.from_ini(str(tmp_path / "a.ini"), "augment")


def test_missing_file_and_section(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        LossConfig.from_ini(str(tmp_path / "absent.ini"), "loss")
    _write_ini(tmp_path / "t.ini", {"train": {"max_iters": "1"}})
    with pytest.raises(ConfigError, match="missing config key 'base_lr' in section \\[train\\]"):
        TrainConfig.from_ini(str(tmp_path / "t.ini"), "train")
    _write_ini(tmp_path / "l.ini", {"other": {}})
    with pytest.raises(ConfigError, match="missing config section \\[loss\\]"):
        LossConfig.from_ini(str(tmp_path / "l.ini"), "loss")


def test_first_difference_names_nested_keys():
    cfg = _NON_DEFAULT[-1]
    assert cfg.first_difference(cfg) is None
    other = TrainConfig.from_dict(cfg.to_dict() | {"unet": _NON_DEFAULT[2].to_dict() | {"out_dim": 4}})
    assert cfg.first_difference(other) == "unet.out_dim"
