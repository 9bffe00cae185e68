import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from pointpair import cli
from pointpair.augment import AugmentationConfig
from pointpair.errors import FormatError
from pointpair.frames import DepthFrame, SyntheticSceneSpec, read_frame, write_frame
from pointpair.geometry import PointCloud
from pointpair.losses import LossConfig
from pointpair.net import layers
from pointpair.net.unet import UNet, UNetConfig
from pointpair.pairs import CorrespondenceMap, ScenePair, generate_pairs, read_pair, write_pair
from pointpair.ply import ply_bytes, read_ply
from pointpair.train import OptimizerState, TrainConfig, load_checkpoint, save_checkpoint


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_scene(path, seed=5, cameras=4):
    spec = SyntheticSceneSpec(seed=seed, n_boxes=5, n_planes=1, box_extent=(0.3, 0.8),
                              plane_extent=(0.8, 1.6), density=1500.0, n_cameras=cameras,
                              focal=60.0)
    path.write_text(spec.to_ini("scene"))


def _write_train(path, max_iters=2, drop_key=None):
    cfg = TrainConfig(
        max_iters=max_iters, base_lr=0.05, voxel_size=0.05,
        loss=LossConfig(tau=0.2, ns=128, pos_sample=128, hardest_neg_sample=64),
        augment=AugmentationConfig(rotation_enabled=False, scale_min=0.95, scale_max=1.05),
        unet=UNetConfig(levels=2, channels=(4, 6), out_dim=8),
    )
    lines = cfg.to_ini("train").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if line.split(" = ")[0] != drop_key))


class TestTemplates:
    def test_templates_parse_back(self, workdir):
        assert cli.main(["template", "train", "--out", "t.ini"]) == 0
        assert cli.main(["template", "scene", "--out", "s.ini"]) == 0
        assert TrainConfig.from_ini("t.ini", "train") == TrainConfig()
        assert SyntheticSceneSpec.from_ini("s.ini", "scene") == SyntheticSceneSpec()

    def test_scene_plane_extent_is_read(self, workdir):
        _write_scene(workdir / "scene.ini")
        text = (workdir / "scene.ini").read_text().replace("plane_extent = 0.8,1.6", "plane_extent = 0.1,0.2")
        (workdir / "scene.ini").write_text(text)
        assert SyntheticSceneSpec.from_ini("scene.ini", "scene").plane_extent == (0.1, 0.2)


class TestStrictIni:
    @pytest.mark.parametrize("edit, name", [
        (("[unet]", "[unet]\nbogus_key = 7"), "bogus_key"),
        (("[loss]", "[extra]\nkey = 1\n\n[loss]"), "[extra]"),
    ])
    def test_train_ini_rejects_unknown_names(self, workdir, capsys, edit, name):
        _write_train(workdir / "train.ini")
        text = (workdir / "train.ini").read_text()
        (workdir / "train.ini").write_text(text.replace(*edit))
        rc = cli.main(["pretrain", "--pairs", "nowhere", "--config", "train.ini", "--out", "run"])
        assert rc == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, raw", [
        ("train", "momentum", "nan"),
        ("train", "momentum", "1.0"),
        ("train", "weight_decay", "nan"),
        ("train", "weight_decay", "-0.1"),
        ("train", "lr_power", "nan"),
        ("train", "lr_power", "-1"),
        ("train", "checkpoint_every", "-1"),
        ("train", "voxel_size", "0.0"),
        ("train", "seed", "-1"),
        ("unet", "bn_momentum", "nan"),
        ("unet", "bn_momentum", "1.5"),
        ("unet", "bn_epsilon", "-1"),
        ("unet", "bn_epsilon", "0"),
        ("augment", "jitter_sigma", "nan"),
        ("loss", "neg_exclude_radius", "inf"),
        ("scene", "density", "nan"),
        ("scene", "room_size", "4.0,inf,2.4"),
        ("scene", "seed", "-1"),
        ("scene", "focal", "0.0"),
        ("scene", "room_size", "4.0,-4.0,2.4"),
        ("scene", "image_height", "-2"),
        ("scene", "image_width", "0"),
        ("scene", "max_depth", "-1.0"),
        ("scene", "box_extent", "1.2,0.4"),
        ("scene", "box_extent", "2.0,5.0"),
        ("scene", "plane_extent", "2.5,1.0"),
    ])
    def test_bad_values_exit_1_before_the_out_dir(self, workdir, capsys, section, key, raw):
        if section == "scene":
            _write_scene(workdir / "c.ini")
            argv = ["synth", "--spec", "c.ini", "--out", "out"]
        else:
            _write_train(workdir / "c.ini")
            argv = ["pretrain", "--pairs", "nowhere", "--config", "c.ini", "--out", "out"]
        lines = (workdir / "c.ini").read_text().splitlines()
        start = lines.index(f"[{section}]")
        row = next(i for i in range(start, len(lines)) if lines[i].split(" = ")[0] == key)
        lines[row] = f"{key} = {raw}"
        (workdir / "c.ini").write_text("\n".join(lines) + "\n")
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not os.path.exists(workdir / "out")

    @pytest.mark.parametrize("edit, name", [
        (("max_depth = 12.0", "max_depth = 12.0\nbogus_key = 7"), "bogus_key"),
        (("[scene]", "[extra]\nkey = 1\n\n[scene]"), "[extra]"),
        (("room_size = 4.0,4.0,2.4", "room_size = 4.0,4.0"), "room_size"),
    ])
    def test_scene_ini_rejects_unknown_names_and_short_tuples(self, workdir, capsys, edit, name):
        _write_scene(workdir / "scene.ini")
        text = (workdir / "scene.ini").read_text()
        (workdir / "scene.ini").write_text(text.replace(*edit))
        rc = cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not os.path.exists(workdir / "frames")


class TestSynth:
    def test_same_seed_byte_identical_frames(self, workdir):
        _write_scene(workdir / "scene.ini")
        assert cli.main(["synth", "--spec", "scene.ini", "--out", "a"]) == 0
        assert cli.main(["synth", "--spec", "scene.ini", "--out", "b"]) == 0
        names = sorted(os.listdir("a"))
        assert len([n for n in names if n.endswith(".pcfd")]) == 4
        for name in names:
            if name.endswith(".pcfd"):
                assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

    def test_zero_primitives_exits_nonzero(self, workdir, capsys):
        (workdir / "bad.ini").write_text(
            _scene_text_zero_primitives()
        )
        rc = cli.main(["synth", "--spec", "bad.ini", "--out", "x"])
        assert rc == 1
        assert "primitive" in capsys.readouterr().err

    def test_refuses_out_dir_holding_frames(self, workdir, capsys):
        _write_scene(workdir / "scene.ini", seed=0, cameras=3)
        assert cli.main(["synth", "--spec", "scene.ini", "--out", "frames"]) == 0
        before = {f: (workdir / "frames" / f).read_bytes() for f in os.listdir("frames")}
        _write_scene(workdir / "scene.ini", seed=9, cameras=2)
        assert cli.main(["synth", "--spec", "scene.ini", "--out", "frames"]) == 1
        assert capsys.readouterr().err.startswith("error: --out: 'frames' already holds .pcfd files")
        after = {f: (workdir / "frames" / f).read_bytes() for f in os.listdir("frames")}
        assert after == before  # frames and manifest of the first scene untouched

    def test_manifest_written(self, workdir, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        _write_scene(workdir / "scene.ini")
        cli.main(["synth", "--spec", "scene.ini", "--out", "m"])
        manifest = json.loads((workdir / "m" / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["tool_version"]
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "platform", "blas", "threads", "compute_dtype"}
        assert env["numpy"] == np.__version__ and env["compute_dtype"] == "float32"
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3"}
        assert not [f for f in os.listdir("m") if f.endswith(".tmp")]


def _scene_text_zero_primitives():
    return """[scene]
seed = 0
n_boxes = 0
n_planes = 0
room_size = 4.0,4.0,2.4
box_extent = 0.3,0.8
plane_extent = 0.8,1.6
density = 1500.0
n_cameras = 2
image_width = 64
image_height = 48
focal = 60.0
camera_ring_radius = 1.5
camera_height = 1.3
max_depth = 12.0
"""


class TestPairgen:
    def test_default_flags_echo_convention(self):
        parser = cli.build_parser()
        args = parser.parse_args(["pairgen", "--frames", "f", "--out", "o"])
        assert args.stride == 25
        assert args.threshold == 0.30
        assert args.radius == 0.025

    def test_pipeline_and_zero_pairs(self, workdir, capsys):
        _write_scene(workdir / "scene.ini", cameras=3)
        cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        rc = cli.main(["pairgen", "--frames", "frames", "--out", "pairs", "--stride", "1",
                       "--threshold", "0.3", "--radius", "0.05", "--voxel-size", "0.05"])
        assert rc == 0
        n_pairs = len([f for f in os.listdir("pairs") if f.endswith(".pcpr")])
        assert n_pairs >= 1
        # stride larger than the frame count leaves one view: zero pairs, exit 0
        rc = cli.main(["pairgen", "--frames", "frames", "--out", "empty", "--stride", "99"])
        assert rc == 0
        assert "0 pairs" in capsys.readouterr().out

    def test_files_are_the_generated_pairs_byte_for_byte(self, workdir):
        _write_scene(workdir / "scene.ini", cameras=4)
        cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        assert cli.main(["pairgen", "--frames", "frames", "--out", "pairs", "--stride", "1",
                         "--threshold", "0.3", "--radius", "0.05", "--voxel-size", "0.05"]) == 0
        frames = [read_frame(os.path.join("frames", f)) for f in sorted(os.listdir("frames"))
                  if f.endswith(".pcfd")]
        want = []
        for pair in generate_pairs(frames, stride=1, overlap_threshold=0.3, radius=0.05, voxel_size=0.05):
            buf = io.BytesIO()
            write_pair(pair, buf)
            want.append(buf.getvalue())
        got = [(workdir / "pairs" / f).read_bytes() for f in sorted(os.listdir("pairs")) if f.endswith(".pcpr")]
        assert len(want) >= 2
        assert got == want

    def test_refuses_out_dir_holding_pairs(self, workdir, capsys):
        _write_scene(workdir / "scene.ini", cameras=3)
        cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        flags = ["--stride", "1", "--threshold", "0.3", "--radius", "0.05", "--voxel-size", "0.05"]
        assert cli.main(["pairgen", "--frames", "frames", "--out", "pairs", *flags]) == 0
        before = {f: (workdir / "pairs" / f).read_bytes() for f in os.listdir("pairs")}
        assert any(f.endswith(".pcpr") for f in before)
        rc = cli.main(["pairgen", "--frames", "frames", "--out", "pairs", "--stride", "2"])
        assert rc == 1
        assert "already holds .pcpr files" in capsys.readouterr().err
        after = {f: (workdir / "pairs" / f).read_bytes() for f in os.listdir("pairs")}
        assert after == before  # pair files and manifest untouched

    @pytest.mark.parametrize("flag, value, name", [
        ("--stride", "0", "stride"),
        ("--threshold", "0", "overlap_threshold"),
        ("--radius", "0", "radius"),
        ("--radius", "-1", "radius"),
        ("--radius", "inf", "radius"),
        ("--voxel-size", "0", "voxel_size"),
        ("--voxel-size", "inf", "voxel_size"),
    ])
    def test_bad_pairgen_flag_exits_1_before_the_out_dir(self, workdir, capsys, flag, value, name):
        os.mkdir("frames")
        write_frame(DepthFrame(np.ones((2, 2)), 1.0, 1.0, 0.5, 0.5, np.eye(4)), "frames/f.pcfd")
        assert cli.main(["pairgen", "--frames", "frames", "--out", "out", flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must ")
        assert not os.path.exists(workdir / "out")

    def test_views_off_the_voxel_grid_exit_1_before_the_out_dir(self, workdir, capsys):
        # the flag is in range; only the frames' extent puts the views off the packed grid
        _write_scene(workdir / "scene.ini", cameras=2)
        cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        assert cli.main(["pairgen", "--frames", "frames", "--out", "out", "--voxel-size", "1e-9"]) == 1
        assert "voxel coordinates must lie in" in capsys.readouterr().err
        assert not os.path.exists(workdir / "out")


class TestPretrainEval:
    @pytest.fixture()
    def pairs_dir(self, workdir):
        _write_scene(workdir / "scene.ini", cameras=4)
        cli.main(["synth", "--spec", "scene.ini", "--out", "frames"])
        cli.main(["pairgen", "--frames", "frames", "--out", "pairs", "--stride", "1",
                  "--threshold", "0.3", "--radius", "0.05", "--voxel-size", "0.05"])
        return "pairs"

    def test_single_iteration_log(self, workdir, pairs_dir):
        _write_train(workdir / "train.ini", max_iters=1)
        assert cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini",
                         "--out", "run"]) == 0
        lines = (workdir / "run" / "train_log.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,lr,loss,collapse,millis"
        assert len(lines) == 2
        assert os.path.exists(workdir / "run" / "checkpoint_final.ckpt")

    def test_missing_key_names_the_key(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", drop_key="tau")
        rc = cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini",
                       "--out", "run"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "tau" in err and "loss" in err

    def test_determinism_across_reruns(self, workdir, pairs_dir):
        _write_train(workdir / "train.ini", max_iters=3)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "r1"])
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "r2"])
        a = (workdir / "r1" / "train_log.csv").read_text().splitlines()
        b = (workdir / "r2" / "train_log.csv").read_text().splitlines()
        strip = lambda rows: [",".join(r.split(",")[:4]) for r in rows]
        assert strip(a) == strip(b)
        assert (workdir / "r1" / "checkpoint_final.ckpt").read_bytes() == (
            workdir / "r2" / "checkpoint_final.ckpt"
        ).read_bytes()

    def test_eval_coordinate_baseline_fmr_one(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        rc = cli.main(["eval", "--checkpoint", "run/checkpoint_final.ckpt",
                       "--pairs", pairs_dir, "--out", "ev", "--features", "coords"])
        assert rc == 0
        summary = json.loads((workdir / "ev" / "eval_summary.json").read_text())
        assert set(summary) == {"fmr", "mean_hit_ratio", "pairs",
                                "inlier_distance", "inlier_ratio_threshold"}
        assert summary["fmr"] == 1.0  # same-scene pairs, spatial features

    def test_eval_model_prints_baseline_delta(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        rc = cli.main(["eval", "--checkpoint", "run/checkpoint_final.ckpt",
                       "--pairs", pairs_dir, "--out", "ev2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "random-init FMR" in out and "delta" in out

    def test_eval_warns_when_the_inlier_distance_makes_every_match_a_hit(self, workdir, pairs_dir):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        # a fresh interpreter, so the warning reaches stderr as the console script prints it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "pointpair.cli", "eval", "--checkpoint", "run/checkpoint_final.ckpt",
             "--pairs", pairs_dir, "--out", "ev", "--features", "random", "--inlier-distance", "1e3"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("FMR 1.0000")
        assert "inlier distance 1000 m reaches the bounding-box diagonal of view 2" in run.stderr
        assert json.loads((workdir / "ev" / "eval_summary.json").read_text())["fmr"] == 1.0

    def test_eval_inlier_ratio_of_one_or_more_exits_1_before_the_out_dir(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        capsys.readouterr()
        for ratio in ("1", "2"):
            rc = cli.main(["eval", "--checkpoint", "run/checkpoint_final.ckpt", "--pairs", pairs_dir,
                           "--out", "ev", "--inlier-ratio", ratio])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: inlier_ratio_threshold must lie in (0, 1)")
            assert not os.path.exists(workdir / "ev")

    def test_eval_infinite_inlier_distance_exits_1_before_the_out_dir(self, workdir, capsys):
        # checked before the inputs, so none need exist
        rc = cli.main(["eval", "--checkpoint", "none.ckpt", "--pairs", "none", "--out", "ev",
                       "--inlier-distance", "inf"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: inlier_distance must be positive and finite")
        assert not os.path.exists(workdir / "ev")

    def test_eval_reshaped_checkpoint_tensor_exits_2_before_the_out_dir(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        params, echo, state = load_checkpoint("run/checkpoint_final.ckpt")
        params["down0.kernel"] = params["down0.kernel"][:4]  # well-formed file, wrong network
        save_checkpoint("cut.ckpt", params, echo, state)
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", "cut.ckpt", "--pairs", pairs_dir, "--out", "ev"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: checkpoint tensor 'down0.kernel' has shape (4, ")
        assert not os.path.exists(workdir / "ev")

    def test_27_tap_stride2_checkpoint_exits_2_before_the_out_dir(self, workdir, pairs_dir, capsys):
        """A checkpoint of the earlier network, whose down and up convs had
        27 taps, is another network: resume and eval reject it before --out."""
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        params, echo, state = load_checkpoint("run/checkpoint_final.ckpt")
        for name in ("down0.kernel", "up0.kernel"):
            params[name] = np.zeros((27, *params[name].shape[1:]))
        save_checkpoint("old.ckpt", params, echo, state)
        capsys.readouterr()
        for argv in (["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--resume", "old.ckpt"],
                     ["eval", "--checkpoint", "old.ckpt", "--pairs", pairs_dir]):
            assert cli.main(argv + ["--out", "again"]) == 2
            assert capsys.readouterr().err == (
                "error: checkpoint tensor 'down0.kernel' has shape (27, 4, 6); the network needs (8, 4, 6)\n"
            )
            assert not os.path.exists(workdir / "again")

    def test_resume_with_changed_config_exits_1_before_the_out_dir(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        _write_train(workdir / "train.ini", max_iters=2)
        capsys.readouterr()
        rc = cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini",
                       "--resume", "run/checkpoint_final.ckpt", "--out", "again"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: checkpoint config differs from the current config at 'max_iters'")
        assert not os.path.exists(workdir / "again")

    def test_eval_truncated_checkpoint_is_format_error(self, workdir, pairs_dir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        cli.main(["pretrain", "--pairs", pairs_dir, "--config", "train.ini", "--out", "run"])
        blob = (workdir / "run" / "checkpoint_final.ckpt").read_bytes()
        capsys.readouterr()
        # inside the config length, the config JSON, and a tensor payload
        for size in (6, 20, len(blob) // 2):
            (workdir / "cut.ckpt").write_bytes(blob[:size])
            rc = cli.main(["eval", "--checkpoint", "cut.ckpt", "--pairs", pairs_dir, "--out", "ev"])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: truncated")


HUGE = 1 << 40  # a count no file here holds: 4 TiB or more of payload


def _huge_ply_header() -> bytes:
    return (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n" % HUGE
            + b"property float x\nproperty float y\nproperty float z\nend_header\n")


# files whose header claims a huge payload, followed by a few real bytes
HUGE_HEADERS = {
    "frame": (read_frame, b"PCFD" + struct.pack("<II", 1 << 20, 1 << 20)
              + struct.pack("<4d", 1.0, 1.0, 0.0, 0.0) + np.eye(4).tobytes()),
    "ply": (read_ply, _huge_ply_header() + bytes(24)),
    "pair": (read_pair, b"PCPR" + 2 * ply_bytes(PointCloud(np.zeros((2, 3))))
             + struct.pack("<Q", HUGE) + bytes(24)),
    "checkpoint": (load_checkpoint, b"PCCK" + struct.pack("<I", 2) + b"{}" + struct.pack("<IH", 1, 1)
               + b"w" + struct.pack("<B2Q", 2, 1 << 20, 1 << 20) + bytes(24)),
}


class TestMissingInputPath:
    """A missing input path, or an input directory without input files, is a
    validation error (exit 1) that names the flag and the path, raised before
    the --out directory is created."""

    @pytest.mark.parametrize("flag, message, argv", [
        ("--frames", "no such directory", ["pairgen", "--frames", "nowhere", "--out", "out"]),
        ("--pairs", "no such directory", ["pretrain", "--pairs", "nowhere", "--config", "c.ini", "--out", "out"]),
        ("--resume", "no such file", ["pretrain", "--pairs", "empty", "--config", "c.ini", "--out", "out",
                                      "--resume", "run/checkpoint_0002.ckpt"]),
        ("--checkpoint", "no such file", ["eval", "--checkpoint", "nowhere.ckpt", "--pairs", "empty",
                                          "--out", "out"]),
        ("--pairs", "no such directory", ["eval", "--checkpoint", "run.ckpt", "--pairs", "nowhere", "--out", "out"]),
        ("--frames", "no .pcfd files in", ["pairgen", "--frames", "empty", "--out", "out"]),
        ("--pairs", "no .pcpr files in", ["pretrain", "--pairs", "empty", "--config", "c.ini", "--out", "out"]),
        ("--pairs", "no .pcpr files in", ["eval", "--checkpoint", "run.ckpt", "--pairs", "empty", "--out", "out"]),
    ], ids=["pairgen", "pretrain-pairs", "pretrain-resume", "eval-checkpoint", "eval-pairs",
            "pairgen-empty", "pretrain-empty", "eval-empty"])
    def test_exits_1_before_the_out_dir(self, workdir, capsys, flag, message, argv):
        _write_train(workdir / "c.ini")
        (workdir / "empty").mkdir()
        (workdir / "empty" / "notes.txt").write_text("no frame or pair file\n")
        cfg = TrainConfig.from_ini("c.ini", "train")
        params = UNet(cfg.unet).init_params(0)
        save_checkpoint("run.ckpt", params, cfg.to_dict(), OptimizerState.zeros(params))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: {message} ") and repr(argv[argv.index(flag) + 1]) in err
        assert not os.path.exists(workdir / "out")

class TestOutOfTheWrongKind:
    """An --out that cannot take the command's output is a validation error
    (exit 1) naming the flag, raised before any work and leaving the path as
    it was."""

    @pytest.mark.parametrize("argv, out, message", [
        (["synth", "--spec", "c.ini"], "taken", "'taken' exists and is not a directory"),
        (["synth", "--spec", "c.ini"], "taken/sub", "'taken' exists and is not a directory"),
        (["pairgen", "--frames", "frames"], "taken", "'taken' exists and is not a directory"),
        (["pretrain", "--pairs", "frames", "--config", "c.ini"], "taken", "'taken' exists and is not a directory"),
        (["eval", "--checkpoint", "c.ini", "--pairs", "frames"], "taken", "'taken' exists and is not a directory"),
        (["template", "train"], "frames", "'frames' is a directory"),
        (["template", "scene"], "nowhere/s.ini", "no such directory 'nowhere'"),
    ], ids=["synth", "synth-under-a-file", "pairgen", "pretrain", "eval", "template-dir", "template-no-parent"])
    def test_exits_1_before_any_work(self, workdir, capsys, argv, out, message):
        if argv[0] == "synth":
            _write_scene(workdir / "c.ini")
        else:
            _write_train(workdir / "c.ini")
        os.mkdir("frames")
        (workdir / "taken").write_text("a file\n")
        assert cli.main(argv + ["--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out: {message}\n"
        assert (workdir / "taken").read_text() == "a file\n"
        assert os.listdir("frames") == [] and not os.path.exists("nowhere")


class TestHugeHeaderCounts:
    @pytest.mark.parametrize("kind", sorted(HUGE_HEADERS))
    def test_reader_raises_format_error(self, tmp_path, kind):
        reader, blob = HUGE_HEADERS[kind]
        path = tmp_path / f"huge.{kind}"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="truncated"):
            reader(str(path))

    def test_pairgen_and_eval_exit_2(self, workdir, capsys):
        os.mkdir("frames")
        (workdir / "frames" / "huge.pcfd").write_bytes(HUGE_HEADERS["frame"][1])
        assert cli.main(["pairgen", "--frames", "frames", "--out", "pairs"]) == 2
        assert capsys.readouterr().err.startswith("error: truncated")
        (workdir / "huge.ckpt").write_bytes(HUGE_HEADERS["checkpoint"][1])
        assert cli.main(["eval", "--checkpoint", "huge.ckpt", "--pairs", "pairs", "--out", "ev"]) == 2
        assert capsys.readouterr().err.startswith("error: truncated")


class TestMalformedPly:
    def test_pretrain_on_bad_vertex_count_exits_2(self, workdir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        os.mkdir("pairs")
        bad = ply_bytes(PointCloud(np.zeros((2, 3)))).replace(b"vertex 2", b"vertex many")
        (workdir / "pairs" / "bad.pcpr").write_bytes(b"PCPR" + 2 * bad)
        rc = cli.main(["pretrain", "--pairs", "pairs", "--config", "train.ini", "--out", "run"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unexpected PLY header line 3: 'element vertex many'")


class TestInvalidPairContent:
    def test_pretrain_on_out_of_range_match_exits_2(self, workdir, capsys):
        _write_train(workdir / "train.ini", max_iters=1)
        os.mkdir("pairs")
        view = ply_bytes(PointCloud(np.zeros((2, 3))))
        (workdir / "pairs" / "bad.pcpr").write_bytes(b"PCPR" + 2 * view + struct.pack("<Q2Id", 1, 9, 0, 0.5))
        rc = cli.main(["pretrain", "--pairs", "pairs", "--config", "train.ini", "--out", "run"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: invalid pair: correspondence indices out of range")


def _frame_bytes(fx=60.0, cx=2.0, pose=None) -> bytes:
    """A 4 x 4 frame file of unit depth, written field by field so that it
    can hold values `DepthFrame` rejects."""
    pose = np.eye(4) if pose is None else pose
    return (b"PCFD" + struct.pack("<II", 4, 4) + struct.pack("<4d", fx, 60.0, cx, 2.0)
            + pose.astype("<f8").tobytes() + np.ones(16, "<f4").tobytes())


def _pose_with(row, col, value):
    pose = np.eye(4)
    pose[row, col] = value
    return pose


class TestNonFiniteFrame:
    @pytest.mark.parametrize("blob", [
        _frame_bytes(pose=_pose_with(0, 3, np.nan)),
        _frame_bytes(pose=_pose_with(1, 1, np.nan)),
        _frame_bytes(fx=np.inf),
        _frame_bytes(cx=np.nan),
    ], ids=["nan_translation", "nan_rotation", "inf_fx", "nan_cx"])
    def test_pairgen_exits_2(self, workdir, capsys, blob):
        os.mkdir("frames")
        (workdir / "frames" / "a.pcfd").write_bytes(_frame_bytes())
        (workdir / "frames" / "b.pcfd").write_bytes(blob)
        with pytest.raises(FormatError, match="must be finite"):
            read_frame(str(workdir / "frames" / "b.pcfd"))
        assert cli.main(["pairgen", "--frames", "frames", "--out", "pairs"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid frame:")


class TestConfigEchoType:
    def test_eval_on_list_echo_exits_2(self, workdir, capsys):
        params = UNet(UNetConfig(levels=2, channels=(4, 6), out_dim=8)).init_params(0)
        save_checkpoint("list.ckpt", params, [1, 2], OptimizerState.zeros(params))
        rc = cli.main(["eval", "--checkpoint", "list.ckpt", "--pairs", "pairs", "--out", "ev"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config JSON is not an object")

    @pytest.mark.parametrize("edit, message", [
        (lambda e: e | {"unet": 5}, "config key 'unet' must be a UNetConfig dict, got 5"),
        (lambda e: e | {"seed": "0"}, "config key 'seed' must be int, got '0'"),
        (lambda e: e | {"seed": 1.5}, "config key 'seed' must be int, got 1.5"),
        (lambda e: {k: v for k, v in e.items() if k != "seed"}, "missing config key 'seed'"),
    ], ids=["int-unet", "str-seed", "float-seed", "missing-seed"])
    @pytest.mark.parametrize("command", ["eval", "pretrain"])
    def test_malformed_echo_exits_2_before_the_out_dir(self, workdir, capsys, edit, message, command):
        _write_train(workdir / "train.ini", max_iters=1)
        cfg = TrainConfig.from_ini("train.ini", "train")
        params = UNet(cfg.unet).init_params(0)  # tensors that fit the network
        save_checkpoint("bad.ckpt", params, edit(cfg.to_dict()), OptimizerState.zeros(params))
        os.mkdir("pairs")
        view = PointCloud(np.zeros((2, 3)))
        write_pair(ScenePair(view, view, CorrespondenceMap(np.array([[0, 0]])), 1.0), "pairs/p.pcpr")
        if command == "eval":
            argv = ["eval", "--checkpoint", "bad.ckpt", "--pairs", "pairs", "--out", "out"]
        else:
            argv = ["pretrain", "--pairs", "pairs", "--config", "train.ini", "--resume", "bad.ckpt", "--out", "out"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: invalid checkpoint config: {message}\n"
        assert not os.path.exists(workdir / "out")


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestUnexpectedFailure:
    def test_traceback_written_into_out_dir(self, workdir, monkeypatch, capsys):
        _write_scene(workdir / "scene.ini")
        monkeypatch.setattr(cli, "synthesize_scene", _boom)
        assert cli.main(["synth", "--spec", "scene.ini", "--out", "frames"]) == 2
        path = os.path.join("frames", "traceback.txt")
        err = capsys.readouterr().err
        assert err == f"unexpected failure: boom\ntraceback written to {path}\n"
        text = (workdir / path).read_text()
        assert text.startswith("Traceback (most recent call last)")
        assert "in _boom" in text and text.endswith("RuntimeError: boom\n")

    def test_traceback_on_stderr_without_out_dir(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", _boom)
        assert cli.main(["verify", "--suite", "oracles"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unexpected failure: boom\nTraceback (most recent call last)")
        assert "in _boom" in err and err.endswith("RuntimeError: boom\n")


class TestVerifyCommand:
    def test_oracle_suite_exits_zero(self, capsys):
        assert cli.main(["verify", "--suite", "oracles"]) == 0
        out = capsys.readouterr().out
        assert "PASS oracle.dense_conv" in out

    def test_unknown_suite_is_validation_error(self, capsys):
        assert cli.main(["verify", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_instances_below_one_is_validation_error(self, instances, capsys):
        assert cli.main(["verify", "--suite", "gradcheck", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: instances must be >= 1")
        assert "PASS" not in captured.out

    def test_sign_flipped_conv_backward_fails_gradcheck(self, monkeypatch, capsys):
        true_backward = layers.conv_backward

        def flipped(tape, d_out):
            d_in, d_k = true_backward(tape, d_out)
            return -d_in, -d_k

        monkeypatch.setattr(layers, "conv_backward", flipped)
        rc = cli.main(["verify", "--suite", "gradcheck", "--instances", "2"])
        assert rc == 2
        assert "FAIL gradcheck.sparse_conv" in capsys.readouterr().out

    def test_quick_gradcheck_passes_clean(self):
        assert cli.main(["verify", "--suite", "gradcheck", "--instances", "2"]) == 0
