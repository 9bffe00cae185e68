"""The benchmark's workloads: their inputs, one round of the pipeline, and the
checks of a round's outputs.

A round is one scene's pairgen, a pre-training run on its pairs and the
evaluation of the trained features on the same pairs.  Every round of a run
repeats the same operations on the same inputs, so a run's rounds are samples
of one quantity, and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from pointpair import cli, evaluate, frames, pairs, voxel
from pointpair.augment import AugmentationConfig
from pointpair.errors import EmptyViewError
from pointpair.geometry import PointCloud
from pointpair.losses import LossConfig
from pointpair.net import layers
from pointpair.net.unet import UNet, UNetConfig
from pointpair.train import TrainConfig, load_checkpoint, train

import checks


@dataclass
class Round:
    pairgen_s: float
    train_s: float
    eval_s: float
    steps: int  # optimizer steps run
    scored: int  # (pair, feature source) evaluations
    attempted: int
    failed: int
    digest: str  # fingerprint of every output; equal rounds must agree
    outputs: object = field(repr=False, default=None)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _views(frame_list, voxel_size):
    """The program's subsampled view of every non-empty frame, by frame index."""
    views = {}
    for fi, frame in enumerate(frame_list):
        try:
            views[fi] = pairs.subsample_view(frames.backproject(frame), voxel_size).points
        except EmptyViewError:
            continue
    return views


def _pair_reference(views, radius):
    idx = sorted(views)
    return {
        (a, b): checks.pair_reference(views[a], views[b], radius)
        for n, a in enumerate(idx)
        for b in idx[n + 1 :]
    }


class _Checker:
    """Collects problems; `expect_reject` records a check that accepted a broken output."""

    def __init__(self):
        self.problems: list[str] = []

    def run(self, what: str, problems: list[str]) -> None:
        self.problems.extend(f"{what}: {p}" for p in problems)

    def expect_reject(self, what: str, problems: list[str]) -> None:
        if not problems:
            self.problems.append(f"self-test: the {what} check accepted a broken output")


def _check_conv(chk: _Checker, points: np.ndarray, voxel_size: float) -> None:
    """Sparse conv at stride 1 and 2 on a quantized view against the dictionary conv."""
    coords = voxel.quantize(PointCloud(points), voxel_size).coords
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((coords.shape[0], 4))
    kernel = rng.standard_normal((27, 4, 5))
    tensor = voxel.SparseVoxelTensor(coords, feats, voxel_size)
    fine = layers.CoordContext(coords)
    coarse = layers.CoordContext(layers.downsample_coords(coords))
    for stride, maps, out_ctx in (
        (1, fine.stride1_maps(3), fine),
        (2, layers.stride2_maps(fine, coarse, 3), coarse),
    ):
        reference = checks.dict_conv(coords, feats, kernel, stride)
        out, _ = layers.sparse_conv_forward(tensor, kernel, stride)
        chk.run(f"conv stride {stride}", checks.compare_conv(reference, out.coords, out.features))
        bad = layers.conv_apply(checks.broken_maps(maps), feats, kernel, out_ctx.n)
        chk.expect_reject(f"conv stride {stride}", checks.compare_conv(reference, out_ctx.coords, bad))


def _check_pairs(chk: _Checker, views, emitted, radius, threshold) -> None:
    reference = _pair_reference(views, radius)
    chk.run("pairgen", checks.compare_pairs(reference, emitted, threshold))
    sizes = {fi: v.shape[0] for fi, v in views.items()}
    chk.expect_reject("pairgen", checks.compare_pairs(reference, checks.broken_pairs(emitted, sizes), threshold))


def _check_eval(chk: _Checker, bounds, ratios, fmr, threshold) -> None:
    chk.run("eval", checks.compare_eval(bounds, ratios, fmr, threshold))
    chk.expect_reject("eval", checks.compare_eval(bounds, checks.broken_ratios(bounds, ratios), fmr, threshold))


def _check_losses(chk: _Checker, losses) -> None:
    chk.run("training", checks.compare_losses(losses))
    chk.expect_reject("training", checks.compare_losses(checks.broken_losses(losses)))


# --------------------------------------------------------------------------
# workloads that call the library


@dataclass(frozen=True)
class PipelineSpec:
    scene: frames.SyntheticSceneSpec
    voxel_size: float  # also the match radius
    threshold: float
    epochs: int  # training runs this many passes over the round's pairs
    train_cfg: TrainConfig


SMOKE = PipelineSpec(
    # the smoke recipe of tests/conftest.py, first corpus scene
    scene=frames.SyntheticSceneSpec(
        seed=100, n_boxes=18, box_extent=(0.15, 0.5), n_planes=0, density=8000.0,
        image_width=144, image_height=108, focal=125.0,
    ),
    voxel_size=0.05,
    threshold=0.35,
    epochs=6,
    train_cfg=TrainConfig(
        base_lr=0.18, voxel_size=0.05,
        loss=LossConfig(variant="info_nce", ns=256, tau=0.09),
        augment=AugmentationConfig(rotation_enabled=False, scale_min=0.95, scale_max=1.05),
        unet=UNetConfig(levels=3, channels=(10, 16, 20), blocks_per_level=1, in_dim=1, out_dim=32),
    ),
)

FINE_ROOM = PipelineSpec(
    # the held-out room of tests/conftest.py at the template's voxel size,
    # network, loss and augmentation
    scene=frames.SyntheticSceneSpec(
        seed=300, n_boxes=34, box_extent=(0.15, 0.45), n_planes=0, room_size=(6.0, 6.0, 2.6),
        camera_ring_radius=2.3, density=8000.0, image_width=144, image_height=108, focal=125.0,
    ),
    voxel_size=0.025,
    threshold=0.30,
    epochs=2,
    train_cfg=TrainConfig(
        base_lr=0.1, voxel_size=0.025,
        loss=LossConfig(variant="info_nce", ns=4096, tau=0.07),
        augment=AugmentationConfig(rotation_enabled=True, scale_min=0.8, scale_max=1.2),
        unet=UNetConfig(levels=3, channels=(16, 32, 64), blocks_per_level=1, in_dim=1, out_dim=32),
    ),
)

PLACEMENT_RANGE = 16.0  # metres; the seed moves the whole scene within this cube


class LibraryWorkload:
    """Frames synthesized in memory, then generate_pairs, train and
    feature_match_recall called as a library user would."""

    def __init__(self, spec: PipelineSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.fmr = evaluate.FmrConfig()

    def setup(self) -> None:
        """Render the scene and place it in the world at a seeded offset.

        The offset changes the value of every coordinate.  It is a whole
        number of voxels, so every seed has the same voxel structure and does
        the same amount of work: a fractional offset moves voxel boundaries
        and changed pairgen time by up to 15% and the kept pairs by one.
        """
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, 0xB37C))))
        cells = round(PLACEMENT_RANGE / self.spec.voxel_size)
        shift = self.spec.voxel_size * rng.integers(-cells, cells + 1, size=3)
        self.frames = []
        for f in frames.synthesize_scene(self.spec.scene):
            pose = f.pose.copy()
            pose[:3, 3] += shift
            self.frames.append(frames.DepthFrame(f.depth, f.fx, f.fy, f.cx, f.cy, pose))
        n_views = sum(bool((f.depth > 0).any()) for f in self.frames)
        self.candidates = n_views * (n_views - 1) // 2

    def run_round(self) -> Round:
        s = self.spec
        t0 = perf_counter()
        kept = pairs.generate_pairs(
            self.frames, stride=1, overlap_threshold=s.threshold,
            radius=s.voxel_size, voxel_size=s.voxel_size,
        )
        t1 = perf_counter()
        cfg = replace(s.train_cfg, max_iters=s.epochs * len(kept), seed=self.seed)
        result = train(kept, cfg)
        t2 = perf_counter()
        feature_fn = evaluate.model_feature_fn(
            result.params, cfg.unet, s.voxel_size, cfg.loss.normalize_features
        )
        features = []

        def scored(pair):
            f = feature_fn(pair)
            features.append(f)
            return f

        report = evaluate.feature_match_recall(kept, scored, self.fmr, s.voxel_size)
        t3 = perf_counter()
        losses = [r.loss for r in result.records]
        slots = cfg.max_iters * cfg.grad_accum
        return Round(
            t1 - t0, t2 - t1, t3 - t2, cfg.max_iters, len(kept),
            attempted=self.candidates + slots + len(kept),
            failed=result.skipped,
            digest=_digest(
                [(p.frame_ids, p.overlap, p.correspondences.matches.tobytes()) for p in kept],
                losses, report.hit_ratios, report.fmr, result.params.digest(),
            ),
            outputs=(kept, losses, features, report),
        )

    def check(self, rnd: Round) -> list[str]:
        s = self.spec
        kept, losses, features, report = rnd.outputs
        chk = _Checker()
        views = _views(self.frames, s.voxel_size)
        for p in kept:
            a, b = p.frame_ids
            if not (np.array_equal(p.x1.points, views[a]) and np.array_equal(p.x2.points, views[b])):
                chk.problems.append(f"pairgen: pair {p.frame_ids} does not hold its frames' views")
        emitted = [checks.EmittedPair(p.frame_ids, p.correspondences.matches, p.overlap) for p in kept]
        _check_pairs(chk, views, emitted, s.voxel_size, s.threshold)
        _check_conv(chk, kept[0].x1.points, s.voxel_size)
        _check_losses(chk, losses)
        bounds = [
            checks.hit_bounds(p.x1.points, p.x2.points, p.correspondences.matches, f1, f2,
                              s.voxel_size, self.fmr.inlier_distance)
            for p, (f1, f2) in zip(kept, features)
        ]
        _check_eval(chk, bounds, report.hit_ratios, report.fmr, self.fmr.inlier_ratio_threshold)
        return chk.problems


# --------------------------------------------------------------------------
# the README quickstart through the command line


CLI_SCENE = SMOKE.scene  # one scene: pairgen numbers its files from 0 on every call
CLI_VOXEL = 0.05
CLI_THRESHOLD = 0.35
CLI_ITERS = 10
CLI_CHECKPOINT_EVERY = 4

CLI_TRAIN_INI = f"""\
[train]
max_iters = {CLI_ITERS}
base_lr = 0.14
lr_power = 0.9
momentum = 0.9
weight_decay = 0.0001
voxel_size = {CLI_VOXEL}
seed = 0
grad_accum = 2
checkpoint_every = {CLI_CHECKPOINT_EVERY}

[loss]
variant = hardest_contrastive
tau = 0.07
ns = 4096
m_p = 0.1
m_n = 1.4
pos_sample = 1024
hardest_neg_sample = 256
normalize_features = true
neg_exclude_radius = 0.2

[augment]
rotation_enabled = false
scale_min = 0.95
scale_max = 1.05
jitter_sigma = 0.0
dropout_fraction = 0.0
rng_seed = 0

[unet]
levels = 3
channels = 10,16,20
blocks_per_level = 1
kernel_size = 3
in_dim = 1
out_dim = 32
bn_epsilon = 1e-5
bn_momentum = 0.1
"""


def _scene_ini(spec: frames.SyntheticSceneSpec) -> str:
    def tup(v):
        return ",".join(repr(float(x)) for x in v)

    return (
        "[scene]\n"
        f"seed = {spec.seed}\nn_boxes = {spec.n_boxes}\nn_planes = {spec.n_planes}\n"
        f"room_size = {tup(spec.room_size)}\nbox_extent = {tup(spec.box_extent)}\n"
        f"plane_extent = {tup(spec.plane_extent)}\ndensity = {spec.density!r}\n"
        f"n_cameras = {spec.n_cameras}\nimage_width = {spec.image_width}\n"
        f"image_height = {spec.image_height}\nfocal = {spec.focal!r}\n"
        f"camera_ring_radius = {spec.camera_ring_radius!r}\n"
        f"camera_height = {spec.camera_height!r}\nmax_depth = {spec.max_depth!r}\n"
    )


def _read_log(path: str) -> list[list[str]]:
    with open(path, encoding="ascii") as fh:
        return [line.rstrip("\n").split(",") for line in fh.readlines()[1:]]


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class CliWorkload:
    """`pointpair synth`, then per round `pairgen`, `pretrain` and `eval`,
    each through `pointpair.cli.main` in this process."""

    COMMANDS_PER_ROUND = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.rounds = 0

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self) -> None:
        d = self.dir
        self.scene_ini = os.path.join(d, "scene.ini")
        self.train_ini = os.path.join(d, "train.ini")
        with open(self.scene_ini, "w", encoding="ascii") as fh:
            fh.write(_scene_ini(CLI_SCENE))
        with open(self.train_ini, "w", encoding="ascii") as fh:
            fh.write(CLI_TRAIN_INI)
        self.frames_dir = os.path.join(d, "frames")
        code, text = self._cli(["synth", "--spec", self.scene_ini, "--out", self.frames_dir])
        if code != 0:
            raise RuntimeError(f"pointpair synth exited with {code}: {text}")
        frame_list = [frames.read_frame(p) for p in sorted(glob.glob(os.path.join(self.frames_dir, "*.pcfd")))]
        n_views = sum(bool((f.depth > 0).any()) for f in frame_list)
        self.candidates = n_views * (n_views - 1) // 2

    def _pretrain_argv(self, pairs_dir, out_dir, resume=None):
        argv = ["pretrain", "--pairs", pairs_dir, "--config", self.train_ini, "--out", out_dir,
                "--seed", str(self.seed)]
        return argv + (["--resume", resume] if resume else [])

    def run_round(self) -> Round:
        k = self.rounds
        self.rounds += 1
        pairs_dir, run_dir, eval_dir = (os.path.join(self.dir, f"{what}{k}") for what in ("pairs", "run", "eval"))
        t0 = perf_counter()
        pg = self._cli(["pairgen", "--frames", self.frames_dir, "--out", pairs_dir, "--stride", "1",
                        "--threshold", repr(CLI_THRESHOLD), "--radius", repr(CLI_VOXEL),
                        "--voxel-size", repr(CLI_VOXEL)])
        t1 = perf_counter()
        pt = self._cli(self._pretrain_argv(pairs_dir, run_dir))
        t2 = perf_counter()
        ev = self._cli(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint_final.ckpt"),
                        "--pairs", pairs_dir, "--out", eval_dir])
        t3 = perf_counter()
        codes = [pg[0], pt[0], ev[0]]
        n_pairs = len(glob.glob(os.path.join(pairs_dir, "*.pcpr")))
        skipped = re.search(r"skipped (\d+) degenerate slots", pt[1])
        slots = 2 * CLI_ITERS  # grad_accum = 2
        files = sorted(glob.glob(os.path.join(pairs_dir, "*.pcpr"))) + [
            os.path.join(run_dir, "checkpoint_final.ckpt"),
            os.path.join(run_dir, "train_log.csv"),
            os.path.join(eval_dir, "eval_pairs.csv"),
        ]
        # the log's millis column is wall time: only its loss columns must repeat
        log_rows = _read_log(files[-2]) if os.path.exists(files[-2]) else []
        digest = _digest(
            codes, [_file_bytes(f) if os.path.exists(f) else None for f in files if not f.endswith("train_log.csv")],
            [row[:4] for row in log_rows], ev[1].splitlines()[-1:] if ev[1] else None,
        )
        if k:  # the checks read the first round's files only
            for d in (pairs_dir, run_dir, eval_dir):
                shutil.rmtree(d, ignore_errors=True)
        return Round(
            t1 - t0, t2 - t1, t3 - t2, CLI_ITERS, 2 * n_pairs,  # model and random-init features
            attempted=self.candidates + slots + 2 * n_pairs + self.COMMANDS_PER_ROUND,
            failed=sum(c != 0 for c in codes) + (int(skipped.group(1)) if skipped else slots),
            digest=digest,
            outputs=(codes, pairs_dir, run_dir, eval_dir, ev[1]),
        )

    def check(self, rnd: Round) -> list[str]:
        codes, pairs_dir, run_dir, eval_dir, eval_text = rnd.outputs
        chk = _Checker()
        if any(codes):
            chk.problems.append(f"cli: exit codes {codes}")
            return chk.problems
        frame_list = [frames.read_frame(p) for p in sorted(glob.glob(os.path.join(self.frames_dir, "*.pcfd")))]
        views = _views(frame_list, CLI_VOXEL)
        by_points = {v.astype(np.float32).tobytes(): fi for fi, v in views.items()}
        files = sorted(glob.glob(os.path.join(pairs_dir, "*.pcpr")))
        read_back = [pairs.read_pair(f) for f in files]
        emitted = []
        for path, p in zip(files, read_back):
            ids = (by_points.get(p.x1.points.astype(np.float32).tobytes()),
                   by_points.get(p.x2.points.astype(np.float32).tobytes()))
            if None in ids:
                chk.problems.append(f"pairgen: {os.path.basename(path)} does not hold two frames' views")
                return chk.problems
            emitted.append(checks.EmittedPair(ids, p.correspondences.matches, p.overlap))
        _check_pairs(chk, views, emitted, CLI_VOXEL, CLI_THRESHOLD)
        _check_conv(chk, read_back[0].x1.points, CLI_VOXEL)

        log_rows = _read_log(os.path.join(run_dir, "train_log.csv"))
        _check_losses(chk, [float(row[2]) for row in log_rows])

        # resuming from the last intermediate checkpoint reproduces the run
        last = (CLI_ITERS - 1) // CLI_CHECKPOINT_EVERY * CLI_CHECKPOINT_EVERY
        resume_dir = os.path.join(self.dir, "resume")
        code, text = self._cli(self._pretrain_argv(
            pairs_dir, resume_dir, os.path.join(run_dir, f"checkpoint_{last:07d}.ckpt")))
        if code != 0:
            chk.problems.append(f"resume: pretrain exited with {code}: {text.strip()}")
        else:
            final = _file_bytes(os.path.join(run_dir, "checkpoint_final.ckpt"))
            resumed = _file_bytes(os.path.join(resume_dir, "checkpoint_final.ckpt"))
            chk.run("resume", checks.compare_bytes(final, resumed, "resumed final checkpoint bytes"))
            chk.expect_reject("resume", checks.compare_bytes(checks.broken_bytes(final), resumed, "checkpoint bytes"))
            tail = [row[:4] for row in log_rows if int(row[0]) >= last]
            again = [row[:4] for row in _read_log(os.path.join(resume_dir, "train_log.csv"))]
            if tail != again or not tail:
                chk.problems.append("resume: train_log.csv loss columns differ from the uninterrupted run")

        # evaluation: the trained features, and the random-init baseline
        params, echo, _ = load_checkpoint(os.path.join(run_dir, "checkpoint_final.ckpt"))
        unet_cfg = UNetConfig.from_dict(echo["unet"])
        fmr = evaluate.FmrConfig()

        def bounds_for(p):
            fn = evaluate.model_feature_fn(p, unet_cfg, CLI_VOXEL, echo["loss"]["normalize_features"])
            return [
                checks.hit_bounds(pr.x1.points, pr.x2.points, pr.correspondences.matches, *fn(pr),
                                  CLI_VOXEL, fmr.inlier_distance)
                for pr in read_back
            ]

        rows = _read_log(os.path.join(eval_dir, "eval_pairs.csv"))
        with open(os.path.join(eval_dir, "eval_summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        _check_eval(chk, bounds_for(params), [float(r[1]) for r in rows], summary["fmr"],
                    fmr.inlier_ratio_threshold)
        printed = re.search(r"random-init FMR (\d+\.\d+)", eval_text)
        rand = bounds_for(UNet(unet_cfg).init_params(int(echo["seed"]) + 1))
        lo = sum(b[0] / b[2] > fmr.inlier_ratio_threshold for b in rand) / len(rand)
        hi = sum(b[1] / b[2] > fmr.inlier_ratio_threshold for b in rand) / len(rand)
        if not printed or not lo - 5e-5 <= float(printed.group(1)) <= hi + 5e-5:
            chk.problems.append(f"eval: random-init FMR line {printed and printed.group(0)!r} not in [{lo}, {hi}]")
        return chk.problems


def make(name: str, seed: int, workdir: str):
    if name == "smoke":
        return LibraryWorkload(SMOKE, seed)
    if name == "fine_room":
        return LibraryWorkload(FINE_ROOM, seed)
    if name == "cli_files":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
