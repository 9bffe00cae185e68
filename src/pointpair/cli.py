"""Command-line entry point.

Subcommands:
    synth     render a synthetic scene spec into binary depth frames
    pairgen   build overlapping view pairs from a directory of frames
    pretrain  run the contrastive pre-training loop over a pair directory
    eval      score a checkpoint (or a baseline) with hit ratio / FMR
    verify    run the gradient-check and oracle suites
    template  write an annotated config template (train or scene)

Every run writes a manifest.json into its output directory before doing any
work.  Every output file is written through `errors.file_stream`: to a
temporary name that is renamed over the target on completion, and removed
if the write fails, so a file is either whole or absent.  Exit codes:
0 success, 1 validation error, 2 runtime failure.
An unexpected failure (a bug, not a bad input) also leaves its traceback:
in `traceback.txt` inside the command's `--out` directory when it exists,
otherwise on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import traceback

from . import __version__
from .errors import ConfigError, PointPairError, file_stream, write_json
from .evaluate import (
    FmrConfig,
    coordinate_feature_fn,
    feature_match_recall,
    model_feature_fn,
    random_feature_fn,
    write_report,
)
from .frames import SyntheticSceneSpec, read_frame, synthesize_scene, write_frame
from .net.unet import UNet
from .pairs import generate_pairs, read_pair, write_pair
from .train import TrainConfig, load_checkpoint, train
from .verify import run_suite


def _write_manifest(out_dir: str, command: str, config_echo: dict, seed, artifacts: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": command,
            "config": config_echo,
            "seed": seed,
            "artifacts": artifacts,
            "tool_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    )


def load_train_config(path: str) -> TrainConfig:
    return TrainConfig.from_ini(path, "train")


def load_scene_spec(path: str) -> SyntheticSceneSpec:
    return SyntheticSceneSpec.from_ini(path, "scene")


TRAIN_TEMPLATE = """\
[train]
max_iters = 500
base_lr = 0.1            ; desk-scale setting; large-batch schedules use 0.8
lr_power = 0.9           ; polynomial decay exponent
momentum = 0.9
weight_decay = 0.0001
voxel_size = 0.025       ; meters
seed = 0
grad_accum = 1           ; pairs accumulated per optimizer step
checkpoint_every = 0     ; 0 = final checkpoint only

[loss]
variant = info_nce       ; info_nce | hardest_contrastive
tau = 0.07               ; softmax temperature
ns = 4096                ; matched-pair subsample for info_nce
m_p = 0.1                ; positive margin (unit-norm feature space)
m_n = 1.4                ; negative margin
pos_sample = 1024        ; matched-pair subsample for hardest_contrastive
hardest_neg_sample = 256 ; mining pool size per direction
normalize_features = true
neg_exclude_radius = 0.0 ; meters; suppress mined negatives this close to the true partner

[augment]
rotation_enabled = true  ; uniform angle about a uniform random axis
scale_min = 0.8
scale_max = 1.2
jitter_sigma = 0.0       ; meters; 0 disables
dropout_fraction = 0.0   ; 0 disables
rng_seed = 0

[unet]
levels = 3
channels = 16,32,64
blocks_per_level = 1
kernel_size = 3
in_dim = 1
out_dim = 32
bn_epsilon = 1e-5
bn_momentum = 0.1
"""

SCENE_TEMPLATE = """\
[scene]
seed = 0
n_boxes = 5
n_planes = 2
room_size = 4.0,4.0,2.4  ; meters
box_extent = 0.4,1.2     ; min,max box edge length in meters
plane_extent = 1.0,2.5   ; min,max plane edge length in meters
density = 800.0          ; surface samples per square meter
n_cameras = 6
image_width = 64
image_height = 48
focal = 52.0             ; pixels
camera_ring_radius = 1.5
camera_height = 1.3
max_depth = 12.0
"""


def cmd_synth(args) -> int:
    spec = load_scene_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    names = [f"frame_{i:04d}.pcfd" for i in range(spec.n_cameras)]
    _write_manifest(args.out, "synth", spec.to_dict() | {"spec_file": args.spec}, spec.seed, names)
    frames = synthesize_scene(spec)
    for name, frame in zip(names, frames):
        write_frame(frame, os.path.join(args.out, name))
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def cmd_pairgen(args) -> int:
    frame_files = sorted(
        f for f in os.listdir(args.frames) if f.endswith(".pcfd")
    )
    if not frame_files:
        raise ConfigError(f"no .pcfd frames found in '{args.frames}'")
    if os.path.isdir(args.out) and any(f.endswith(".pcpr") for f in os.listdir(args.out)):
        raise ConfigError(f"'{args.out}' already holds pair files; pairgen needs an --out without them")
    config_echo = {
        "frames_dir": args.frames,
        "stride": args.stride,
        "overlap_threshold": args.threshold,
        "radius": args.radius,
        "voxel_size": args.voxel_size,
    }
    _write_manifest(args.out, "pairgen", config_echo, None, ["pair_*.pcpr"])
    frames = [read_frame(os.path.join(args.frames, f)) for f in frame_files]
    pairs = generate_pairs(
        frames,
        stride=args.stride,
        overlap_threshold=args.threshold,
        radius=args.radius,
        voxel_size=args.voxel_size,
        scene_id=os.path.basename(os.path.normpath(args.frames)),
    )
    for k, pair in enumerate(pairs):
        write_pair(pair, os.path.join(args.out, f"pair_{k:04d}.pcpr"))
    print(f"{len(pairs)} pairs (stride={args.stride}, threshold={args.threshold}, radius={args.radius})")
    return 0


def _load_pairs(pairs_dir: str):
    files = sorted(f for f in os.listdir(pairs_dir) if f.endswith(".pcpr"))
    if not files:
        raise ConfigError(f"no .pcpr pairs found in '{pairs_dir}'")
    return [read_pair(os.path.join(pairs_dir, f), scene_id=f) for f in files]


def cmd_pretrain(args) -> int:
    cfg = load_train_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    artifacts = ["checkpoint_final.ckpt", "train_log.csv"]
    _write_manifest(args.out, "pretrain", cfg.to_dict(), cfg.seed, artifacts)
    corpus = _load_pairs(args.pairs)
    result = train(corpus, cfg, out_dir=args.out, resume=args.resume)
    final = result.records[-1].loss if result.records else float("nan")
    print(
        f"trained {cfg.max_iters} iterations on {len(corpus)} pairs; "
        f"final loss {final:.6f}; skipped {result.skipped} degenerate slots"
    )
    return 0


def cmd_eval(args) -> int:
    fmr_cfg = FmrConfig(args.inlier_distance, args.inlier_ratio)
    params, echo, _ = load_checkpoint(args.checkpoint)
    cfg = TrainConfig.from_dict(echo)
    unet_cfg, voxel_size, normalize = cfg.unet, cfg.voxel_size, cfg.loss.normalize_features
    config_echo = {
        "checkpoint": args.checkpoint,
        "pairs_dir": args.pairs,
        "features": args.features,
        "inlier_distance": fmr_cfg.inlier_distance,
        "inlier_ratio_threshold": fmr_cfg.inlier_ratio_threshold,
        "voxel_size": voxel_size,
    }
    _write_manifest(args.out, "eval", config_echo, None, ["eval_pairs.csv", "eval_summary.json"])
    pairs = _load_pairs(args.pairs)
    ids = [p.scene_id for p in pairs]
    if args.features == "model":
        fn = model_feature_fn(params, unet_cfg, voxel_size, normalize)
    elif args.features == "coords":
        fn = coordinate_feature_fn(voxel_size)
    else:
        fn = random_feature_fn(unet_cfg.out_dim, 0, voxel_size)
    report = feature_match_recall(pairs, fn, fmr_cfg, voxel_size, ids)
    write_report(args.out, report, fmr_cfg)
    print(f"FMR {report.fmr:.4f} (mean hit ratio {report.mean_hit_ratio:.4f}) over {len(pairs)} pairs")
    if args.features == "model":
        rand_params = UNet(unet_cfg).init_params(cfg.seed + 1)
        rand_fn = model_feature_fn(rand_params, unet_cfg, voxel_size, normalize)
        rand = feature_match_recall(pairs, rand_fn, fmr_cfg, voxel_size, ids)
        print(
            f"random-init FMR {rand.fmr:.4f}; pretrained minus random-init delta "
            f"{report.fmr - rand.fmr:+.4f}"
        )
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.seed, args.instances)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


def cmd_template(args) -> int:
    text = TRAIN_TEMPLATE if args.kind == "train" else SCENE_TEMPLATE
    with file_stream(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.kind} template to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointpair", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pointpair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene into depth frames")
    p.add_argument("--spec", required=True, help="scene spec INI file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("pairgen", help="build overlapping view pairs from frames")
    p.add_argument("--frames", required=True, help="directory of .pcfd frames")
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=25, help="keep every stride-th frame")
    p.add_argument("--threshold", type=float, default=0.30, help="minimum view overlap")
    p.add_argument("--radius", type=float, default=0.025, help="match radius in meters")
    p.add_argument("--voxel-size", type=float, default=0.025, dest="voxel_size")
    p.set_defaults(fn=cmd_pairgen)

    p = sub.add_parser("pretrain", help="run contrastive pre-training")
    p.add_argument("--pairs", required=True, help="directory of .pcpr pairs")
    p.add_argument("--config", required=True, help="train config INI file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("eval", help="score features with hit ratio / FMR")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inlier-distance", type=float, default=0.1, dest="inlier_distance")
    p.add_argument("--inlier-ratio", type=float, default=0.05, dest="inlier_ratio")
    p.add_argument("--features", choices=("model", "coords", "random"), default="model")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run gradient-check / oracle suites")
    p.add_argument("--suite", choices=("gradcheck", "oracles", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20, help="gradcheck instances per op")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("template", help="write an annotated config template")
    p.add_argument("kind", choices=("train", "scene"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_template)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PointPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc}", file=sys.stderr)
        _report_traceback(getattr(args, "out", None))
        return 2


def _report_traceback(out_dir: str | None) -> None:
    """Leave the traceback of the exception being handled in
    `out_dir`/traceback.txt and print that path, or print the traceback
    itself when there is no such directory or it cannot be written."""
    text = traceback.format_exc()
    if out_dir and os.path.isdir(out_dir):
        path = os.path.join(out_dir, "traceback.txt")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError:
            pass
        else:
            print(f"traceback written to {path}", file=sys.stderr)
            return
    sys.stderr.write(text)


if __name__ == "__main__":
    sys.exit(main())
