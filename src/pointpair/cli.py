"""Command-line entry point.

Subcommands:
    synth     render a synthetic scene spec into binary depth frames
    pairgen   build overlapping view pairs from a directory of frames
    pretrain  run the contrastive pre-training loop over a pair directory
    eval      score a checkpoint (or a baseline) with hit ratio / FMR
    verify    run the gradient-check and oracle suites
    template  write an annotated config template (train or scene): the
              config dataclass defaults and field notes, written out

Every run writes a manifest.json into its output directory before doing any
work (`pairgen` once its pairs are generated, before the first pair file);
it records the environment the run's numbers depend on (Python, numpy,
platform, BLAS build, BLAS thread settings and the network's compute dtype).
A missing input path (`--frames`, `--pairs`, `--resume`, `--checkpoint`), an
input directory without a frame or pair file, an `--out` of the wrong kind
(a file where a directory goes, a directory or a missing parent directory
where a file goes, or a `synth` or `pairgen` directory that already holds
frame or pair files), and a flag or config value out of range are
validation errors raised before the output directory is created.  Also
before it, `eval` and `pretrain --resume` reject a checkpoint whose
config echo is not a train config or whose tensors do not fit its network
(a format error), and
`pretrain --resume` one whose config echo differs from the config (a
validation error).  Every output file is written through
`errors.file_stream`: to a temporary name that is renamed over the target on
completion, and removed if the write fails, so a file is either whole or
absent.  Exit codes:
0 success, 1 validation error, 2 runtime failure.
An unexpected failure (a bug, not a bad input) also leaves its traceback:
in `traceback.txt` inside the command's `--out` directory when it exists,
otherwise on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
import time
import traceback

import numpy as np

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
from .net.unet import COMPUTE_DTYPE, UNet
from .pairs import PairConfig, generate_pairs, read_pair, write_pair
from .train import TrainConfig, checkpoint_config, load_checkpoint, load_resume, train
from .verify import run_suite


def _blas() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # an older numpy without mode="dicts"
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment() -> dict:
    """What a run's numbers depend on besides its inputs and config: GEMM
    results, and so checkpoint bytes, are reproducible only for one BLAS
    build and one BLAS thread count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "compute_dtype": np.dtype(COMPUTE_DTYPE).name,
    }


def _require_input(flag: str, path: str, directory: bool) -> None:
    """Reject a missing input path as a validation error; call before
    `_write_manifest`, so that a bad path leaves no output directory."""
    if not (os.path.isdir(path) if directory else os.path.isfile(path)):
        raise ConfigError(f"{flag}: no such {'directory' if directory else 'file'} '{path}'")


def _input_files(flag: str, directory: str, suffix: str) -> list[str]:
    """Sorted names of the `suffix` files in the input directory `directory`;
    a missing directory or one without such a file is a validation error.
    Call before `_write_manifest`."""
    _require_input(flag, directory, directory=True)
    names = sorted(f for f in os.listdir(directory) if f.endswith(suffix))
    if not names:
        raise ConfigError(f"{flag}: no {suffix} files in '{directory}'")
    return names


def _require_out_dir(out: str, suffix: str | None = None) -> None:
    """Reject an --out that is, or lies under, a file that is not a directory
    and, given `suffix`, one that already holds files ending in it, which the
    run's own would mix with.  A validation error; call before any work."""
    existing = os.path.normpath(out)
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"--out: '{existing}' exists and is not a directory")
    if suffix and os.path.isdir(out) and any(f.endswith(suffix) for f in os.listdir(out)):
        raise ConfigError(f"--out: '{out}' already holds {suffix} files; use a directory without them")


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
            "environment": _environment(),
        },
    )


def cmd_synth(args) -> int:
    spec = SyntheticSceneSpec.from_ini(args.spec, "scene")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    _require_out_dir(args.out, ".pcfd")
    names = [f"frame_{i:04d}.pcfd" for i in range(spec.n_cameras)]
    _write_manifest(args.out, "synth", spec.to_dict() | {"spec_file": args.spec}, spec.seed, names)
    frames = synthesize_scene(spec)
    for name, frame in zip(names, frames):
        write_frame(frame, os.path.join(args.out, name))
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def cmd_pairgen(args) -> int:
    cfg = PairConfig(args.stride, args.threshold, args.radius, args.voxel_size)
    _require_out_dir(args.out, ".pcpr")
    frame_files = _input_files("--frames", args.frames, ".pcfd")
    frames = [read_frame(os.path.join(args.frames, f)) for f in frame_files]
    pairs = generate_pairs(frames, **cfg.to_dict(), scene_id=os.path.basename(os.path.normpath(args.frames)))
    # only now: whether the views fit the voxel grid depends on the frames' extent
    _write_manifest(args.out, "pairgen", {"frames_dir": args.frames} | cfg.to_dict(), None, ["pair_*.pcpr"])
    for k, pair in enumerate(pairs):
        write_pair(pair, os.path.join(args.out, f"pair_{k:04d}.pcpr"))
    print(f"{len(pairs)} pairs (stride={cfg.stride}, threshold={cfg.overlap_threshold}, radius={cfg.radius})")
    return 0


def _load_pairs(pairs_dir: str, files: list[str]):
    return [read_pair(os.path.join(pairs_dir, f), scene_id=f) for f in files]


def cmd_pretrain(args) -> int:
    cfg = TrainConfig.from_ini(args.config, "train")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _require_out_dir(args.out)
    resume = None
    if args.resume is not None:
        _require_input("--resume", args.resume, directory=False)
        resume = load_resume(args.resume, cfg)
    pair_files = _input_files("--pairs", args.pairs, ".pcpr")
    artifacts = ["checkpoint_final.ckpt", "train_log.csv"]
    _write_manifest(args.out, "pretrain", cfg.to_dict(), cfg.seed, artifacts)
    corpus = _load_pairs(args.pairs, pair_files)
    result = train(corpus, cfg, out_dir=args.out, resume=resume)
    final = result.records[-1].loss if result.records else float("nan")
    print(
        f"trained {cfg.max_iters} iterations on {len(corpus)} pairs; "
        f"final loss {final:.6f}; skipped {result.skipped} degenerate slots"
    )
    return 0


def cmd_eval(args) -> int:
    fmr_cfg = FmrConfig(args.inlier_distance, args.inlier_ratio)
    _require_out_dir(args.out)
    _require_input("--checkpoint", args.checkpoint, directory=False)
    params, echo, _ = load_checkpoint(args.checkpoint)
    cfg = checkpoint_config(echo)
    UNet(cfg.unet).check_params(params)
    pair_files = _input_files("--pairs", args.pairs, ".pcpr")
    unet_cfg, voxel_size, normalize = cfg.unet, cfg.voxel_size, cfg.loss.normalize_features
    config_echo = (
        {"checkpoint": args.checkpoint, "pairs_dir": args.pairs, "features": args.features}
        | fmr_cfg.to_dict()
        | {"voxel_size": voxel_size}
    )
    _write_manifest(args.out, "eval", config_echo, None, ["eval_pairs.csv", "eval_summary.json"])
    pairs = _load_pairs(args.pairs, pair_files)
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
    if os.path.isdir(args.out):
        raise ConfigError(f"--out: '{args.out}' is a directory")
    parent = os.path.dirname(args.out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out: no such directory '{parent}'")
    cfg = TrainConfig() if args.kind == "train" else SyntheticSceneSpec()
    with file_stream(args.out, "w") as fh:
        fh.write(cfg.to_ini(args.kind))
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
    pair = PairConfig()
    p.add_argument("--stride", type=int, default=pair.stride, help="keep every stride-th frame")
    p.add_argument("--threshold", type=float, default=pair.overlap_threshold, help="minimum view overlap")
    p.add_argument("--radius", type=float, default=pair.radius, help="match radius in meters")
    p.add_argument("--voxel-size", type=float, default=pair.voxel_size, dest="voxel_size")
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
    fmr = FmrConfig()
    p.add_argument("--inlier-distance", type=float, default=fmr.inlier_distance, dest="inlier_distance")
    p.add_argument("--inlier-ratio", type=float, default=fmr.inlier_ratio_threshold, dest="inlier_ratio")
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
