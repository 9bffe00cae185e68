"""Per-layer tracing of pointpair from outside the program.

The tracer replaces public functions and methods of the pointpair modules with
timing wrappers while it is installed, and puts the originals back when it is
removed.  Every call is a span: its total time, and its self time (total minus
the time of traced calls made inside it).  Hooks at the same boundaries count
the work done (queries, kernel-map entries, matrix rows, bytes).  Spans stay in
memory and are turned into metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LEVELS = 3  # U-Net levels of every workload

# (metric base, module, attribute, whether to report self time besides total).
# The attribute may name a method as "Class.method".
SPANS = [
    ("frames.synthesize_scene", "pointpair.frames", "synthesize_scene", False),
    ("frames.backproject", "pointpair.frames", "backproject", False),
    ("geometry.build_index", "pointpair.geometry", "build_index", False),
    ("geometry.nearest_many", "pointpair.geometry", "NeighborIndex.nearest_many", False),
    ("pairs.generate_pairs", "pointpair.pairs", "generate_pairs", True),
    ("pairs.compute_overlap", "pointpair.pairs", "compute_overlap", True),
    ("pairs.compute_correspondences", "pointpair.pairs", "compute_correspondences", True),
    ("pairs.subsample_view", "pointpair.pairs", "subsample_view", True),
    ("pairs.write_pair", "pointpair.pairs", "write_pair", False),
    ("pairs.read_pair", "pointpair.pairs", "read_pair", False),
    ("pairs.revalidate_pair", "pointpair.pairs", "revalidate_pair", True),
    ("voxel.quantize", "pointpair.voxel", "quantize", False),
    ("voxel.hash_build", "pointpair.voxel", "VoxelHashMap.__init__", False),
    ("voxel.hash_lookup", "pointpair.voxel", "VoxelHashMap.lookup", False),
    ("voxel.collapse_matches", "pointpair.voxel", "collapse_matches_to_voxels", False),
    ("net.layers.stride1_maps", "pointpair.net.layers", "CoordContext.stride1_maps", False),
    ("net.layers.stride2_maps", "pointpair.net.layers", "stride2_maps", False),
    ("net.layers.conv_apply", "pointpair.net.layers", "conv_apply", False),
    ("net.layers.conv_grads", "pointpair.net.layers", "conv_grads", False),
    ("net.layers.batch_norm_forward", "pointpair.net.layers", "batch_norm_forward", False),
    ("net.layers.batch_norm_backward", "pointpair.net.layers", "batch_norm_backward", False),
    ("net.layers.relu_forward", "pointpair.net.layers", "relu_forward", False),
    ("net.layers.relu_backward", "pointpair.net.layers", "relu_backward", False),
    ("net.unet.forward", "pointpair.net.unet", "UNet.forward", True),
    ("net.unet.backward", "pointpair.net.unet", "UNet.backward", True),
    ("losses.info_nce", "pointpair.losses", "info_nce", False),
    ("losses.hardest_contrastive", "pointpair.losses", "hardest_contrastive", False),
    ("losses.sample_negative_pool", "pointpair.losses", "sample_negative_pool", False),
    ("train.forward_backward", "pointpair.train", "forward_backward", True),
    ("train.commit_bn_stats", "pointpair.net.unet", "commit_bn_stats", False),
    ("train.sgd_step", "pointpair.train", "sgd_step", False),
    ("train.save_checkpoint", "pointpair.train", "save_checkpoint", False),
    ("train.load_checkpoint", "pointpair.train", "load_checkpoint", False),
    ("evaluate.features", "pointpair.evaluate", "model_feature_fn", True),
    ("evaluate.hit_ratio", "pointpair.evaluate", "hit_ratio", True),
    ("evaluate.voxelize_pair", "pointpair.evaluate", "voxelize_pair", True),
    ("cli.synth", "pointpair.cli", "cmd_synth", True),
    ("cli.pairgen", "pointpair.cli", "cmd_pairgen", True),
    ("cli.pretrain", "pointpair.cli", "cmd_pretrain", True),
    ("cli.eval", "pointpair.cli", "cmd_eval", True),
]

# spans recorded once per U-Net level; stride-2 maps are labelled by their fine level
PER_LEVEL = {"net.layers.stride1_maps": LEVELS, "net.layers.stride2_maps": LEVELS - 1}

COUNTS = [
    ("geometry.nn_queries", "count"),
    ("pairs.candidates", "count"),
    ("pairs.kept", "count"),
    ("pairs.bytes_written", "bytes"),
    ("voxel.lookup_queries", "count"),
    ("voxel.lookup_hits", "count"),
    *((f"net.layers.map_pairs.l{l}", "count") for l in range(LEVELS)),
    ("net.layers.conv_flop", "computed_flop"),
    *((f"net.unet.sites.l{l}", "count") for l in range(LEVELS)),
    ("losses.batch_rows", "count"),
    ("train.skipped_slots", "count"),
    ("train.checkpoint_bytes", "bytes"),
]

_LEVEL_SPANS = {f"{base}.l{l}" for base, n in PER_LEVEL.items() for l in range(n)}

OVERHEAD = ["trace.pairgen_overhead_s", "trace.train_overhead_s", "trace.eval_overhead_s"]


def _time_unit(base: str) -> tuple[str, float]:
    return ("s", 1.0) if base.startswith("cli.") else ("ms", 1000.0)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for base, _, _, with_self in SPANS:
        unit, _ = _time_unit(base)
        suffixes = [f".l{l}" for l in range(PER_LEVEL[base])] if base in PER_LEVEL else [""]
        for sfx in suffixes:
            units[f"{base}_{unit}{sfx}"] = unit
            if with_self:
                units[f"{base}_self_{unit}{sfx}"] = unit
    units["net.layers.maps_ms"] = "ms"
    units.update(COUNTS)
    units["voxel.lookup_hit_ratio"] = "ratio"
    units.update((name, "s") for name in OVERHEAD)
    return units


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, time of traced children]
        self._patches: list[tuple[object, str, object]] = []
        self._levels: dict[int, int] = {}  # id(CoordContext) -> U-Net level

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None, on_error=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = name_of(args) if name_of else name
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.total[span] += dt
                tracer.self_time[span] += dt - frame[1]
            if after:
                after(state, args, result, parent)
            return result

        return wrapper

    def _level(self, ctx) -> str:
        return f".l{self._levels.get(id(ctx), LEVELS)}"

    def _hooks(self, base: str) -> dict:
        c = self.counts
        n_maps = lambda maps: sum(int(dst.size) for dst, _ in maps)  # noqa: E731
        if base == "geometry.nearest_many":
            return {"after": lambda s, a, r, p: c.update({"geometry.nn_queries": len(a[1])})}
        if base == "pairs.generate_pairs":
            return {"after": lambda s, a, r, p: c.update({"pairs.kept": len(r)})}
        if base == "pairs.compute_overlap":
            def count_candidate(s, a, r, parent):
                if parent == "pairs.generate_pairs":
                    c["pairs.candidates"] += 1
            return {"after": count_candidate}
        if base == "pairs.write_pair":
            def count_bytes(s, a, r, p):
                target = a[1]
                c["pairs.bytes_written"] += target.tell() if hasattr(target, "tell") else os.path.getsize(target)
            return {"after": count_bytes}
        if base == "voxel.hash_lookup":
            def count_lookup(s, a, r, p):
                c["voxel.lookup_queries"] += len(r)
                c["voxel.lookup_hits"] += int((r >= 0).sum())
            return {"after": count_lookup}
        if base == "net.layers.stride1_maps":
            def count_built(missing, a, r, p):
                if missing:
                    c[f"net.layers.map_pairs{self._level(a[0])}"] += n_maps(r)
            return {
                "before": lambda a: a[1] not in a[0]._stride1_cache,
                "after": count_built,
                "name_of": lambda a: base + self._level(a[0]),
            }
        if base == "net.layers.stride2_maps":
            def count_down(s, a, r, p):
                c[f"net.layers.map_pairs{self._level(a[0])}"] += n_maps(r)
            return {"after": count_down, "name_of": lambda a: base + self._level(a[0])}
        if base in ("net.layers.conv_apply", "net.layers.conv_grads"):
            gemms = 1 if base.endswith("apply") else 2  # backward: input and kernel grads
            def count_flop(s, a, r, p):
                kernel = a[2]
                c["net.layers.conv_flop"] += 2 * gemms * n_maps(a[0]) * kernel.shape[1] * kernel.shape[2]
            return {"after": count_flop}
        if base == "net.unet.forward":
            def count_sites(s, a, r, p):
                for l, ctx in enumerate(r[1].ctxs):
                    c[f"net.unet.sites.l{l}"] += ctx.n
            return {"before": lambda a: self._levels.clear(), "after": count_sites}
        if base in ("losses.info_nce", "losses.hardest_contrastive"):
            return {"after": lambda s, a, r, p: c.update({"losses.batch_rows": len(a[0])})}
        if base == "train.forward_backward":
            from pointpair.train import SkipStep

            def count_skip(exc):
                if isinstance(exc, SkipStep):
                    c["train.skipped_slots"] += 1
            return {"on_error": count_skip}
        if base == "train.save_checkpoint":
            return {"after": lambda s, a, r, p: c.update({"train.checkpoint_bytes": os.path.getsize(a[0])})}
        return {}

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function in every pointpair module that holds it."""
        from pointpair.net.layers import CoordContext

        tracer = self
        init = CoordContext.__init__

        def register_level(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            tracer._levels[id(ctx)] = len(tracer._levels)

        self._replace(CoordContext, "__init__", register_level)
        for base, modname, attr, _ in SPANS:
            module = importlib.import_module(modname)
            hooks = self._hooks(base)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth), base, **hooks))
                continue
            orig = getattr(module, attr)
            if base == "evaluate.features":
                new = self._feature_factory(orig)
            else:
                new = self._wrap(orig, base, **hooks)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("pointpair"):
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, name, new)

    def _feature_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), "evaluate.features")

        return traced_factory

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reporting -------------------------------------------------------

    def take(self) -> tuple[dict, dict, Counter]:
        """Return and reset what was recorded so far."""
        out = (dict(self.total), dict(self.self_time), Counter(self.counts))
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()  # the hooks hold this object
        return out


def per_layer_metrics(setup: tuple, rounds: tuple, n_rounds: int, overhead: dict[str, float]) -> dict:
    """Metrics for one set-up plus one round (round figures averaged over n_rounds)."""
    units = metric_units()
    values = dict.fromkeys(units, 0.0)
    for part, scale_rounds in ((setup, 1), (rounds, n_rounds)):
        total, self_time, counts = part
        for span in total:
            base, _, level = span.rpartition(".l") if span in _LEVEL_SPANS else (span, "", "")
            unit, scale = _time_unit(base)
            sfx = f".l{level}" if level else ""
            values[f"{base}_{unit}{sfx}"] += total[span] * scale / scale_rounds
            self_name = f"{base}_self_{unit}{sfx}"
            if self_name in values:
                values[self_name] += self_time[span] * scale / scale_rounds
        for name, n in counts.items():
            values[name] += n / scale_rounds
    values["net.layers.maps_ms"] = sum(
        v for k, v in values.items() if k.startswith("net.layers.stride") and "_ms.l" in k
    )
    queries = values["voxel.lookup_queries"]
    values["voxel.lookup_hit_ratio"] = values["voxel.lookup_hits"] / queries if queries else 0.0
    values.update(overhead)
    return {name: {"value": values[name], "unit": units[name]} for name in units}
