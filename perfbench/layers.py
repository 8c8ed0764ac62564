"""The rosdos functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Every wrapped function reports ``<name>.calls``, ``<name>.s`` (total seconds)
and ``<name>.self_s`` (seconds not covered by a wrapped child), per timed
cycle. Functions a workload never reaches report 0.
"""

import os
from collections import Counter

from .trace import root_names, self_times

MIB = 1024.0 * 1024.0


def _rank(span, args, result):
    span.info = {"rank": result.effective_rank}


def _landmarks(span, args, result):
    span.info = {"landmarks": int(result.size)}


def _diagnostics(span, args, result):
    diag = result[1]
    span.info = {
        "ranks": dict(Counter(diag.local_ranks)),
        "patches": len(diag.local_ranks),
        "fallbacks": diag.fallbacks,
        "timings": dict(diag.timings),
    }


def _file_bytes(span, args, result):
    span.info = {"bytes": os.path.getsize(args[0])}


# (span name, defining module, attribute, result hook)
TARGETS = [
    ("synth.make_dataset", "rosdos.synth", "make_dataset", None),
    ("synth.separable_noise", "rosdos.synth", "separable_noise", None),
    ("numerics.svd", "rosdos.numerics", "svd", None),
    ("numerics.fix_signs", "rosdos.numerics", "fix_signs", None),
    ("numerics.entrywise_median", "rosdos.numerics", "entrywise_median", None),
    ("numerics.random_orthogonal", "rosdos.numerics", "random_orthogonal", None),
    ("diffusion.select_landmarks", "rosdos.diffusion", "select_landmarks", _landmarks),
    ("diffusion.auto_bandwidth", "rosdos.diffusion", "auto_bandwidth", None),
    ("diffusion.roseland_embed", "rosdos.diffusion", "roseland_embed", None),
    ("shrinkage.eoptshrink", "rosdos.shrinkage", "eoptshrink", _rank),
    ("pipeline.rosdos", "rosdos.pipeline", "rosdos", _diagnostics),
    ("pipeline.global_metric", "rosdos.pipeline", "global_metric", None),
    ("pipeline.neighborhoods", "rosdos.pipeline", "GlobalMetric.neighborhoods", None),
    ("pipeline.recover_point", "rosdos.pipeline", "recover_point", None),
    ("storage.load_matrix", "rosdos.storage", "load_matrix", _file_bytes),
    ("storage.save_matrix", "rosdos.storage", "save_matrix", _file_bytes),
    ("storage.save_json", "rosdos.storage", "save_json", _file_bytes),
    ("evaluation.summarize", "rosdos.evaluation", "summarize", None),
    ("evaluation.baseline_tsvd", "rosdos.evaluation", "baseline_tsvd", None),
    ("cli.denoise", "rosdos.cli", "cmd_denoise", None),
    ("cli.evaluate", "rosdos.cli", "cmd_evaluate", None),
    ("cli.experiment", "rosdos.cli", "cmd_experiment", None),
    ("cli.experiment.cell", "rosdos.cli", "_run_cell", None),
]

# functions that run in set-up on paper-roseland, reported per set-up too
SETUP_LAYERS = ["synth.make_dataset", "synth.separable_noise",
                "numerics.random_orthogonal"]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for kind in ("local", "global"):
        units[f"shrinkage.eoptshrink.{kind}.calls"] = "count"
        units[f"shrinkage.eoptshrink.{kind}.s"] = "s"
    units["diffusion.landmarks"] = "count"
    units["storage.read_mb"] = "MiB"
    units["storage.write_mb"] = "MiB"
    units["storage.read_mb_per_s"] = "MiB/s"
    units["storage.write_mb_per_s"] = "MiB/s"
    units["cli.experiment.cell_s"] = "s"
    units["pipeline.fallback_frac"] = "frac"
    for r in (1, 2, 3):
        units[f"pipeline.local_rank.r{r}"] = "count"
    for name in SETUP_LAYERS:
        units[f"setup.{name}.s"] = "s"
    units["setup.numerics.random_orthogonal.calls"] = "count"
    units["process.cpu_util"] = "cpu_s/s"
    units["trace.overhead_frac"] = "frac"
    return units


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, cycles, setups, cpu_util, overhead_frac):
    """Per-layer values from the spans of ``cycles`` traced timed cycles
    (roots named "cycle") and ``setups`` traced set-ups (roots "setup")."""
    roots = root_names(spans)
    own = self_times(spans)
    names = {s.id: s.name for s in spans}
    timed = [s for s in spans if roots[s.id] == "cycle" and s.parent is not None]
    setup = [s for s in spans if roots[s.id] == "setup" and s.parent is not None]

    def calls(group, name):
        return [s for s in group if s.name == name]

    values = {}
    for name, *_ in TARGETS:
        ss = calls(timed, name)
        values[f"{name}.calls"] = len(ss) / cycles
        values[f"{name}.s"] = sum(s.duration for s in ss) / cycles
        values[f"{name}.self_s"] = sum(own[s.id] for s in ss) / cycles

    # a patch shrinkage is called from the rosdos recovery loop; every other
    # eoptshrink call works on a whole matrix
    shrinks = calls(timed, "shrinkage.eoptshrink")
    split = {"local": [], "global": []}
    for s in shrinks:
        split["local" if names[s.parent] == "pipeline.rosdos" else "global"].append(s)
    for kind, ss in split.items():
        values[f"shrinkage.eoptshrink.{kind}.calls"] = len(ss) / cycles
        values[f"shrinkage.eoptshrink.{kind}.s"] = sum(s.duration for s in ss) / cycles

    picks = calls(timed, "diffusion.select_landmarks")
    values["diffusion.landmarks"] = _ratio(
        sum(s.info["landmarks"] for s in picks if s.info), len(picks))

    for io, fns in (("read", ["storage.load_matrix"]),
                    ("write", ["storage.save_matrix", "storage.save_json"])):
        ss = [s for fn in fns for s in calls(timed, fn)]
        mib = sum(s.info["bytes"] for s in ss if s.info) / MIB
        values[f"storage.{io}_mb"] = mib / cycles
        values[f"storage.{io}_mb_per_s"] = _ratio(mib, sum(s.duration for s in ss))

    cells = calls(timed, "cli.experiment.cell")
    values["cli.experiment.cell_s"] = _ratio(sum(s.duration for s in cells), len(cells))

    diag = local_diagnostics(calls(timed, "pipeline.rosdos"))
    values["pipeline.fallback_frac"] = _ratio(diag["fallbacks"], diag["patches"])
    for r in (1, 2, 3):
        values[f"pipeline.local_rank.r{r}"] = diag["ranks"].get(r, 0) / cycles

    for name in SETUP_LAYERS:
        values[f"setup.{name}.s"] = _ratio(
            sum(s.duration for s in calls(setup, name)), setups)
    values["setup.numerics.random_orthogonal.calls"] = _ratio(
        len(calls(setup, "numerics.random_orthogonal")), setups)

    values["process.cpu_util"] = cpu_util
    values["trace.overhead_frac"] = overhead_frac
    return values


def local_diagnostics(rosdos_spans):
    """Local-rank histogram, patch and fallback counts as Diagnostics gave
    them, summed over the rosdos calls."""
    ranks = Counter()
    patches = fallbacks = 0
    for s in rosdos_spans:
        if s.info:
            ranks.update({int(k): v for k, v in s.info["ranks"].items()})
            patches += s.info["patches"]
            fallbacks += s.info["fallbacks"]
    return {"ranks": ranks, "patches": patches, "fallbacks": fallbacks}


def traced_local_ranks(spans):
    """The same histogram rebuilt from the patch-shrinkage spans alone: a
    patch that raised fell back, which Diagnostics records as rank -1."""
    names = {s.id: s.name for s in spans}
    ranks = Counter()
    for s in spans:
        if s.name == "shrinkage.eoptshrink" and names.get(s.parent) == "pipeline.rosdos":
            ranks[-1 if s.error else s.info["rank"]] += 1
    return ranks
