"""Command-line front end: simulate / denoise / evaluate / experiment."""

import argparse
import csv
import dataclasses
import itertools
import os
import sys
import time
import zlib

import numpy as np

from . import storage
from .evaluation import baseline_tsvd, summarize
from .numerics import is_real
from .pipeline import MODE_ROSELAND, MODES, PipelineConfig, rosdos
from .shrinkage import check_size, eoptshrink
from .synth import ManifoldSpec, NoiseSpec, check_specs, make_dataset

_BASELINES = ("raw", "tsvd", "global-shrink")
_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)]

# an experiment config's keys and their defaults
_EXPERIMENT = {
    "p": 200, "n": 5000,
    "manifolds": ["m1", "m3"], "noises": ["gaussian", "separable"],
    "alphas": [1.0, 0.5, 1.0 / 3.0], "pipeline": {},
    "baselines": list(_BASELINES), "seed": 0,
}
# the report fields in each summary.csv row, after its cell and method
_REPORTED = ("msnr_db", "nrmse_median", "nrmse_mean", "noise_ratio_median")

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _cell_seed(master_seed, cell_id):
    """Deterministic per-cell seed derived from the master seed."""
    digest = zlib.crc32(cell_id.encode("utf-8"))
    return int(np.random.SeedSequence([master_seed, digest]).generate_state(1)[0])


def _pipeline_config(settings, n, **fixed):
    """Build and validate a PipelineConfig from a mapping of its fields; the
    fields passed as keywords are the caller's, and settings may not name them."""
    if not isinstance(settings, dict):
        raise ValueError(f"pipeline must be an object, got {settings!r}")
    keys = sorted(set(_FIELDS) - set(fixed))
    unknown = sorted(set(settings) - set(keys))
    if unknown:
        raise ValueError(f"unknown pipeline keys {unknown}; choose from {keys}")
    cfg = PipelineConfig(**settings, **fixed)
    cfg.validate(n)
    return cfg


def _save_diagnostics(out, diag, cfg, **extra):
    """Write a rosdos run's diagnostics.json: its Diagnostics, its config and
    the extra keys."""
    record = {**dataclasses.asdict(diag), "config": dataclasses.asdict(cfg),
              **extra}
    storage.save_json(os.path.join(out, "diagnostics.json"), record)


def cmd_simulate(args):
    mspec = ManifoldSpec(kind=args.manifold, p=args.p, n=args.n, seed=args.seed)
    nspec = NoiseSpec(kind=args.noise, alpha=args.alpha, seed=args.seed + 1)
    ds = make_dataset(mspec, nspec)

    out = args.out
    os.makedirs(out, exist_ok=True)
    meta = {
        "manifold": args.manifold,
        "noise": args.noise,
        "alpha": args.alpha,
        "p": args.p,
        "n": args.n,
        "seed": args.seed,
        "msnr_db": ds.msnr_db,
    }
    storage.save_matrix(os.path.join(out, "clean.csv"), ds.clean, meta)
    storage.save_matrix(os.path.join(out, "noisy.csv"), ds.noisy, meta)
    latent = ds.latent if ds.latent.ndim == 2 else ds.latent.reshape(-1, 1)
    storage.save_matrix(os.path.join(out, "latent.csv"), latent.T, meta)
    storage.save_json(os.path.join(out, "meta.json"), meta)
    print(f"mSNR: {ds.msnr_db:.2f} dB")
    return EXIT_OK


def cmd_denoise(args):
    X = storage.load_matrix(args.input)
    settings = {name: getattr(args, name) for name in _FIELDS}
    if args.h != "auto":
        settings["h"] = float(args.h)
    cfg = _pipeline_config(settings, X.shape[1])
    t0 = time.perf_counter()
    denoised, diag = rosdos(X, cfg)
    elapsed = time.perf_counter() - t0

    out = args.out
    os.makedirs(out, exist_ok=True)
    storage.save_matrix(os.path.join(out, "denoised.csv"), denoised,
                        {"config": dataclasses.asdict(cfg)})
    _save_diagnostics(out, diag, cfg, wallclock_seconds=elapsed)
    print(f"denoised {X.shape[0]}x{X.shape[1]} in {elapsed:.1f}s")
    return EXIT_OK


def cmd_evaluate(args):
    clean = storage.load_matrix(args.clean)
    denoised = storage.load_matrix(args.denoised)
    if clean.shape != denoised.shape:
        raise ValueError(
            f"shape mismatch: clean {clean.shape} vs denoised {denoised.shape}"
        )
    noise = None
    if args.noisy:
        noise = storage.load_matrix(args.noisy)
        if noise.shape != clean.shape:
            raise ValueError(
                f"shape mismatch: clean {clean.shape} vs noisy {noise.shape}"
            )
        noise -= clean  # in place: one n-column matrix fewer
    report = summarize(clean, denoised, noise=noise)
    storage.save_json(args.out, report)
    print(f"nrmse_median: {report['nrmse_median']:.6g}")
    return EXIT_OK


def _run_cell(mspec, nspec, cfg, baselines, out):
    ds = make_dataset(mspec, nspec)
    cfg = dataclasses.replace(cfg, seed=mspec.seed)

    os.makedirs(out, exist_ok=True)
    rows = []

    t0 = time.perf_counter()
    denoised, diag = rosdos(ds.noisy, cfg)
    elapsed = time.perf_counter() - t0
    results = {"rosdos": (denoised, elapsed)}
    extra = {"wallclock_seconds": elapsed}

    # tsvd and global-shrink share one whole-matrix shrinkage; each counts
    # its time as its own
    shared_secs = 0.0
    if {"tsvd", "global-shrink"} & set(baselines):
        t0 = time.perf_counter()
        shrink = eoptshrink(ds.noisy, k=cfg.k_imp)
        shared_secs = time.perf_counter() - t0
        extra["baseline_warnings"] = shrink.warnings
    _save_diagnostics(out, diag, cfg, **extra)

    for name in baselines:
        t0 = time.perf_counter()
        if name == "raw":
            est = ds.noisy
        elif name == "tsvd":
            est = baseline_tsvd(ds.noisy, max(shrink.effective_rank, 1))
        else:  # global-shrink
            est = shrink.denoised
        secs = time.perf_counter() - t0
        if name != "raw":
            secs += shared_secs
        results[name] = (est, secs)

    for method, (est, secs) in results.items():
        report = summarize(
            ds.clean,
            est,
            noise=ds.noise,
            timing=secs,
            config={"method": method, **dataclasses.asdict(cfg)},
        )
        storage.save_json(os.path.join(out, f"report_{method}.json"), report)
        rows.append((mspec.kind, nspec.kind, nspec.alpha, method,
                     *(report[name] for name in _REPORTED)))
    return rows


def cmd_experiment(args):
    config = storage.load_json(args.config)
    if not isinstance(config, dict):
        raise ValueError(
            f"{args.config} must hold a JSON object, got {type(config).__name__}"
        )
    unknown = sorted(set(config) - set(_EXPERIMENT))
    if unknown:
        raise ValueError(
            f"unknown experiment keys {unknown}; choose from {sorted(_EXPERIMENT)}"
        )
    config = {**_EXPERIMENT, **config}
    p, n, baselines = config["p"], config["n"], config["baselines"]
    for key in ("manifolds", "noises", "alphas", "baselines"):
        if not isinstance(config[key], list):
            raise ValueError(f"{key} must be a JSON array, got {config[key]!r}")
    grid = list(itertools.product(
        config["manifolds"], config["noises"], config["alphas"]))
    if not grid:
        raise ValueError("the experiment grid has no cells")
    unknown = [name for name in baselines if name not in _BASELINES]
    if unknown:
        raise ValueError(
            f"unknown baselines {unknown}; choose from {list(_BASELINES)}"
        )
    # cfg carries the master seed, so validate checks it; each cell then
    # runs at a seed derived from the master seed and the cell's name
    cfg = _pipeline_config(config["pipeline"], n, seed=config["seed"])
    cells = {}
    for manifold, noise, alpha in grid:
        if not is_real(alpha):  # the cell's name formats it
            raise ValueError(f"alpha must be a real number, got {alpha!r}")
        cell = f"{manifold}-{noise}-{alpha:.6g}"
        if cell in cells:
            # each cell writes to a directory and takes a seed named after it
            raise ValueError(f"experiment cells share a name: {cell}")
        seed = _cell_seed(cfg.seed, cell)
        cells[cell] = (ManifoldSpec(manifold, p, n, seed),
                       NoiseSpec(noise, alpha, seed + 1))
        check_specs(*cells[cell])
    # tsvd, global-shrink and the non-roseland modes shrink the whole matrix
    if cfg.global_mode != MODE_ROSELAND or {"tsvd", "global-shrink"} & set(baselines):
        check_size(p, n, cfg.k_imp)
    out = args.out
    os.makedirs(out, exist_ok=True)

    rows = []
    failures = []
    for cell, (mspec, nspec) in cells.items():
        try:
            rows.extend(_run_cell(mspec, nspec, cfg, baselines,
                                  os.path.join(out, cell)))
            print(f"cell {cell}: ok")
        except Exception as exc:  # a failing cell must not kill the run
            failures.append({"cell": cell, "error": str(exc)})
            print(f"cell {cell}: FAILED ({exc})", file=sys.stderr)

    summary_path = os.path.join(out, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("manifold", "noise", "alpha", "method", *_REPORTED))
        writer.writerows(rows)
    if failures:
        storage.save_json(os.path.join(out, "failures.json"), failures)
    return EXIT_OK if rows else EXIT_IO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rosdos",
        description="Noise-robust manifold denoising via landmark diffusion "
        "and optimal singular-value shrinkage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic noisy dataset")
    sim.add_argument("--manifold", choices=["m1", "m3"], required=True)
    sim.add_argument("--p", type=int, default=200)
    sim.add_argument("--n", type=int, default=5000)
    sim.add_argument("--noise", choices=["gaussian", "separable"], required=True)
    sim.add_argument("--alpha", type=float, default=0.5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")
    sim.set_defaults(func=cmd_simulate)

    den = sub.add_parser("denoise", help="denoise a matrix from disk")
    den.add_argument("--input", required=True)
    den.add_argument("--mode", dest="global_mode", choices=MODES)
    den.add_argument("--h")
    den.add_argument("--gamma", type=float)
    den.add_argument("--q", dest="q_prime", metavar="Q", type=int)
    den.add_argument("--t", type=float)
    den.add_argument("--K", type=int)
    den.add_argument("--k", dest="k_local", metavar="K", type=int)
    den.add_argument("--k-imp", dest="k_imp", type=int)
    den.add_argument("--seed", type=int)
    den.add_argument("--out", default=".")
    # a flag left out takes its PipelineConfig field's default
    den.set_defaults(func=cmd_denoise, **dataclasses.asdict(PipelineConfig()))

    ev = sub.add_parser("evaluate", help="score a denoised matrix")
    ev.add_argument("--clean", required=True)
    ev.add_argument("--denoised", required=True)
    ev.add_argument("--noisy", default=None)
    ev.add_argument("--out", default="metrics.json")
    ev.set_defaults(func=cmd_evaluate)

    exp = sub.add_parser("experiment", help="run a full simulation grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=".")
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
