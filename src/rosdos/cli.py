"""Command-line front end: simulate / denoise / evaluate / experiment."""

import argparse
import csv
import dataclasses
import itertools
import numbers
import os
import sys
import time
import zlib

import numpy as np

from . import storage
from .evaluation import baseline_tsvd, summarize
from .pipeline import PipelineConfig, rosdos
from .shrinkage import eoptshrink
from .synth import ManifoldSpec, NoiseSpec, check_specs, make_dataset

ENV_OUTPUT_DIR = "ROSDOS_OUTPUT_DIR"

_BASELINES = ("raw", "tsvd", "global-shrink")

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _default_out():
    return os.environ.get(ENV_OUTPUT_DIR, ".")


def _cell_seed(master_seed, cell_id):
    """Deterministic per-cell seed derived from the master seed."""
    digest = zlib.crc32(cell_id.encode("utf-8"))
    return int(np.random.SeedSequence([master_seed, digest]).generate_state(1)[0])


def _pipeline_config(args, n):
    cfg = PipelineConfig(
        global_mode=args.mode,
        h="auto" if args.h == "auto" else float(args.h),
        gamma=args.gamma,
        q_prime=args.q,
        t=args.t,
        K=args.K,
        k_local=args.k,
        k_imp=args.k_imp,
        seed=args.seed,
    )
    cfg.validate(n)
    return cfg


def _experiment_config(pipeline_args, n):
    """The experiment's pipeline settings, checked once for all cells; each
    cell sets its own seed."""
    if not isinstance(pipeline_args, dict):
        raise ValueError(f"pipeline must be an object, got {pipeline_args!r}")
    keys = {f.name for f in dataclasses.fields(PipelineConfig)} - {"seed"}
    unknown = sorted(set(pipeline_args) - keys)
    if unknown:
        raise ValueError(
            f"unknown pipeline keys {unknown}; choose from {sorted(keys)}"
        )
    cfg = PipelineConfig(**pipeline_args)
    cfg.validate(n)
    return cfg


def _save_diagnostics(out, diag, cfg, **extra):
    """Write a rosdos run's diagnostics.json: its Diagnostics, its config and
    the extra keys."""
    record = {**diag.to_dict(), "config": cfg.to_dict(), **extra}
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
    header = {k: v for k, v in meta.items()}
    storage.save_matrix(os.path.join(out, "clean.csv"), ds.clean, header)
    storage.save_matrix(os.path.join(out, "noisy.csv"), ds.noisy, header)
    latent = ds.latent if ds.latent.ndim == 2 else ds.latent.reshape(-1, 1)
    storage.save_matrix(os.path.join(out, "latent.csv"), latent.T, header)
    storage.save_json(os.path.join(out, "meta.json"), meta)
    print(f"mSNR: {ds.msnr_db:.2f} dB")
    return EXIT_OK


def cmd_denoise(args):
    X = storage.load_matrix(args.input)
    cfg = _pipeline_config(args, X.shape[1])
    t0 = time.perf_counter()
    denoised, diag = rosdos(X, cfg)
    elapsed = time.perf_counter() - t0

    out = args.out
    os.makedirs(out, exist_ok=True)
    storage.save_matrix(
        os.path.join(out, "denoised.csv"), denoised, {"config": cfg.to_dict()}
    )
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
        noisy = storage.load_matrix(args.noisy)
        if noisy.shape != clean.shape:
            raise ValueError(
                f"shape mismatch: clean {clean.shape} vs noisy {noisy.shape}"
            )
        noise = noisy - clean
    report = summarize(clean, denoised, noise=noise)
    storage.save_json(args.out, report.to_dict())
    print(f"nrmse_median: {report.nrmse_median:.6g}")
    return EXIT_OK


def _run_cell(p, n, manifold, noise, alpha, cfg, baselines, seed, out):
    mspec = ManifoldSpec(kind=manifold, p=p, n=n, seed=seed)
    nspec = NoiseSpec(kind=noise, alpha=alpha, seed=seed + 1)
    ds = make_dataset(mspec, nspec)
    cfg = dataclasses.replace(cfg, seed=seed)

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
            config={"method": method, **cfg.to_dict()},
        )
        storage.save_json(os.path.join(out, f"report_{method}.json"), report.to_dict())
        rows.append(
            {
                "manifold": manifold,
                "noise": noise,
                "alpha": alpha,
                "method": method,
                "msnr_db": report.msnr_db,
                "nrmse_median": report.nrmse_median,
                "nrmse_mean": report.nrmse_mean,
                "noise_ratio_median": report.noise_ratio_median,
            }
        )
    return rows


def cmd_experiment(args):
    config = storage.load_json(args.config)
    p = config.get("p", 200)
    n = config.get("n", 5000)
    manifolds = config.get("manifolds", ["m1", "m3"])
    noises = config.get("noises", ["gaussian", "separable"])
    alphas = config.get("alphas", [1.0, 0.5, 1.0 / 3.0])
    pipeline_args = config.get("pipeline", {})
    baselines = config.get("baselines", ["raw", "tsvd", "global-shrink"])
    master_seed = config.get("seed", 0)
    out = config.get("output_dir", args.out)

    if isinstance(master_seed, bool) or not (
        isinstance(master_seed, numbers.Integral) and master_seed >= 0
    ):
        raise ValueError(f"seed must be an integer >= 0, got {master_seed!r}")
    for key, value in (("manifolds", manifolds), ("noises", noises),
                       ("alphas", alphas), ("baselines", baselines)):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a JSON array, got {value!r}")
    grid = list(itertools.product(manifolds, noises, alphas))
    if not grid:
        raise ValueError("the experiment grid has no cells")
    for manifold, noise, alpha in grid:
        check_specs(ManifoldSpec(manifold, p, n, 0), NoiseSpec(noise, alpha, 0))
    cells = [(f"{m}-{noise}-{alpha:.6g}", m, noise, alpha) for m, noise, alpha in grid]
    names = [cell for cell, *_ in cells]
    clashes = sorted({cell for cell in names if names.count(cell) > 1})
    if clashes:
        # each cell writes to a directory and takes a seed named after it
        raise ValueError(f"experiment cells share a name: {', '.join(clashes)}")
    unknown = [name for name in baselines if name not in _BASELINES]
    if unknown:
        raise ValueError(
            f"unknown baselines {unknown}; choose from {list(_BASELINES)}"
        )
    cfg = _experiment_config(pipeline_args, n)
    os.makedirs(out, exist_ok=True)

    rows = []
    failures = []
    for cell, manifold, noise, alpha in cells:
        cell_dir = os.path.join(out, cell)
        seed = _cell_seed(master_seed, cell)
        try:
            rows.extend(
                _run_cell(
                    p, n, manifold, noise, alpha,
                    cfg, baselines, seed, cell_dir,
                )
            )
            print(f"cell {cell}: ok")
        except Exception as exc:  # a failing cell must not kill the run
            failures.append({"cell": cell, "error": str(exc)})
            print(f"cell {cell}: FAILED ({exc})", file=sys.stderr)

    summary_path = os.path.join(out, "summary.csv")
    fields = [
        "manifold", "noise", "alpha", "method",
        "msnr_db", "nrmse_median", "nrmse_mean", "noise_ratio_median",
    ]
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
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
    sim.add_argument("--out", default=_default_out())
    sim.set_defaults(func=cmd_simulate)

    den = sub.add_parser("denoise", help="denoise a matrix from disk")
    den.add_argument("--input", required=True)
    den.add_argument(
        "--mode",
        choices=["roseland", "global-shrink", "shrink-only"],
        default="roseland",
    )
    den.add_argument("--h", default="auto")
    den.add_argument("--gamma", type=float, default=0.5)
    den.add_argument("--q", type=int, default=10)
    den.add_argument("--t", type=float, default=1)
    den.add_argument("--K", type=int, default=100)
    den.add_argument("--k", type=int, default=20)
    den.add_argument("--k-imp", dest="k_imp", type=int, default=10)
    den.add_argument("--seed", type=int, default=0)
    den.add_argument("--out", default=_default_out())
    den.set_defaults(func=cmd_denoise)

    ev = sub.add_parser("evaluate", help="score a denoised matrix")
    ev.add_argument("--clean", required=True)
    ev.add_argument("--denoised", required=True)
    ev.add_argument("--noisy", default=None)
    ev.add_argument("--out", default="metrics.json")
    ev.set_defaults(func=cmd_evaluate)

    exp = sub.add_parser("experiment", help="run a full simulation grid")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=_default_out())
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
