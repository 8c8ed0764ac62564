"""The benchmark's workloads, their output checks, the BLAS warm-up and the
record of the environment a result was measured in.

A workload has a set-up (input generation, untimed), a cycle (the timed
section, driven through the public API or the in-process CLI) and a check of
each cycle's outputs. Inputs depend only on the seed.
"""

import csv
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import rosdos
from rosdos import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
P = 200


@dataclass
class CycleCheck:
    """Outcome of one timed cycle: operations attempted and failed, the
    quality figure it produced, and what went wrong."""

    attempted: int
    failed: int = 0
    nrmse: float | None = None
    problems: list = field(default_factory=list)


def nrmse_median(clean, estimate):
    """Median over samples of ||estimate_i - clean_i|| / ||clean_i||."""
    errors = np.linalg.norm(estimate - clean, axis=0) / np.linalg.norm(clean, axis=0)
    return float(np.median(errors))


def read_matrix(path):
    """Read the package's CSV format (one sample per line) with numpy's own
    parser, independently of rosdos.storage."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2).T


def matrix_problems(what, M, shape):
    if M.shape != shape:
        return [f"{what}: shape {M.shape}, expected {shape}"]
    if not np.all(np.isfinite(M)):
        return [f"{what}: non-finite entries"]
    return []


def quality_problems(what, value, raw):
    if not value < raw:
        return [f"{what}: NRMSE {value:.6g} is not below the noisy input's {raw:.6g}"]
    return []


def flush_files(directory):
    """fsync every file under directory, so the kernel's delayed write-back
    of set-up output does not land in the timed section."""
    for dirpath, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def warm_up():
    """Run the BLAS/LAPACK kernels the workloads use once, so their one-off
    first-call cost (thread start-up, workspace) is paid in set-up."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((P, 5000))
    np.linalg.svd(A, full_matrices=False)
    np.linalg.svd(A[:, :101], full_matrices=False)
    np.linalg.qr(A[:, :400] @ A[:, :400].T)
    np.linalg.eigh(A[:, :P] @ A[:, :P].T)
    B = A[:, :512].T @ A
    np.argsort(B, axis=1, kind="stable")
    np.median(A[:, :20], axis=1)


class PaperRoseland:
    name = "paper-roseland"
    why = ("ROADMAP reference run (M1, p=200, n=5000, separable, alpha=1/3, "
           "roseland): 5000 local patch shrinkages do nearly all the work")
    setup_repeats = 1  # one set-up costs ~11 s, mostly the 5000 x 5000 Haar QR
    ops = 1

    def __init__(self, seed, work_dir, n=5000):
        self.seed = seed
        self.n = n
        self.points = n
        self.data_dir = os.path.join(work_dir, "data")

    def setup(self, tracer=None):
        # the n x n Haar QR inside separable_noise peaks near 1 GB at n=5000;
        # a child process keeps that out of this process's peak RSS
        os.makedirs(self.data_dir, exist_ok=True)
        spans = os.path.join(self.data_dir, "spans.json")
        cmd = [sys.executable, "-m", "perfbench.make_input", "--out", self.data_dir,
               "--n", str(self.n), "--seed", str(self.seed)]
        if tracer is not None:
            cmd += ["--spans", spans]
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr)
        flush_files(self.data_dir)
        self.clean = np.load(os.path.join(self.data_dir, "clean.npy"))
        self.noisy = np.load(os.path.join(self.data_dir, "noisy.npy"))
        self.raw_nrmse = nrmse_median(self.clean, self.noisy)
        if tracer is not None:
            with open(spans) as fh:
                tracer.adopt(json.load(fh)["spans"])

    def reset(self):
        pass

    def cycle(self):
        return rosdos.rosdos(self.noisy, rosdos.PipelineConfig())

    def check(self, outcome):
        denoised, _ = outcome
        problems = matrix_problems("rosdos()", denoised, self.noisy.shape)
        value = None
        if not problems:
            value = nrmse_median(self.clean, denoised)
            problems += quality_problems("rosdos()", value, self.raw_nrmse)
        return CycleCheck(1, int(bool(problems)), value, problems)


class CliShrinkOnly:
    name = "cli-shrink-only"
    why = ("CSV round trip through the CLI (M3, gaussian, alpha=1/2): "
           "neighborhoods, median and file I/O, no patch shrinkage")
    setup_repeats = 3
    ops = 2  # denoise, evaluate

    def __init__(self, seed, work_dir, n=5000):
        self.seed = seed
        self.n = n
        self.points = n
        self.data_dir = os.path.join(work_dir, "data")
        self.out_dir = os.path.join(work_dir, "out")
        self.clean = None

    def _data(self, name):
        return os.path.join(self.data_dir, name)

    def _out(self, name):
        return os.path.join(self.out_dir, name)

    def setup(self, tracer=None):
        code = cli.main([
            "simulate", "--manifold", "m3", "--p", str(P), "--n", str(self.n),
            "--noise", "gaussian", "--alpha", "0.5", "--seed", str(self.seed),
            "--out", self.data_dir,
        ])
        if code != 0:
            raise RuntimeError(f"rosdos simulate exited with {code}")
        flush_files(self.data_dir)

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def cycle(self):
        denoise = cli.main([
            "denoise", "--input", self._data("noisy.csv"), "--mode", "shrink-only",
            "--seed", str(self.seed), "--out", self.out_dir,
        ])
        evaluate = cli.main([
            "evaluate", "--clean", self._data("clean.csv"),
            "--denoised", self._out("denoised.csv"),
            "--noisy", self._data("noisy.csv"), "--out", self._out("metrics.json"),
        ])
        return denoise, evaluate

    def check(self, outcome):
        if self.clean is None:
            self.clean = read_matrix(self._data("clean.csv"))
            self.raw_nrmse = nrmse_median(self.clean, read_matrix(self._data("noisy.csv")))
        denoise_code, evaluate_code = outcome
        denoise, evaluate = [], []
        value = None
        if denoise_code != 0:
            denoise.append(f"rosdos denoise exited with {denoise_code}")
        else:
            denoised = read_matrix(self._out("denoised.csv"))
            denoise = matrix_problems("denoised.csv", denoised, self.clean.shape)
            if not denoise:
                value = nrmse_median(self.clean, denoised)
                denoise = quality_problems("denoised.csv", value, self.raw_nrmse)
        if evaluate_code != 0:
            evaluate.append(f"rosdos evaluate exited with {evaluate_code}")
        elif value is not None:
            with open(self._out("metrics.json")) as fh:
                reported = json.load(fh)["nrmse_median"]
            if abs(reported - value) > 1e-9 * value:
                evaluate.append(f"metrics.json NRMSE {reported!r} != recomputed {value!r}")
        failed = int(bool(denoise)) + int(bool(evaluate))
        return CycleCheck(self.ops, failed, value, denoise + evaluate)


class ExperimentGrid:
    name = "experiment-grid"
    why = ("4-cell CLI experiment (m1/m3 x separable/gaussian, shrink-only): "
           "timed data generation and full-matrix eoptshrink, 16 reports")
    setup_repeats = 3
    METHODS = {"rosdos", "raw", "tsvd", "global-shrink"}
    CELLS = [(m, noise) for m in ("m1", "m3") for noise in ("separable", "gaussian")]
    ALPHA = 0.5
    ops = len(CELLS)

    def __init__(self, seed, work_dir, n=2000):
        self.seed = seed
        self.n = n
        self.points = n * len(self.CELLS)
        self.config = os.path.join(work_dir, "experiment.json")
        self.out_dir = os.path.join(work_dir, "out")

    def setup(self, tracer=None):
        with open(self.config, "w") as fh:
            json.dump({
                "p": P, "n": self.n,
                "manifolds": ["m1", "m3"], "noises": ["separable", "gaussian"],
                "alphas": [self.ALPHA],
                "pipeline": {"global_mode": "shrink-only"},
                "seed": self.seed,
            }, fh)

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def cycle(self):
        return cli.main(["experiment", "--config", self.config, "--out", self.out_dir])

    def check(self, outcome):
        if outcome != 0:
            return CycleCheck(self.ops, self.ops,
                              problems=[f"rosdos experiment exited with {outcome}"])
        problems = []
        failed_cells = set()
        failures = os.path.join(self.out_dir, "failures.json")
        if os.path.exists(failures):
            with open(failures) as fh:
                for f in json.load(fh):
                    failed_cells.add(f["cell"])
                    problems.append(f"cell {f['cell']} failed: {f['error']}")
        with open(os.path.join(self.out_dir, "summary.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = 0
        rosdos_nrmse = []
        for manifold, noise in self.CELLS:
            cell = f"{manifold}-{noise}-{self.ALPHA:.6g}"
            found = {r["method"]: float(r["nrmse_median"]) for r in rows
                     if (r["manifold"], r["noise"]) == (manifold, noise)}
            cell_problems = []
            if set(found) != self.METHODS:
                cell_problems.append(f"cell {cell}: methods {sorted(found)}")
            else:
                with open(os.path.join(self.out_dir, cell, "report_rosdos.json")) as fh:
                    errors = np.asarray(json.load(fh)["nrmse"], dtype=float)
                cell_problems += matrix_problems(f"cell {cell} NRMSE list", errors[None, :], (1, self.n))
                cell_problems += quality_problems(f"cell {cell}", found["rosdos"], found["raw"])
                rosdos_nrmse.append(found["rosdos"])
            failed += int(bool(cell_problems) or cell in failed_cells)
            problems += cell_problems
        worst = max(rosdos_nrmse) if rosdos_nrmse else None
        return CycleCheck(self.ops, failed, worst, problems)


WORKLOADS = {w.name: w for w in (PaperRoseland, CliShrinkOnly, ExperimentGrid)}


def environment(seed, workload):
    """Hardware and software the result was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it has none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
