"""Generate the paper-roseland input (M1, p=200, separable noise, alpha=1/3)
in a process of its own and save it as .npy files.

The n x n Haar QR inside ``separable_noise`` peaks near 1 GB at n=5000; doing
it here keeps that peak out of the measuring process's peak RSS.

    python3 -m perfbench.make_input --out DIR --n 5000 --seed 0 [--spans FILE]

With ``--spans`` the generation is traced and its spans are written to FILE.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from rosdos import synth

    from .layers import TARGETS
    from .trace import Tracer

    def generate():
        return synth.make_dataset(
            synth.ManifoldSpec(kind="m1", p=200, n=args.n, seed=args.seed),
            synth.NoiseSpec(kind="separable", alpha=1.0 / 3.0, seed=args.seed + 1),
        )

    if args.spans:
        tracer = Tracer()
        with tracer.installed(TARGETS):
            ds = generate()
        tracer.write(args.spans)
    else:
        ds = generate()
    np.save(os.path.join(args.out, "clean.npy"), ds.clean)
    np.save(os.path.join(args.out, "noisy.npy"), ds.noisy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
