"""Composition-identity sweep over random contraction chains.

For every chain length up to the limit and every split point, measures the
worst residual of the head/tail composition identity on a random grid in
the upper half-plane.

Usage: python3 scripts/run_khrushchev_sweep.py [max_length] [seed]
"""

import sys

import numpy as np

from snode_lab import sampling, snode, toeplitz


def main(argv):
    max_length = int(argv[0]) if argv else 8
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    pair = snode.ParamPair.constant(np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    zgrid = sampling.random_upper_points(rng, 30)

    overall = 0.0
    for length in range(1, max_length + 1):
        chain = toeplitz.chain_from_contractions(
            [sampling.random_contraction(rng, 1) for _ in range(length)]
        )
        worst = max(
            toeplitz.khrushchev_check(chain, split, pair, zgrid)
            for split in range(length + 1)
        )
        overall = max(overall, worst)
        print(f"length {length}: worst residual over all splits = {worst:.3e}")
    print(f"overall worst = {overall:.3e} (identity is exact; residuals are rounding)")
    return 0 if overall <= 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
