"""Measure a Delaunay network over a Poisson configuration.

Builds the Delaunay triangulation of a rate-1 Poisson process on a torus,
then reports its normalized length against the known mean-length constant
32/(3 pi) and its steiner-mode stretch against the planar Delaunay
worst-case spanning ratio 2.4185.

Run:  python demos/measure_delaunay.py [seed]
"""

import math
import sys

from spanlab import metrics, nets
from spanlab.configs import Window, poisson


def main(seed: int = 0) -> None:
    window = Window.square(40)
    cfg = poisson(window, seed=seed, torus=True)
    net = nets.delaunay(cfg)

    length = metrics.normalized_length(net, 0.0)
    rep = metrics.stretch(net, "steiner", seed=seed)

    target = 32.0 / (3.0 * math.pi)
    print(f"cities                  {cfg.n}")
    print(f"normalized length       {length:.4f}   (mean-field value {target:.4f})")
    print(f"steiner stretch         {rep.max_ratio:.4f}   (worst-case bound 2.4185)")
    print(f"argmax pair             {rep.argmax_pair}")
    print(f"stretch percentiles     p50={rep.percentiles['p50']:.4f} "
          f"p90={rep.percentiles['p90']:.4f} p99={rep.percentiles['p99']:.4f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
