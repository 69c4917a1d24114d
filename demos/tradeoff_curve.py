"""Tabulate the stretch-length tradeoff near stretch 1.

For a range of small stretch excesses s, prints three quantities per row:
the optimized lower bound on normalized length for Poisson cities, the
cone-road upper bound k * L_k at the matching stretch, and the
line-pattern optimum psi_star(1 + s) for patterns of parallel line
families. The lower and upper bounds bracket the (unknown) optimal curve:
the lower bound grows like s^(-3/8) and the cone-road upper bound like
s^(-3/4). The line-pattern optimum grows faster still, like s^(-5/4).

Run:  python demos/tradeoff_curve.py
"""

import math

from spanlab import analytic


def main() -> None:
    print(f"{'s':>10} {'lower bound':>12} {'cone upper':>12} {'line optimum':>13}")
    for s in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2):
        lower, h, L = analytic.prop38_lower_bound(s)
        k = math.ceil(math.pi / math.acos(1.0 / (1.0 + s)))
        upper = k * analytic.cone_Lk(k)
        line = analytic.psi_star(1.0 + s)
        print(f"{s:10.0e} {lower:12.4f} {upper:12.4f} {line:13.4f}")
    print()
    print("scaled by s^(3/8):")
    for s in (1e-4, 1e-3, 1e-2):
        lower = analytic.prop38_lower_bound(s)[0]
        print(f"  s={s:7.0e}  lower*s^(3/8) = {lower * s ** 0.375:.4f}")


if __name__ == "__main__":
    main()
