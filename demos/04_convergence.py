"""Measuring the convergence rate with the sweep harness.

A sweep evaluates one distance metric between the target star and its
approximant over a decreasing sequence of half-lengths d, then fits
log(metric) against log(d).  The scattering metric compares effective
S-matrices at a few momenta; the Hilbert-Schmidt metric compares resolvent
kernels on the truncated graphs at a point below the spectrum.  Both decay,
and the fitted slope estimates the convergence order.
"""

from qgraph import (
    CouplingKind,
    HSResolvent,
    NamedCoupling,
    ScatteringNorm,
    SweepConfig,
    named_to_st,
    report_to_csv,
    run_sweep,
)


def run(title, metric, d_values):
    st = named_to_st(NamedCoupling(kind=CouplingKind.DELTA_PRIME_S, n=3, beta=1.0))
    report = run_sweep(SweepConfig(st=st, metric=metric, d_values=d_values))
    print(f"--- {title}")
    print(report_to_csv(report), end="")
    print(f"fitted slope    {report.slope:.4f}")
    print(f"fit residual    {report.residual:.4f}")
    print()


def main():
    dyadic = tuple(2.0**-p for p in range(2, 9))
    run(
        "scattering-norm sweep, k in {0.5, 1, 2}",
        ScatteringNorm(k_list=(0.5, 1.0, 2.0)),
        dyadic,
    )
    run(
        "Hilbert-Schmidt resolvent sweep, z = -1, L = 1",
        HSResolvent(z=-1.0, L=1.0),
        tuple(2.0**-p for p in range(3, 8)),
    )
    print("the scattering distance decays about linearly in d at fixed momenta,")
    print("while the resolvent kernel distance shows the O(sqrt(d)) operator rate")


if __name__ == "__main__":
    main()
