"""Regenerate the Chebyshev tables in ``src/qcwaves/_cyltables.py``.

Development utility only; requires mpmath. The shipped library never imports
it. Every table pairs two Chebyshev series in one variable t on [-1, 1], so
that ``specfun`` sums both in one Clenshaw pass.

* ``0 <= x <= XCUT``: with z = x^2/4 and t = z/2 - 1, the entire functions

      A_nu(z) = sum_k c_k,   B_nu(z) = -(1/2) sum_k (H_k + H_(k+nu)) c_k,
      c_k = (-z)^k / (k! (k+nu)!),  H_k the k-th harmonic number,

  give J0 = A_0, J1 = (x/2) A_1 and the regular parts of Y (DLMF 10.8.1)

      Y0 = (2/pi) ((ln(x/2) + gamma) A_0 + B_0)
      Y1 = (2/pi) ((ln(x/2) + gamma) J1 - 1/x + (x/2) B_1).

* ``x > XCUT``: the amplitude factors of the phase-amplitude form (DLMF 10.17)

      J_nu(x) = sqrt(2/(pi x)) (P_nu cos(chi) - Q_nu sin(chi))
      Y_nu(x) = sqrt(2/(pi x)) (P_nu sin(chi) + Q_nu cos(chi))

  with chi = x - (2 nu + 1) pi/4, tabulated as P_nu and 8x Q_nu on the
  pieces [4, 8], (8, 16] and (16, inf). On a piece from lo to hi the
  variable is u = (lo/x)^2, mapped affinely from [(lo/hi)^2, 1] onto
  [-1, 1]. P_nu and 8x Q_nu are smooth in u, so short tables suffice.

Coefficients come from the 50-digit Chebyshev interpolant at N_FIT nodes.
Each table keeps the shortest length whose dropped coefficients sum, in
absolute value, below TAIL in both of its series; the coefficients are
written with 18 significant digits, three to a line.

Run from the repository root:

    python tools/generate_cylinder_tables.py > src/qcwaves/_cyltables.py
"""

import mpmath as mp

mp.mp.dps = 50

XCUT = 4
EDGES = (8, 16)
N_FIT = 40
TAIL = mp.mpf("1e-18")
PER_LINE = 3


def small_parts(nu, t):
    """(A_nu, B_nu) at z = 2 (t + 1), summed to 50 digits."""
    z = 2 * (mp.mpf(t) + 1)
    c = mp.mpf(1) / mp.factorial(nu)
    h_k, h_k_nu = mp.mpf(0), mp.mpf(sum(mp.mpf(1) / j for j in range(1, nu + 1)))
    a, b = c, -(h_k + h_k_nu) * c / 2
    k = 0
    while abs(c) > mp.mpf("1e-60"):
        k += 1
        c *= -z / (k * (k + nu))
        h_k += mp.mpf(1) / k
        h_k_nu += mp.mpf(1) / (k + nu)
        a += c
        b -= (h_k + h_k_nu) * c / 2
    return a, b


def large_parts(nu, lo, hi, t):
    """(P_nu, 8x Q_nu) at the x of t on the piece from lo to hi (hi may be inf)."""
    u_min = 0 if hi == mp.inf else (mp.mpf(lo) / hi) ** 2
    u = ((1 - u_min) * t + 1 + u_min) / 2
    if u == 0:
        return mp.mpf(1), mp.mpf(4 * nu * nu - 1)
    x = lo / mp.sqrt(u)
    chi = x - (2 * nu + 1) * mp.pi / 4
    c, s = mp.cos(chi), mp.sin(chi)
    j, y = mp.besselj(nu, x), mp.bessely(nu, x)
    scale = mp.sqrt(mp.pi * x / 2)
    return scale * (j * c + y * s), 8 * x * scale * (y * c - j * s)


def chebyshev_pair(f):
    """Chebyshev coefficients of both parts of f(t), cut to the kept length."""
    ts = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / N_FIT) for j in range(N_FIT)]
    values = [f(t) for t in ts]
    series = []
    for part in (0, 1):
        coeffs = []
        for k in range(N_FIT):
            acc = mp.fsum(v[part] * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / N_FIT)
                          for j, v in enumerate(values))
            coeffs.append(acc * (1 if k == 0 else 2) / N_FIT)
        series.append(coeffs)
    n = N_FIT
    while n > 1 and all(mp.fsum(abs(c) for c in s[n - 1:]) < TAIL for s in series):
        n -= 1
    return [s[:n] for s in series]


def tables():
    """[((name_a, name_b), comment, f), ...] in file order; f(t) gives both parts."""
    out = [((f"A{nu}", f"B{nu}"), f"A_nu, B_nu for x <= {XCUT}, nu = {nu}",
            lambda t, nu=nu: small_parts(nu, t)) for nu in (0, 1)]
    for lo, hi in zip((XCUT,) + EDGES, EDGES + (mp.inf,)):
        out += [((f"P{nu}_{lo}", f"QT{nu}_{lo}"),
                 f"P_nu, 8x Q_nu for x from {lo} to {hi}, nu = {nu}",
                 lambda t, nu=nu, lo=lo, hi=hi: large_parts(nu, lo, hi, t)) for nu in (0, 1)]
    return out


def format_table(name, coeffs):
    """The source text of one coefficient tuple, PER_LINE coefficients to a line."""
    strs = [mp.nstr(c, 18, strip_zeros=False) for c in coeffs]
    lead = f"{name} = ("
    rows = (", ".join(strs[i:i + PER_LINE]) for i in range(0, len(strs), PER_LINE))
    return lead + (",\n" + " " * len(lead)).join(rows) + ")"


def main():
    print('"""Frozen Chebyshev tables for the cylinder functions J_nu and Y_nu, nu = 0, 1.')
    print()
    print("Generated by tools/generate_cylinder_tables.py, which documents the tabulated")
    print("functions and the variable t of each piece; do not edit by hand. Every table")
    print("holds the coefficients of degree 0, 1, ... of one Chebyshev series in t.")
    print('"""')
    print()
    print(f"XCUT = {float(XCUT)!r}")
    print(f"EDGES = {tuple(float(e) for e in EDGES)!r}")
    for names, comment, f in tables():
        print()
        print(f"# {comment}")
        for name, coeffs in zip(names, chebyshev_pair(f)):
            print(format_table(name, coeffs))


if __name__ == "__main__":
    main()
