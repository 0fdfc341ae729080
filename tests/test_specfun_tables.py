"""The frozen Chebyshev tables of ``specfun`` against mpmath, branch by branch
and piece by piece, and the generator that writes them.

The references do not use the tables. Their sums run in fixed point, as
integers scaled by 2^BITS: the ascending series (DLMF 10.2.2, 10.8.1) for
x <= 20, whose terms reach 1e7 there and cancel to O(1), and the Hankel
expansion (DLMF 10.17.3) for x > 20, stopped below 2^-80 or at its smallest
term (below 1e-17 at x = 20). mpmath then forms J and Y at 40 digits, with
the phase from the exact cos x and sin x. Each reference is kept as a
double-double (hi, lo), so the error of a double result is found to far
below one ulp.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from qcwaves import _cyltables, specfun  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EPS = sys.float_info.epsilon
# |J - J_ref| and |Y - Y_ref| <= C * eps * |H|, i.e. 1e-15 |H|; the worst seen is 2.7 eps.
C = 4.5
BOUND = C * EPS
# bisect index of an argument: the series branch, then the three large-argument pieces
PIECES = ("[0, 4]", "(4, 8]", "(8, 16]", "(16, inf)")
SERIES_REFERENCE_MAX = 20.0
BITS = 256
ONE = 1 << BITS


def _series_reference(x):
    """(J0, Y0, J1, Y1) at 0 < x <= 20 from the ascending series."""
    n, d = x.as_integer_ratio()
    z = (n * n << BITS) // (4 * d * d)
    c0, h, k = ONE, 0, 0  # (-z)^k / (k!)^2 and H_k; c0 / (k + 1) is the order-one term
    j0 = j1 = s0 = s1 = 0  # sum c_k and sum (H_k + H_(k+nu)) c_k, for nu = 0 and 1
    while abs(c0) > 1:
        c1, h1 = c0 // (k + 1), h + ONE // (k + 1)
        j0, j1 = j0 + c0, j1 + c1
        s0, s1 = s0 + (2 * h * c0 >> BITS), s1 + ((h + h1) * c1 >> BITS)
        k += 1
        c0, h = -(c0 * z >> BITS) // (k * k), h1
    with mp.workdps(40):
        xm = mp.mpf(x)
        j0, j1, s0, s1 = (mp.mpf(v) / ONE for v in (j0, j1, s0, s1))
        log_term = mp.log(xm / 2) + mp.euler
        big_j1 = xm / 2 * j1
        return (+j0, 2 / mp.pi * (log_term * j0 - s0 / 2),
                big_j1, 2 / mp.pi * (log_term * big_j1 - 1 / xm - xm / 4 * s1))


def _hankel_reference(x):
    """(J0, Y0, J1, Y1) at x > 20 from the Hankel expansion."""
    n, d = x.as_integer_ratio()
    w = (d << BITS) // (8 * n)  # 1/(8x)
    with mp.workdps(40):
        xm = mp.mpf(x)
        cx, sx = mp.cos(xm), mp.sin(xm)
        amplitude = mp.sqrt(1 / (mp.pi * xm))  # sqrt(2/(pi x)) / sqrt(2)
        out = []
        # sqrt(2) (cos, sin) of chi_nu = x - (2 nu + 1) pi/4
        for nu, (c, s) in enumerate(((cx + sx, sx - cx), (sx - cx, -cx - sx))):
            a, p, q, k = ONE, ONE, 0, 0  # a_k(nu) / x^k, P_nu and Q_nu
            while abs(a) >> (BITS - 80):
                k += 1
                nxt = (a * (4 * nu * nu - (2 * k - 1) ** 2) * w >> BITS) // k
                if abs(nxt) >= abs(a):  # the expansion diverges from here
                    break
                a = nxt
                if k % 2:
                    q += a * (-1) ** (k // 2)
                else:
                    p += a * (-1) ** (k // 2)
            p, q = mp.mpf(p) / ONE, mp.mpf(q) / ONE
            out += [amplitude * (p * c - q * s), amplitude * (p * s + q * c)]
        return tuple(out)


def _double_double(v):
    hi = float(v)
    return hi, float(v - hi)


@pytest.fixture(scope="module")
def reference():
    """Seeded arguments, each branch and piece well covered, and their references."""
    rng = np.random.default_rng(2026)
    tiny = math.log10(sys.float_info.min)
    xs = np.concatenate([10.0 ** rng.uniform(tiny, 300.0, 1000), rng.uniform(0.0, 64.0, 1000)])
    xs = [x for x in xs.tolist() if x >= sys.float_info.min]
    for edge in (4.0, 8.0, 16.0):
        xs += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    rows = []
    for x in xs:
        values = _series_reference(x) if x <= SERIES_REFERENCE_MAX else _hankel_reference(x)
        j0, y0, j1, y1 = values
        rows.append([*_double_double(j0), *_double_double(y0), float(mp.hypot(j0, y0)),
                     *_double_double(j1), *_double_double(y1), float(mp.hypot(j1, y1))])
    return np.array(xs), np.array(rows)


def _worst_errors(reference):
    """{(nu, piece): (largest error over |H|, its x)} of the production code."""
    xs, rows = reference
    pieces = np.searchsorted((4.0, 8.0, 16.0), xs, side="left")
    worst = {}
    for nu, hankel in enumerate((specfun.hankel1_0, specfun.hankel1_1)):
        h = np.array([hankel(x) for x in xs.tolist()])
        j_hi, j_lo, y_hi, y_lo, modulus = rows[:, 5 * nu:5 * nu + 5].T
        err = np.maximum(abs((h.real - j_hi) - j_lo), abs((h.imag - y_hi) - y_lo)) / modulus
        for piece in range(len(PIECES)):
            sel = np.flatnonzero(pieces == piece)
            i = sel[np.argmax(err[sel])]
            worst[nu, piece] = (float(err[i]), float(xs[i]))
    return worst


def test_every_branch_and_piece_is_within_bound(reference):
    xs, _ = reference
    assert len(xs) >= 2000
    counts = np.bincount(np.searchsorted((4.0, 8.0, 16.0), xs, side="left"))
    assert counts.min() >= 50, counts  # every branch and piece is sampled
    for (nu, piece), (err, x) in _worst_errors(reference).items():
        where = f"nu = {nu}, x in {PIECES[piece]}"
        assert err <= BOUND, f"{where}: {err / EPS:.2f} eps |H| at x = {x!r}"


TABLES = [name for name in vars(_cyltables) if name[0] in "ABPQ"]


@pytest.mark.parametrize("name", TABLES)
def test_a_perturbed_table_fails_the_bound(reference, name):
    """Negative control: 1e-14 more in the degree-0 coefficient of any one table.

    An 8x Q_nu table enters divided by 8x, so it gets 8 lo times as much: a
    change of 1e-14 in Q_nu at the lower end lo of its piece.
    """
    table = getattr(_cyltables, name)
    delta = 1e-14 * (8.0 * float(name.split("_")[1]) if name.startswith("QT") else 1.0)
    try:
        setattr(_cyltables, name, (table[0] + delta,) + table[1:])
        importlib.reload(specfun)
        worst = _worst_errors(reference)
    finally:
        setattr(_cyltables, name, table)
        importlib.reload(specfun)
    assert max(err for err, _ in worst.values()) > BOUND


def test_generator_reproduces_the_smallest_table():
    """The committed tables are the generator's output, not hand edits."""
    spec = importlib.util.spec_from_file_location(
        "generate_cylinder_tables", ROOT / "tools" / "generate_cylinder_tables.py")
    gen = importlib.util.module_from_spec(spec)
    dps = mp.mp.dps
    try:
        spec.loader.exec_module(gen)  # sets 50 digits
        names, _, f = min(gen.tables(), key=lambda entry: len(getattr(_cyltables, entry[0][0])))
        coeffs = gen.chebyshev_pair(f)
    finally:
        mp.mp.dps = dps
    source = Path(_cyltables.__file__).read_text(encoding="utf-8")
    for name, series in zip(names, coeffs):
        assert gen.format_table(name, series) in source, name
