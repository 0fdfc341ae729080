"""Command-line front end.

Subcommands:

* ``qcwaves decompose --material m.json [--omega W1,W2,...]`` prints the
  spectral decomposition and per-frequency wave parameters.
* ``qcwaves sample --material m.json --scenario s.json --out field.csv``
  samples a solution family on a grid or point list and writes CSV plus a
  JSON metadata sidecar (``<out>.meta.json`` unless ``--no-sidecar``).
* ``qcwaves verify --material m.json [--omega LIST] [--suite NAMES]
  [--seed N] [--report r.json]`` runs the verification suites and writes a
  JSON report.

Exit codes: 0 success, 2 validation/parse error or an output file that
cannot be written, 3 evaluation error or running out of memory, 4
verification failure. Each output path is opened for appending before any
input is read (a file this creates is removed again), so a path that open
refuses costs no work, and ``material.wave_table`` checks every ``--omega``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import ParseError, QcError, ValidationError
from .material import decompose, wave_table
from .scenario import _write_json, load_material, load_scenario, run_scenario
from .verify import DEFAULT_SEED, SUITES, all_passed, run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EVALUATION = 3
EXIT_VERIFY_FAILED = 4


def _parse_omegas(text: str) -> list[float]:
    """Parse a comma-separated list of finite numbers; wave_table checks them as frequencies."""
    try:
        omegas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"could not parse omega list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, omegas)):
        raise ParseError(f"omega list {text!r} must hold finite numbers")
    return omegas


def _check_writable(*paths: str | None) -> None:
    """Open each path for appending, which truncates nothing, so an OSError comes before any
    work. A file this creates is removed at the end of its symlink chain: a dangling link stays."""
    for path in (p for p in paths if p is not None):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(os.path.realpath(path))


def cmd_decompose(args) -> int:
    m = load_material(args.material)
    waves = [] if args.omega is None else wave_table(m, _parse_omegas(args.omega))  # before output
    d = decompose(m)
    print(f"material: c44={m.c44:g} Pa  R3={m.R3:g} Pa  K2={m.K2:g} Pa  rho={m.rho:g} kg/m^3")
    print(f"a1 = {d.a1:.12g} Pa")
    print(f"a2 = {d.a2:.12g} Pa")
    note = ""
    if m.R3 == 0.0:
        note = "  (R3 = 0: angle set by continuity rule)"
    print(f"psi = {d.psi:.12g} rad = {math.degrees(d.psi):.10g} deg{note}")
    if waves:
        print(f"{'omega [rad/s]':>16} {'k1 [1/m]':>16} {'k2 [1/m]':>16} "
              f"{'c1 [m/s]':>12} {'c2 [m/s]':>12}")
        for wp in waves:
            print(f"{wp.omega:16.8g} {wp.k1:16.10g} {wp.k2:16.10g} "
                  f"{wp.c1:12.8g} {wp.c2:12.8g}")
    return EXIT_OK


def cmd_sample(args) -> int:
    sidecar = None if args.no_sidecar else args.out + ".meta.json"
    _check_writable(args.out, sidecar)
    m = load_material(args.material)
    s = load_scenario(args.scenario)
    rows = run_scenario(s, m, args.out, sidecar)
    print(f"wrote {rows} rows to {args.out}")
    if sidecar:
        print(f"wrote sidecar {sidecar}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_writable(args.report or None)  # an empty --report writes no report
    m = load_material(args.material)
    omegas = _parse_omegas(args.omega)
    suite_names = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    checks = []
    for check in run(m, omegas, suite_names, args.seed):
        checks.append(check)
        print(f"[{check['status']:>7}] {check['name']} @ omega={check['omega']:g}")
    passed = all_passed(checks)
    if args.report:
        _write_json(args.report, m, omega=omegas, seed=args.seed, checks=checks,
                    all_passed=passed)
        print(f"wrote report {args.report}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcwaves",
        description="Quasicrystal anti-plane fundamental solutions, Green's "
                    "functions and free fields.",
    )
    parser.add_argument("--version", action="version", version=f"qcwaves {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print the spectral decomposition")
    p.add_argument("--material", required=True, help="material JSON file")
    p.add_argument("--omega", help="comma-separated angular frequencies [rad/s]")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sample", help="sample a solution family to CSV")
    p.add_argument("--material", required=True, help="material JSON file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--no-sidecar", action="store_true",
                   help="skip the JSON metadata sidecar")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--material", required=True, help="material JSON file")
    p.add_argument("--omega", default="1.0",
                   help="comma-separated angular frequencies (default: 1.0)")
    p.add_argument("--suite", default=",".join(SUITES),
                   help=f"comma-separated suite names (default: all of {tuple(SUITES)})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="random seed recorded in the report")
    p.add_argument("--report", help="write the JSON report to this path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:  # parse errors and every invalid input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QcError as exc:  # EvaluationError and every other library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except OSError as exc:  # inputs are read as ParseError: only an output can fail here
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a grid within MAX_POINTS can still exceed the memory at hand
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
