"""Command-line front end.

One executable with a --command selector:

  enumerate     basis sizes per slice
  homology      homology dimension table for one loop order (cached)
  verify-dsq    products of consecutive differential matrices are zero
  verify-chain  the comparison map commutes with the differentials
  verify-thm1   homology equality and induced isomorphism per loop order
  verify-props  full vs at-least-2-valent homology, quotient acyclicity

Output is a JSON record {command, params, rows, timing} or a CSV of the
rows.  Rows are deterministic for a fixed configuration regardless of
the worker count; timing varies.  Exit code 0 means every check passed,
1 means a verification failed, 2 is a usage error, and 3 is an internal
error: a differential or comparison-map term fell outside the enumerated
target basis (a basis, skeleton or image closure error), reported as one
``internal error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .graphs import Parity
from .complexes import (
    DEFAULT_BOUNDS as BOUNDS,
    BasisClosureError,
    Constraint,
    REDUCED_CONSTRAINTS,
    SliceParams,
    differential_matrix,
    enumerate_basis,
    homology_dims,
    slice_chain,
)
from .skeleton import SkeletonClosureError, SkeletonFamily, skeleton_homology_dims
from .treemap import ImageClosureError, verify_chain_map, verify_quasi_iso
from . import cache as result_cache

# closure failures are bugs in the package, not verdicts on the input
INTERNAL_ERRORS = (BasisClosureError, SkeletonClosureError, ImageClosureError)

CONSTRAINT_TOKENS = {
    "connected": Constraint.CONNECTED,
    "min2": Constraint.MIN_VALENCE_2,
    "some3": Constraint.MIN_VALENCE_3_SOMEWHERE,
    "nopass": Constraint.NO_PASSING,
    "only2": Constraint.ONLY_2_VALENT,
}

def parse_constraints(text):
    if text == "reduced":
        return REDUCED_CONSTRAINTS
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "reduced":
            out |= REDUCED_CONSTRAINTS
        elif token in CONSTRAINT_TOKENS:
            out.add(CONSTRAINT_TOKENS[token])
        else:
            raise ValueError(f"unknown constraint token {token!r}")
    return frozenset(out)


def parse_window(text):
    """Vertex range ``lo:hi`` with integers 1 <= lo <= hi."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise UsageError(f"--window must be lo:hi with integers 1 <= lo <= hi, got {text!r}")
    return lo, hi


def make_parser():
    p = argparse.ArgumentParser(prog="ogc", description=__doc__.splitlines()[0])
    p.add_argument("--command", required=True, choices=list(COMMANDS))
    p.add_argument("--n", type=int, default=0, help="integer grading parameter")
    p.add_argument("--colors", type=int, default=0, help="number of colors k")
    p.add_argument("--vertices-max", type=int, default=5)
    p.add_argument("--edges-max", type=int, default=8)
    p.add_argument("--loop-order", type=int, default=None, help="fix b = e - v")
    p.add_argument(
        "--constraints",
        default="reduced",
        help="comma list of connected,min2,some3,nopass,only2 or the alias 'reduced'",
    )
    p.add_argument("--window", default=None, help="vertex range lo:hi")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--force", action="store_true", help="override the enumeration bounds")
    return p


def check_args(args):
    """Usage errors caught before any work: a count out of range, bounds
    over the defaults without --force, and a malformed --window."""
    for flag, value, low in (
        ("--colors", args.colors, 0),
        ("--workers", args.workers, 1),
        ("--edges-max", args.edges_max, 0),
        ("--vertices-max", args.vertices_max, 1),
    ):
        if value < low:
            raise UsageError(f"{flag} must be at least {low}, got {value}")
    if args.command == "verify-thm1" and args.loop_order is not None and args.loop_order < 1:
        raise UsageError(f"verify-thm1 needs --loop-order at least 1, got {args.loop_order}")
    over = args.vertices_max > BOUNDS["v"] or args.edges_max > BOUNDS["e"] or args.colors > BOUNDS["k"]
    if over and not args.force:
        raise UsageError(f"requested bounds exceed defaults {BOUNDS}; pass --force to override")
    if args.window is not None:
        parse_window(args.window)


class UsageError(Exception):
    pass


def run_jobs(jobs, workers):
    """Evaluate (key, fn, args) jobs; results sorted by key.  ``fn`` is a
    module-level function, which the process pool pickles by name."""
    results = []
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(key, pool.submit(fn, *args)) for key, fn, args in jobs]
            for key, fut in futures:
                results.append((key, fut.result()))
    else:
        for key, fn, args in jobs:
            results.append((key, fn(*args)))
    results.sort(key=lambda kv: kv[0])
    return results


def _job_enumerate(v, e, k, n, constraints_value, force):
    constraints = frozenset(Constraint(c) for c in constraints_value)
    sl = enumerate_basis(SliceParams(v, e, k, n, constraints), force=force)
    return {"v": v, "e": e, "b": e - v, "degree": sl.degree, "value": len(sl)}


def _job_dsq_chain(b, k, n, constraints_value, v_max, e_max, force):
    constraints = frozenset(Constraint(c) for c in constraints_value)
    v_top = min(v_max, e_max - b) if e_max - b >= 1 else 0
    rows = []
    if v_top < 1:
        return rows
    chain = slice_chain(b, k, n, constraints, v_max=v_top, force=force)
    mats = []
    for a, c in zip(chain, chain[1:]):
        mats.append(differential_matrix(a, c) if len(a) and len(c) else None)
    for i in range(len(mats) - 1):
        m_hi, m_lo = mats[i], mats[i + 1]
        src = chain[i]
        ok = True
        if m_hi is not None and m_lo is not None:
            ok = (m_lo @ m_hi).is_zero()
        rows.append(
            {
                "v": src.params.v,
                "e": src.params.e,
                "b": b,
                "degree": src.degree,
                "value": "pass" if ok else "fail",
            }
        )
    return rows


def _job_homology(b, k, n, constraints_value, v_max, force):
    constraints = frozenset(Constraint(c) for c in constraints_value)
    chain = slice_chain(b, k, n, constraints, v_max=v_max + 1, force=force)
    rows = []
    for v, degree, dim in homology_dims(chain):
        if v <= v_max:
            rows.append({"v": v, "e": v + b, "b": b, "degree": degree, "value": dim})
    rows.sort(key=lambda r: r["v"])
    return rows


def _job_chain_slice(v, e, n, force):
    params = SliceParams(v, e, 0, n, REDUCED_CONSTRAINTS)
    sl = enumerate_basis(params, force=force)
    parity = Parity.from_n(n)
    bad = 0
    for g in sl.basis:
        report = verify_chain_map(g, parity)
        if not report.ok:
            bad += 1
    return {
        "v": v,
        "e": e,
        "b": e - v,
        "degree": sl.degree,
        "value": "pass" if bad == 0 else f"fail:{bad}",
    }


def _job_thm1(b, n, force):
    report = verify_quasi_iso(b, 0, n, force=force)
    rows = []
    for r in report.rows:
        rows.append(
            {
                "v": r.v,
                "e": r.v + b if r.v >= 1 else None,
                "b": b,
                "degree": r.degree,
                "value": f"pass:dim={r.dim_source}" if r.ok else "fail",
            }
        )
    return rows


def _job_props_valence(b, k, n, v_max, force):
    full = frozenset({Constraint.CONNECTED})
    atleast2 = frozenset({Constraint.CONNECTED, Constraint.MIN_VALENCE_2})
    rows = []
    dims = {}
    for label, cons in (("full", full), ("min2", atleast2)):
        chain = slice_chain(b, k, n, cons, v_max=v_max + 1, force=force)
        dims[label] = {v: dim for v, _, dim in homology_dims(chain)}
    for v in range(1, v_max + 1):
        a = dims["full"].get(v, 0)
        c = dims["min2"].get(v, 0)
        params = SliceParams(v, v + b, k, n, full)
        rows.append(
            {
                "v": v,
                "e": v + b,
                "b": b,
                "degree": params.degree,
                "value": f"pass:dim={a}" if a == c else f"fail:{a}!={c}",
            }
        )
    return rows


def _job_props_quotient(b, family_value, m, force):
    family = SkeletonFamily(family_value)
    u_max = 5 * b + 1
    rows_raw, _ = skeleton_homology_dims(b, 0, m, family, u_max=u_max, force=force)
    rows = []
    for u, dim in rows_raw:
        rows.append(
            {
                "v": None,
                "e": None,
                "b": b,
                "degree": u - m + (1 - m) * b,
                "value": "pass" if dim == 0 else f"fail:dim={dim}",
            }
        )
    return rows


def cmd_enumerate(args):
    constraints = parse_constraints(args.constraints)
    cvalue = tuple(sorted(c.value for c in constraints))
    jobs = []
    v_lo, v_hi = (1, args.vertices_max)
    if args.window:
        v_lo, v_hi = parse_window(args.window)
    for v in range(v_lo, v_hi + 1):
        if args.loop_order is not None:
            e_list = [v + args.loop_order] if 0 <= v + args.loop_order <= args.edges_max else []
        else:
            e_list = range(0, args.edges_max + 1)
        for e in e_list:
            jobs.append(((v, e), _job_enumerate, (v, e, args.colors, args.n, cvalue, args.force)))
    results = run_jobs(jobs, args.workers)
    return [row for _, row in results], True


def cmd_homology(args):
    if args.loop_order is None:
        raise UsageError("homology needs --loop-order")
    constraints = parse_constraints(args.constraints)
    cvalue = tuple(sorted(c.value for c in constraints))
    v_min, v_max = 1, args.vertices_max
    if args.window:
        v_min, v_max = parse_window(args.window)
    rows = _job_homology(args.loop_order, args.colors, args.n, cvalue, v_max, args.force)
    rows = [r for r in rows if r["v"] >= v_min]
    return rows, True


def cmd_verify_dsq(args):
    constraints = parse_constraints(args.constraints)
    cvalue = tuple(sorted(c.value for c in constraints))
    jobs = []
    for b in range(-1, args.edges_max - 1 + 1):
        job_args = (b, args.colors, args.n, cvalue, args.vertices_max, args.edges_max, args.force)
        jobs.append((b, _job_dsq_chain, job_args))
    results = run_jobs(jobs, args.workers)
    rows = [row for _, chunk in results for row in chunk]
    return rows, all(r["value"] == "pass" for r in rows)


def cmd_verify_chain(args):
    jobs = []
    # the expanded cross-check canonicalizes graphs on e + 1 vertices,
    # so the edge bound stays small unless forced
    v_hi = min(args.vertices_max, 4) if not args.force else args.vertices_max
    e_hi = min(args.edges_max, 6) if not args.force else args.edges_max
    for v in range(1, v_hi + 1):
        for e in range(v - 1, e_hi + 1):
            if 3 * v <= 2 * e:
                jobs.append(((v, e), _job_chain_slice, (v, e, args.n, args.force)))
    results = run_jobs(jobs, args.workers)
    rows = [row for _, row in results]
    return rows, all(r["value"] == "pass" for r in rows)


def cmd_verify_thm1(args):
    orders = [args.loop_order] if args.loop_order is not None else [1, 2]
    jobs = [(b, _job_thm1, (b, args.n, args.force)) for b in orders]
    results = run_jobs(jobs, args.workers)
    rows = [row for _, chunk in results for row in chunk]
    return rows, all(r["value"].startswith("pass") for r in rows)


def cmd_verify_props(args):
    jobs = []
    for b in (-1, 0, 1):
        job_args = (b, args.colors, args.n, args.vertices_max, args.force)
        jobs.append((("valence", b), _job_props_valence, job_args))
    m = args.n if args.n % 2 == 1 else args.n + 1
    for b in (1, 2):
        for family in (SkeletonFamily.TADPOLE_SUB, SkeletonFamily.MULTI_SUB):
            job_args = (b, family.value, m, args.force)
            jobs.append((("quotient", b, family.value), _job_props_quotient, job_args))
    results = run_jobs(jobs, args.workers)
    rows = [row for _, chunk in results for row in chunk]
    return rows, all(str(r["value"]).startswith("pass") for r in rows)


COMMANDS = {
    "enumerate": cmd_enumerate,
    "homology": cmd_homology,
    "verify-dsq": cmd_verify_dsq,
    "verify-chain": cmd_verify_chain,
    "verify-thm1": cmd_verify_thm1,
    "verify-props": cmd_verify_props,
}


def params_dict(args):
    return {
        "n": args.n,
        "colors": args.colors,
        "vertices_max": args.vertices_max,
        "edges_max": args.edges_max,
        "loop_order": args.loop_order,
        "constraints": args.constraints,
        "window": args.window,
    }


def render(record, fmt):
    if fmt == "json":
        return result_cache.canonical_json(record) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["v", "e", "b", "degree", "value"])
    for row in record["rows"]:
        writer.writerow([row["v"], row["e"], row["b"], row["degree"], row["value"]])
    return buf.getvalue()


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        check_args(args)
        start = time.time()
        cached = None
        key = None
        cache_dir = args.cache_dir or result_cache.default_cache_dir()
        if args.command == "homology":
            code = result_cache.code_hash()
            key = result_cache.record_key("homology", params_dict(args), code)
            try:
                cached = result_cache.load(cache_dir, key, code)
            except result_cache.CacheCorruption as exc:
                print(f"warning: {exc}", file=sys.stderr)
                cached = None
        if cached is not None:
            sys.stdout.write(render(cached, args.output))
            return 0
        rows, ok = COMMANDS[args.command](args)
        record = {
            "command": args.command,
            "params": params_dict(args),
            "rows": rows,
            "timing": round(time.time() - start, 6),
        }
        if args.command == "homology" and key is not None:
            result_cache.store(cache_dir, key, code, record)
        sys.stdout.write(render(record, args.output))
        return 0 if ok else 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        lines = [line.strip() for line in str(exc).splitlines() if line.strip()]
        print(f"internal error: {' | '.join(lines)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
