"""Command-line front end.

One executable with a --command selector:

  enumerate     basis sizes per slice
  homology      homology dimension table for one loop order (cached)
  verify-dsq    products of consecutive differential matrices are zero
  verify-chain  the comparison map commutes with the differentials
  verify-thm1   homology equality and induced isomorphism per loop order
  verify-props  full vs at-least-2-valent homology, quotient acyclicity

Every command is a list of (key, fn, args) jobs, and every job returns
rows of one schema, ``Row`` = (v, e, b, degree, value); the record holds
the rows of all jobs in key order.  Output is a JSON record {command,
params, rows, timing} or a CSV of the rows.  Rows are deterministic for a
fixed configuration regardless of the worker count; timing varies.

Exit code 0 means success, and 1 means a verification failed: a verify-*
command passes iff every row's value starts with ``pass``.  2 is a usage
error (a verify command whose bounds leave nothing to check is one, and so
are a flag the command never reads, ``FLAG_READERS``, and a slice over the
default bounds without --force), and 3 is an internal error: a term of
either differential or of the comparison map fell outside the enumerated
target basis (``linalg.ClosureError``), reported as one ``internal error:
...`` line on stderr.  4 means the command ran out of memory (``error:
out of memory: ...``) and 5 that a --workers process died (``error: a
worker process died ...``, naming a job it left without rows); neither
prints a record.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple

from .graphs import Parity
from .complexes import (
    DEFAULT_BOUNDS as BOUNDS,
    SHAPE_BOUNDS,
    Constraint,
    REDUCED_CONSTRAINTS,
    SliceParams,
    differential_matrix,
    enumerate_basis,
    homology_table,
    slice_chain,
)
from .linalg import ClosureError
from .skeleton import SkeletonFamily, skeleton_homology_dims
from .treemap import verify_chain_map, verify_quasi_iso
from . import cache as result_cache

# the one row schema: the JSON record's row keys and the CSV header
Row = namedtuple("Row", "v e b degree value")

CONSTRAINT_TOKENS = {
    "connected": {Constraint.CONNECTED},
    "min2": {Constraint.MIN_VALENCE_2},
    "some3": {Constraint.MIN_VALENCE_3_SOMEWHERE},
    "nopass": {Constraint.NO_PASSING},
    "only2": {Constraint.ONLY_2_VALENT},
    "reduced": REDUCED_CONSTRAINTS,
}


def parse_constraints(text):
    out = set()
    for token in filter(None, (token.strip() for token in text.split(","))):
        if token not in CONSTRAINT_TOKENS:
            raise ValueError(f"unknown constraint token {token!r}")
        out |= CONSTRAINT_TOKENS[token]
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


def vertex_range(args):
    return parse_window(args.window) if args.window else (1, args.vertices_max)


def thm1_orders(args):
    return [args.loop_order] if args.loop_order is not None else [1, 2]


def make_parser():
    p = argparse.ArgumentParser(prog="ogc", description=__doc__.splitlines()[0])
    p.add_argument("--command", required=True, choices=list(COMMANDS))
    p.add_argument("--n", type=int, default=0, help="integer grading parameter")
    p.add_argument("--colors", type=int, default=None, help="number of colors k (default 0)")
    p.add_argument("--vertices-max", type=int, default=5)
    p.add_argument("--edges-max", type=int, default=8)
    p.add_argument("--loop-order", type=int, default=None, help="fix b = e - v")
    p.add_argument(
        "--constraints",
        default=None,
        help="comma list of connected,min2,some3,nopass,only2 or the alias 'reduced' (the default)",
    )
    p.add_argument("--window", default=None, help="vertex range lo:hi")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--force", action="store_true", help="override the enumeration bounds")
    return p


# the commands that read each optional flag; any other command refuses it,
# so a record never reports a flag that did not enter its rows
FLAG_READERS = {
    "--colors": ("enumerate", "homology", "verify-dsq", "verify-props"),
    "--constraints": ("enumerate", "homology", "verify-dsq"),
    "--loop-order": ("enumerate", "homology", "verify-thm1"),
    "--window": ("enumerate", "homology"),
}


def top_slices(args):
    """(v, e, bounds) of the largest slices a command builds: enumerate
    and homology take v from --window, the homology and verify-props
    chains run one vertex above the table (that slice is held to the
    bounds, though built only as far as its rank needs,
    ``complexes.homology_table``), verify-dsq's chains reach v =
    --edges-max + 1 at most and e = --edges-max, and verify-thm1 builds
    source slices up to v = 2b + 1 and skeleton shapes up to v = 2b with
    e = 6b from the loop order b alone.  verify-chain stays within the
    bounds unless forced."""
    v_hi = vertex_range(args)[1]
    if args.command == "enumerate":
        return [(v_hi, args.edges_max, BOUNDS)]
    if args.command == "homology":
        return [(v_hi + 1, v_hi + 1 + args.loop_order, BOUNDS)]
    if args.command == "verify-dsq":
        return [(min(args.vertices_max, args.edges_max + 1), args.edges_max, BOUNDS)]
    if args.command == "verify-props":
        return [(args.vertices_max + 1, args.vertices_max + 2, BOUNDS)]
    if args.command == "verify-thm1":
        b = max(thm1_orders(args))
        return [(2 * b + 1, 3 * b + 1, BOUNDS), (2 * b, 6 * b, SHAPE_BOUNDS)]
    return []


def check_args(args):
    """Usage errors caught before any work: a flag given to a command that
    never reads it, a count out of range, bounds over the defaults without
    --force (the colors, then the top slices the command builds), a
    malformed --window and a missing loop order."""
    for flag, readers in FLAG_READERS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.command not in readers:
            raise UsageError(f"{args.command} does not read {flag}")
    # the defaults, filled in once no flag is refused
    if args.colors is None:
        args.colors = 0
    if args.constraints is None:
        args.constraints = "reduced"
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
    if args.colors > BOUNDS["k"] and not args.force:
        raise UsageError(f"--colors {args.colors} exceeds the default bounds {BOUNDS}; pass --force to override")
    if args.window is not None:
        parse_window(args.window)
    if args.command == "homology" and args.loop_order is None:
        raise UsageError("homology needs --loop-order")
    for v, e, bounds in top_slices(args):
        if (v > bounds["v"] or e > bounds["e"]) and not args.force:
            raise UsageError(
                f"{args.command} builds the slice (v={v}, e={e}), which exceeds the default "
                f"bounds {bounds}; pass --force to override"
            )


class UsageError(Exception):
    pass


class WorkerDied(Exception):
    """A --workers process died before its job returned."""


def run_jobs(jobs, workers):
    """Evaluate (key, fn, args) jobs, each returning a list of rows, and
    concatenate their rows in key order.  ``fn`` is a module-level
    function, which the process pool pickles by name.  The pool's modules
    load only here, so a one-worker run never imports them, and the pool
    starts no more processes than there are jobs.  A dead worker breaks
    the pool, which stops the others: ``WorkerDied`` names the first job,
    in submission order, left without rows."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [(key, pool.submit(fn, *fn_args)) for key, fn, fn_args in jobs]
            results = []
            for key, fut in futures:
                try:
                    results.append((key, fut.result()))
                except BrokenProcessPool as exc:
                    raise WorkerDied(f"a worker process died, and job {key} got no rows: {exc}") from None
    else:
        results = [(key, fn(*fn_args)) for key, fn, fn_args in jobs]
    results.sort(key=lambda kv: kv[0])
    return [row for _, rows in results for row in rows]


def _job_enumerate(v, e, k, n, constraints, force):
    sl = enumerate_basis(SliceParams(v, e, k, n, constraints), force=force)
    return [Row(v, e, e - v, sl.degree, len(sl))]


def _job_dsq_chain(b, k, n, constraints, v_top, force):
    chain = slice_chain(b, k, n, constraints, v_max=v_top, force=force)
    mats = [differential_matrix(a, c) if len(a) and len(c) else None for a, c in zip(chain, chain[1:])]
    rows = []
    for src, m_hi, m_lo in zip(chain, mats, mats[1:]):
        ok = m_hi is None or m_lo is None or (m_lo @ m_hi).is_zero()
        rows.append(Row(src.params.v, src.params.e, b, src.degree, "pass" if ok else "fail"))
    return rows


def _job_homology(b, k, n, constraints, v_lo, v_hi, force):
    rows = homology_table(b, k, n, constraints, v_hi, force=force)
    return sorted(Row(v, v + b, b, degree, dim) for v, degree, dim in rows if v_lo <= v)


def _job_chain_slice(v, e, n, force):
    sl = enumerate_basis(SliceParams(v, e, 0, n, REDUCED_CONSTRAINTS), force=force)
    bad = sum(not verify_chain_map(g, Parity.from_n(n)).ok for g in sl.basis)
    return [Row(v, e, e - v, sl.degree, "pass" if bad == 0 else f"fail:{bad}")]


def _job_thm1(b, n, force):
    return [
        Row(r.v, r.v + b if r.v >= 1 else None, b, r.degree,
            f"pass:dim={r.dim_source}" if r.ok else "fail")
        for r in verify_quasi_iso(b, 0, n, force=force).rows
    ]


def _job_props_valence(b, k, n, v_max, force):
    full = frozenset({Constraint.CONNECTED})
    full_dims, min2_dims = (
        {v: dim for v, _, dim in homology_table(b, k, n, cons, v_max, force=force)}
        for cons in (full, full | {Constraint.MIN_VALENCE_2})
    )
    rows = []
    for v in range(1, v_max + 1):
        a, c = full_dims.get(v, 0), min2_dims.get(v, 0)
        degree = SliceParams(v, v + b, k, n, full).degree
        rows.append(Row(v, v + b, b, degree, f"pass:dim={a}" if a == c else f"fail:{a}!={c}"))
    return rows


def _job_props_quotient(b, family, m, force):
    dims, slices = skeleton_homology_dims(b, 0, m, family, u_max=5 * b + 1, force=force)
    return [
        Row(None, None, b, slices[u].degree, "pass" if dim == 0 else f"fail:dim={dim}")
        for u, dim in dims
    ]


def jobs_enumerate(args):
    constraints = parse_constraints(args.constraints)
    v_lo, v_hi = vertex_range(args)
    return [
        ((v, e), _job_enumerate, (v, e, args.colors, args.n, constraints, args.force))
        for v in range(v_lo, v_hi + 1)
        for e in range(args.edges_max + 1)
        if args.loop_order in (None, e - v)
    ]


def jobs_homology(args):
    constraints = parse_constraints(args.constraints)
    b = args.loop_order
    job_args = (b, args.colors, args.n, constraints, *vertex_range(args), args.force)
    return [(b, _job_homology, job_args)]


def jobs_verify_dsq(args):
    constraints = parse_constraints(args.constraints)
    jobs = []
    for b in range(-1, args.edges_max):
        v_top = min(args.vertices_max, args.edges_max - b)
        jobs.append((b, _job_dsq_chain, (b, args.colors, args.n, constraints, v_top, args.force)))
    return jobs


def jobs_verify_chain(args):
    # the expanded cross-check canonicalizes graphs on e + 1 vertices, so
    # the bounds stay small unless forced, and the record reports them
    if not args.force:
        args.vertices_max, args.edges_max = min(args.vertices_max, 4), min(args.edges_max, 6)
    return [
        ((v, e), _job_chain_slice, (v, e, args.n, args.force))
        for v in range(1, args.vertices_max + 1)
        for e in range(v - 1, args.edges_max + 1)
        if 3 * v <= 2 * e
    ]


def jobs_verify_thm1(args):
    return [(b, _job_thm1, (b, args.n, args.force)) for b in thm1_orders(args)]


def jobs_verify_props(args):
    jobs = [
        (("valence", b), _job_props_valence, (b, args.colors, args.n, args.vertices_max, args.force))
        for b in (-1, 0, 1)
    ]
    m = args.n if args.n % 2 == 1 else args.n + 1
    jobs += [
        (("quotient", b, family.value), _job_props_quotient, (b, family, m, args.force))
        for b in (1, 2)
        for family in (SkeletonFamily.TADPOLE_SUB, SkeletonFamily.MULTI_SUB)
    ]
    return jobs


COMMANDS = {
    "enumerate": jobs_enumerate,
    "homology": jobs_homology,
    "verify-dsq": jobs_verify_dsq,
    "verify-chain": jobs_verify_chain,
    "verify-thm1": jobs_verify_thm1,
    "verify-props": jobs_verify_props,
}


# the flags a record reports
PARAMS = ("n", "colors", "vertices_max", "edges_max", "loop_order", "constraints", "window")


def params_dict(args):
    return {name: getattr(args, name) for name in PARAMS}


def homology_key_params(args):
    """The flags that enter homology's rows, and so its cache key: the
    vertex range comes from --window if given, else from --vertices-max,
    and --edges-max is never read."""
    names = ("n", "colors", "loop_order", "constraints", "window" if args.window else "vertices_max")
    return {name: getattr(args, name) for name in names}


def is_record(cached):
    """Whether a cached record has the shape ``main`` writes: a dict with
    exactly the keys ``command``, ``params``, ``rows`` and ``timing``,
    whose ``rows`` are dicts carrying exactly the fields of ``Row``."""
    if not isinstance(cached, dict) or cached.keys() != {"command", "params", "rows", "timing"}:
        return False
    rows = cached["rows"]
    return isinstance(rows, list) and all(isinstance(row, dict) and row.keys() == set(Row._fields) for row in rows)


def render(record, fmt):
    if fmt == "json":
        return result_cache.canonical_json(record) + "\n"
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(Row._fields)
    writer.writerows([row[field] for field in Row._fields] for row in record["rows"])
    return buf.getvalue()


def main(argv=None):
    args = make_parser().parse_args(argv)
    verify = args.command.startswith("verify-")
    try:
        check_args(args)
        jobs = COMMANDS[args.command](args)
        start = time.time()
        if args.command == "homology":
            cache_dir = args.cache_dir or result_cache.default_cache_dir()
            code = result_cache.code_hash()
            key = result_cache.record_key("homology", homology_key_params(args), code)
            try:
                cached = result_cache.load(cache_dir, key, code)
                if cached is not None and not is_record(cached):
                    raise result_cache.CacheCorruption(key, result_cache.entry_path(cache_dir, key), "malformed record")
            except result_cache.CacheCorruption as exc:
                print(f"warning: {exc}", file=sys.stderr)
                cached = None
            if cached is not None:
                # a hit may come from a run with other unread flags
                cached["params"] = params_dict(args)
                sys.stdout.write(render(cached, args.output))
                return 0
        rows = run_jobs(jobs, args.workers)
        if verify and not rows:
            raise UsageError(
                f"{args.command}: --vertices-max {args.vertices_max} and --edges-max "
                f"{args.edges_max} leave nothing to check"
            )
        record = {
            "command": args.command,
            "params": params_dict(args),
            "rows": [row._asdict() for row in rows],
            "timing": round(time.time() - start, 6),
        }
        if args.command == "homology":
            try:
                result_cache.store(cache_dir, key, code, record)
            except OSError as exc:
                # the rows are computed; an unwritable cache only costs the replay
                path = result_cache.entry_path(cache_dir, key)
                print(f"warning: cannot write cache entry {key} at {path}: {exc}", file=sys.stderr)
        sys.stdout.write(render(record, args.output))
        return 1 if verify and not all(row.value.startswith("pass") for row in rows) else 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureError as exc:
        lines = [line.strip() for line in str(exc).splitlines() if line.strip()]
        print(f"internal error: {' | '.join(lines)}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = str(exc) or f"{args.command} needs more memory than the process may use"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
