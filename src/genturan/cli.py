"""Command-line interface.

Subcommands: construct, count, free, pack, partition, search, enumerate,
verify.  Graph arguments accept either the expression syntax (K5, C7, K2,3,
T(9,3), 2*C5, join(K1,T(8,2)), del(K4,0), union/E forms) or a graph6
string; `-` reads graph6 lines from stdin.  An expression the `graphs`
constructors refuse is a usage error.  Exit status: 0 on success /
all-pass, 1 on any check failure or negative freeness answer, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import constructions as cons
from .counting import count_copies, is_family_free
from .graph6 import Graph6Error, decode_graph6, encode_graph6
# canonical_graph is not called here; it stays importable from this
# module, where the benchmark's spans wrap it.
from .graphs import Graph, _keep_all, canonical_graph, enumerate_graphs
from .gspec import SpecError, parse_spec, parse_spec_list
from .packing import canonical_partition, max_disjoint_packing
from .search import (DEFAULT_WITNESS_CAP, Objective, SearchProblem,
                     brute_force_ex, merge, result_line)
from .verify import (FAIL, VerifyConfig, emit_report, registry_ids,
                     run_all, run_check)

# `search` and `enumerate` refuse a larger --n unless --force is given.
DEFAULT_N_CAP = 10


class UsageError(ValueError):
    pass


def _read_graph(text: str) -> Graph:
    """Parse a graph argument: spec syntax first, then graph6, then stdin."""
    if text == "-":
        line = sys.stdin.readline().strip()
        if not line:
            raise UsageError("expected a graph6 line on stdin")
        return decode_graph6(line)
    try:
        return parse_spec(text).build()
    except SpecError as spec_err:
        try:
            return decode_graph6(text)
        except Graph6Error:
            raise UsageError(f"not a graph spec or graph6 string: {text!r} "
                             f"({spec_err})") from spec_err


def _read_family(text: str) -> list[Graph]:
    try:
        return [s.build() for s in parse_spec_list(text)]
    except SpecError as err:
        raise UsageError(str(err)) from err


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            return int(a), int(b)
        v = int(text)
        return v, v
    except ValueError as err:
        raise UsageError(f"bad n-range {text!r}; expected a..b") from err


def _at_least(kind, low):
    """Parser of a `kind` (int or float) value >= low; NaN is rejected."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= low:
            raise argparse.ArgumentTypeError(f"expected {noun} >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _at_least(int, 1)  # witness caps, worker and shard counts
_seconds = _at_least(float, 0)     # --budget-seconds

# Each verify setting and the parser of its value.
CONFIG_KEYS = {"budget-seconds": _seconds, "witness-cap": _positive_int,
               "workers": _positive_int}


def _load_config(path: str | None) -> dict:
    """Plain key=value file of CONFIG_KEYS settings; '#' starts a comment."""
    if not path:
        return {}
    out: dict[str, object] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r} in {path}; "
                                 f"known: {', '.join(CONFIG_KEYS)}")
            if key in out:
                raise UsageError(f"repeated config key {key!r} in {path}")
            try:
                out[key] = CONFIG_KEYS[key](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise UsageError(f"bad value for config key {key!r} in {path}: "
                                 f"{err}") from None
    return out


def _settings(args) -> dict:
    """Verify settings: the command line's value, else the config file's.
    Keys left unset in both are absent."""
    out = _load_config(args.config)
    for key in CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            out[key] = value
    return out


def _fstar(args) -> Graph:
    f = _read_graph(args.f)
    u = args.u if args.u is not None else cons.default_center_vertex(f)
    return cons.f_star(f, u, args.k)


# Each construction: the flags it needs, in the order they are asked for,
# the flags it may take, and its builder from the parsed arguments.
CONSTRUCTIONS = {
    "universal-join": (("k", "f"), (), lambda a: cons.universal_join(a.k, _read_graph(a.f))),
    "thm32": (("n", "s", "t", "k"), (), lambda a: cons.thm32_lower(a.n, a.s, a.t, a.k)),
    "thm35": (("n", "t", "k"), (), lambda a: cons.thm35_lower(a.n, a.t, a.k)),
    "thm62": (("n", "k"), (), lambda a: cons.thm62_lower(a.n, a.k)),
    "prop54": (("n", "s"), (), lambda a: cons.prop54_lower(a.n, a.s)),
    "prop61": (("n",), (), lambda a: cons.prop61_host(a.n)),
    "fstar": (("k", "f"), ("u",), _fstar),
}


def _cmd_construct(args) -> int:
    if args.name not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {args.name!r}; "
                         f"known: {', '.join(CONSTRUCTIONS)}")
    flags, optional, build = CONSTRUCTIONS[args.name]
    for flag in flags:
        if getattr(args, flag) in (None, ""):
            raise UsageError(f"construction {args.name!r} needs --{flag}")
    every = dict.fromkeys(f for need, may, _ in CONSTRUCTIONS.values() for f in need + may)
    unread = [f"--{flag}" for flag in every
              if flag not in flags + optional and getattr(args, flag) is not None]
    if unread:
        raise UsageError(f"construction {args.name!r} does not read {', '.join(unread)}")
    print(encode_graph6(build(args)))
    return 0


def _cmd_count(args) -> int:
    host = _read_graph(args.host)
    pattern = _read_graph(args.pattern)
    print(count_copies(host, pattern))
    return 0


def _cmd_free(args) -> int:
    host = _read_graph(args.host)
    family = _read_family(args.forbid)
    free = is_family_free(host, family)
    print("true" if free else "false")
    return 0 if free else 1


def _cmd_pack(args) -> int:
    host = _read_graph(args.host)
    pattern = _read_graph(args.pattern)
    packing = max_disjoint_packing(host, pattern)
    print(packing.size)
    for copy in packing.copies:
        print(" ".join(map(str, copy)))
    return 0


def _cmd_partition(args) -> int:
    host = _read_graph(args.host)
    pattern = _read_graph(args.pattern)
    part = canonical_partition(host, pattern)
    print("L:", " ".join(map(str, part.L)) if part.L else "-")
    print("R:", " ".join(map(str, part.R)) if part.R else "-")
    print("packing:", part.packing.size)
    for copy in part.packing.copies:
        print(" ".join(map(str, copy)))
    return 0


def _build_objective(args) -> Objective:
    kind = args.objective
    if kind in ("copies", "exbar") and not args.pattern:
        raise UsageError(f"objective {kind!r} needs --pattern")
    if kind == "exstar" and args.k is None:
        raise UsageError("objective 'exstar' needs --k")
    pattern = _read_graph(args.pattern) if args.pattern else None
    return Objective(kind, pattern=pattern, k=args.k)


def _check_n_cap(args) -> None:
    if args.n > DEFAULT_N_CAP and not args.force:
        raise UsageError(f"--n {args.n} exceeds the cap {DEFAULT_N_CAP}; "
                         "pass --force if you mean it")


def _cmd_search(args) -> int:
    _check_n_cap(args)
    forbidden = tuple(_read_family(args.forbid)) if args.forbid else ()
    problem = SearchProblem(args.n, forbidden, _build_objective(args))
    # One deadline for the whole run: every shard stops at it.
    seconds = args.budget_seconds
    deadline = None if seconds is None else time.monotonic() + seconds
    result = merge([brute_force_ex(problem, witness_cap=args.witness_cap,
                                   deadline=deadline, shard=(i, args.shards))
                    for i in range(args.shards)], witness_cap=args.witness_cap)
    print(result_line(problem, result))
    return 0


def _cmd_enumerate(args) -> int:
    _check_n_cap(args)
    forbidden = tuple(_read_family(args.forbid)) if args.forbid else ()
    count = 0
    if args.canonical:
        # The walk hands out each graph's canonical certificate.
        stream = enumerate_graphs(args.n, forbidden, _node_hook=_keep_all)
        graphs = (Graph._make(g.n, cert) for g, _, cert in stream)
    else:
        graphs = enumerate_graphs(args.n, forbidden)
    for g in graphs:
        count += 1
        if not args.count_only:
            print(encode_graph6(g))
    if args.count_only:
        print(count)
    return 0


def _cmd_verify(args) -> int:
    settings = _settings(args)
    # One deadline for the whole run: every search stops at it.
    seconds = settings.get("budget-seconds")
    cfg = VerifyConfig(witness_cap=settings.get("witness-cap", DEFAULT_WITNESS_CAP),
                       deadline=None if seconds is None else time.monotonic() + seconds)
    n_range = _parse_range(args.n_range) if args.n_range else None
    params = {}
    for kv in args.param:
        key, eq, value = kv.partition("=")
        if not eq:
            raise UsageError(f"bad --param {kv!r}; expected KEY=VALUE")
        if key in params:
            raise UsageError(f"repeated --param key {key!r}")
        params[key] = value
    workers = settings.get("workers", 1)
    if args.check == "all":
        if params:
            raise UsageError("--param applies to a single check, not 'all'")
        checks = run_all(cfg, n_range, workers=workers)
    else:
        if workers > 1:
            raise UsageError(f"workers={workers} applies to 'all', not a single check")
        checks = [run_check(args.check, params or None, n_range, cfg)]
    table = emit_report(checks, args.csv)
    print(table, end="")
    failed = [r for c in checks for r in c.rows if r.verdict == FAIL]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.check_id} "
              f"(n={check.n_range[0]}..{check.n_range[1]})")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="genturan",
        description="Exact generalized Turan numbers: counting, packing, "
                    "constructions, exhaustive search, claim verification.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    p.add_argument("name", help=" | ".join(CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--f", help="pattern graph for universal-join / fstar")
    p.add_argument("--u", type=int, help="anchor vertex for fstar")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("count", help="count copies of a pattern in a host")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("free", help="test forbidden-subgraph freeness")
    p.add_argument("--host", required=True)
    p.add_argument("--forbid", required=True,
                   help="comma-separated forbidden graphs, e.g. K3,C4 or 2*C5")
    p.set_defaults(fn=_cmd_free)

    p = sub.add_parser("pack", help="maximum vertex-disjoint packing")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser("partition", help="packed/remainder vertex partition")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.add_argument("objective", choices=["copies", "edges", "exstar", "exbar"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", default="")
    p.add_argument("--pattern")
    p.add_argument("--k", type=int)
    p.add_argument("--shards", type=_positive_int, default=1)
    p.add_argument("--witness-cap", type=_positive_int, default=DEFAULT_WITNESS_CAP)
    p.add_argument("--budget-seconds", type=_seconds)
    p.add_argument("--force", action="store_true",
                   help=f"lift the default host-size cap of {DEFAULT_N_CAP}")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("enumerate", help="graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", default="")
    p.add_argument("--canonical", action="store_true",
                   help="emit canonical representatives")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true",
                   help=f"lift the default host-size cap of {DEFAULT_N_CAP}")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run claim checks")
    p.add_argument("check", help="a check id or 'all'; ids: " + ", ".join(registry_ids()))
    p.add_argument("--n-range", metavar="A..B")
    p.add_argument("--csv", help="also write the CSV report here")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--witness-cap", type=_positive_int,
                   help=f"default: the config file's, else {DEFAULT_WITNESS_CAP}")
    p.add_argument("--budget-seconds", type=_seconds)
    p.add_argument("--config", help="plain key=value config file; keys: "
                                    + ", ".join(CONFIG_KEYS))
    p.add_argument("--workers", type=_positive_int,
                   help="run 'all' in this many worker processes (default 1)")
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (UsageError, SpecError, Graph6Error, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
