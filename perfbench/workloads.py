"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload object builds its inputs in its constructor (the set-up that
`setup_s` measures), runs one pass with `run_pass()` and checks the outputs
of a pass with `check()`.  A pass returns the work it completed, the latency
of each operation and the outputs; checking happens outside the timed pass
and compares against sources that do not share the code path that produced
the output.

Every genturan function is looked up through its module at call time, so the
wrappers that `install_spans` puts on module attributes see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from types import SimpleNamespace

from genturan import cli, constructions, counting, graph6, graphs, gspec, packing, search, verify


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

class Checker:
    """Counts checked outputs and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def clear_program_caches() -> None:
    """Empty the search caches and every functools cache in the package, so
    each pass starts as cold as a fresh process."""
    search.clear_cache()
    for module in (graphs, counting, packing, constructions, search):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def triangles(g) -> int:
    """Triangle count by adjacency masks, independent of genturan.counting."""
    adj = g.adj
    total = 0
    for u in range(g.n):
        higher = adj[u] >> (u + 1) << (u + 1)
        while higher:
            v = (higher & -higher).bit_length() - 1
            higher &= higher - 1
            total += (adj[v] & higher).bit_count()
    return total


def form_invariants(form: bytes) -> tuple:
    """(n, edges, sorted degrees, triangles) of a `canonical_form` byte string
    (n, then one 8-byte little-endian adjacency row per vertex), read without
    canonical labelling."""
    n = form[0]
    if len(form) != 1 + 8 * n:
        return (None,)
    rows = [int.from_bytes(form[1 + 8 * v:9 + 8 * v], "little") for v in range(n)]
    return graph_invariants(SimpleNamespace(n=n, adj=rows))


def graph_invariants(g) -> tuple:
    degrees = sorted(row.bit_count() for row in g.adj)
    return (g.n, sum(degrees) // 2, degrees, triangles(g))


def seeded_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


@dataclass
class PassResult:
    work: int
    op_seconds: list[float]
    outputs: object


# ---------------------------------------------------------------------------
# search: cold exhaustive searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchCase:
    """Maximize `objective` ("edges" or a pattern spec whose copies are
    counted) over n-vertex graphs with no k disjoint copies of each (k, spec)
    in `forbid`.  `classes` and `value` are the expected class count and
    maximum, from the source named in `source`."""

    n: int
    forbid: tuple[tuple[int, str], ...]
    objective: str
    classes: int
    value: int
    source: str


SEARCH_CASES = (
    SearchCase(8, (), "edges", 12346, 28, "A000088(8) classes; C(8,2) edges"),
    SearchCase(9, ((1, "K3"),), "edges", 1897, 20,
               "A006785(9) classes; Mantel floor(9^2/4) = erdos_value(9,2,3)"),
    SearchCase(8, ((2, "K3"),), "K3", 4155, 16, "pinned at the seed commit"),
)


# Objective evaluators that share no code with genturan.counting.
OBJECTIVE_VALUE = {"edges": lambda g: sum(row.bit_count() for row in g.adj) // 2,
                   "K3": triangles}


class Search:
    """Cold `brute_force_ex` calls, caches emptied before each pass.

    The seed permutes the vertices of every forbidden and objective pattern
    and shuffles the order of the problems; no answer may change."""

    def __init__(self, seed: int, cases=SEARCH_CASES):
        rng = random.Random(seed)
        for case in cases:
            if case.objective not in OBJECTIVE_VALUE:
                raise ValueError(f"no independent evaluator for objective {case.objective!r}")
        self.cases = list(cases)
        rng.shuffle(self.cases)
        self.problems = []
        for case in self.cases:
            forbidden = tuple(self._pattern(f"{k}*{spec}" if k > 1 else spec, rng)
                              for k, spec in case.forbid)
            if case.objective == "edges":
                objective = search.Objective.edges()
            else:
                objective = search.Objective.copies(self._pattern(case.objective, rng))
            self.problems.append(search.SearchProblem(case.n, forbidden, objective))
        self.free_patterns = [[(k, gspec.parse_spec(spec).build()) for k, spec in case.forbid]
                              for case in self.cases]

    @staticmethod
    def _pattern(spec: str, rng: random.Random):
        g = gspec.parse_spec(spec).build()
        return graphs.relabel(g, seeded_perm(rng, g.n))

    def run_pass(self) -> PassResult:
        results, seconds = [], []
        for problem in self.problems:
            t0 = time.perf_counter()
            results.append(search.brute_force_ex(problem))
            seconds.append(time.perf_counter() - t0)
        return PassResult(sum(r.explored for r in results), seconds, results)

    def check(self, results, chk: Checker) -> None:
        for case, patterns, result in zip(self.cases, self.free_patterns, results):
            label = f"search n={case.n} forbid={case.forbid} objective={case.objective}"
            chk.expect(result.exhaustive, f"{label}: not exhaustive")
            chk.expect(result.explored == case.classes,
                       f"{label}: {result.explored} classes, expected {case.classes}")
            chk.expect(result.value == case.value,
                       f"{label}: maximum {result.value}, expected {case.value}")
            chk.expect(len(result.witnesses) >= 1, f"{label}: no witness")
            for w in result.witnesses:
                g = graph6.decode_graph6(w)
                chk.expect(g.n == case.n, f"{label}: witness {w} has {g.n} vertices")
                for k, f in patterns:
                    chk.expect(packing.is_kF_free(g, k, f),
                               f"{label}: witness {w} contains {k} disjoint copies")
                value = OBJECTIVE_VALUE[case.objective](g)
                chk.expect(value == case.value,
                           f"{label}: witness {w} scores {value}, expected {case.value}")


# ---------------------------------------------------------------------------
# hosts: per-host kernels, no enumeration
# ---------------------------------------------------------------------------

PATTERNS = ("K3", "K4", "C4", "C5", "K2,3", "2*K2")

# n of each seeded G(n, m) host, with m = RANDOM_DEGREE * n / 2 edges drawn
# uniformly.  Twelve hosts with a fixed edge count (rather than G(n, p)), so
# that the kernel latencies a seed draws stay close together.
RANDOM_SIZES = tuple(range(16, 40, 2))
RANDOM_DEGREE = 4.0
RANDOM_PACK_ALL = 24


@dataclass(frozen=True)
class HostPlan:
    """A host and the kernels run on it.

    `spec` is a graph expression (built with gspec) or a construction call
    (built with genturan.constructions).  `count` patterns get the three
    counting kernels, `pack` patterns the packing kernels.  `canon` is
    "full" (canonical form of the host and its relabelling, are_isomorphic)
    or "form" (canonical form of the host only).  `free` names (k, F)
    that the host is known to be free of; `turan` gives (n, r) for a Turan
    host; `meeting` gives (mask, s, exactly, expected) for a closed-form
    count of K_s copies meeting a vertex set."""

    spec: str
    count: tuple[str, ...]
    pack: tuple[str, ...]
    canon: str = "full"
    free: tuple[int, str] | None = None
    turan: tuple[int, int] | None = None
    meeting: tuple[int, int, int, int] | None = None


# Hosts built by genturan.constructions (given the pattern graphs); every
# other plan spec is a gspec expression.
CONSTRUCTIONS = {
    "thm35_lower(20,3,2)": lambda p: constructions.thm35_lower(20, 3, 2),
    "thm62_lower(20,3)": lambda p: constructions.thm62_lower(20, 3),
    "f_star(C5,0,2)": lambda p: constructions.f_star(p["C5"], 0, 2),
    "f_star(C4,0,3)": lambda p: constructions.f_star(p["C4"], 0, 3),
}


SYMMETRIC_PLANS = (
    HostPlan("T(20,4)", ("K3", "K4", "C4", "2*K2"), ("K3", "K4"), turan=(20, 4)),
    HostPlan("T(18,3)", ("K3", "K4", "C4", "2*K2"), ("K3", "K4"), turan=(18, 3)),
    HostPlan("join(K2,T(30,3))", ("K3", "K4"), ("K3",), canon="form"),
    HostPlan("8*C5", ("C5", "C4", "K2,3", "2*K2"), ("C5",), canon="form"),
    HostPlan("thm35_lower(20,3,2)", ("K3", "C4", "C5", "2*K2"), ("K3", "C4", "C5"),
             canon="form", free=(2, "K3"), meeting=(0b1, 3, 1, 90)),
    HostPlan("thm62_lower(20,3)", ("K3", "K4", "C4"), ("K3", "K4"), free=(3, "K3")),
    HostPlan("f_star(C5,0,2)", ("C5", "C4", "2*K2"), ("C5", "K3"), free=(2, "C5")),
    HostPlan("f_star(C4,0,3)", ("C4", "C5", "2*K2"), ("C4", "K3"), free=(2, "C4")),
)
# thm35_lower(20,3,2) = K1 joined to T(19,2): the triangles through the
# universal vertex are the 9*10 edges of T(19,2) (thm35_leading(20,3,3,2)).


@dataclass
class Op:
    host: int
    kind: str
    pattern: str | None
    call: object
    args: tuple


class Hosts:
    """Counting, packing, canonical labelling, graph6 and gspec kernels on
    fixed symmetric hosts and seeded random hosts of 16-40 vertices."""

    def __init__(self, seed: int, random_sizes=RANDOM_SIZES, plans=SYMMETRIC_PLANS):
        rng = random.Random(seed)
        self.patterns = {p: gspec.parse_spec(p).build() for p in PATTERNS}
        self.hosts, self.plans, self.specs = [], [], []
        for n in random_sizes:
            m = round(RANDOM_DEGREE * n / 2)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            self.hosts.append(graphs.from_edges(n, rng.sample(pairs, m)))
            # Exact C5 and K2,3 packings of the larger random hosts take
            # seconds on some seeds; keep every packing call in milliseconds.
            pack = ("K3", "K4", "C4") + (("C5", "K2,3") if n <= RANDOM_PACK_ALL else ())
            self.plans.append(HostPlan(f"G({n},{m})", PATTERNS, pack))
            self.specs.append(None)
        for plan in plans:
            build = CONSTRUCTIONS.get(plan.spec)
            if build is None:
                self.hosts.append(gspec.parse_spec(plan.spec).build())
                self.specs.append(plan.spec)
            else:
                self.hosts.append(build(self.patterns))
                self.specs.append(None)
            self.plans.append(plan)
        self.relabelled = [graphs.relabel(g, seeded_perm(rng, g.n)) for g in self.hosts]
        self.ops = self._plan_ops()

    def _plan_ops(self) -> list[Op]:
        ops: list[Op] = []
        for i, (g, plan) in enumerate(zip(self.hosts, self.plans)):
            def add(kind, call, args, pattern=None):
                ops.append(Op(i, kind, pattern, call, args))
            add("graph6", _graph6_round_trip, (g,))
            if self.specs[i] is not None:
                add("gspec", _gspec_build, (self.specs[i],))
            if plan.canon:
                add("canonical_form", _call, ("graphs", "canonical_form", g))
            if plan.canon == "full":
                add("canonical_form_relabelled", _call,
                    ("graphs", "canonical_form", self.relabelled[i]))
                add("are_isomorphic", _call,
                    ("graphs", "are_isomorphic", g, self.relabelled[i]))
            meet = (1 << max(1, g.n // 4)) - 1
            for name in plan.count:
                h = self.patterns[name]
                add("count_copies", _call, ("counting", "count_copies", g, h), name)
                add("count_induced_family", _call,
                    ("counting", "count_induced_family", g, h), name)
                add("count_copies_meeting", _call,
                    ("counting", "count_copies_meeting", g, h, meet, 1), name)
            if plan.meeting:
                mask, s, exactly, _ = plan.meeting
                add("meeting_closed_form", _call,
                    ("counting", "count_copies_meeting", g, graphs.complete(s), mask, exactly))
            for name in plan.pack:
                h = self.patterns[name]
                for k in (2, 3):
                    add(f"is_kF_free_{k}", _call, ("packing", "is_kF_free", g, k, h), name)
                add("max_packing_size", _call, ("packing", "max_packing_size", g, h), name)
                add("max_disjoint_packing", _call,
                    ("packing", "max_disjoint_packing", g, h), name)
                add("canonical_partition", _call,
                    ("packing", "canonical_partition", g, h), name)
        return ops

    def run_pass(self) -> PassResult:
        results, seconds = [], []
        for op in self.ops:
            t0 = time.perf_counter()
            results.append(op.call(*op.args))
            seconds.append(time.perf_counter() - t0)
        return PassResult(len(self.ops), seconds, results)

    def check(self, results, chk: Checker) -> None:
        by_host: dict[int, dict[tuple[str, str | None], object]] = {}
        for op, result in zip(self.ops, results):
            by_host.setdefault(op.host, {})[(op.kind, op.pattern)] = result
        for i, out in by_host.items():
            g, plan = self.hosts[i], self.plans[i]
            label = f"hosts {plan.spec}"
            chk.expect(out[("graph6", None)] == g, f"{label}: graph6 round trip changed the graph")
            if ("gspec", None) in out:
                chk.expect(out[("gspec", None)] == g, f"{label}: gspec build differs")
            if plan.canon:
                chk.expect(form_invariants(out[("canonical_form", None)]) == graph_invariants(g),
                           f"{label}: canonical form differs from the host in n, edges, "
                           "degrees or triangles")
            if plan.canon == "full":
                chk.expect(out[("canonical_form", None)] == out[("canonical_form_relabelled", None)],
                           f"{label}: canonical form changed under relabelling")
                chk.expect(out[("are_isomorphic", None)] is True,
                           f"{label}: not isomorphic to its relabelling")
            if "K3" in plan.count:
                chk.expect(out[("count_copies", "K3")] == triangles(g),
                           f"{label}: count_copies(K3) != independent triangle count")
            if plan.turan:
                n, r = plan.turan
                for s, name in ((3, "K3"), (4, "K4")):
                    if name in plan.count:
                        want = constructions.turan_clique_count(n, r, s)
                        chk.expect(out[("count_copies", name)] == want,
                                   f"{label}: K{s} count != turan_clique_count {want}")
            for name in plan.count:
                chk.expect(0 <= out[("count_copies_meeting", name)] <= out[("count_copies", name)],
                           f"{label}: meeting count of {name} exceeds the copy count")
                chk.expect(out[("count_induced_family", name)] >= out[("count_copies", name)] + 1,
                           f"{label}: induced-family total of {name} below copies + empty member")
            if plan.meeting:
                chk.expect(out[("meeting_closed_form", None)] == plan.meeting[3],
                           f"{label}: meeting count != closed form {plan.meeting[3]}")
            for name in plan.pack:
                size = out[("max_packing_size", name)]
                for k in (2, 3):
                    chk.expect(out[(f"is_kF_free_{k}", name)] == (size < k),
                               f"{label}: is_kF_free({k}, {name}) disagrees with packing size {size}")
                pk = out[("max_disjoint_packing", name)]
                chk.expect(pk.size == size and len(pk.copies) == size,
                           f"{label}: max_disjoint_packing({name}) size {pk.size} != {size}")
                used = [v for copy in pk.copies for v in copy]
                chk.expect(len(used) == len(set(used)),
                           f"{label}: packing copies of {name} overlap")
                part = out[("canonical_partition", name)]
                chk.expect(part.packing.size == size,
                           f"{label}: canonical_partition({name}) packs {part.packing.size} != {size}")
            if plan.free:
                k, name = plan.free
                chk.expect(out[(f"is_kF_free_{k}", name)] is True,
                           f"{label}: construction is not {k}{name}-free")


_MODULES = {"graphs": graphs, "counting": counting, "packing": packing}


def _call(module: str, name: str, *args):
    return getattr(_MODULES[module], name)(*args)


def _graph6_round_trip(g):
    return graph6.decode_graph6(graph6.encode_graph6(g))


def _gspec_build(text: str):
    return gspec.parse_spec(text).build()


# ---------------------------------------------------------------------------
# verify: the north-star command, in process
# ---------------------------------------------------------------------------

VERIFY_RANGE = "5..8"
VERIFY_ROWS = 204
VERIFY_SHA256 = "78b8544b5d23b6afcb519fb202c157af81e9b4f80be86e24f483f2d537ff7012"


class Verify:
    """`genturan verify all` in process, CSV to a scratch file.

    The registry has no randomness, so the seed is ignored."""

    def __init__(self, seed: int, out_dir: str, workers: int = 2,
                 n_range: str = VERIFY_RANGE, rows: int = VERIFY_ROWS,
                 sha256: str = VERIFY_SHA256):
        del seed
        self.out_dir = out_dir
        self.workers = workers
        self.n_range = n_range
        self.rows = rows
        self.sha256 = sha256
        self.checks = len(verify.registry_ids())

    def run_pass(self) -> PassResult:
        os.makedirs(self.out_dir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="verify-", dir=self.out_dir)
        try:
            csv_path = os.path.join(tmp, "report.csv")
            argv = ["verify", "all", "--n-range", self.n_range,
                    "--workers", str(self.workers), "--csv", csv_path]
            stdout = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            seconds = time.perf_counter() - t0
            with open(csv_path, "rb") as fh:
                data = fh.read()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        rows = data.count(b"\n") - 1
        return PassResult(rows, [seconds], (code, data, stdout.getvalue()))

    def check(self, outputs, chk: Checker) -> None:
        code, data, text = outputs
        chk.expect(code == 0, f"verify: exit code {code}")
        verdicts = [line.rsplit(b",", 1)[-1] for line in data.splitlines()[1:]]
        chk.expect(len(verdicts) == self.rows, f"verify: {len(verdicts)} rows, expected {self.rows}")
        chk.expect(b"fail" not in verdicts, "verify: a row has verdict fail")
        chk.expect(text.count("[PASS]") == self.checks and "[FAIL]" not in text,
                   "verify: not every check printed [PASS]")
        digest = hashlib.sha256(data).hexdigest()
        chk.expect(digest == self.sha256, f"verify: CSV sha256 {digest} != pinned {self.sha256}")


# ---------------------------------------------------------------------------
# Span installation
# ---------------------------------------------------------------------------

def _search_info(args, result):
    return (args[0], result.explored)


def install_spans(tracer) -> None:
    """Wrap the public names each caller looks up, one span name per layer."""
    S, V, C = search, verify, cli
    tracer.wrap(S, "brute_force_ex", "search", info=_search_info)
    tracer.wrap(V, "brute_force_ex", "search", info=_search_info)
    tracer.wrap_iter(S, "enumerate_graphs", "graphs.enum")
    tracer.wrap(S, "is_family_free", "counting.prune", info=lambda args, result: result)
    for owner, names in (
            (graphs, ("canonical_cert", "canonical_form", "canonical_graph",
                      "are_isomorphic", "automorphism_count")),
            (S, ("canonical_cert", "canonical_graph")),
            (V, ("canonical_graph",)), (C, ("canonical_graph",))):
        for name in names:
            tracer.wrap(owner, name, "graphs.canon")
    for owner, names in (
            (counting, ("count_copies", "count_induced_family",
                        "count_copies_meeting", "count_induced_copies")),
            (S, ("count_copies", "count_induced_family")),
            (V, ("count_copies", "count_copies_meeting")), (C, ("count_copies",))):
        for name in names:
            tracer.wrap(owner, name, "counting.count")
    for owner, names in (
            (packing, ("is_kF_free", "max_disjoint_packing", "max_packing_size",
                       "canonical_partition", "copy_vertex_sets")),
            (V, ("is_kF_free",)), (C, ("canonical_partition", "max_disjoint_packing"))):
        for name in names:
            tracer.wrap(owner, name, "packing")
    for owner in (graph6, S, V, C):
        for name in ("encode_graph6", "decode_graph6"):
            tracer.wrap(owner, name, "graph6")
    for owner, names in ((gspec, ("parse_spec", "parse_spec_list")),
                         (gspec.GraphSpec, ("build",)),
                         (V, ("parse_spec",)), (C, ("parse_spec", "parse_spec_list"))):
        for name in names:
            tracer.wrap(owner, name, "gspec")
    for name, value in list(vars(constructions).items()):
        if (callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == constructions.__name__):
            tracer.wrap(constructions, name, "constructions")
    tracer.wrap(V, "run_check", "verify.check")
    tracer.wrap(C, "emit_report", "verify.report")
    tracer.wrap(C, "main", "cli")


def problem_text(problem) -> str:
    return search.serialize_problem(problem)


# Constructor arguments per workload and size.  "tiny" keeps every code path
# of the full workload at a fraction of the cost; the self-test uses it.
SIZES = {
    "full": {"search": {}, "hosts": {}, "verify": {}},
    "tiny": {
        "search": {"cases": (
            SearchCase(6, (), "edges", 156, 15, "A000088(6) classes; C(6,2) edges"),
            SearchCase(6, ((1, "K3"),), "edges", 38, 9, "A006785(6) classes; floor(6^2/4)"),
            SearchCase(6, ((2, "K3"),), "K3", 130, 10, "pinned at the seed commit"),
        )},
        "hosts": {"random_sizes": (16,), "plans": (
            HostPlan("T(9,3)", ("K3", "K4", "C4"), ("K3", "K4"), turan=(9, 3)),
            HostPlan("f_star(C4,0,3)", ("C4", "2*K2"), ("C4", "K3"), free=(2, "C4")),
        )},
        "verify": {"n_range": "5..5", "rows": 51, "sha256":
                   "0318170cd370a337a2f0e86c5b4ad4f6466251ce5d8ed35d243b8cf35ae62136"},
    },
}


def make(workload: str, seed: int, out_dir: str, trace: bool, size: str = "full"):
    kwargs = SIZES[size][workload]
    if workload == "search":
        return Search(seed, **kwargs)
    if workload == "hosts":
        return Hosts(seed, **kwargs)
    # Spans cannot be collected across processes: the traced run is serial.
    return Verify(seed, out_dir, workers=1 if trace else 2, **kwargs)
