"""The workloads: their set-up, their operations and the checks on
every output.

A workload is a list of operations that make up one round.  Each operation
calls into kgraphs and returns a thunk that checks what came back against
the oracles; only the calls are timed.  Importing this module does not
import kgraphs, so that set-up time can include that import.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import inputs
import oracles

WORKLOADS = ("suite-fixtures", "library-session")

CLI_COMMANDS = ("validate", "enumerate", "spectral", "measure", "dynamics", "relations", "suite")


@dataclass
class Operation:
    name: str
    #: calls kgraphs and returns a function that checks the result
    call: Callable[[], Callable[[], list[str]]]
    #: a fault of the program that makes this operation fail on every run
    expected: type[BaseException] | None = None


def build(name: str, seed: int) -> list[Operation]:
    """Import kgraphs, generate the inputs and build and validate every
    skeleton once: the benchmark's set-up.  Returns the operations of one
    round."""
    from kgraphs.cli import parse_document
    from kgraphs.core import validate_skeleton

    if name == "suite-fixtures":
        graphs = [inputs.fixture(g) for g in inputs.FIXTURE_COUNTS]
    elif name == "library-session":
        graphs = inputs.session_graphs(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    for g in graphs:
        report = validate_skeleton(parse_document(g.text)[0])
        if not report.ok:
            raise ValueError(f"input {g.name} is not a valid k-graph: {report.codes()}")
    if name == "suite-fixtures":
        return [cli_operation(g, c, seed) for g in graphs for c in CLI_COMMANDS]
    return Session(graphs, inputs.session_calls(seed, graphs)).operations()


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import kgraphs and set up; run in a fresh interpreter."""
    start = time.perf_counter()
    build(name, seed)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def cli_operation(g: inputs.Graph, command: str, seed: int) -> Operation:
    from kgraphs import cli

    first: list[str] = []

    def call():
        report = cli.run(command, g.text, {"seed": seed})
        rendered = report.render()

        def check() -> list[str]:
            problems = CLI_CHECKS[command](g, report.results, report.exit_code)
            if not first:
                first.append(rendered)
            elif rendered != first[0]:
                problems.append("report differs from the first run of the same command")
            return problems

        return check

    return Operation(f"{g.name}:{command}", call)


def _key(p) -> str:
    return ",".join(str(x) for x in p)


def _exit_zero(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def check_validate(g, res, code) -> list[str]:
    doc = g.doc
    want = {
        "valid": True,
        "vertices": len(doc["vertices"]),
        "edges": len(doc["edges"]),
        "squares": len(doc.get("squares", [])),
    }
    return _exit_zero(code) + ([] if res == want else [f"validate gave {res}, expected {want}"])


def check_enumerate(g, res, code) -> list[str]:
    k = g.doc["k"]
    problems = _exit_zero(code)
    for p in oracles.box((3,) * k):
        got = res["counts"].get(_key(p))
        if got != g.count(p):
            problems.append(f"|Lambda^{p}| = {got}, closed form {g.count(p)}")
    for key, words in res["morphisms"].items():
        p = tuple(int(x) for x in key.split(","))
        if len(set(words)) != g.count(p):
            problems.append(f"{len(set(words))} distinct morphisms of degree {p}")
    return problems


def check_spectral(g, res, code) -> list[str]:
    gens = inputs.generator_matrices(g.doc)
    problems = _exit_zero(code)
    for c, m in enumerate(gens):
        unit = tuple(int(i == c) for i in range(len(gens)))
        if res["vertex_matrices"][_key(unit)]["rows"] != m:
            problems.append(f"|Lambda^e_{c}| is not the generator matrix")
    perron = res["perron"]
    problems += oracles.check_perron(perron["t"], perron["a"], perron["b"], gens)
    # the AF tower at m = n = e: multiplicities are |Lambda^e|, entry by entry
    e = (1,) * len(gens)
    mult = res["af_tower"]["multiplicity"]["rows"]
    if mult != oracles.vertex_matrix(gens, e):
        problems.append("AF multiplicity is not |Lambda^e|")
    if sum(map(sum, mult)) != g.count(e):
        problems.append(f"AF multiplicities sum to {sum(map(sum, mult))}, |Lambda^e| = {g.count(e)}")
    return problems


def check_measure(g, res, code) -> list[str]:
    problems = _exit_zero(code)
    by_degree: dict[str, list[float]] = {}
    for cyl in res["cylinders"]:
        by_degree.setdefault(cyl["trace"]["t_exponent"], []).append(cyl["value"])
    # the cylinders of one degree partition the path space
    for exp, values in by_degree.items():
        problems += [f"degree -({exp}): {p}" for p in oracles.check_masses(values)]
    problems += oracles.check_masses([res["vertex_mass"]])
    return problems


def check_dynamics(g, res, code) -> list[str]:
    doc, n = g.doc, res["windows"][0]["radius"]
    k = doc["k"]
    problems = _exit_zero(code)
    if res["window_count"] != g.count((2 * n,) * k):
        problems.append(f"window_count {res['window_count']}, |Lambda^2Ne| = {g.count((2 * n,) * k)}")
    if not oracles.plain_flips(doc):
        return problems
    for s in res["metric_samples"]:
        x, y = s["x"], s["y"]
        if oracles.origin(doc, x, n) != oracles.origin(doc, y, n):
            if s["bracket"] is not None:
                problems.append(f"bracket of {x} and {y} despite different origins")
        elif s["bracket"] != oracles.bracket_word(doc, x, y, n):
            problems.append(f"bracket of {x} and {y} is {s['bracket']}")
    return problems


def check_relations(g, res, code) -> list[str]:
    return _exit_zero(code) + ([] if res["sweeps"] else ["no sweeps"])


def check_suite(g, res, code) -> list[str]:
    return oracles.check_suite(res, code)


CLI_CHECKS = {
    "validate": check_validate,
    "enumerate": check_enumerate,
    "spectral": check_spectral,
    "measure": check_measure,
    "dynamics": check_dynamics,
    "relations": check_relations,
    "suite": check_suite,
}


# ---------------------------------------------------------------------------
# The library session
# ---------------------------------------------------------------------------


class Session:
    """A long-lived library user: the skeletons are built once per round and
    queried by every call of the round, so the memo tables see reuse."""

    def __init__(self, graphs: list[inputs.Graph], calls: list[tuple]) -> None:
        import kgraphs
        from kgraphs import cli

        # names are looked up on the modules at each call, so that a traced
        # run sees every call through its wrappers
        self.kg = kgraphs
        self.cli = cli
        self.graphs = {g.name: g for g in graphs}
        self.gens = {g.name: inputs.generator_matrices(g.doc) for g in graphs}
        self.calls = calls
        self.sk: dict = {}

    def operations(self) -> list[Operation]:
        ops = [Operation("build", self.build)]
        for call in self.calls:
            method = getattr(self, "op_" + call[0])
            expected = RecursionError if call in inputs.DEEP_CALLS else None
            ops.append(Operation(":".join(map(str, call[:2])), _bind(method, call[1:]), expected))
        ops.append(Operation("close", self.close))
        return ops

    def build(self):
        kg = self.kg
        self.sk = {name: self.cli.parse_document(g.text)[0] for name, g in self.graphs.items()}
        reports = {name: kg.validate_skeleton(sk) for name, sk in self.sk.items()}
        return lambda: [f"{n} is not valid" for n, r in reports.items() if not r.ok]

    def close(self):
        """End of the session: its skeletons and their memo tables go."""
        self.sk = {}
        return lambda: []

    def op_count(self, name, p):
        got = self.kg.count_morphisms(self.sk[name], p)
        g = self.graphs[name]
        return lambda: [] if got == g.count(p) else [f"|Lambda^{p}| wrong on {name}"]

    def op_vertex_matrix(self, name, p):
        vm = self.kg.vertex_matrix(self.sk[name], p)
        gens = self.gens[name]
        return lambda: (
            []
            if [list(r) for r in vm.entries] == oracles.vertex_matrix(gens, p)
            else [f"vertex matrix {p} wrong on {name}"]
        )

    def op_perron(self, name):
        pd = self.kg.perron_data(self.sk[name])
        return lambda: oracles.check_perron(pd.t, pd.a, pd.b, self.gens[name])

    def op_classify(self, name, bound):
        cc = self.kg.classify_connectivity(self.sk[name], bound)
        gens = self.gens[name]

        def check():
            # every session graph is a product of irreducible, aperiodic
            # 1-graphs, hence primitive
            if not (cc.irreducible and cc.primitive and cc.threshold):
                return [f"{name} classified {cc}"]
            return [
                f"|Lambda^{p}| is not positive on {name}"
                for p in (cc.threshold, tuple(bound))
                if not all(x > 0 for row in oracles.vertex_matrix(gens, p) for x in row)
            ]

        return check

    def op_probe(self, name, depth):
        res = self.kg.aperiodicity_probe(self.sk[name], depth)
        k = self.graphs[name].doc["k"]

        def check():
            # every session graph is aperiodic, so no global period exists
            if isinstance(res, self.kg.GlobalPeriod):
                return [f"{name} reported the global periods {res.periods}"]
            if isinstance(res, self.kg.AperiodicWitness):
                return [
                    f"witness at {v} on {name} is {w!r}"
                    for v, w in res.windows.items()
                    if w.range != v or w.degree != (depth + 1,) * k
                ]
            return []

        return check

    def op_roundtrip(self, name, word, split):
        kg, sk = self.kg, self.sk[name]
        mu = kg.make_morphism(sk, word[:split])
        nu = kg.make_morphism(sk, word[split:])
        lam = kg.compose(mu, nu)
        parts = kg.factorize(lam, mu.degree, nu.degree)
        whole = kg.make_morphism(sk, word)
        color = {e["id"]: e["color"] for e in self.graphs[name].doc["edges"]}
        degree = tuple(sum(color[e] == c for e in word) for c in range(sk.k))

        def check():
            problems = []
            if parts != (mu, nu):
                problems.append(f"factorize(compose(mu, nu)) != (mu, nu) on {name}")
            if whole != lam or lam.degree != degree:
                problems.append(f"normal form of {word} depends on the split on {name}")
            return problems

        return check

    def op_cylinders(self, name, p):
        kg, sk = self.kg, self.sk[name]
        pd = kg.perron_data(sk)
        zero = (0,) * sk.k
        lams = kg.enumerate_morphisms(sk, p)
        mass = [kg.parry_measure(pd, kg.CylinderSet(m, zero)).value for m in lams]
        stable = [kg.conditional_measure(pd, "stable", m) for m in lams]
        unstable = [kg.conditional_measure(pd, "unstable", m) for m in lams]
        ids = kg.enumerate_morphisms(sk, zero)
        vertex_mass = [kg.parry_measure(pd, kg.CylinderSet(m, zero)).value for m in ids]

        def check():
            problems = oracles.check_masses(mass) + oracles.check_masses(vertex_mass)
            if len(lams) != self.graphs[name].count(p):
                problems.append(f"{len(lams)} cylinders of degree {p} on {name}")
            # a is a left and b a right eigenvector of every vertex matrix
            for v in sk.vertices:
                into = [s.value for m, s in zip(lams, stable) if m.source == v]
                out = [u.value for m, u in zip(lams, unstable) if m.range == v]
                problems += oracles.check_masses(into, pd.a[v])
                problems += oracles.check_masses(out, pd.b[v])
            return problems

        return check

    def op_windows(self, name, radius, seed):
        kg, sk = self.kg, self.sk[name]
        rng = random.Random(seed)
        zero = (0,) * sk.k
        ws = [kg.sample_window(sk, radius, rng) for _ in range(16)]
        out = []
        for x, y in zip(ws, ws[1:]):
            z = kg.bracket(x, y)
            out.append(
                (
                    x,
                    y,
                    z,
                    kg.stable_equiv(kg.RelationQuery(z, y, zero)),
                    kg.unstable_equiv(kg.RelationQuery(z, x, zero)),
                    kg.distance(x, y),
                    kg.restrict(kg.shift(x, (1,) * sk.k), 1),
                )
            )
        doc = self.graphs[name].doc

        def check():
            problems = []
            for x, y, z, st, un, d, s in out:
                if z.past != x.past or z.future != y.future or not (st and un):
                    problems.append(f"[x, y] on {name} lacks the past of x or the future of y")
                if oracles.plain_flips(doc) and list(z.body.word) != oracles.bracket_word(
                    doc, list(x.body.word), list(y.body.word), radius
                ):
                    problems.append(f"[x, y] on {name} is {z.body.word}")
                if not 0.0 <= d.rho <= 1.0 or s.N != 1:
                    problems.append(f"distance {d} or shifted radius {s.N} on {name}")
            return problems

        return check

    def op_suite(self, name):
        report = self.cli.run("suite", self.graphs[name].text)
        report.render()
        return lambda: oracles.check_suite(report.results, report.exit_code)


def _bind(method, args):
    return lambda: method(*args)
