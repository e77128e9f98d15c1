"""Command-line front end: parse skeleton documents, run analyses, emit reports.

Spec document grammar (JSON, one document per file):

    {
      "k": 2,
      "vertices": ["v", ...],
      "edges":    [{"id": "b1", "color": 0, "range": "v", "source": "v"}, ...],
      "squares":  [{"pair": [0, 1], "left": ["f", "g"], "right": ["gp", "fp"]}, ...],
      "config":   {"tol": 1e-12, "bound": 8, "radius": 2, "metric_r": 0.5, "seed": 0}
    }

A squares entry states f*g = gp*fp, with f, fp of the lower color of the
pair.  An importer mapping a directed graph should send the arrow u -> v
to the edge {source: u, range: v}: morphisms run source to range.

Reports are rendered deterministically: fixed key order, floats at 12
significant digits, no wall-clock content.  Identical (document, config,
seed) inputs produce byte-identical reports; timing goes to stderr.

Exit codes: 0 all checks pass, 1 mathematical violation, 2 input error
(an unreadable or non-UTF-8 spec and an unwritable --out included).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass

from . import degrees as dv
from .checks import _TOL_MASS, AnalysisConfig, run_suite
from .core import (
    ColoredEdge,
    Skeleton,
    SquareRule,
    count_morphisms,
    enumerate_morphisms,
    sha256,
    validate_skeleton,
)
from .dynamics import (
    MetricParams,
    all_windows,
    bracket,
    distance,
    mixing_lag,
    sample_window,
)
from .errors import KGraphError, MalformedSkeleton, NotBracketable, ParseError
from .measure import CylinderSet, parry_measure
from .relations import RelationQuery, stable_equiv, unstable_equiv
from .spectral import (
    AperiodicWitness,
    GlobalPeriod,
    af_multiplicities,
    aperiodicity_probe,
    classify_connectivity,
    perron_data,
    vertex_matrix,
)


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, float)


#: config key -> (flag type, flag help, test on its value, what the value
#: must be); the keys are AnalysisConfig's fields, in report order
_CONFIG_RULES = {
    "tol": (
        float,
        "tolerance of the Perron iteration",
        lambda x: _is_real(x) and 0 < x < math.inf,
        "must be a positive finite number",
    ),
    "bound": (
        int, "primitivity search bound", lambda x: _is_int(x) and x >= 1, "must be an integer >= 1"
    ),
    "radius": (int, "window radius", lambda x: _is_int(x) and x >= 1, "must be an integer >= 1"),
    "metric_r": (
        float,
        "window metric parameter r in rho = r^h",
        lambda x: _is_real(x) and 0 < x < 1,
        "must be a number in (0, 1)",
    ),
    "seed": (int, "seed of every random draw", _is_int, "must be an integer"),
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise MalformedSkeleton(f"{where}: {what}")


def parse_document(text: str) -> tuple[Skeleton, dict]:
    """Parse a spec document into a Skeleton plus its config overrides."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _expect(isinstance(doc, dict), "document", "top level must be an object")
    unknown = set(doc) - {"k", "vertices", "edges", "squares", "config"}
    _expect(not unknown, "document", f"unknown fields {sorted(unknown)}")
    for field_name in ("k", "vertices", "edges"):
        _expect(field_name in doc, "document", f"missing field {field_name!r}")
    _expect(_is_int(doc["k"]), "k", "must be an integer")
    _expect(isinstance(doc["vertices"], list), "vertices", "must be an array")
    for i, v in enumerate(doc["vertices"]):
        _expect(isinstance(v, str), f"vertices[{i}]", "must be a string")
    edges = []
    _expect(isinstance(doc["edges"], list), "edges", "must be an array")
    for i, e in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        _expect(isinstance(e, dict), where, "must be an object")
        _expect(
            set(e) == {"id", "color", "range", "source"},
            where,
            "needs exactly the fields id, color, range, source",
        )
        _expect(isinstance(e["id"], str), f"{where}.id", "must be a string")
        _expect(_is_int(e["color"]), f"{where}.color", "must be an integer")
        for fld in ("range", "source"):
            _expect(isinstance(e[fld], str), f"{where}.{fld}", "must be a string")
        edges.append(ColoredEdge(e["id"], e["color"], e["range"], e["source"]))
    squares = []
    _expect(isinstance(doc.get("squares", []), list), "squares", "must be an array")
    for i, s in enumerate(doc.get("squares", [])):
        where = f"squares[{i}]"
        _expect(isinstance(s, dict), where, "must be an object")
        _expect(
            set(s) == {"pair", "left", "right"},
            where,
            "needs exactly the fields pair, left, right",
        )
        for fld in ("pair", "left", "right"):
            val = s[fld]
            _expect(
                isinstance(val, list) and len(val) == 2,
                f"{where}.{fld}",
                "must be a pair",
            )
        _expect(
            all(_is_int(c) for c in s["pair"]),
            f"{where}.pair",
            "must hold two integers",
        )
        for fld in ("left", "right"):
            _expect(
                all(isinstance(eid, str) for eid in s[fld]),
                f"{where}.{fld}",
                "must hold two edge ids",
            )
        squares.append(
            SquareRule(tuple(s["pair"]), tuple(s["left"]), tuple(s["right"]))
        )
    config = doc.get("config", {})
    _expect(isinstance(config, dict), "config", "must be an object")
    unknown = set(config) - set(_CONFIG_RULES)
    _expect(not unknown, "config", f"unknown keys {sorted(unknown)}")
    sk = Skeleton(doc["k"], tuple(doc["vertices"]), tuple(edges), tuple(squares))
    return sk, dict(config)


def parse_spec(text: str) -> Skeleton:
    """Parse a document, keeping only the skeleton."""
    return parse_document(text)[0]


def _merge_config(file_cfg: dict, overrides: dict | None) -> AnalysisConfig:
    """File config under flag overrides, each value checked once, here."""
    merged = dict(file_cfg)
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    for key, val in merged.items():
        _expect(key in _CONFIG_RULES, "config", f"unknown key {key!r}")
        _, _, ok, what = _CONFIG_RULES[key]
        _expect(ok(val), f"config.{key}", what)
    return AnalysisConfig(**merged)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def render_value(value, indent: int = 0) -> str:
    """Canonical text: dict order preserved, floats at 12 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(key))}: {render_value(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{pad}  {render_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


@dataclass
class Report:
    command: str
    digest: str
    config: dict
    results: dict
    violations: list
    elapsed: float = 0.0  # informational only; never rendered

    @property
    def exit_code(self) -> int:
        if any(v.get("kind") == "input" for v in self.violations):
            return 2
        return 1 if self.violations else 0

    def render(self) -> str:
        body = {
            "command": self.command,
            "inputs": {"digest": self.digest},
            "config": self.config,
            "results": self.results,
            "violations": self.violations,
        }
        return render_value(body) + "\n"


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _degree_key(p) -> str:
    return ",".join(str(x) for x in p)


def _label(m) -> str:
    return ".".join(m.word) if m.word else f"id:{m.range}"


def _matrix_record(m) -> dict:
    return {"vertices": list(m.vertices), "rows": [list(r) for r in m.entries]}


def _cmd_validate(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    report = validate_skeleton(sk)
    for v in report.violations:
        violations.append(
            {"kind": "math", "code": v.code, "detail": v.message, "subjects": list(v.subjects)}
        )
    return {
        "valid": report.ok,
        "vertices": len(sk.vertices),
        "edges": len(sk.edges),
        "squares": len(sk.squares),
    }


def _cmd_enumerate(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    counts = {}
    for p in dv.box(dv.zero(sk.k), dv.scaled(3, sk.k)):
        counts[_degree_key(p)] = count_morphisms(sk, p)
    words = {}
    for p in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
        if count_morphisms(sk, p) <= 256:
            words[_degree_key(p)] = [_label(m) for m in enumerate_morphisms(sk, p)]
    return {"counts": counts, "morphisms": words}


def _cmd_spectral(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    out: dict = {}
    cc = classify_connectivity(sk, cfg.bound_vec(sk.k))
    out["connectivity"] = {
        "irreducible": cc.irreducible,
        "primitive": cc.primitive,
        "threshold": _degree_key(cc.threshold) if cc.threshold else None,
        "inconclusive": cc.inconclusive,
    }
    out["vertex_matrices"] = {
        _degree_key(dv.unit(c, sk.k)): _matrix_record(vertex_matrix(sk, dv.unit(c, sk.k)))
        for c in range(sk.k)
    }
    if cc.irreducible:
        pd = perron_data(sk, cfg.tol)
        out["perron"] = {
            "t": list(pd.t),
            "a": {v: pd.a[v] for v in sk.vertices},
            "b": {v: pd.b[v] for v in sk.vertices},
            "residual": pd.residual,
            "normalization_deviation": pd.normalization_deviation,
        }
    else:
        violations.append({"kind": "math", "code": "not-irreducible", "detail": "no Perron data"})
    af = af_multiplicities(sk, dv.ones(sk.k), dv.ones(sk.k))
    out["af_tower"] = {
        "block_dims": af.block_dims,
        "multiplicity": _matrix_record(af.multiplicity),
        "consistent": af.consistent,
    }
    probe = aperiodicity_probe(sk, cfg.radius)
    if isinstance(probe, AperiodicWitness):
        out["aperiodicity"] = {
            "result": "witness",
            "windows": {v: ".".join(w.word) for v, w in sorted(probe.windows.items())},
        }
    elif isinstance(probe, GlobalPeriod):
        out["aperiodicity"] = {
            "result": "global-period",
            "periods": [_degree_key(p) for p in probe.periods],
        }
    else:
        out["aperiodicity"] = {"result": "inconclusive", "reason": probe.reason}
    return out


def _cmd_measure(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    cc = classify_connectivity(sk, cfg.bound_vec(sk.k))
    if not cc.irreducible:
        violations.append({"kind": "math", "code": "not-irreducible", "detail": "no Parry measure"})
        return {}
    pd = perron_data(sk, cfg.tol)
    cylinders = []
    total = 0.0
    for p in dv.box(dv.zero(sk.k), dv.scaled(2, sk.k)):
        if count_morphisms(sk, p) > 512:
            continue
        for m in enumerate_morphisms(sk, p):
            mv = parry_measure(pd, CylinderSet(m, dv.zero(sk.k)))
            cylinders.append(
                {
                    "cylinder": _label(m),
                    "offset": _degree_key(dv.zero(sk.k)),
                    "value": mv.value,
                    "trace": {
                        "t_exponent": _degree_key(mv.t_exponent),
                        "a_vertex": mv.a_vertex,
                        "b_vertex": mv.b_vertex,
                    },
                }
            )
            if dv.is_zero(p):
                total += mv.value
    if abs(total - 1.0) > _TOL_MASS:
        violations.append(
            {"kind": "math", "code": "total-mass", "detail": f"vertex cylinders sum to {total!r}"}
        )
    return {"t": list(pd.t), "cylinders": cylinders, "vertex_mass": total}


def _cli_windows(sk: Skeleton, n: int, rng: random.Random) -> tuple[int, list]:
    """The number of radius-n windows, and all of them if there are at most
    128, else 32 uniform draws."""
    total = count_morphisms(sk, dv.scaled(2 * n, sk.k))
    if total <= 128:
        return total, all_windows(sk, n)
    return total, [sample_window(sk, n, rng) for _ in range(32)]


def _cmd_dynamics(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    rng = random.Random(cfg.seed)
    total, windows = _cli_windows(sk, cfg.radius, rng)
    params = MetricParams(cfg.metric_r)
    records = [w.record() for w in windows[:64]]
    metric_samples = []
    for _ in range(min(40, len(windows) ** 2)):
        x, y = rng.choice(windows), rng.choice(windows)
        d = distance(x, y, params)
        entry = {
            "x": x.record()["edges"],
            "y": y.record()["edges"],
            "h": "inf" if d.indistinguishable else int(d.h),
            "rho": d.rho,
        }
        try:
            z = bracket(x, y)
            entry["bracket"] = z.record()["edges"]
        except NotBracketable:
            entry["bracket"] = None
        metric_samples.append(entry)
    out: dict = {"window_count": total, "windows": records, "metric_samples": metric_samples}
    cc = classify_connectivity(sk, cfg.bound_vec(sk.k))
    if cc.primitive:
        pool = enumerate_morphisms(sk, dv.ones(sk.k))
        lags = []
        for _ in range(5):
            u = CylinderSet(rng.choice(pool), tuple(rng.randint(-2, 2) for _ in range(sk.k)))
            v = CylinderSet(rng.choice(pool), tuple(rng.randint(-2, 2) for _ in range(sk.k)))
            lag = mixing_lag(sk, u, v, cc)
            lags.append(
                {
                    "U": ".".join(u.lam.word),
                    "V": ".".join(v.lam.word),
                    "Q": _degree_key(lag.Q),
                    "verified": lag.verified,
                }
            )
            if not lag.verified:
                violations.append(
                    {"kind": "math", "code": "mixing-lag", "detail": "connector missing"}
                )
        out["mixing"] = lags
    return out


def _cmd_relations(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    rng = random.Random(cfg.seed)
    _, windows = _cli_windows(sk, cfg.radius, rng)
    sweeps = []
    one = dv.ones(sk.k)
    for idx in range(min(60, len(windows) ** 2)):
        x, y = rng.choice(windows), rng.choice(windows)
        for m in dv.box(dv.neg(one), one):
            sweeps.append(
                {
                    "pair": idx,
                    "m": _degree_key(m),
                    "stable": stable_equiv(RelationQuery(x, y, m)),
                    "unstable": unstable_equiv(RelationQuery(x, y, m)),
                }
            )
    return {"sweeps": sweeps}


def _cmd_suite(sk: Skeleton, cfg: AnalysisConfig, violations: list) -> dict:
    results = run_suite(sk, cfg)
    for r in results:
        if r.failed:
            violations.append({"kind": "math", "code": r.name, "detail": r.detail})
    return {
        "checks": [
            {"name": r.name, "status": r.status, **({"detail": r.detail} if r.detail else {})}
            for r in results
        ]
    }


_DISPATCH = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "spectral": _cmd_spectral,
    "measure": _cmd_measure,
    "dynamics": _cmd_dynamics,
    "relations": _cmd_relations,
    "suite": _cmd_suite,
}
COMMANDS = tuple(_DISPATCH)


def _input_failure(command: str, digest: str, code: str, detail: str) -> Report:
    return Report(command, digest, {}, {}, [{"kind": "input", "code": code, "detail": detail}])


def run(command: str, text: str, overrides: dict | None = None) -> Report:
    """Parse the document and dispatch; all failures land in the report."""
    # surrogatepass: a str holding a lone surrogate still hashes (valid text
    # gives the same bytes as plain UTF-8)
    digest = sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    started = time.perf_counter()
    if command not in COMMANDS:
        return _input_failure(command, digest, "unknown-command", command)
    try:
        sk, file_cfg = parse_document(text)
        cfg = _merge_config(file_cfg, overrides)
    except (ParseError, MalformedSkeleton) as exc:
        return _input_failure(command, digest, type(exc).__name__, str(exc))
    violations: list = []
    if command != "validate":
        pre = validate_skeleton(sk)
        if not pre.ok:
            for v in pre.violations:
                violations.append({"kind": "math", "code": v.code, "detail": v.message})
            return Report(command, digest, asdict(cfg), {}, violations)
    try:
        results = _DISPATCH[command](sk, cfg, violations)
    except KGraphError as exc:
        violations.append({"kind": "math", "code": type(exc).__name__, "detail": str(exc)})
        results = {}
    return Report(
        command=command,
        digest=digest,
        config=asdict(cfg),
        results=results,
        violations=violations,
        elapsed=time.perf_counter() - started,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgraphs", description="Analyze a finite k-graph skeleton document."
    )
    parser.add_argument("--spec", required=True, help="path to the skeleton document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    for key, (kind, help_text, _, _) in _CONFIG_RULES.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2
    report = run(args.command, text, {key: getattr(args, key) for key in _CONFIG_RULES})
    rendered = report.render()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
