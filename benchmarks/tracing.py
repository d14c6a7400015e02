"""Spans around calls into loccsim, recorded from outside the package.

Each traced public function is replaced, at every module attribute that
holds it, by a wrapper that records a span: name, start, end, parent span
and job id.  Construction cost is caught at the dataclass ``__post_init__``
hooks.  Spans stay in memory; the caller writes them out when the run ends.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

# span record fields
NAME, START, END, PARENT, JOB, RESULT = range(6)

JOB_SPAN = "bench.job"

# (module, attribute, span name, keep the return value for analysis)
FUNCTIONS = (
    ("invariants", "cp_rank_probe", "invariants.cp_rank_probe", True),
    ("invariants", "product_term_estimate", "invariants.product_term_estimate", True),
    ("invariants", "flattening_ranks", "invariants.flattening_ranks", False),
    ("invariants", "three_tangle", "invariants.three_tangle", False),
    ("invariants", "slocc_class", "invariants.slocc_class", False),
    ("states", "reduced_density_sites", "states.reduced_density_sites", False),
    ("states", "schmidt", "states.schmidt", False),
    ("states", "apply_site_ops", "states.apply_site_ops", False),
    ("states", "load_state", "states.load_state", False),
    ("protocol", "run_protocol", "protocol.run_protocol", True),
    ("protocol", "measure", "protocol.measure", False),
    ("protocol", "apply_unitary", "protocol.apply_unitary", False),
    ("protocol", "teleport", "protocol.teleport", False),
    ("convert", "splitting_bound", "convert.splitting_bound", False),
    ("convert", "vidal_probability", "convert.vidal_probability", False),
    ("convert", "catalysis_verdict", "convert.catalysis_verdict", False),
    ("protofile", "parse_protocol_file", "protofile.parse_protocol_file", False),
    ("cli", "main", "cli.main", False),
) + tuple(
    ("prebuilt", builder, "prebuilt.build", False)
    for builder in (
        "bipartite_catalysis_pair",
        "tripartite_catalysis_pair",
        "prop3_input",
        "prop3_target",
        "prop3",
        "prop3_b",
        "prop3_c",
        "intro_teleport",
        "ghz_to_epr",
        "ghz_plus_epr_to_any",
    )
)

# (module, class, method, span name); from_state is a classmethod
METHODS = (
    ("states", "PureState", "__post_init__", "states.PureState"),
    ("states", "Register", "__post_init__", "states.Register"),
    ("states", "DensityMatrix", "__post_init__", "states.DensityMatrix"),
    ("invariants", "PartyTensor", "__post_init__", "invariants.PartyTensor"),
    ("invariants", "PartyTensor", "from_state", "invariants.PartyTensor"),
)

PROBED_RANKS = (4, 5, 6, 7)

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("invariants.cp_rank_probe.calls", "count", "lower"),
    ("invariants.cp_rank_probe.self_s", "s", "lower"),
    *((f"invariants.probe_r{r}_s", "s", "lower") for r in PROBED_RANKS),
    ("invariants.probe.converged_ratio", "ratio", "higher"),
    ("invariants.product_term_estimate.self_ms", "ms", "lower"),
    ("invariants.als_sweep_us", "us", "lower"),
    ("invariants.PartyTensor.self_ms", "ms", "lower"),
    ("invariants.flattening_ranks.calls", "count", "lower"),
    ("invariants.flattening_ranks.self_ms", "ms", "lower"),
    ("invariants.three_tangle.self_ms", "ms", "lower"),
    ("invariants.slocc_class.self_ms", "ms", "lower"),
    ("states.PureState.calls", "count", "lower"),
    ("states.PureState.self_ms", "ms", "lower"),
    ("states.Register.calls", "count", "lower"),
    ("states.Register.self_ms", "ms", "lower"),
    ("states.DensityMatrix.calls", "count", "lower"),
    ("states.DensityMatrix.self_ms", "ms", "lower"),
    ("states.reduced_density_sites.calls", "count", "lower"),
    ("states.reduced_density_sites.self_ms", "ms", "lower"),
    ("states.schmidt.calls", "count", "lower"),
    ("states.schmidt.self_ms", "ms", "lower"),
    ("states.apply_site_ops.self_ms", "ms", "lower"),
    ("states.load_state.self_ms", "ms", "lower"),
    ("protocol.run_protocol.calls", "count", "lower"),
    ("protocol.run_protocol.self_ms", "ms", "lower"),
    ("protocol.measure.self_ms", "ms", "lower"),
    ("protocol.apply_unitary.self_ms", "ms", "lower"),
    ("protocol.teleport.self_ms", "ms", "lower"),
    ("protocol.leaves", "count", "lower"),
    ("convert.splitting_bound.self_ms", "ms", "lower"),
    ("convert.vidal_probability.calls", "count", "lower"),
    ("convert.vidal_probability.self_ms", "ms", "lower"),
    ("convert.catalysis_verdict.self_ms", "ms", "lower"),
    ("protofile.parse_protocol_file.self_ms", "ms", "lower"),
    ("prebuilt.build.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder that patches loccsim's module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep_result: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result:
                span[RESULT] = out
            return out

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job: int, fn):
        """Run ``fn()`` inside the root span of job ``job``."""
        self.job = job
        try:
            return self.wrap(JOB_SPAN, fn)()
        finally:
            self.job = -1

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def install(self) -> None:
        """Wrap every traced function wherever a loccsim module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "loccsim"]
        for mod_name, attr, span_name, keep in FUNCTIONS:
            fn = getattr(sys.modules[f"loccsim.{mod_name}"], attr)
            traced = self.wrap(span_name, fn, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"loccsim.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self.wrap(span_name, raw.__func__)))
            else:
                self._patch(cls, meth, self.wrap(span_name, raw))

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Calls are single-threaded and nested, so children never overlap and the
    covered part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures for one pass of a workload's job list.

    Counts are calls per pass; ``*_ms``/``*_s`` are summed self times per
    pass, except ``probe_r*_s`` which sum whole probe durations by rank.
    ``als_sweep_us`` and ``trace.overhead_ratio`` are measured elsewhere.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    by_rank: defaultdict = defaultdict(float)
    probes = converged = leaves = 0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += own
        if name == "invariants.cp_rank_probe" and span[RESULT] is not None:
            probes += 1
            converged += bool(span[RESULT].converged)
            by_rank[span[RESULT].tested_rank] += span[END] - span[START]
        elif name == "protocol.run_protocol" and span[RESULT] is not None:
            leaves += len(span[RESULT].leaves())

    out: dict[str, float] = {}
    for metric, unit, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = float(calls[layer])
        elif field == "self_ms":
            out[metric] = self_s[layer] * 1e3
        elif field == "self_s":
            out[metric] = self_s[layer]
    for r in PROBED_RANKS:
        out[f"invariants.probe_r{r}_s"] = by_rank[r]
    # 0 when no probe ran; not_called() lists it then
    out["invariants.probe.converged_ratio"] = converged / probes if probes else 0.0
    out["protocol.leaves"] = float(leaves)
    return out


def metric_span(metric: str) -> str | None:
    """The span a per-layer metric is taken from; None for the two metrics
    measured outside the spans."""
    if metric in ("invariants.als_sweep_us", "trace.overhead_ratio"):
        return None
    if metric.startswith("invariants.probe"):
        return "invariants.cp_rank_probe"
    if metric == "protocol.leaves":
        return "protocol.run_protocol"
    return metric.rpartition(".")[0]


def not_called(spans: list[list]) -> list[str]:
    """Per-layer metrics whose span never occurs in ``spans``: they read 0,
    which means "not called", not a measured value."""
    names = {span[NAME] for span in spans}
    return [m for m, _, _ in PER_LAYER if metric_span(m) not in (None, *names)]


def probe_records(spans: list[list]) -> list[dict]:
    """One entry per product-term scan: job id, the count found, and each
    probed rank's converged flag and best residual."""
    out = []
    for span in spans:
        est = span[RESULT]
        if span[NAME] != "invariants.product_term_estimate" or est is None:
            continue
        out.append(
            {
                "job": span[JOB],
                "terms": est.terms,
                "flattening_lower_bound": est.flattening_lower_bound,
                "probes": [
                    {
                        "rank": p.tested_rank,
                        "converged": bool(p.converged),
                        "best_residual": p.best_residual,
                    }
                    for p in est.probes
                ],
            }
        )
    return out


def probe_pattern_problems(record: dict) -> list[str]:
    """The stop pattern a product-term scan must keep: ranks run upward from
    the flattening bound, every rank below the found count fails to converge,
    and the found count converges."""
    ranks = [p["rank"] for p in record["probes"]]
    lower, terms = record["flattening_lower_bound"], record["terms"]
    problems = []
    if ranks != list(range(lower, terms + 1)):
        problems.append(f"probed ranks {ranks} are not {lower}..{terms}")
    for p in record["probes"]:
        if p["converged"] != (p["rank"] == terms):
            state = "converged" if p["converged"] else "did not converge"
            problems.append(f"rank {p['rank']} {state} with {terms} terms found")
    return problems


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
