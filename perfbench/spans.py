"""In-memory spans around the calls into each module, and the per-layer
numbers derived from them.

Tracing is installed only in the traced measuring process: ``install``
replaces ``jsonschema.validate`` (the schema check ``files`` calls) and
public functions of ``model``, ``flow``, ``verify`` and ``gda`` with wrappers
that open a span per call. Internal calls
go through module globals, so the wrappers also see the calls the package
makes to itself (``choice_flow`` into ``crucial_vector``, ``verify`` into
``flow``, ``run_gda`` into ``induced_instance``). Nothing is written until
``dump`` is called at the end of the process.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# Span name -> layer. Validity checks and flow solves have no layer of their
# own: their time belongs to the caller (alpha search, greedy loop, verify).
LAYERS = {
    "files.load_instance": "files.read",
    "files.load_multi": "files.read",
    "files.load_selected": "files.read",
    "jsonschema.validate": "files.validate",
    "files.dump": "files.dump",
    "model.Instance": "model.instance",
    "gda.induced_instance": "model.instance",
    "gda.restrict_instance": "model.instance",
    "model.groups": "model.groups",
    "model.build_groups": "model.groups",
    "flow.build_network": "flow.certificate",
    "flow.compute_certificate": "flow.certificate",
    "flow.crucial_vector": "flow.crucial_vector",
    "flow.choice_flow": "flow.greedy",
    "gda.run_gda": "gda.rounds",
    "gda.substitutability_probe": "gda.probe",
    "verify.verify_balanced_and_jef": "verify",
    "command": "glue",
    "check": "glue",
}
INHERITING = ("flow.check_validity_flow", "flow.min_cost_max_flow")


class Tracer:
    """Spans of every traced call: name, start, end, parent and run id.

    ``parent`` is the index of the enclosing span within the same run.
    """

    def __init__(self) -> None:
        self.runs: list[list[dict[str, Any]]] = []
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    def next_run(self) -> None:
        if self.spans:
            self.runs.append(self.spans)
        self.spans = []

    def _begin(self, name: str) -> int:
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": self._open[-1] if self._open else None,
             "run": len(self.runs)}
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Optional[Callable[[Any], dict[str, Any]]] = None,
    ) -> None:
        """Replace owner.attr by a wrapper that records one span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(index)
            if note is not None:
                self.spans[index].update(note(result))
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        self.next_run()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s for run in self.runs for s in run], handle)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions; affects this process only."""
    import jsonschema

    from reserve_match import flow, gda, model, verify

    tracer.wrap(jsonschema, "validate", "jsonschema.validate")
    tracer.wrap(model.Instance, "__init__", "model.Instance")
    tracer.wrap(
        model, "build_groups", "model.build_groups",
        lambda groups: {"groups": len(groups)},
    )
    for attr in ("build_network", "compute_certificate", "crucial_vector",
                 "check_validity_flow", "min_cost_max_flow"):
        tracer.wrap(flow, attr, f"flow.{attr}")
    tracer.wrap(
        flow, "choice_flow", "flow.choice_flow",
        lambda r: {"selected": len(r.selected),
                   "targeted": sum(r.targets.values())},
    )
    tracer.wrap(gda, "induced_instance", "gda.induced_instance")
    tracer.wrap(gda, "restrict_instance", "gda.restrict_instance")
    tracer.wrap(gda, "run_gda", "gda.run_gda",
                lambda m: {"rounds": len(m.rounds)})
    tracer.wrap(gda, "substitutability_probe", "gda.substitutability_probe")
    tracer.wrap(verify, "verify_balanced_and_jef",
                "verify.verify_balanced_and_jef")


def _annotate(spans: list[dict[str, Any]]) -> tuple[list[str], list[str]]:
    """Layer and stage (the root span's name) of every span of one run."""
    layer: list[str] = []
    stage: list[str] = []
    for s in spans:
        parent = s["parent"]
        if s["name"] in INHERITING:
            layer.append(layer[parent])
        else:
            layer.append(LAYERS[s["name"]])
        stage.append(s["name"] if parent is None else stage[parent])
    return layer, stage


def layer_times(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Self time per stage and layer for the spans of one run.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans.
    """
    layer, stage = _annotate(spans)
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    table: dict[str, dict[str, float]] = {}
    for i in range(len(spans)):
        row = table.setdefault(stage[i], {})
        row[layer[i]] = row.get(layer[i], 0.0) + own[i]
    return table


def run_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced run (one command plus one check)."""
    stage = _annotate(spans)[1]
    times = layer_times(spans)
    cmd = times.get("command", {})
    chk = times.get("check", {})

    def owner(i: int) -> str:
        """Nearest ancestor that is not a validity check or flow solve."""
        while spans[i]["name"] in INHERITING:
            i = spans[i]["parent"]
        return spans[i]["name"]

    def calls(name: str, where: str = "command") -> list[int]:
        return [i for i, s in enumerate(spans)
                if s["name"] == name and stage[i] == where]

    checks = calls("flow.check_validity_flow")
    by_owner: dict[str, int] = {}
    for i in checks:
        key = owner(spans[i]["parent"])
        by_owner[key] = by_owner.get(key, 0) + 1
    choices = calls("flow.choice_flow")
    selected = sum(spans[i]["selected"] for i in choices)
    admitted = selected - sum(spans[i]["targeted"] for i in choices)
    greedy_checks = by_owner.get("flow.choice_flow", 0)
    check_ms = statistics.fmean(
        (spans[i]["end"] - spans[i]["start"]) * 1000.0 for i in checks
    ) if checks else 0.0
    return {
        "files.read_s": cmd.get("files.read", 0.0),
        "files.validate_s": cmd.get("files.validate", 0.0),
        "files.dump_s": cmd.get("files.dump", 0.0),
        "model.instance_s": cmd.get("model.instance", 0.0),
        "model.instance_builds": len(calls("model.Instance")),
        "model.groups_s": cmd.get("model.groups", 0.0),
        "model.groups": max(
            (spans[i]["groups"] for i in calls("model.build_groups")), default=0
        ),
        "flow.certificate_s": cmd.get("flow.certificate", 0.0),
        "flow.crucial_vector_s": cmd.get("flow.crucial_vector", 0.0),
        "flow.crucial_vector_checks": by_owner.get("flow.crucial_vector", 0),
        "flow.choice_calls": len(choices),
        "flow.choice_s": sum(spans[i]["end"] - spans[i]["start"] for i in choices),
        "flow.greedy_s": cmd.get("flow.greedy", 0.0),
        "flow.greedy_checks": greedy_checks,
        "flow.admitted": admitted,
        "flow.admit_ratio": admitted / greedy_checks if greedy_checks else 0.0,
        "flow.greedy_share": admitted / selected if selected else 0.0,
        "flow.check_ms": check_ms,
        "flow.mcmf_solves": len(calls("flow.min_cost_max_flow")),
        "gda.rounds": sum(spans[i]["rounds"] for i in calls("gda.run_gda")),
        "check.crucial_vector_s": chk.get("flow.crucial_vector", 0.0),
        "check.validity_checks": len(calls("flow.check_validity_flow", "check")),
    }
