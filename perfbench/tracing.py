"""Spans recorded from outside the program, around its public functions.

:class:`Tracer` patches the module attributes through which the program
calls each layer (``repro.session.parse_query``,
``repro.udp.decide.canonize_form``, ``Compiler.compile_query``, ...) with
wrappers that record one span per call: a name, a start, an end, the
enclosing span and the id of the request being served.  Nothing inside
``src/`` changes; :meth:`Tracer.uninstall` puts every attribute back.

:class:`TimedStore` does the same for a durable store: it forwards every
call and records ``store.*`` spans around the public methods, so it can
be installed with ``install_shared_store`` or handed to a
``ClusterEngine`` in place of the store itself.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: Span fields, in the order each recorded span list holds them.
FIELDS = ("id", "name", "parent", "start_ns", "end_ns", "request")

#: Span-name prefix -> layer, for the self-time report.
LAYERS = (
    "sql", "usr", "udp", "cq", "checker", "session", "store", "clustering",
)


def _targets():
    """``(owner, attribute, span name)`` for every traced entry point.

    A function imported by name into another module is patched at every
    binding site the program calls it through.
    """
    import repro.checker.model_check as model_check
    import repro.service.clustering as clustering
    import repro.session as session
    import repro.udp.canonize as canonize
    import repro.udp.decide as decide
    import repro.udp.sdp as sdp
    import repro.usr.compile as compile_
    import repro.usr.spnf as spnf

    return [
        (session, "parse_query", "sql.parse"),
        (session, "parse_program", "sql.parse"),
        (session, "resolve_query", "sql.resolve"),
        (session, "desugar_query", "sql.desugar"),
        (session.Session, "from_program_text", "session.program"),
        (session.Session, "constraint_set", "session.constraints"),
        (session.Session, "verify", "session.verify"),
        (compile_.Compiler, "compile_query", "usr.compile"),
        (spnf, "normalize", "usr.normalize"),
        (decide, "normalize", "usr.normalize"),
        (canonize, "canonize_form", "udp.canonize"),
        (decide, "canonize_form", "udp.canonize"),
        (sdp, "canonize_form", "udp.canonize"),
        (session, "decide_equivalence", "udp.decide"),
        (decide, "terms_isomorphic", "cq.isomorphism"),
        (decide, "find_homomorphism", "cq.homomorphism"),
        (decide, "form_digest", "cq.labeling"),
        (decide, "term_digest", "cq.labeling"),
        (model_check.ModelChecker, "find_counterexample", "checker.model_check"),
        (clustering, "canonical_denotation_digest", "clustering.digest"),
        (clustering.ClusterEngine, "place", "clustering.place"),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the patches."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request = 0
        self.spnf_terms = 0
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``.

        A direct recursive call into the same entry point records no new
        span: the outer span already covers it.
        """
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        record = [
            len(self.spans), name, stack[-1][0] if stack else -1,
            _now(), 0, self.request,
        ]
        self.spans.append(record)
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = _now()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        if name == "usr.normalize":
            def traced(*args, **kwargs):  # noqa: F811 - counts terms too
                form = tracer.span(name, fn, *args, **kwargs)
                tracer.spnf_terms += len(form)
                return form

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        import repro.session as session

        for owner, attr, name in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, patched)
        tactics = session._TACTICS
        for tactic, fn in list(tactics.items()):
            self._patched.append((tactics, tactic, fn))
            tactics[tactic] = self.wrap(f"session.tactic.{tactic}", fn)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def analyse(self, root: str) -> Dict[str, Any]:
        """Totals per span name, self time per layer, and stage coverage.

        ``total_ns`` counts only the outermost span of each name, so an
        entry point reached again below itself is not counted twice.
        ``match_ns`` is ``udp.decide`` time less the normalize and
        canonize spans inside it.  ``coverage`` is the share of the
        ``root`` spans' time (one per operation) that their direct child
        spans account for.
        """
        spans = self.spans
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[2] >= 0:
                children[span[2]].append(span)
        total_ns: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        in_decide_ns = 0
        root_ns = covered_ns = 0
        for span in spans:
            name = span[1]
            duration = span[4] - span[3]
            kids = children.get(span[0], ())
            child_ns = sum(kid[4] - kid[3] for kid in kids)
            self_ns[name.split(".", 1)[0]] += duration - child_ns
            if name == root:
                root_ns += duration
                covered_ns += child_ns
            outermost, under_decide = True, False
            parent = span[2]
            while parent >= 0:
                above = spans[parent]
                if above[1] == name:
                    outermost = False
                    break
                if above[1] == "udp.decide":
                    under_decide = True
                parent = above[2]
            if not outermost:
                continue
            total_ns[name] += duration
            if under_decide and name in ("usr.normalize", "udp.canonize"):
                in_decide_ns += duration
        return {
            "total_ns": dict(total_ns),
            "self_ns": {layer: self_ns.get(layer, 0) for layer in LAYERS},
            "match_ns": total_ns.get("udp.decide", 0) - in_decide_ns,
            "coverage": covered_ns / root_ns if root_ns else 0.0,
        }

    def dump(self, path: str, summary: Dict[str, Any]) -> None:
        """Write every span, plus ``summary``, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": FIELDS, "summary": summary, "spans": self.spans},
                handle, separators=(",", ":"),
            )


class TimedStore:
    """A store proxy recording a ``store.*`` span per public call.

    ``verdict_get`` hits are also counted per verdict-cache tier, by the
    tier tag that starts every verdict key (``text:`` / ``denot:``).
    """

    _TIMED = (
        "get", "put", "verdict_get", "verdict_put", "group_insert",
        "group_lookup", "group_get", "group_attach", "group_bump",
    )

    def __init__(self, store: Any, tracer: Optional[Tracer]) -> None:
        self.__dict__["_inner"] = store
        self.__dict__["_tracer"] = tracer
        self.__dict__["tier_hits"] = defaultdict(int)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in self._TIMED:
            return attr
        tracer = self._tracer
        span_name = "store." + name
        if name == "verdict_get":
            hits = self.tier_hits

            def verdict_get(key):
                record = (
                    tracer.span(span_name, attr, key) if tracer else attr(key)
                )
                if record is not None:
                    hits[key.split(":", 1)[0]] += 1
                return record

            return verdict_get
        if tracer is None:
            return attr

        def timed(*args, **kwargs):
            return tracer.span(span_name, attr, *args, **kwargs)

        return timed
