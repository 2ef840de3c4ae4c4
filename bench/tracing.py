"""In-memory spans and work counters recorded from outside the library.

Nothing in the package is patched: a Tracer counts work by rebuilding a
system with each Domain callable wrapped (through ``dataclasses.replace``
on the public ``Domain`` and ``MultiDomainSystem`` types), and records a
span around each call the benchmark makes into a public function.  Calls
are attributed to the current operation and the innermost open span, so
the ``reset`` calls under ``poincare.refine_fixed_point`` are the phase
flows (one reset per flow) that Newton refinement started.
"""

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from time import perf_counter

CALLBACKS = ("drift", "input_map", "controller", "guard", "reset")


class Tracer:
    """Spans and per-span callback counts, kept in memory until written."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.callback_s = 0.0
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "name": name,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def instrument(self, system):
        """Copy of a MultiDomainSystem whose domain callables count their calls."""
        domains = tuple(
            replace(dom, **{kind: self._wrap(kind, getattr(dom, kind)) for kind in CALLBACKS})
            for dom in system.domains
        )
        return replace(system, domains=domains)

    def _wrap(self, kind, fn):
        def counted(*args):
            start = perf_counter()
            out = fn(*args)
            self.callback_s += perf_counter() - start
            self.calls[self.op, self._stack[-1]["name"] if self._stack else None, kind] += 1
            return out

        return counted

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def count(self, kind: str, span_names=None) -> int:
        return sum(
            n for (_, span, k), n in self.calls.items()
            if k == kind and (span_names is None or span in span_names)
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for (op, span, kind), n in sorted(self.calls.items(), key=str):
                fh.write(json.dumps({"op": op, "span": span, "calls": kind, "n": n}, sort_keys=True) + "\n")


def span(tracer: Tracer | None, name: str):
    """A span when tracing, a no-op context otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)
