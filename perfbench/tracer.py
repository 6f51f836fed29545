"""Span recorder for traced benchmark samples.

`Tracer.install` rebinds the public functions of the package's modules to
wrappers that record spans and counts.  The package's files are not
changed; the wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import Counter
from time import perf_counter


def _count_recurrence(counts: Counter, args: tuple, result: list[int]) -> None:
    m_max = args[0]
    counts["recurrence_products"] += m_max * (m_max + 1) // 2
    counts["max_operand_bits"] = max(counts["max_operand_bits"], result[-1].bit_length())


def _count_census(counts: Counter, args: tuple, result) -> None:
    group_order = (1 << result.order) * math.factorial(result.order)
    counts["representatives"] += result.orbit_count
    counts["orbit_images"] += result.orbit_count * group_order


#: Work counts taken from a call's arguments and result at the layer boundary.
COUNTERS = {
    "counting.connected_sequence": _count_recurrence,
    "oracle.orbit_census": _count_census,
    "oracle.enumerate_vacuum_matchings": lambda counts, args, result: counts.update(
        vacuum_pairings=result
    ),
    "oracle.export_diagram": lambda counts, args, result: counts.update(
        dot_bytes=len(result.encode())
    ),
}


class Tracer:
    """Spans and counts of one traced run, kept in memory until `dump`.

    A span is [name, start, end, parent index, busy, items].  For a call,
    busy and items are None.  A generator gets one span for its whole life
    instead of one per item: busy is the time spent inside its `next()`
    calls and items the number it yielded.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str, busy, items) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, busy, items]
        self.spans.append(span)
        return span

    def call(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, None, None)
            self.stack.append(len(self.spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, 0.0, 0)
            span[1] = start = perf_counter()
            busy = 0.0
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    busy += perf_counter() - start
                    items += 1
                    yield item
                    start = perf_counter()
                busy += perf_counter() - start
            finally:
                span[2] = perf_counter()
                span[4] = busy
                span[5] = items

        return wrapper

    def install(self, layers: list, holders: list) -> None:
        """Wrap each public function defined in `layers` under every name
        any module in `holders` binds it to, e.g. `cli.enumerate_compositions`
        as well as `compositions.enumerate_compositions`."""
        wrappers = {}
        for layer in layers:
            short = layer.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(layer).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != layer.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self.generator if inspect.isgeneratorfunction(obj) else self.call
                wrappers[obj] = wrap(name, obj)
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def count_checks(self, report_cls) -> None:
        """Count every check added to a verification report."""
        add = report_cls.add

        def counted_add(report, *args):
            self.counts["checks"] += 1
            add(report, *args)

        report_cls.add = counted_add

    def dump(self, path: str) -> None:
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "run": self.run_id, "busy": busy, "items": items}
            for name, start, end, parent, busy, items in self.spans
        ]
        with open(path, "w") as out:
            json.dump({"run": self.run_id, "spans": spans, "counts": self.counts}, out)
