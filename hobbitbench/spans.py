"""Spans around the benchmark's calls into each layer, and the ledger
of operations attempted and failed.

Spans are kept in memory and written out once, at the end of a traced
run. A span's layer is the first component of its dotted name
(``core.campaign`` → ``core``); its *self time* is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    #: CPU seconds (process + reaped children) spent inside the span.
    cpu: float = 0.0
    #: Counts recorded at the span's boundary (e.g. probes sent).
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one benchmark run, all sharing ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            span_id=len(self.spans),
            name=name,
            parent=self._open[-1] if self._open else None,
            run_id=self.run_id,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._open.append(record.span_id)
        cpu_before = cpu_seconds()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            record.cpu = cpu_seconds() - cpu_before
            self._open.pop()

    def descendants(self, root: Span) -> List[Span]:
        """Every span recorded under ``root`` (spans are appended in
        start order, so a subtree is a contiguous run after its root)."""
        inside = {root.span_id}
        found = []
        for record in self.spans[root.span_id + 1:]:
            if record.parent not in inside:
                break
            inside.add(record.span_id)
            found.append(record)
        return found

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [dataclasses.asdict(record) for record in self.spans],
                handle, indent=1,
            )
            handle.write("\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """span id → duration minus the union of its children's intervals
    (clipped to the parent, so overlapping or overhanging children are
    never subtracted twice)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    result = {}
    for record in spans:
        covered = 0.0
        reach = record.start
        for child in sorted(
            children.get(record.span_id, ()), key=lambda c: c.start
        ):
            low = max(child.start, reach)
            high = min(child.end, record.end)
            if high > low:
                covered += high - low
                reach = high
        result[record.span_id] = record.seconds - covered
    return result


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """layer → summed self time of its spans."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for record in spans:
        totals[record.layer] = (
            totals.get(record.layer, 0.0) + own[record.span_id]
        )
    return totals


class Ledger:
    """Operations attempted and failed. An operation is one layer call
    or one correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok
