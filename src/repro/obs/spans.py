"""Causal per-request span trees stitched from the flat event trace.

The serving layer (:mod:`repro.service.broker`) and the chip-level sweep
(:meth:`repro.ssd.retry_model.RetryProfile.measure`) emit ``span`` events
when span tracing is on (``OBS.spans_enabled``): one event per tree node,
carrying ``(trace, span, parent, name, t0, t1)`` plus free-form
attributes, all stamped in deterministic virtual microseconds.  This
module reassembles those flat events into trees and answers the questions
the paper's latency claim rests on:

* **where did one request's time go** — queue wait vs. sensing vs. retry
  rounds vs. ECC/transfer vs. degraded fallback vs. batch riding;
* **what was the critical path** — the chain of spans that determined the
  request's completion time (other die chains overlap it);
* **what did the sentinel save** — read spans carry ``saved_us``, the
  fallback-table estimate (``DEGRADED_RETRIES`` full-read rounds, see
  :mod:`repro.service.broker`) minus the actual service time, the
  per-read form of the paper's headline delta.

Assembly is order-independent: children are sorted by ``(t0, span_id)``
and trees by ``(root.t0, trace)``, so a shuffled or shard-merged event
stream reconstructs byte-identical trees (a hypothesis test pins this).

Phase accounting is a *tiling*: every parent's children partition its
interval (emitters clamp the last child to the parent's end), so the
critical-path leaf durations sum to the root's end-to-end latency —
``reconcile`` checks that identity, ``PhaseBreakdown.stray_spans``
counts spans that run backwards or outside their parent, and
``repro spans --check`` turns both into an exit status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import TraceEvent

#: span-event field names that are structure, not attributes
_STRUCTURAL = frozenset({"trace", "span", "parent", "name", "t0", "t1"})

#: tolerance (microseconds) for "children tile the parent" comparisons
_EPS_US = 1e-6


@dataclass
class Span:
    """One node of a causal tree (times in virtual microseconds)."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    t0: float
    t1: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        """Canonical nested form (sorted attrs/children) for JSON export
        and tree-equality comparisons."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class SpanTree:
    """One request's assembled tree plus assembly diagnostics."""

    trace_id: str
    root: Span
    n_spans: int
    #: spans whose parent id never appeared (attached under the root)
    orphans: int = 0

    @property
    def duration_us(self) -> float:
        return self.root.duration_us


def span_from_event(event: TraceEvent) -> Span:
    f = event.fields
    parent = f.get("parent")
    return Span(
        trace_id=str(f["trace"]),
        span_id=int(f["span"]),
        parent_id=None if parent is None else int(parent),
        name=str(f["name"]),
        t0=float(f["t0"]),
        t1=float(f["t1"]),
        attrs={k: v for k, v in f.items() if k not in _STRUCTURAL},
    )


def _sort_children(span: Span) -> None:
    span.children.sort(key=lambda c: (c.t0, c.span_id))
    for child in span.children:
        _sort_children(child)


def assemble(events: Iterable[TraceEvent]) -> List[SpanTree]:
    """Rebuild span trees from any ordering of the event stream.

    Non-``span`` events are ignored, so a full ``--obs-trace`` export and
    a span-only ``--obs-spans`` export assemble identically.  A span whose
    parent never appears is attached under the trace's root (counted in
    ``orphans``); a trace with no root span gets a synthesized one
    covering its extent, so a truncated trace still renders."""
    by_trace: Dict[str, List[Span]] = {}
    for event in events:
        if event.kind != "span":
            continue
        span = span_from_event(event)
        by_trace.setdefault(span.trace_id, []).append(span)

    trees: List[SpanTree] = []
    for trace_id, spans in by_trace.items():
        by_id = {s.span_id: s for s in spans}
        roots: List[Span] = []
        orphans: List[Span] = []
        for s in spans:
            if s.parent_id is None:
                roots.append(s)
            elif s.parent_id in by_id:
                by_id[s.parent_id].children.append(s)
            else:
                orphans.append(s)
        if roots:
            roots.sort(key=lambda s: (s.t0, s.span_id))
            root = roots[0]
            # extra roots (malformed trace) count as orphans too
            orphans.extend(roots[1:])
        else:
            root = Span(
                trace_id=trace_id,
                span_id=-1,
                parent_id=None,
                name="(incomplete)",
                t0=min(s.t0 for s in spans),
                t1=max(s.t1 for s in spans),
            )
        for s in orphans:
            if s is not root:
                root.children.append(s)
        _sort_children(root)
        trees.append(SpanTree(
            trace_id=trace_id,
            root=root,
            n_spans=len(spans),
            orphans=len(orphans),
        ))
    trees.sort(key=lambda t: (t.root.t0, t.trace_id))
    return trees


# ---------------------------------------------------------------------------
# critical path + phase breakdown
# ---------------------------------------------------------------------------
def _sequential(children: List[Span]) -> bool:
    """True when (sorted) children do not overlap — a sequential tiling."""
    for prev, nxt in zip(children, children[1:]):
        if nxt.t0 < prev.t1 - _EPS_US:
            return False
    return True


def critical_leaves(span: Span) -> List[Span]:
    """The leaf spans that tile the request's completion-determining path.

    Sequential children (a die chain's queue wait + ops, an op's phases)
    are all on the path; parallel children (one chain per die, all
    starting at issue) are dominated by the one that ends last."""
    if not span.children:
        return [span]
    if _sequential(span.children):
        leaves: List[Span] = []
        for child in span.children:
            leaves.extend(critical_leaves(child))
        return leaves
    last = max(span.children, key=lambda c: (c.t1, c.t0, c.span_id))
    return critical_leaves(last)


def critical_path(span: Span) -> List[Span]:
    """Root-to-leaf chain of spans that determined the completion time."""
    path = [span]
    cur = span
    while cur.children:
        if _sequential(cur.children):
            cur = cur.children[-1]
        else:
            cur = max(cur.children, key=lambda c: (c.t1, c.t0, c.span_id))
        path.append(cur)
    return path


def _walk(span: Span) -> Iterable[Span]:
    yield span
    for child in span.children:
        yield from _walk(child)


@dataclass
class PhaseBreakdown:
    """Critical-path phase totals over a set of trees."""

    #: phase name -> (span count, total microseconds on the critical path)
    phases: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    trees: int = 0
    shed: int = 0
    degraded: int = 0
    total_e2e_us: float = 0.0
    #: sum of ``saved_us`` attributes — time the sentinel flow saved
    #: against the fallback-table estimate, over every read span
    saved_us: float = 0.0
    saved_reads: int = 0
    #: worst per-tree |root duration - sum(critical leaf durations)|
    max_delta_us: float = 0.0
    #: spans that end before they start or leave their parent's interval
    stray_spans: int = 0

    @property
    def total_phase_us(self) -> float:
        return sum(total for _, total in self.phases.values())


def phase_breakdown(trees: Iterable[SpanTree]) -> PhaseBreakdown:
    """Fold trees into per-phase critical-path totals + reconciliation."""
    out = PhaseBreakdown()
    for tree in trees:
        out.trees += 1
        outcome = tree.root.attrs.get("outcome")
        if outcome == "shed":
            out.shed += 1
            continue
        if outcome == "degraded":
            out.degraded += 1
        out.total_e2e_us += tree.duration_us
        leaf_sum = 0.0
        for leaf in critical_leaves(tree.root):
            count, total = out.phases.get(leaf.name, (0, 0.0))
            out.phases[leaf.name] = (count + 1, total + leaf.duration_us)
            leaf_sum += leaf.duration_us
        delta = abs(tree.duration_us - leaf_sum)
        if delta > out.max_delta_us:
            out.max_delta_us = delta
        out.stray_spans += _stray(tree.root, tree.root)
        for span in _walk(tree.root):
            saved = span.attrs.get("saved_us")
            if saved is not None:
                out.saved_us += float(saved)
                out.saved_reads += 1
            out.stray_spans += sum(_stray(c, span) for c in span.children)
    return out


def _stray(span: Span, parent: Span) -> bool:
    """Whether ``span`` ends before it starts or leaves ``parent`` (beyond
    1e-12 relative float noise).  :func:`reconcile` sees neither: clamped
    last children make the critical-path sums telescope."""
    tol = _EPS_US * max(1.0, 1e-6 * abs(parent.t1))
    return not (
        parent.t0 - tol <= span.t0 <= span.t1 + tol
        and span.t1 <= parent.t1 + tol
    )


def reconcile(trees: Iterable[SpanTree]) -> Tuple[bool, float]:
    """Check the tiling identity: critical-path phase sums must equal the
    root end-to-end durations (within float-accumulation noise)."""
    bd = phase_breakdown(trees)
    tolerance = _EPS_US * max(1.0, bd.total_e2e_us)
    return bd.max_delta_us <= tolerance, bd.max_delta_us


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------
def export_trees_json(trees: Iterable[SpanTree], path: str) -> int:
    """One nested tree per line; returns the tree count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for tree in trees:
            fh.write(json.dumps(tree.root.to_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def render_breakdown(bd: PhaseBreakdown) -> str:
    """Phase table + sentinel-savings + reconciliation lines."""
    from repro.analysis.report import format_table

    served = bd.trees - bd.shed
    header = (
        f"spans: {bd.trees} request traces "
        f"({served} served, {bd.shed} shed"
        + (f", {bd.degraded} degraded" if bd.degraded else "")
        + f"), end-to-end {bd.total_e2e_us:.1f} us"
    )
    if not bd.phases:
        return header + "\n  (no samples)"
    total = bd.total_phase_us
    rows = []
    for name in sorted(bd.phases, key=lambda n: -bd.phases[n][1]):
        count, phase_total = bd.phases[name]
        rows.append((
            name,
            count,
            f"{phase_total:.1f}",
            f"{phase_total / count:.1f}",
            f"{phase_total / total:.1%}" if total > 0 else "0.0%",
        ))
    table = format_table(
        rows,
        headers=["phase", "spans", "total us", "mean us", "share"],
        title="critical-path phase breakdown",
    )
    lines = [header, "", table]
    if bd.saved_reads:
        lines.append(
            f"sentinel vs fallback-table estimate: saved "
            f"{bd.saved_us:.1f} us over {bd.saved_reads} reads "
            f"({bd.saved_us / bd.saved_reads:.1f} us/read)"
        )
    tolerance = _EPS_US * max(1.0, bd.total_e2e_us)
    verdict = "reconcile" if bd.max_delta_us <= tolerance else "DIVERGE"
    lines.append(
        f"phase sums vs end-to-end latencies: {verdict} "
        f"(max delta {bd.max_delta_us:.3g} us)"
    )
    return "\n".join(lines)


def render_tree(tree: SpanTree, max_depth: int = 4) -> str:
    """ASCII rendering of one tree (critical-path spans marked ``*``)."""
    crit = {id(s) for s in critical_path(tree.root)}
    lines: List[str] = []

    def fmt(span: Span, depth: int) -> None:
        if depth > max_depth:
            return
        mark = "*" if id(span) in crit else " "
        extra = ""
        for key in ("die", "outcome", "retries", "cache"):
            if key in span.attrs:
                extra += f" {key}={span.attrs[key]}"
        lines.append(
            f"{mark} {'  ' * depth}{span.name:<18} "
            f"[{span.t0:>10.1f} .. {span.t1:>10.1f}] "
            f"{span.duration_us:>9.1f} us{extra}"
        )
        for child in span.children:
            fmt(child, depth + 1)

    fmt(tree.root, 0)
    header = (
        f"trace {tree.trace_id}: {tree.n_spans} spans, "
        f"{tree.duration_us:.1f} us"
        + (f" ({tree.orphans} orphaned)" if tree.orphans else "")
    )
    return header + "\n" + "\n".join(lines)
