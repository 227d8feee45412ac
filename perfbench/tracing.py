"""Traced passes: spans and counts at hadforge's layer boundaries.

Nothing under src/ is edited.  For the length of a traced pass, each
boundary function is replaced by a wrapper in every hadforge module that
holds a reference to it, i.e. under the name its caller looks up
(`hadforge.analyze.certify_rank` as well as `hadforge._exactrank.certify_rank`).
Spans (name, start, end, parent, item) are kept in memory and written out at
the end; self time is a span's duration minus that of its child spans.
Cyclotomic-integer methods are not wrapped: an item calls them millions of
times.  A boundary whose function no longer exists is reported as missing,
and so is every metric derived from it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


def _cells(counts: Counter, result) -> None:
    counts["exactrank.system_cells"] += int(result.size)


def _evidence(counts: Counter, report) -> None:
    counts["exactrank.primes_used"] += len(report.evidence.get("primes", ()))
    counts["exactrank.null_vectors"] += int(report.evidence.get("null_vectors", 0))


@dataclass(frozen=True)
class Boundary:
    name: str
    module: str
    attr: str
    span: bool = True  # False: count calls (and raises) only
    after: Optional[Callable[[Counter, object], None]] = None


BOUNDARIES = (
    Boundary("catalog.verify", "hadforge.catalog", "verify"),
    Boundary("analyze.defect_exact", "hadforge.analyze", "_defect_exact", False, _evidence),
    Boundary("analyze.assemble", "hadforge.analyze", "_exact_rows"),
    Boundary("analyze.float_screen", "hadforge.analyze", "_defect_float"),
    Boundary("analyze.haagerup", "hadforge.analyze", "haagerup_set"),
    Boundary("analyze.examine", "hadforge.analyze", "_examine"),
    Boundary("exactrank.certify", "hadforge._exactrank", "certify_rank"),
    Boundary("exactrank.prime", "hadforge._exactrank", "find_embedding_prime", False),
    Boundary("exactrank.evaluate", "hadforge._exactrank", "evaluate_rows", True, _cells),
    Boundary("exactrank.rank", "hadforge._exactrank", "rank_mod"),
    Boundary("exactrank.null_certificate", "hadforge._exactrank", "_null_vector_certificate", False),
    Boundary("exactrank.interp", "hadforge._exactrank", "_null_coeffs_one_prime"),
    Boundary("exactrank.rref", "hadforge._exactrank", "rref_mod"),
    Boundary("exactrank.lift", "hadforge._exactrank", "_lift_vectors"),
    Boundary("exactrank.verify", "hadforge._exactrank", "_verify_null_vectors"),
    Boundary("construct.build", "hadforge.construct", "theorem1_build"),
    Boundary("matrices.dephase", "hadforge.matrices", "dephase"),
    Boundary("matrices.min_root", "hadforge.matrices", "butson_min_root"),
    Boundary("matrices.unitary", "hadforge.matrices", "is_unitary"),
    Boundary("mub.set", "hadforge.mub", "complete_mub_set"),
    Boundary("mub.mu_pair", "hadforge.mub", "is_mu_pair"),
)

# Per-layer metrics: (name, unit, kind, source).  Kinds: "self" sums the self
# time of the source's spans; "calls" counts calls of the source boundary;
# "count" reads a counter kept by a boundary hook; "p50"/"p95" are span
# durations in ms; "exact_ratio" is certificates per examined assignment;
# "overhead" is the time the wrappers added to the traced pass (see
# Tracer.overhead_s).
PER_LAYER = (
    ("exactrank.rank_s", "s", "self", "exactrank.rank"),
    ("exactrank.evaluate_s", "s", "self", "exactrank.evaluate"),
    ("analyze.assemble_s", "s", "self", "analyze.assemble"),
    ("exactrank.rref_s", "s", "self", "exactrank.rref"),
    ("exactrank.interp_s", "s", "self", "exactrank.interp"),
    ("exactrank.lift_s", "s", "self", "exactrank.lift"),
    ("exactrank.verify_s", "s", "self", "exactrank.verify"),
    ("exactrank.certify_s", "s", "self", "exactrank.certify"),
    ("exactrank.certify_calls", "count", "calls", "exactrank.certify"),
    ("exactrank.primes_tried", "count", "calls", "exactrank.prime"),
    ("exactrank.primes_used", "count", "count", "analyze.defect_exact"),
    ("exactrank.null_vectors", "count", "count", "analyze.defect_exact"),
    ("exactrank.retries", "count", "raised", "exactrank.null_certificate"),
    ("exactrank.system_cells", "count", "count", "exactrank.evaluate"),
    ("analyze.float_screen_s", "s", "self", "analyze.float_screen"),
    ("analyze.float_screen_calls", "count", "calls", "analyze.float_screen"),
    ("analyze.haagerup_s", "s", "self", "analyze.haagerup"),
    ("matrices.dephase_s", "s", "self", "matrices.dephase"),
    ("matrices.min_root_s", "s", "self", "matrices.min_root"),
    ("construct.build_s", "s", "self", "construct.build"),
    ("analyze.examine_p50_ms", "ms", "p50", "analyze.examine"),
    ("analyze.examine_p95_ms", "ms", "p95", "analyze.examine"),
    ("analyze.exact_per_examined", "ratio", "exact_ratio", "analyze.examine"),
    ("matrices.unitary_s", "s", "self", "matrices.unitary"),
    ("mub.set_s", "s", "self", "mub.set"),
    ("mub.mu_pair_s", "s", "self", "mub.mu_pair"),
    ("catalog.verify_s", "s", "self", "catalog.verify"),
    ("catalog.verify_calls", "count", "calls", "catalog.verify"),
    ("trace.overhead_s", "s", "overhead", None),
)

ITEM_SPAN = "item"


class Tracer:
    """Installs the boundary wrappers and collects spans and counts."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.missing: set = set()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str, item: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if item is None:
            item = self.spans[parent][4] if parent >= 0 else None
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, parent, item])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self._stack.pop()

    def item(self, name: str, fn: Callable[[], object]):
        """Run one item under a root span that its child spans share."""
        idx = self._open(ITEM_SPAN, name)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[b.name] += 1
            idx = self._open(b.name) if b.span else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[b.name + ".raised"] += 1
                raise
            finally:
                if idx is not None:
                    self._close(idx)
            if b.after is not None:
                b.after(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hadforge" or n.startswith("hadforge.")]
        for b in BOUNDARIES:
            fn = getattr(sys.modules.get(b.module), b.attr, None)
            if fn is None:
                self.missing.add(b.name)
                continue
            wrapper = self._wrap(b, fn)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Counter]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: Dict[str, float] = {}
        spans: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
            spans[name] += 1
        return own, spans

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def overhead_s(self, n: int = 100_000) -> Tuple[float, int]:
        """Time the wrappers added to the traced pass, and the wrapped calls.

        This is the expected traced-minus-untraced pass time.  The difference
        of two measured passes is not used: it costs a second pass, and the
        machine's speed drift (several seconds per pass) would swamp the
        wrappers' cost (a few microseconds per call).  Each kind of wrapper
        is timed on n calls of a no-op against n bare calls.
        """

        def noop():
            return None

        # item spans cost what a span wrapper costs
        wrapped_calls = {True: len(self.spans), False: 0}
        for b in BOUNDARIES:
            if not b.span:
                wrapped_calls[False] += self.counts[b.name]
        total = 0.0
        for span, calls in wrapped_calls.items():
            wrapped = Tracer()._wrap(Boundary("probe", "", "", span), noop)
            t = perf()
            for _ in range(n):
                noop()
            bare = perf() - t
            t = perf()
            for _ in range(n):
                wrapped()
            total += calls * max(perf() - t - bare, 0.0) / n
        return total, sum(wrapped_calls.values())

    def metrics(self) -> Dict[str, dict]:
        """Every per-layer metric: {name: {"value", "unit", "samples"}}, with
        value None for a metric whose boundary no longer exists."""
        own, spans = self.self_times()
        overhead, wrapped_calls = self.overhead_s()
        examine_ms = sorted(1e3 * s for s in self.durations("analyze.examine"))
        certified = sum(
            1
            for i, s in enumerate(self.spans)
            if s[0] == "exactrank.certify" and self._under(i, "analyze.examine")
        )
        out: Dict[str, dict] = {}
        for name, unit, kind, source in PER_LAYER:
            # samples: spans timed, or calls of the boundary that counts
            n = spans[source] if kind == "self" else self.counts[source] if source else 1
            if source in self.missing:
                value = None
            elif kind == "self":
                value = own.get(source, 0.0)
            elif kind == "calls":
                value = self.counts[source]
            elif kind == "raised":
                value = self.counts[source + ".raised"]
            elif kind == "count":
                value = self.counts[name]
            elif kind in ("p50", "p95"):
                value = _percentile(examine_ms, 50 if kind == "p50" else 95)
                n = len(examine_ms)
            elif kind == "exact_ratio":
                value = certified / len(examine_ms) if examine_ms else 0.0
                n = len(examine_ms)
            else:
                value, n = overhead, wrapped_calls
            out[name] = {"value": value, "unit": unit, "samples": n}
        return out

    def dump(self, path) -> None:
        """Write the spans out as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, item] for n, s, e, p, item in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "item"], "spans": rows,
                       "counts": dict(self.counts), "missing": sorted(self.missing)}, fh)


def _percentile(sorted_values: List[float], pct: int) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    if pct == 50:
        return statistics.median(sorted_values)
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[pct - 1]
