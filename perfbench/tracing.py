"""Outside-in tracing of the report path, for the traced run only.

``Tracer.install`` rebinds public functions of the program's modules (and a
few private ones the planner calls) to wrappers that record a span per call:
name, start, end, parent span and report id; ``enable`` and ``disable``
switch the rebinding on and off between reports.  Spans stay in memory
until ``write`` saves them at the end of the run.  Counts are taken in the
wrappers from arguments and results, after the span has ended.  Nothing
wraps a per-assignment callback such as ``ChamberSystem.evaluate``: oracle
assignments are computed from the inputs (2**n per call), and DP table
cells are the lengths of the tables ``_dp_sum_counts`` returns.  Names the
program no longer has are listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# per-layer metrics reported by the traced run: name -> unit
PER_LAYER = {
    "voting.build_mwc_sop_s": "s",
    "voting.build_mwc_sop.products": "count",
    "boolean_core.make_disjoint_s": "s",
    "boolean_core.make_disjoint.in_products": "count",
    "boolean_core.make_disjoint.out_products": "count",
    "boolean_core.make_disjoint.expansion": "ratio",
    "boolean_core.quotient_s": "s",
    "boolean_core.quotient.calls": "count",
    "voting.route.closed_form": "count",
    "voting.route.quotient_pos": "count",
    "voting.route.dp": "count",
    "voting.auto.fallbacks": "count",
    "voting.auto.abandoned_s": "s",
    "voting.auto.useful_ratio": "ratio",
    "voting.chamber_weight_s": "s",
    "voting.self_s": "s",
    "voting.dp.cells": "count",
    "voting.mwc_sop_s": "s",
    "voting.mwc_sop.products": "count",
    "voting.mlc_sop_s": "s",
    "voting.mlc_sop.products": "count",
    "voting.build_mlc_sop_s": "s",
    "voting.pgi_cpgi_s": "s",
    "boolean_core.derivative_weight_s": "s",
    "boolean_core.derivative_weight.calls": "count",
    "oracle.oracle_tbp_s": "s",
    "oracle.oracle_tbp.calls": "count",
    "oracle.assignments": "count",
    "voting.swap_robust_check_s": "s",
    "cli.self_s": "s",
    "cli.reports": "count",
    "specfile.load_system_s": "s",
    "specfile.bytes": "count",
    "render.format_sig_s": "s",
    "render.format_sig.calls": "count",
    "combinatorics.ensure_s": "s",
    "combinatorics.rows_grown": "count",
    "trace.overhead_ratio": "ratio",
}

# spans whose total time is reported as "<span>_s": the outermost spans of
# that name, so a span nested in a same-named one counts once
TIMED = (
    "voting.build_mwc_sop",
    "boolean_core.make_disjoint",
    "boolean_core.quotient",
    "voting.chamber_weight",
    "voting.mwc_sop",
    "voting.mlc_sop",
    "voting.build_mlc_sop",
    "voting.pgi_cpgi",
    "boolean_core.derivative_weight",
    "oracle.oracle_tbp",
    "voting.swap_robust_check",
    "specfile.load_system",
    "render.format_sig",
    "combinatorics.ensure",
)
# calls inside this module are its own internals and are not traced
KERNEL = "banzhaf.boolean_core"
# voting spans with no metric of their own: their self time is voting.self_s
# (closed form, DP swing passes, fan-out, report assembly)
VOTING_SELF = ("voting.tbp_report", "voting.tbp_vector", "voting.sop_route")


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, report id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[int] = []
        self.report_id = 0
        self.counts: Counter = Counter()
        self.auto_depth = 0
        # (owner, attribute, original, wrapper) for each rebound name
        self.bindings: list[tuple] = []
        # names the program no longer has: their metrics read 0
        self.missing: list[str] = []

    def wrap(self, name, fn, *, before=None, after=None, failed=None):
        """Wrap fn in a span.  ``before(args, kwargs)`` returns a state that is
        handed to ``after(state, args, kwargs, result)`` on return or to
        ``failed(state, args, kwargs, exc, seconds)`` on an exception."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.report_id)
                if failed:
                    failed(state, args, kwargs, exc, end - start)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.report_id)
            if after:
                after(state, args, kwargs, result)
            return result

        return traced

    def install(self, banzhaf) -> None:
        """Rebind the report path's functions, wherever the program holds them,
        to wrappers; ``enable`` and ``disable`` switch between the two."""
        cli, voting, specfile, render = (
            banzhaf.cli, banzhaf.voting, banzhaf.specfile, banzhaf.render
        )
        boolean_core, oracle, combinatorics = (
            banzhaf.boolean_core, banzhaf.oracle, banzhaf.combinatorics
        )
        from banzhaf.errors import ResourceLimitError

        counts = self.counts

        def count(key, amount=1):
            counts[key] += amount

        def rebind(owner, attr, make):
            """Wrap ``owner.attr`` with ``make(fn)``: on a class in place, and
            for a module function in every loaded program module that holds
            the same object (a name imported elsewhere is rebound there too),
            except inside the algebra kernel, whose functions call each other
            as internals.  A name the program no longer has, or that only
            the kernel holds, is recorded in ``missing``."""
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                return
            wrapped = make(fn)
            if isinstance(owner, type):
                self.bindings.append((owner, attr, fn, wrapped))
                return
            bound = len(self.bindings)
            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] != "banzhaf" or name == KERNEL:
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self.bindings.append((module, key, fn, wrapped))
            if len(self.bindings) == bound:
                self.missing.append(f"{owner.__name__}.{attr} (held only by {KERNEL})")

        def span(name, **hooks):
            return lambda fn: self.wrap(name, fn, **hooks)

        # cli (the report root is wrapped by ``root``), specfile and render
        def spec_bytes(state, args, kwargs, result):
            path = args[0]
            if not os.path.exists(path):
                path = specfile.fixture_path(path)
            count("specfile.bytes", os.path.getsize(path))

        rebind(specfile, "load_system", span("specfile.load_system", after=spec_bytes))
        rebind(render, "format_sig", span(
            "render.format_sig", after=lambda s, a, k, r: count("render.format_sig.calls")))
        rebind(voting, "swap_robust_check", span("voting.swap_robust_check"))

        # voting: planner, routes and enumeration
        def vector_before(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
            if method == "auto":
                self.auto_depth += 1
            return method

        def vector_after(method, args, kwargs, result):
            if method == "auto":
                self.auto_depth -= 1
                count(f"voting.route.{result[1]}")

        def vector_failed(method, args, kwargs, exc, seconds):
            if method == "auto":
                self.auto_depth -= 1

        def sop_failed(state, args, kwargs, exc, seconds):
            if isinstance(exc, ResourceLimitError) and self.auto_depth:
                count("voting.auto.fallbacks")
                count("voting.auto.abandoned_s", seconds)

        def products(key):
            return lambda s, a, k, result: count(key, len(result.products))

        def disjoint_before(args, kwargs):
            return len(args[0].products)

        def disjoint_after(n_in, args, kwargs, result):
            count("boolean_core.make_disjoint.in_products", n_in)
            count("boolean_core.make_disjoint.out_products", len(result.products))

        for attr, name, hooks in (
            ("tbp_report", "voting.tbp_report", {}),
            ("tbp_vector", "voting.tbp_vector",
             dict(before=vector_before, after=vector_after, failed=vector_failed)),
            ("_tbp_sop_route", "voting.sop_route", dict(failed=sop_failed)),
            ("build_mwc_sop", "voting.build_mwc_sop",
             dict(after=products("voting.build_mwc_sop.products"))),
            ("build_mlc_sop", "voting.build_mlc_sop", {}),
            ("mwc_sop", "voting.mwc_sop", dict(after=products("voting.mwc_sop.products"))),
            ("mlc_sop", "voting.mlc_sop", dict(after=products("voting.mlc_sop.products"))),
            ("pgi_cpgi", "voting.pgi_cpgi", {}),
        ):
            rebind(voting, attr, span(name, **hooks))
        rebind(boolean_core, "make_disjoint", span(
            "boolean_core.make_disjoint", before=disjoint_before, after=disjoint_after))
        rebind(boolean_core, "derivative_weight", span(
            "boolean_core.derivative_weight",
            after=lambda s, a, k, r: count("boolean_core.derivative_weight.calls")))
        for attr in ("restrict", "conjoin_literal", "weight_disjoint"):
            rebind(boolean_core, attr, span(
                "boolean_core.quotient",
                after=lambda s, a, k, r: count("boolean_core.quotient.calls")))
        rebind(voting.Chamber, "weight", span("voting.chamber_weight"))

        # the subset-sum DP: one table per call, its cells counted without a
        # span, so that the DP passes stay in the self time of their callers
        def dp_table(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                table = fn(*args, **kwargs)
                count("voting.dp.cells", len(table))
                return table

            return counted

        rebind(voting, "_dp_sum_counts", dp_table)

        # oracle: 2**n assignments per call, computed from the arguments
        def oracle_after(state, args, kwargs, result):
            count("oracle.oracle_tbp.calls")
            count("oracle.assignments", 1 << args[1])

        rebind(oracle, "oracle_tbp", span("oracle.oracle_tbp", after=oracle_after))

        # combinatorics: lazy growth of the shared binomial table
        rebind(combinatorics.BinomTable, "ensure", span(
            "combinatorics.ensure",
            before=lambda args, kwargs: args[0].max_n,
            after=lambda rows, args, kwargs, r: count(
                "combinatorics.rows_grown", args[0].max_n - rows
            ),
        ))
        self.enable()

    def enable(self) -> None:
        for owner, attr, _, wrapped in self.bindings:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, fn, _ in self.bindings:
            setattr(owner, attr, fn)

    def root(self, run):
        """Wrap the report entry point; each call starts a new report id."""
        traced = self.wrap("cli.run", run)

        def report(*args, **kwargs):
            self.report_id += 1
            return traced(*args, **kwargs)

        return report

    def metrics(self) -> dict:
        """Per-layer totals for the run; ``trace.overhead_ratio`` is left to
        the caller, which has the untraced report time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        names = [s[0] for s in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        self_by_name: dict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_by_name[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = spans[p][3]
            if p < 0:
                totals[name] += end - start
        out = {f"{span}_s": totals.get(span, 0.0) for span in TIMED}
        out.update(self.counts)
        reports = names.count("cli.run")
        fallbacks = self.counts.get("voting.auto.fallbacks", 0)
        out["cli.reports"] = reports
        out["cli.self_s"] = self_by_name.get("cli.run", 0.0)
        out["voting.self_s"] = sum(self_by_name.get(n, 0.0) for n in VOTING_SELF)
        n_in = self.counts.get("boolean_core.make_disjoint.in_products", 0)
        n_out = self.counts.get("boolean_core.make_disjoint.out_products", 0)
        out["boolean_core.make_disjoint.expansion"] = n_out / n_in if n_in else 0.0
        out["voting.auto.useful_ratio"] = (reports - fallbacks) / reports if reports else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report in self.spans:
                fh.write(json.dumps([name, start, end, parent, report]) + "\n")

