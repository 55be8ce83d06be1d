"""Spans and counts at glueforge's module boundaries, from outside the program.

``install`` rebinds the public functions of each module, in every glueforge
module that holds them, to wrappers that record a span (name, start, end,
parent, document) and add counts computed from the arguments and result.
``FinTop`` and ``TopMap`` construction is wrapped on the class, and ``FinFn``
construction is counted.  Self time is a span's duration minus the time its
child spans cover; the tracer sums self time, calls and counts by name and
keeps the individual spans only while ``keep`` is set.
"""

import functools
from math import prod
from time import perf_counter_ns

from glueforge import cli, fincat, gluing, indexcat, presheaf, refine, site

MODULES = (cli, fincat, gluing, indexcat, presheaf, refine, site)


def _limit_counts(tr, args, result):
    data = args[0]
    tr.add("gluing.limit_glue.candidates", prod(
        len(data.carrier(obj)) for obj in data.indexcat.singletons()))
    tr.add("gluing.limit_glue.families", len(result.apex))


def _hom_counts(tr, args, result):
    data, z = args[0], args[1]
    tr.add("gluing.hom_transport.candidates", prod(
        len(z) ** len(data.carrier(obj))
        for obj in data.indexcat.singletons()))
    tr.add("gluing.hom_transport.families", result["family_count"])


def _sheaf_counts(tr, args, result):
    store, coverings = args[0], args[1]
    _, counter = result
    for u, parts in coverings:
        tr.add("presheaf.is_sheaf.candidates",
               prod(len(store.sections[v]) for v in parts))
        tr.add("presheaf.is_sheaf.sections", len(store.sections[u]))
        if counter is not None and counter["parts"] is parts:
            break


def _pullback_counts(tr, args, result):
    tr.add("fincat.pullback.candidates",
           len(args[0].domain) * len(args[1].domain))
    tr.add("fincat.pullback.members", len(result.members))


# (module, function, span name or None for a count-only wrapper, counter)
TRACED = [
    (cli, "load_document", "cli.load_document", None),
    (cli, "parse_object", "cli.parse", None),
    (cli, "parse_gluing", "cli.parse", None),
    (cli, "parse_sink", "cli.parse", None),
    (cli, "parse_site", "cli.parse", None),
    (cli, "parse_presheaf", "cli.parse", None),
    (cli, "parse_gluing_datum", "cli.parse", None),
    (cli, "parse_refinement", "cli.parse", None),
    (cli, "execute", "cli.execute", None),
    (cli, "render_report", "cli.render",
     lambda tr, a, r: tr.add("cli.report_bytes", len(r))),
    (gluing, "colimit_glue", "gluing.colimit_glue", None),
    (gluing, "limit_glue", "gluing.limit_glue", _limit_counts),
    (gluing, "hom_transport", "gluing.hom_transport", _hom_counts),
    (gluing, "universal_glue_check", "gluing.universal_glue_check", None),
    (gluing, "mediating_map", "gluing.mediating_map", None),
    (site, "effective_gluing_check", "site.effective_gluing_check", None),
    (site, "effective_epi_check", "site.effective_epi_check", None),
    (site, "canonical_sink_functor", "site.canonical_sink_functor", None),
    (site, "base_change_sink", "site.base_change_sink", None),
    (site, "covering_axioms_check", "site.covering_axioms_check", None),
    (site, "sinks_equivalent", None, None),
    (refine, "validate_refinement", "refine.validate_refinement", None),
    (refine, "induced_limit_map", "refine.induced_limit_map", None),
    (refine, "compose_via_sinks", "refine.compose_via_sinks", None),
    (presheaf, "validate_presheaf", "presheaf.validate_presheaf", None),
    (presheaf, "is_separated", "presheaf.is_separated", None),
    (presheaf, "is_sheaf", "presheaf.is_sheaf", _sheaf_counts),
    (presheaf, "all_coverings", "presheaf.all_coverings",
     lambda tr, a, r: tr.add("presheaf.coverings", len(r))),
    (presheaf, "default_coverings", None,
     lambda tr, a, r: tr.add("presheaf.coverings", len(r))),
    (presheaf, "glue_presheaves", "presheaf.glue_presheaves", None),
    (presheaf, "presheaf_effective_check", "presheaf.presheaf_effective_check",
     None),
    (presheaf, "glue_nat_trans", "presheaf.glue_nat_trans", None),
    (fincat, "pullback", "fincat.pullback", _pullback_counts),
    (fincat, "product_enumerate", "fincat.product_enumerate",
     lambda tr, a, r: tr.add("fincat.product_enumerate.items", len(r))),
    (fincat, "quotient_by_pairs", "fincat.quotient_by_pairs",
     lambda tr, a, r: tr.add("fincat.quotient_by_pairs.pairs", len(a[1]))),
    (fincat, "top_product", "fincat.top_product",
     lambda tr, a, r: tr.add("fincat.top_product.opens", len(r.opens))),
    (fincat, "induce_topology", "fincat.induce_topology",
     lambda tr, a, r: tr.add("fincat.induce_topology.opens", len(r.opens))),
]

# constructors wrapped on the class: (class, span name or None, counter);
# a counter reads the new instance, the first argument of __init__
CONSTRUCTORS = [
    (fincat.FinTop, "fincat.FinTop",
     lambda tr, a, r: tr.add("fincat.FinTop.opens", len(a[0].opens))),
    (fincat.TopMap, "fincat.TopMap", None),
    (fincat.FinFn, None, None),
]


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_ns = {}
        self.calls = {}
        self.counts = {}
        self.spans = []
        self.keep = True
        self.doc = None
        self._next = 0

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, counter, call_name):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.calls[call_name] = tracer.calls.get(call_name, 0) + 1
                if counter is not None:
                    counter(tracer, args, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            tracer._next += 1
            frame = [tracer._next, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) \
                    + took - frame[1]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if tracer.keep:
                    tracer.spans.append((frame[0], parent, tracer.doc, name,
                                         start, end))
            if counter is not None:
                counter(tracer, args, result)
            return result
        return traced


def install():
    """Wrap every traced boundary and return the tracer that records them."""
    tracer = Tracer()
    for module, attr, name, counter in TRACED:
        orig = getattr(module, attr)
        wrapper = tracer.wrap(orig, name, counter,
                              "%s.%s" % (module.__name__.split(".")[-1], attr))
        for m in MODULES:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
    for cls, name, counter in CONSTRUCTORS:
        cls.__init__ = tracer.wrap(cls.__init__, name, counter,
                                   "fincat.%s" % cls.__name__)
    return tracer


def _ms(tracer, name, rounds):
    return tracer.self_ns.get(name, 0) / 1e6 / rounds


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, rounds):
    """Every per-layer metric, per pass over the document list."""
    c = tracer.counts
    calls = tracer.calls
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ms(span):
        put(span + ".ms", _ms(tracer, span, rounds), "ms")

    def count(name, value):
        put(name, value / rounds, "count")

    for span in ("cli.load_document", "cli.parse", "cli.execute",
                 "cli.render"):
        ms(span)
    put("cli.report_bytes", c.get("cli.report_bytes", 0) / rounds, "bytes")
    for fn in ("colimit_glue", "limit_glue", "hom_transport",
               "universal_glue_check", "mediating_map"):
        ms("gluing." + fn)
        count("gluing.%s.calls" % fn, calls.get("gluing." + fn, 0))
    for fn in ("limit_glue", "hom_transport"):
        count("gluing.%s.candidates" % fn,
              c.get("gluing.%s.candidates" % fn, 0))
        count("gluing.%s.families" % fn, c.get("gluing.%s.families" % fn, 0))
    put("gluing.limit_glue.yield",
        _ratio(c.get("gluing.limit_glue.families", 0),
               c.get("gluing.limit_glue.candidates", 0)), "ratio")
    for fn in ("effective_gluing_check", "effective_epi_check",
               "canonical_sink_functor", "base_change_sink",
               "covering_axioms_check"):
        ms("site." + fn)
    count("site.sinks_equivalent.calls", calls.get("site.sinks_equivalent", 0))
    for fn in ("validate_refinement", "induced_limit_map",
               "compose_via_sinks"):
        ms("refine." + fn)
    for fn in ("validate_presheaf", "is_separated", "is_sheaf",
               "all_coverings", "glue_presheaves", "presheaf_effective_check",
               "glue_nat_trans"):
        ms("presheaf." + fn)
    count("presheaf.is_sheaf.candidates",
          c.get("presheaf.is_sheaf.candidates", 0))
    count("presheaf.is_sheaf.sections", c.get("presheaf.is_sheaf.sections", 0))
    put("presheaf.is_sheaf.yield",
        _ratio(c.get("presheaf.is_sheaf.sections", 0),
               c.get("presheaf.is_sheaf.candidates", 0)), "ratio")
    count("presheaf.coverings", c.get("presheaf.coverings", 0))
    ms("fincat.pullback")
    count("fincat.pullback.calls", calls.get("fincat.pullback", 0))
    count("fincat.pullback.candidates", c.get("fincat.pullback.candidates", 0))
    count("fincat.pullback.members", c.get("fincat.pullback.members", 0))
    put("fincat.pullback.yield",
        _ratio(c.get("fincat.pullback.members", 0),
               c.get("fincat.pullback.candidates", 0)), "ratio")
    ms("fincat.product_enumerate")
    count("fincat.product_enumerate.items",
          c.get("fincat.product_enumerate.items", 0))
    ms("fincat.quotient_by_pairs")
    count("fincat.quotient_by_pairs.pairs",
          c.get("fincat.quotient_by_pairs.pairs", 0))
    ms("fincat.top_product")
    count("fincat.top_product.calls", calls.get("fincat.top_product", 0))
    count("fincat.top_product.opens", c.get("fincat.top_product.opens", 0))
    ms("fincat.induce_topology")
    count("fincat.induce_topology.opens",
          c.get("fincat.induce_topology.opens", 0))
    ms("fincat.FinTop")
    count("fincat.FinTop.calls", calls.get("fincat.FinTop", 0))
    count("fincat.FinTop.opens", c.get("fincat.FinTop.opens", 0))
    ms("fincat.TopMap")
    count("fincat.TopMap.calls", calls.get("fincat.TopMap", 0))
    count("fincat.FinFn.calls", calls.get("fincat.FinFn", 0))
    return out
