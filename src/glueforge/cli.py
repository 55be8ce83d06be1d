"""JSON document ingestion, command dispatch, and deterministic reports.

Usage:
    glueforge <command> [--input FILE] [--side colimit|limit] [--cap N]
              [--ambient sets|top] [--covers default|exhaustive]
              [--output FILE]

Commands read one JSON document (stdin when no --input), run the matching
operation, and emit a report as JSON on standard output.  Exit status 0 means
every verdict passed, 1 means some verdict is false, 2 means the input was
structurally invalid, an enumeration hit the cap or the --output file could
not be written.  Identical input and flags produce identical output bytes.
The cap (--cap, else GLUEFORGE_CAP, else the default) bounds every
enumeration of the command, listing opens too.

Documents are checked against the shipped schemas by the compiled checker of
``glueforge.schema``, which decides valid or invalid and nothing more.  Only
when it rejects a document is jsonschema imported, to word the error: the
first error sorted by path, as ``schema violation at <path>: <message>``.
A call on a valid document never imports jsonschema.  Input that is not
UTF-8, or JSON nested too deeply to parse or report, is a structural error
too.  Every error is reported on one stderr line, its text cut at
``ERROR_TEXT_LIMIT`` characters.

Reports are written by a direct emitter, byte for byte what
``json.dumps(report, sort_keys=True, indent=2)`` gives for the report with
its records turned into the containers they stand for; it knows only the
types reports hold, and writes a tuple as an array, as json.dumps does.  A
map between labels is held as a ``LabelMap``, a colimit's classes as
``Classes`` and the opens of a top apex as ``Opens``: records over the
engine's tables and masks that build no dict and no list per open.  The
emitter appends the report's pieces to one list joined once at the end,
scalar members written in the piece of their key or separator.  A
container or record whose strings all need no escape is written by one
join with the quotes inside the separators; only one that holds a string
needing an escape encodes its strings one by one.
"""

import argparse
import functools
import json
import os
import sys
from bisect import bisect_left
from itertools import chain, compress

from . import schema
from .errors import GlueforgeError, ResourceError, StructuralError, budget
from .fincat import (
    SEP,
    FinSet,
    FinTop,
    _flags,
    _refuse_mapping,
    check_continuous,
    invert,
)
from .gluing import (
    FROM_OVERLAPS,
    TOWARD_OVERLAPS,
    GluingData,
    colimit_glue,
    hom_transport,
    limit_glue,
    universal_glue_check,
)
from .indexcat import SPLIT, IndexCat
from .presheaf import (
    GluingDatum,
    NatTrans,
    OpenLattice,
    PresheafStore,
    all_coverings,
    default_coverings,
    describe,
    glue_nat_trans,
    glue_presheaves,
    presheaf_effective_check,
    restrict,
    sheaf_verdicts,
    validate_presheaf,
)
from .refine import Refinement, compose_via_sinks, induced_limit_map, \
    validate_refinement
from .site import (
    SiteSpec,
    Sink,
    _carrier,
    covering_axioms_check,
    effective_gluing_check,
    universal_effective_epi_check,
)

KINDS = ("gluing", "sink", "site", "presheaf", "gluing-datum", "refinement")

COMMAND_KINDS = {
    "glue": "gluing",
    "hom": "gluing",
    "check-effective": "gluing",
    "check-cover": "sink",
    "compose": "sink",
    "check-site": "site",
    "check-sheaf": "presheaf",
    "glue-map": "presheaf",
    "glue-sheaves": "gluing-datum",
    "refine": "refinement",
}


class Document:
    __slots__ = ("kind", "payload", "version")

    def __init__(self, kind, payload, version):
        self.kind = kind
        self.payload = payload
        self.version = version


@functools.cache
def _schema_registry():
    from referencing import Registry, Resource
    return Registry().with_resources(
        (s["$id"], Resource.from_contents(s)) for s in schema.SCHEMAS)


# error texts can repeat a value as large as the document (jsonschema's
# messages, the labels a map assigns outside its domain); stderr keeps this
# many characters of one
ERROR_TEXT_LIMIT = 300


def _validate_schema(instance, schema_id, where):
    """Accept through the compiled checker; word a rejection by jsonschema."""
    if schema.CHECKERS[schema_id](instance):
        return
    from jsonschema import Draft202012Validator
    validator = Draft202012Validator({"$ref": schema_id},
                                     registry=_schema_registry())
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        raise StructuralError("schema violation at %s%s: %s" % (
            where, err.json_path.lstrip("$"), err.message))


def _check_labels(payload):
    """Reject input labels carrying the reserved separator."""
    def walk(node):
        if isinstance(node, str):
            if SEP in node:
                raise StructuralError(
                    "reserved character %r in input label %r" % (SEP, node))
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(key)
                walk(value)
    walk(payload)


def load_document(stream_or_path):
    """Parse, schema-check, and label-check one document."""
    stream = hasattr(stream_or_path, "read")
    where = "<stream>" if stream else str(stream_or_path)
    try:
        if stream:
            text = stream_or_path.read()
        else:
            with open(stream_or_path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as err:
        raise StructuralError("%s is not UTF-8 text: %s" % (where, err.reason))
    try:
        raw = json.loads(text)
        _validate_schema(raw, "glueforge:document", "")
        kind = raw["kind"]
        _validate_schema(raw["payload"], "glueforge:" + kind, "payload")
    except json.JSONDecodeError as err:
        raise StructuralError("parse error in %s at line %d column %d: %s"
                              % (where, err.lineno, err.colno, err.msg))
    except RecursionError:
        # json.loads, or jsonschema wording a rejection, ran out of stack
        raise StructuralError("JSON in %s is nested too deeply" % where)
    # outside strings JSON text holds no "|", so a document without it or
    # its escape has no label to reject; the escape needs a backslash
    if SEP in text or "\\" in text and (
            "\\u007c" in text or "\\u007C" in text):
        _check_labels(raw["payload"])
    return Document(kind, raw["payload"], raw["version"])


def parse_object(node, ambient, table=None):
    """An object node: a label list in sets, points plus opens in top.

    Payloads arrive schema-checked from ``load_document``, so the labels
    are strings; the carrier is still built by the checking ``FinSet``,
    whose string test is one join, so a payload that skipped the schema
    has a repeated label or one that is not a string refused in the same
    words.  ``table`` holds the objects one parse has built so far, under
    the tuple of their points.  A node equal to an earlier one gets the
    same carrier and space, built and validated once; a node with the same
    points and other opens gets the same carrier and a space of its own."""
    if ambient == "sets":
        if not isinstance(node, list):
            raise StructuralError("set objects are label arrays")
        points, opens = node, None
    elif not isinstance(node, dict):
        raise StructuralError("top objects need points and opens")
    else:
        points, opens = node["points"], node["opens"]
    kept = []
    if table is not None:
        try:
            kept = table.setdefault(tuple(points), kept)
        except TypeError:    # an unhashable label, which FinSet words
            pass
    for listed, carrier, space in kept:
        if listed == opens:
            return carrier, space
    carrier = kept[0][1] if kept else FinSet(points)
    space = None if opens is None else FinTop(carrier, opens)
    kept.append((opens, carrier, space))
    return carrier, space


def _claim(named, resolved, key, entries, what):
    """Record that document key ``key`` of ``entries`` names ``resolved``,
    refusing a key that names what an earlier key named: the later entry
    would otherwise win, and the document would mean what its order says."""
    earlier = named.setdefault(resolved, key)
    if earlier != key:
        raise StructuralError("%s entries %r and %r name the same %s"
                              % (entries, earlier, key, what))


def _parse_objkey(key, mode, cat):
    parts = key.split(",")
    if len(parts) == 1:
        return (parts[0],)
    if len(parts) == 2:
        return cat.pair(parts[0], parts[1]) if mode == "nonsplit" \
            else (parts[0], parts[1])
    raise StructuralError("bad index object key %r" % key)


def parse_gluing(payload, table=None):
    """The gluing data of a payload, which arrives schema-checked from
    ``load_document`` (see ``parse_object`` for its label sets); ``table``
    is ``parse_object``'s, shared when one document holds several
    gluings.  Each map is read straight
    into its position table against the carriers it runs between, refused
    as ``FinFn`` refuses it, and a swap's inverse is built from its table.
    Every key is looked up among the index category's ``keys``; only a key
    that is no spelling of an index object is parsed, which refuses it or
    gives the tuple it names, no index object."""
    if table is None:
        table = {}
    mode = payload["mode"]
    ambient = payload["ambient"]
    direction = payload["direction"]
    index = FinSet(payload["index"])
    for label in index:
        if "," in label:
            raise StructuralError("index label %r may not contain ','" % label)
    cat = IndexCat(mode, index)
    keys = cat.keys
    named = {}
    objects = {}
    spaces = {}
    for key, node in payload["objects"].items():
        obj = keys.get(key)
        if obj is None:
            _parse_objkey(key, mode, cat)    # refuses a malformed key
            raise StructuralError("objects entry %r names no index object"
                                  % key)
        _claim(named, obj, key, "objects", "index object")
        carrier, space = parse_object(node, ambient, table)
        objects[obj] = carrier
        if space is not None:
            spaces[obj] = space

    def carrier(obj):
        if obj not in objects:
            raise StructuralError("arrow needs an objects entry for %r"
                                  % ",".join(obj))
        return objects[obj]

    arrows = {}
    taus = {}
    for entry in payload["arrows"]:
        pair = keys.get(entry["pair"])
        if pair is None:
            # no spelling of an index object: refused by its form, or by
            # the label it names outside the index, in either mode
            pair = _parse_objkey(entry["pair"], mode, cat)
            for label in pair if len(pair) == 2 else ():
                index.position(label)
        if len(pair) != 2:
            raise StructuralError("arrow pair %r is not a pair" % (entry["pair"],))
        if entry["kind"] == "edge":
            i = entry["from"]
            if i not in pair:
                raise StructuralError("edge source %r not in pair %r"
                                      % (i, entry["pair"]))
            if ("incl", i, pair) in arrows:
                raise StructuralError("edge from %r to pair %r is given twice"
                                      % (i, entry["pair"]))
            if direction == FROM_OVERLAPS:
                dom, cod = carrier(pair), carrier((i,))
            else:
                dom, cod = carrier((i,)), carrier(pair)
            arrows[("incl", i, pair)] = _table(entry["map"], dom.labels, cod)
        else:
            if mode != SPLIT:
                raise StructuralError("tau for pair %r: swap arrows exist "
                                      "only in split mode" % entry["pair"])
            i, j = pair
            if pair in taus:
                raise StructuralError("tau for pair %r is given twice"
                                      % entry["pair"])
            taus[pair] = entry["pair"]
            if (j, i) not in objects:
                raise StructuralError("tau needs both pair orientations, "
                                      "%r is missing" % ((j, i),))
            dom, cod = carrier(pair), objects[(j, i)]
            t = _table(entry["map"], dom.labels, cod)
            # the document stores the ambient bijection G(i,j) -> G(j,i);
            # the generator carrying that map depends on the direction
            key = ("tau", (j, i)) if direction == FROM_OVERLAPS \
                else ("tau", (i, j))
            inverse_key = ("tau", (i, j)) if direction == FROM_OVERLAPS \
                else ("tau", (j, i))
            inverse = invert(t, len(cod))
            # an entry for (j, i) gave this generator already, as its inverse
            if arrows.get(key, t) != t:
                raise StructuralError("tau for pair %r is not the inverse of "
                                      "the tau for pair %r"
                                      % (entry["pair"], taus[(j, i)]))
            arrows[inverse_key] = inverse
            arrows[key] = t    # last: the two keys agree on the diagonal
    return GluingData(cat, ambient, objects, arrows, direction,
                      spaces or None)


def _parse_sink_body(body, ambient, table):
    """A ``{target, sources}`` node as a Sink.  Every map is read into its
    table first, refused as ``FinFn`` refuses it; then, source by source,
    a repeated name is refused and, in the top ambient, a map that is not
    continuous, checked on rows."""
    target, target_space = parse_object(body["target"], ambient, table)
    sources = []
    for node in body["sources"]:
        carrier, space = parse_object(node["object"], ambient, table)
        sources.append((node["name"], carrier if space is None else space,
                        _table(node["map"], carrier.labels, target)))
    if target_space is not None:
        names = set()
        for name, space, t in sources:
            if name in names:
                break    # Sink refuses the repeated name
            names.add(name)
            check_continuous(t, space, target_space)
    return Sink(ambient, target, sources, target_space)


def parse_sink(payload):
    """The sink of a payload, its test maps as ``(object, table)`` pairs,
    and its inner sinks by source name.  In the top ambient a test map that
    is not continuous is refused, as a source's map is."""
    ambient = payload["ambient"]
    table = {}
    sink = _parse_sink_body(payload, ambient, table)
    tests = []
    for node in payload.get("tests", []):
        carrier, space = parse_object(node["object"], ambient, table)
        t = _table(node["map"], carrier.labels, sink.target)
        if space is not None:
            check_continuous(t, space, sink.target_space)
        tests.append((carrier if space is None else space, t))
    inner = {name: _parse_sink_body(body, ambient, table)
             for name, body in payload.get("inner", {}).items()}
    return sink, tests, inner


def parse_site(payload):
    """The declared coverings and the ``(dom, cod, table)`` morphisms of a
    payload, each morphism refused as ``FinFn`` and then ``TopMap`` refuse
    it."""
    ambient = payload["ambient"]
    table = {}
    coverings = [_parse_sink_body(body, ambient, table)
                 for body in payload["coverings"]]
    morphisms = []
    for node in payload["morphisms"]:
        dom, dom_space = parse_object(node["dom"], ambient, table)
        cod, cod_space = parse_object(node["cod"], ambient, table)
        t = _table(node["map"], dom.labels, cod)
        if ambient == "top":
            morphisms.append((dom_space, cod_space,
                              check_continuous(t, dom_space, cod_space)))
        else:
            morphisms.append((dom, cod, t))
    return SiteSpec(ambient, coverings, morphisms)


def _parse_openkey(key, lattice):
    o = lattice.find(k for k in key.split(",") if k)
    if o is None:
        raise StructuralError("key %r does not name an open set" % key)
    return o


def _lookup_openkey(key, lattice):
    """The open a key names: looked up among the lattice's canonical keys
    (its points in carrier order, joined by commas), else parsed, so every
    other spelling is accepted or refused as before."""
    try:
        return lattice.keys[key]
    except KeyError:
        return _parse_openkey(key, lattice)


def _table(mapping, domain, codomain):
    """The table of a document's ``mapping`` from the labels ``domain``
    (the points of a carrier, the sections at an open) into the ``FinSet``
    ``codomain``, one lookup per entry, refused as ``FinFn`` refuses a
    mapping that is not total into it."""
    pos = codomain._pos
    try:
        if len(mapping) == len(domain):
            return [pos[mapping[x]] for x in domain]
    except (KeyError, TypeError):    # a missing label, a value outside
        pass
    _refuse_mapping(domain, codomain, mapping)


def _parse_presheaf_body(body, space, top=None):
    """The presheaf store of a ``{sections, restrictions}`` node on the
    lattice of the opens of ``space`` inside ``top``, and the section set
    at each open, which maps into it are read against."""
    for p in space.carrier if top is None else space.points(top):
        if "," in p:
            raise StructuralError("point label %r may not contain ','" % p)
    lat = OpenLattice(space, top)
    sets = {}
    named = {}
    for key, labels in body["sections"].items():
        o = _lookup_openkey(key, lat)
        _claim(named, o, key, "sections", "open set")
        sets[o] = FinSet(labels)
    res = {}
    named = {}
    for key, mapping in body["restrictions"].items():
        if ">" not in key:
            raise StructuralError("restriction key %r must look like 'W>V'"
                                  % key)
        wkey, vkey = key.split(">", 1)
        w = _lookup_openkey(wkey, lat)
        v = _lookup_openkey(vkey, lat)
        if v & ~w:
            raise StructuralError("restriction key %r is not an inclusion"
                                  % key)
        if w not in sets or v not in sets:
            raise StructuralError("restriction %r mentions opens without "
                                  "sections" % key)
        _claim(named, (w, v), key, "restrictions", "inclusion")
        res[(w, v)] = _table(mapping, sets[w].labels, sets[v])
    sections = {o: fs.labels for o, fs in sets.items()}
    return PresheafStore(lat, sections, res), sets


def parse_presheaf(payload):
    """The space, the presheaf store and its section set at each open (see
    ``_parse_presheaf_body``), the coverings listed, or None, and the
    ``glue_map`` block, or None, of a presheaf payload."""
    _, space = parse_object(payload["space"], "top")
    store, sets = _parse_presheaf_body(payload["presheaf"], space)
    coverings = None
    if "coverings" in payload:
        lat = store.lattice
        coverings = []
        for node in payload["coverings"]:
            u = _lookup_openkey(node["open"], lat)
            parts = [_lookup_openkey(p, lat) for p in node["parts"]]
            coverings.append((u, parts))
    glue_map = payload.get("glue_map")
    return space, store, sets, coverings, glue_map


def _refuse_unknown_charts(entries, names, what):
    """Refuse the first key of ``entries`` that is not a chart name: the
    entry would otherwise be dropped without a word."""
    for key in entries:
        if key not in names:
            raise StructuralError("%s entry %r names no chart" % (what, key))


def _parse_charts(nodes, lattice):
    """The ``(name, open)`` of each chart node and the set of names,
    refusing a name listed twice, for a later chart would otherwise take
    the earlier one's entries; the open is None when the members name
    none of ``lattice``."""
    charts = [(node["name"], lattice.find(node["members"])) for node in nodes]
    names = set()
    for name, _ in charts:
        if name in names:
            raise StructuralError("chart %r is listed twice" % name)
        names.add(name)
    return charts, names


def parse_gluing_datum(payload):
    _, space = parse_object(payload["space"], "top")
    charts, names = _parse_charts(payload["charts"], OpenLattice(space))
    _refuse_unknown_charts(payload["locals"], names, "locals")
    locals_ = {}
    sets = {}
    for name, members in charts:
        if members is None:
            raise StructuralError("chart %r is not open" % name)
        if name not in payload["locals"]:
            raise StructuralError("no local presheaf for chart %r" % name)
        locals_[name], sets[name] = _parse_presheaf_body(
            payload["locals"][name], space, members)
    members = dict(charts)
    transitions = {}
    for node in payload["transitions"]:
        a, b = node["from"], node["to"]
        for name in (a, b):
            if name not in members:
                raise StructuralError("transition names chart %r, which the "
                                      "charts list lacks" % name)
        if (a, b) in transitions:
            raise StructuralError("transition %r -> %r is listed twice"
                                  % (a, b))
        overlap = OpenLattice(space, members[a] & members[b])
        comp = {}
        named = {}
        for key, mapping in node["components"].items():
            o = _lookup_openkey(key, overlap)
            _claim(named, o, key, "components", "open set")
            comp[o] = _table(mapping, locals_[a].sections[o], sets[b][o])
        transitions[(a, b)] = comp
    return GluingDatum(space, charts, locals_, transitions)


def parse_refinement(payload):
    """The refinement of a payload: gamma and each component read into its
    table, refused as ``FinFn`` refuses it."""
    table = {}
    source = parse_gluing(payload["source"], table)
    target = parse_gluing(payload["target"], table)
    gamma = _table(payload["gamma"], target.indexcat.index.labels,
                   source.indexcat.index)
    stub = Refinement(source, target, gamma, {})
    components = {}
    named = {}
    for key, mapping in payload["components"].items():
        # a key that is no spelling of an index object is parsed, which
        # refuses it or names no object of the target
        obj = target.indexcat.keys.get(key) \
            or _parse_objkey(key, target.indexcat.mode, target.indexcat)
        _claim(named, obj, key, "components", "index object")
        dom = source.carrier(stub.reindexed(obj))
        components[obj] = _table(mapping, dom.labels, target.carrier(obj))
    return Refinement(source, target, gamma, components)


def glued_object_to_json(data, glued):
    # the apex is written as its label tuple, shared with the apex, in
    # sets, and as its points and opens in top, the opens kept as masks
    labels = glued.apex.labels
    apex = labels if glued.space is None else {
        "points": labels, "opens": Opens(labels, glued.space.open_masks())}
    # a colimit leg runs from its object's carrier into the apex, a limit
    # leg the other way round
    way = 1 if glued.side == "colimit" else -1
    out = {
        "side": glued.side,
        "apex": apex,
        "legs": {",".join(obj): LabelMap(*(
            data.carrier(obj), table, glued.apex)[::way])
                 for obj, table in sorted(glued.legs.items())},
    }
    if glued.leg_props:
        out["leg_properties"] = {
            ",".join(obj): props
            for obj, props in sorted(glued.leg_props.items())}
    return out


def _glue_command(doc, flags):
    data = parse_gluing(doc.payload)
    side = flags.get("side") or ("colimit" if data.direction == FROM_OVERLAPS
                                 else "limit")
    verdicts = {}
    if side == "colimit":
        if data.direction != FROM_OVERLAPS:
            raise StructuralError("colimit gluing needs from-overlaps data")
        glued = colimit_glue(data)
        artifacts = {"glued": glued_object_to_json(data, glued),
                     "classes": Classes(glued.apex.labels,
                                        glued.witness["merged"])}
        if "delta" in doc.payload:
            node = doc.payload["delta"]
            comp = node["component"]
            if (comp,) not in data.objects:
                raise StructuralError("delta component %r is not an index "
                                      "element" % comp)
            carrier, v_space = parse_object(node["object"], data.ambient)
            into_comp = _table(node["map"], carrier.labels,
                               data.carrier((comp,)))
            leg = glued.legs[(comp,)]
            delta = [leg[q] for q in into_comp]
            report = universal_glue_check(data, glued, delta, v_space=v_space)
            verdicts["universal_glued"] = report["is_glued_up"]
    else:
        if data.direction != TOWARD_OVERLAPS:
            raise StructuralError("limit gluing needs toward-overlaps data")
        glued = limit_glue(data)
        artifacts = {"glued": glued_object_to_json(data, glued)}
    artifacts["apex_size"] = len(glued.apex)
    return verdicts, artifacts, {}


def _hom_command(doc, flags):
    data = parse_gluing(doc.payload)
    if "hom_target" not in doc.payload:
        raise StructuralError("hom needs a hom_target label list in the payload")
    z = FinSet(doc.payload["hom_target"])
    result = hom_transport(data, z)
    verdicts = {"bijection_verified": result["bijection_verified"]}
    artifacts = {"family_count": result["family_count"],
                 "hom_count": result["hom_count"]}
    return verdicts, artifacts, {}


def _check_effective_command(doc, flags):
    data = parse_gluing(doc.payload)
    report = effective_gluing_check(data)
    verdicts = {name: report[name] for name in (
        "congruence_and_injective", "intersection_characterization",
        "strong_bijections")}
    verdicts["all_equivalent"] = len(set(verdicts.values())) == 1
    diag = report["diagnostics"]
    diagnostics = {
        "pairs": {",".join(pair): {k: d[k] for k in sorted(d)}
                  for pair, d in sorted(diag["pairs"].items())},
        "legs": {i: d for i, d in sorted(diag["legs"].items())},
    }
    artifacts = {"apex_size": len(report["glued"].apex)}
    return verdicts, artifacts, diagnostics


def _check_cover_command(doc, flags):
    sink, tests, _ = parse_sink(doc.payload)
    report = universal_effective_epi_check(sink, tests)
    verdicts = {"effective": report["base"],
                "all_effective": report["all_effective"]}
    if "jointly_surjective" in report:
        verdicts["jointly_surjective"] = report["jointly_surjective"]
    diagnostics = {"per_test": report["per_test"]}
    return verdicts, {}, diagnostics


def _compose_command(doc, flags):
    sink, _, inner = parse_sink(doc.payload)
    if not inner:
        raise StructuralError("compose needs an 'inner' sink per source")
    result = compose_via_sinks(sink, inner)
    verdicts = {"is_glued_up": result["is_glued_up"]}
    flat = result["sink"]
    artifacts = {
        "flattened_sources": {
            name: LabelMap(_carrier(obj), t, flat.target)
            for name, obj, t in flat.sources},
    }
    return verdicts, artifacts, {}


def _check_site_command(doc, flags):
    spec = parse_site(doc.payload)
    report = covering_axioms_check(spec)
    return ({"axioms_hold": report["ok"]}, {},
            {"violations": report["violations"]})


def _check_sheaf_command(doc, flags):
    _, store, _, coverings, _ = parse_presheaf(doc.payload)
    problems = validate_presheaf(store)
    if problems:
        raise StructuralError("invalid presheaf: " + "; ".join(problems))
    # listed only to check a document's coverings, or to name the
    # counterexample of a false verdict
    if coverings is not None:
        listed = lambda: coverings
    else:
        lister = all_coverings if flags.get("covers") == "exhaustive" \
            else default_coverings
        listed = lambda: lister(store.lattice)
    separated, sep_counter, sheaf, sheaf_counter = sheaf_verdicts(
        store, listed, check_listed=coverings is not None)
    return ({"separated": separated, "sheaf": sheaf}, {},
            {"separation_counterexample": describe(store, sep_counter),
             "sheaf_counterexample": describe(store, sheaf_counter)})


def _glue_sheaves_command(doc, flags):
    datum = parse_gluing_datum(doc.payload)
    glued, projections = glue_presheaves(datum)
    report = presheaf_effective_check(datum, projections)
    lat, sections = glued.lattice, glued.sections
    # the glued sections at each open are distinct by construction
    sets = {o: FinSet.from_trusted(sections[o]) for o in lat.opens}
    artifacts = {
        "sections": {lat.key(o): list(sections[o]) for o in lat.opens},
        "restrictions": {
            "%s>%s" % (lat.key(w), lat.key(v)):
                LabelMap(sets[w], glued.res[(w, v)], sets[v])
            for w, v in lat.pairs_below() if v != w},
    }
    verdicts = {
        "identity_ok": report["identity_ok"],
        "cocycle_ok": report["cocycle_ok"],
        "psi_restriction_bijective": report["psi_restriction_bijective"],
        "effectiveness_equivalence": report["equivalence_holds"],
    }
    return verdicts, artifacts, {}


def _glue_map_command(doc, flags):
    space, store, sets, _, glue_map = parse_presheaf(doc.payload)
    if glue_map is None:
        raise StructuralError("glue-map needs a glue_map block in the payload")
    target, target_sets = _parse_presheaf_body(glue_map["target"], space)
    for role, checked in (("source", store), ("target", target)):
        problems = validate_presheaf(checked)
        if problems:
            raise StructuralError("invalid %s presheaf: %s"
                                  % (role, "; ".join(problems)))
    charts, names = _parse_charts(glue_map["charts"], store.lattice)
    _refuse_unknown_charts(glue_map["parts"], names, "parts")
    parts = {}
    for (name, top), node in zip(charts, glue_map["charts"]):
        if name not in glue_map["parts"]:
            raise StructuralError("no part for chart %r" % name)
        if top is None:
            raise StructuralError("%r is not open" % sorted(set(node["members"])))
        sub_s = restrict(store, top)
        sub_t = restrict(target, top)
        comps = {}
        named = {}
        for key, mapping in glue_map["parts"][name].items():
            o = _lookup_openkey(key, sub_s.lattice)
            _claim(named, o, key, "parts", "open set")
            comps[o] = _table(mapping, store.sections[o], target_sets[o])
        parts[name] = NatTrans(sub_s, sub_t, comps)
    glued = glue_nat_trans(space, charts, store, target, parts)
    lat = store.lattice
    artifacts = {"components": {
        # the source's sections were checked distinct where they were read
        lat.key(o): LabelMap(sets[o], glued.components[o], target_sets[o])
        for o in lat.opens}}
    return {"glued": True}, artifacts, {}


def _refine_command(doc, flags):
    ref = parse_refinement(doc.payload)
    problems = validate_refinement(ref)
    verdicts = {"valid": not problems}
    artifacts = {}
    diagnostics = {"violations": problems}
    if not problems:
        if ref.source.direction == TOWARD_OVERLAPS:
            gs = limit_glue(ref.source)
            gt = limit_glue(ref.target)
        else:
            gs = colimit_glue(ref.source)
            gt = colimit_glue(ref.target)
        artifacts["induced_map"] = LabelMap(
            gs.apex, induced_limit_map(ref, gs, gt), gt.apex)
        artifacts["source_apex_size"] = len(gs.apex)
        artifacts["target_apex_size"] = len(gt.apex)
    return verdicts, artifacts, diagnostics


_HANDLERS = {
    "glue": _glue_command,
    "hom": _hom_command,
    "check-effective": _check_effective_command,
    "check-cover": _check_cover_command,
    "compose": _compose_command,
    "check-site": _check_site_command,
    "check-sheaf": _check_sheaf_command,
    "glue-sheaves": _glue_sheaves_command,
    "glue-map": _glue_map_command,
    "refine": _refine_command,
}


def execute(command, doc, flags=None):
    """Dispatch a command within ``budget(flags["cap"])``; returns the report."""
    flags = dict(flags or {})
    if command not in _HANDLERS:
        raise StructuralError("unknown command %r" % command)
    expected = COMMAND_KINDS[command]
    if doc.kind != expected:
        raise StructuralError("command %r needs a %r document, got %r"
                              % (command, expected, doc.kind))
    if flags.get("ambient") and doc.payload.get("ambient") \
            and flags["ambient"] != doc.payload["ambient"]:
        raise StructuralError("--ambient %s contradicts the document ambient %s"
                              % (flags["ambient"], doc.payload["ambient"]))
    with budget(flags.get("cap")):
        verdicts, artifacts, diagnostics = _HANDLERS[command](doc, flags)
    return {
        "command": command,
        "verdicts": verdicts,
        "artifacts": artifacts,
        "diagnostics": diagnostics,
    }


def report_exit_code(report):
    verdicts = report["verdicts"]
    return 0 if all(bool(v) for v in verdicts.values()) else 1


_encode_str = json.encoder.encode_basestring_ascii


def _only(kind, items):
    """Whether every one of ``items`` has exactly the type ``kind``."""
    kinds = list(map(type, items))
    return kinds.count(kind) == len(kinds)


# the bytes a string may hold to be its own JSON encoding between quotes:
# printable ASCII but the quote (34) and the backslash (92)
PLAIN_BYTES = bytes(b for b in range(32, 127) if b not in (34, 92))


def _plain(text):
    """Whether every string joined into ``text`` is its own JSON encoding
    between quotes: printable ASCII with no quote and no backslash.  After
    ``isascii``, a long text is decided in one pass by a bytes translate
    that deletes every plain byte, leaving those that are not; a short one
    by ``isprintable`` and two ``in`` tests, which cost less there than the
    translate's set-up.  A string that is not a ``str`` makes the join that
    builds ``text`` raise TypeError, as the encoder would."""
    if not text.isascii():
        return False
    if len(text) < 64:
        return text.isprintable() and '"' not in text and "\\" not in text
    return not text.encode("ascii").translate(None, PLAIN_BYTES)


def _joined(head, keys, mid, texts, sep, tail):
    """``head``, each key with ``mid`` and its text, ``sep`` between two
    entries, then ``tail``: one ``str.join`` over a list filled by slice
    assignment, so no string is built per entry."""
    n = len(keys)
    parts = [sep] * (4 * n + 1)
    parts[0] = head
    parts[1::4] = keys
    parts[2::4] = [mid] * n
    parts[3::4] = texts
    parts[-1] = tail
    return "".join(parts)


def _object(keys, mid, texts, close, indent, quote):
    """The JSON object of the sorted ``keys`` and their ``texts``, ``mid``
    after each key and ``close`` after each text, by one ``_joined``:
    ``quote`` is '"' when keys and texts are plain strings, written between
    quotes, and '' when they are encoded already."""
    inner = indent + "  "
    return _joined("{" + inner + quote, keys, quote + mid + quote, texts,
                   quote + close + "," + inner + quote,
                   quote + close + indent + "}")


class LabelMap:
    """The map that the position ``table`` gives from the ``FinSet``
    ``domain`` into the ``FinSet`` ``codomain``, as a report holds it.
    ``render_report`` writes it as ``json.dumps`` writes the dict from each
    domain label to the label of its image, and no such dict is built."""

    __slots__ = ("domain", "table", "codomain")

    def __init__(self, domain, table, codomain):
        self.domain = domain
        self.table = table
        self.codomain = codomain

    def emit(self, indent, out):
        """Append the map as a JSON object to ``out`` (see ``_emit``): the
        domain labels sorted once, as plain strings, the position of each
        read through the domain's index and the label of its image through
        the table, one ``_plain`` test over keys and values, and one
        ``_object``; when a string is not plain, every one is encoded."""
        keys = sorted(self.domain.labels)
        if not keys:
            out.append("{}")
            return
        at, table, codomain = self.domain._pos, self.table, \
            self.codomain.labels
        values = [codomain[table[at[x]]] for x in keys]
        quote = '"'
        if not _plain("".join(keys + values)):
            quote = ""
            keys = list(map(_encode_str, keys))
            values = list(map(_encode_str, values))
        out.append(_object(keys, ": ", values, "", indent, quote))


class Classes:
    """The classes of a colimit apex, as a report holds them: ``labels``
    names the apex, and ``merged`` holds each class of two or more members
    under its name (``colimit_glue``'s ``witness["merged"]``); every other
    label is a class of itself.  ``render_report`` writes them as an object
    from each label to its class's members, sorted, and builds no
    container per label."""

    __slots__ = ("labels", "merged")

    def __init__(self, labels, merged):
        self.labels = labels
        self.merged = merged

    def emit(self, indent, out):
        """Append the classes as a JSON object to ``out`` (see ``_emit``):
        the labels sorted once, a singleton class written as its own name
        and a merged one as its sorted members, put at its name's place by
        bisection, one ``_plain`` test over all these strings, and one
        ``_object``; when a string is not plain, every one is encoded."""
        keys = sorted(self.labels)
        if not keys:
            out.append("{}")
            return
        places = [bisect_left(keys, name) for name in self.merged]
        members = list(map(sorted, self.merged.values()))
        inner = indent + "  "
        deeper = inner + "  "
        quote = '"'
        if not _plain("".join(chain(keys, chain.from_iterable(members)))):
            quote = ""
            keys = list(map(_encode_str, keys))
            members = [list(map(_encode_str, m)) for m in members]
        texts = keys.copy()
        join = (quote + "," + deeper + quote).join
        for k, m in zip(places, members):
            texts[k] = join(m)
        out.append(_object(keys, ": [" + deeper, texts, inner + "]", indent,
                           quote))


class Opens:
    """The opens of a space, as a report holds them: ``labels`` names the
    carrier's points and ``masks`` holds each open as a mask over their
    positions (``FinTop.open_masks()``).  ``render_report`` writes them as
    the list of each open's points in carrier order, and builds no list of
    labels per open."""

    __slots__ = ("labels", "masks")

    def __init__(self, labels, masks):
        self.labels = labels
        self.masks = masks

    def emit(self, indent, out):
        """Append the opens as a JSON array to ``out`` (see ``_emit``): one
        ``_plain`` test over the labels, and each open written by one join
        of the labels its mask selects, the empty open as ``[]``.  Plain
        labels are joined as they are, with the quotes inside the
        separators; when one is not plain, every label is encoded once
        first."""
        masks = self.masks
        if not masks:
            out.append("[]")
            return
        labels = self.labels
        quote = '"'
        if not _plain("".join(labels)):
            quote = ""
            labels = list(map(_encode_str, labels))
        inner = indent + "  "
        deeper = inner + "  "
        head, tail = "[" + deeper + quote, quote + inner + "]"
        join = (quote + "," + deeper + quote).join
        texts = [head + join(compress(labels, _flags(m))) + tail if m
                 else "[]" for m in masks]
        out.append("[" + inner + ("," + inner).join(texts) + indent + "]")


# the text of each scalar a report holds, by its exact type: strings are
# encoded, and an int subclass other than bool is refused, as a type a
# report cannot hold
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _emit(node, indent, out):
    """Append ``node`` as JSON to the list ``out``, where ``indent`` is the
    newline and indentation of the line it starts on.  A scalar member, a
    string, an int, a bool or None, is written in place, in the piece of its
    key or separator (``_LEAVES``).  A generic container appends its opening
    text, each entry's separator and encoded key, then recurses into each
    entry that is not a scalar with the same ``out``.  It builds no text of
    its own, so what it holds is not copied again at each level:
    ``render_report`` joins ``out`` once.

    A dict's keys are sorted on their own, so no ``(key, value)`` pair is
    built per entry.  One shape of container is written in bulk: a list or
    tuple of strings only.  When all its strings are plain (see
    ``_plain``), it is written by one ``str.join`` with the quotes inside
    the separators and appended as one piece, with no string encoded;
    otherwise each is encoded on its own.  A dict of such lists writes
    each list in bulk.  The three records a report holds, a ``LabelMap``,
    ``Classes`` and ``Opens``, write themselves in bulk too; their types
    are tested last, so other nodes pay nothing for them."""
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        inner = indent + "  "
        # the encoder, or the join of the plain check, raises TypeError on
        # a key that is not a string
        keys = sorted(node)
        values = list(map(node.__getitem__, keys))
        sep, comma = "{" + inner, "," + inner
        for k, v in zip(keys, values):
            leaf = _LEAVES.get(type(v))
            if leaf is not None:
                out.append(sep + _encode_str(k) + ": " + leaf(v))
            else:
                out.append(sep + _encode_str(k) + ": ")
                _emit(v, inner, out)
            sep = comma
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        if type(node[0]) is str and _only(str, node) \
                and _plain("".join(node)):
            out.append("".join(("[", inner, '"',
                                ('",' + inner + '"').join(node), '"', indent,
                                "]")))
            return
        sep, comma = "[" + inner, "," + inner
        for v in node:
            leaf = _LEAVES.get(type(v))
            if leaf is not None:
                out.append(sep + leaf(v))
            else:
                out.append(sep)
                _emit(v, inner, out)
            sep = comma
        out.append(indent + "]")
    elif kind in _LEAVES:
        out.append(_LEAVES[kind](node))
    elif kind is LabelMap or kind is Classes or kind is Opens:
        node.emit(indent, out)
    else:
        raise TypeError("a report cannot hold a %s: %r"
                        % (kind.__name__, node))


def render_report(report):
    """The report as ``json.dumps(report, sort_keys=True, indent=2)`` writes
    it, plus a newline, each ``LabelMap`` written as the dict from each
    domain label to its image's label, ``Classes`` as the dict from each
    apex label to its class's sorted members and ``Opens`` as the list of
    each open's labels in carrier order.  Reports hold str keys and str,
    int, bool, None, list, tuple and dict values and these three records,
    a tuple written as an array as json.dumps writes it; anything else
    raises TypeError.  A scalar member is written inline, in the piece of
    its key or separator.  Lists of strings and records whose strings are
    all plain (see ``_plain``) are joined whole, with no string encoded
    and, for ``LabelMap`` and ``Classes``, no string built per entry;
    every other string goes through
    ``json.encoder.encode_basestring_ascii``.  A report may share lists,
    tuples, dicts and tables with the engine (a leg's table and its
    properties, an apex's label tuple, a space's open masks): rendering
    only reads them.  The report is appended to one list
    joined once at the end (see ``_emit``); a refused value raises before
    the join, so no partial text is returned."""
    out = []
    _emit(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _env_cap():
    text = os.environ.get("GLUEFORGE_CAP")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise StructuralError("GLUEFORGE_CAP must be an integer, got %r"
                              % text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="glueforge",
        description="finite gluing engine: glued-up objects, effectiveness, "
                    "covering and sheaf checks over JSON documents")
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--input", help="input document (default: stdin)")
    parser.add_argument("--side", choices=["colimit", "limit"])
    parser.add_argument("--cap", type=int)
    parser.add_argument("--ambient", choices=["sets", "top"])
    parser.add_argument("--covers", choices=["default", "exhaustive"],
                        default="default")
    parser.add_argument("--output", help="write the report here instead of "
                                         "stdout")
    args = parser.parse_args(argv)
    flags = {"side": args.side, "cap": args.cap, "ambient": args.ambient,
             "covers": args.covers}
    try:
        if flags["cap"] is None:
            flags["cap"] = _env_cap()
        doc = load_document(args.input if args.input else sys.stdin)
        report = execute(args.command, doc, flags)
        text = render_report(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (GlueforgeError, OSError) as err:
        kind = "resource" if isinstance(err, ResourceError) else "structural"
        text = str(err)
        if len(text) > ERROR_TEXT_LIMIT:
            text = "%s... [cut, %d characters in all]" % (
                text[:ERROR_TEXT_LIMIT], len(text))
        sys.stderr.write("glueforge: %s error: %s\n" % (kind, text))
        return 2
    return report_exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
