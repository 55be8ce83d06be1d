"""The document schemas compiled once into plain predicates.

At import every schema file shipped in ``glueforge/schemas`` is read and
compiled into nested closures that answer only valid or invalid.  Each
``$ref`` is resolved once, here, rather than on every document.  The
compiler implements exactly the keywords the shipped files use, with the
Draft 2020-12 meaning (see Pezoa et al., "Foundations of JSON Schema",
WWW 2016): ``$ref``, ``type`` (string/array/object), ``minLength``,
``enum`` and ``const`` over strings, ``items``, ``required``,
``properties``, ``additionalProperties`` and ``oneOf``.  ``$schema``,
``$id``, ``title`` and ``$defs`` are annotations.  Any other keyword, a
non-string ``enum``/``const`` value or a recursive ``$ref`` raises
``SchemaCompileError``, so a schema edit that the compiler does not
understand fails at import instead of being skipped.  A container of string
leaves (``items``, or ``additionalProperties`` with no named properties,
whose schema accepts exactly the strings of some least length) is checked
by one comprehension over the whole container rather than one call per
member.  So is a container of such containers (arrays of label arrays,
objects of label arrays or of string mappings), over all its members' strings
at once; only when that check fails are the members checked one by one,
which keeps every verdict exact.

The compiled checker accepts exactly the documents jsonschema accepts
(``tests/test_schema.py`` compares the two); jsonschema is imported only
to word the error of a rejected document.
"""

import json
from importlib import resources
from itertools import chain

NAMES = ("document", "defs", "gluing", "sink", "site", "presheaf",
         "gluing-datum", "refinement")
IMPLEMENTED = frozenset({"$ref", "type", "minLength", "enum", "const", "items",
                         "required", "properties", "additionalProperties",
                         "oneOf"})
IGNORED = frozenset({"$schema", "$id", "title", "$defs"})
# the keywords of a schema that accepts exactly the strings of a least length
LEAF = frozenset({"$ref", "type", "minLength"})
TYPES = {"string": str, "array": list, "object": dict}


class SchemaCompileError(ValueError):
    """A schema uses something the compiler does not implement."""


def _strings(values, least):
    """Whether every one of ``values`` is a string of at least ``least``
    characters: one pass over the container, with no call per member."""
    return all([isinstance(v, str) and len(v) >= least for v in values])


def _nested_strings(members, kind, least):
    """Whether every one of ``members`` has exactly the type ``kind`` (list
    or dict) and holds, as items or as values, only strings of at least
    ``least`` characters: one pass over all the members' strings."""
    if not all([type(m) is kind for m in members]):
        return False
    if kind is dict:
        members = [m.values() for m in members]
    return _strings(chain.from_iterable(members), least)


def _all(checks):
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for c in checks:
            if not c(x):
                return False
        return True
    return check


def compile_schemas(schemas):
    """Map each ``$id`` in ``schemas`` (a list of dicts) to a predicate."""
    by_id = {s["$id"]: s for s in schemas}
    done = {}

    def resolve(target, base):
        uri, _, pointer = target.partition("#")
        uri = uri or base
        try:
            node = by_id[uri]
            for part in filter(None, pointer.split("/")):
                node = node[part.replace("~1", "/").replace("~0", "~")]
        except (KeyError, TypeError):
            raise SchemaCompileError("unresolvable $ref %r" % target)
        return uri + "#" + pointer, node, uri

    def ref(target, base):
        key, node, uri = resolve(target, base)
        if key not in done:
            done[key] = None
            done[key] = build(node, uri)
        if done[key] is None:
            raise SchemaCompileError("recursive $ref %r" % target)
        return done[key]

    def leaf(s, base, seen=()):
        """The least length when ``s`` accepts exactly the strings of some
        least length, through any ``$ref``; None for any other schema."""
        if not isinstance(s, dict) or set(s) - LEAF - IGNORED:
            return None
        least = s.get("minLength", 0)
        if type(least) is not int or s.get("type", "string") != "string":
            return None
        if "$ref" in s:
            key, node, uri = resolve(s["$ref"], base)
            inner = None if key in seen else leaf(node, uri, seen + (key,))
            return None if inner is None else max(least, inner)
        return least if "type" in s else None

    def nested(s, base, seen=()):
        """``(list, least)`` when ``s`` accepts exactly the arrays whose
        items are strings of some least length, ``(dict, least)`` when
        exactly the objects whose values are, through any ``$ref``; None for
        any other schema."""
        if not isinstance(s, dict):
            return None
        if "$ref" in s:
            if set(s) - {"$ref"} - IGNORED:
                return None
            key, node, uri = resolve(s["$ref"], base)
            return None if key in seen else nested(node, uri, seen + (key,))
        words = set(s) - IGNORED
        if words == {"type", "items"} and s["type"] == "array":
            kind, least = list, leaf(s["items"], base)
        elif words == {"type", "additionalProperties"} \
                and s["type"] == "object":
            kind, least = dict, leaf(s["additionalProperties"], base)
        else:
            return None
        return None if least is None else (kind, least)

    def build(s, base):
        if isinstance(s, bool):
            return (lambda x: True) if s else (lambda x: False)
        unknown = set(s) - IMPLEMENTED - IGNORED
        if unknown:
            raise SchemaCompileError("unimplemented schema keywords %s in %s"
                                     % (sorted(unknown), base))
        checks = []
        if "$ref" in s:
            checks.append(ref(s["$ref"], base))
        if "type" in s:
            t = TYPES.get(s["type"]) if isinstance(s["type"], str) else None
            if t is None:
                raise SchemaCompileError("unimplemented type %r" % s["type"])
            checks.append(lambda x: isinstance(x, t))
        if "minLength" in s:
            n = s["minLength"]
            checks.append(lambda x: not isinstance(x, str) or len(x) >= n)
        for word in ("enum", "const"):
            if word in s:
                ok = s[word] if word == "enum" else [s[word]]
                if not all(isinstance(v, str) for v in ok):
                    raise SchemaCompileError("non-string %s value in %r"
                                             % (word, ok))
                checks.append(lambda x, ok=frozenset(ok):
                              isinstance(x, str) and x in ok)
        if "items" in s:
            shortest = leaf(s["items"], base)
            if shortest is not None:
                checks.append(lambda x: not isinstance(x, list)
                              or _strings(x, shortest))
            else:
                item = build(s["items"], base)
                inner = nested(s["items"], base)
                if inner is None:
                    checks.append(lambda x: not isinstance(x, list)
                                  or all(map(item, x)))
                else:
                    checks.append(lambda x: not isinstance(x, list)
                                  or _nested_strings(x, *inner)
                                  or all(map(item, x)))
        # a string-valued object with no named properties: its values at once
        least = leaf(s.get("additionalProperties"), base)
        if least is not None and not {"required", "properties"} & set(s):
            checks.append(lambda x: not isinstance(x, dict)
                          or _strings(x.values(), least))
        elif {"required", "properties", "additionalProperties"} & set(s):
            required = s.get("required", ())
            props = {k: build(v, base)
                     for k, v in s.get("properties", {}).items()}
            extra = build(s["additionalProperties"], base) \
                if "additionalProperties" in s else None

            def obj(x):
                if not isinstance(x, dict):
                    return True
                for k in required:
                    if k not in x:
                        return False
                for k, v in x.items():
                    c = props.get(k, extra)
                    if c is not None and not c(v):
                        return False
                return True
            inner = None if {"required", "properties"} & set(s) \
                else nested(s.get("additionalProperties"), base)
            if inner is None:
                checks.append(obj)
            else:
                checks.append(lambda x: not isinstance(x, dict)
                              or _nested_strings(x.values(), *inner)
                              or obj(x))
        if "oneOf" in s:
            branches = [build(b, base) for b in s["oneOf"]]
            checks.append(lambda x: sum(b(x) for b in branches) == 1)
        return _all(checks)

    checkers = {uri: ref(uri, uri) for uri in by_id}
    for uri, s in by_id.items():
        for name in s.get("$defs", {}):
            ref("#/$defs/" + name, uri)  # unreferenced definitions, too
    return checkers


def _shipped():
    folder = resources.files("glueforge.schemas")
    return [json.loads(folder.joinpath(name + ".schema.json").read_text())
            for name in NAMES]


SCHEMAS = _shipped()
CHECKERS = compile_schemas(SCHEMAS)
