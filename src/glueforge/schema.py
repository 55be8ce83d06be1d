"""The document schemas compiled once into plain Python functions.

At import every schema file shipped in ``glueforge/schemas`` is read and
turned into Python source that answers only valid or invalid; that source is
compiled with one ``compile``/``exec`` and kept as ``SOURCE``.  The generator
implements exactly the keywords the shipped files use, with the Draft 2020-12
meaning (see Pezoa et al., "Foundations of JSON Schema", WWW 2016):
``$ref``, ``type`` (string/array/object), ``minLength``, ``enum`` and
``const`` over strings, ``items``, ``required``, ``properties``,
``additionalProperties`` and ``oneOf``.  ``$schema``, ``$id``, ``title`` and
``$defs`` are annotations.  Any other keyword, a keyword value of the wrong
shape (a ``required`` that is not an array of strings, a negative
``minLength``, ...), an unresolvable or a recursive ``$ref`` raises
``SchemaCompileError``, so a schema edit that the generator does not
understand fails at import instead of being skipped or pasted into source.

There is one function per ``$ref`` target (each ``$id`` and each ``$defs``
entry among them) and one per ``oneOf`` branch; a ``$ref`` becomes a direct
call, except a ``$ref`` to a schema that accepts exactly the strings of some
least length n, which becomes ``isinstance(v, str) and len(v) >= n`` in
place.  Any other subschema is checked in the body of the function it sits
in: ``required`` as one line of ``in`` tests, ``properties`` and
``additionalProperties`` as one loop over the items with an ``if k == ...``
chain, and a type check is not repeated once it has passed.  Schema text
reaches the source only through ``repr``.

A container of string leaves (``items``, or ``additionalProperties`` with no
named properties) is checked by ``_strings`` over the whole container, and a
container of such containers (arrays of label arrays, objects of label arrays
or of string mappings) by ``_nested_strings`` over all its members' strings at
once.  Both test the common case, every value an exact ``str``, with builtins
alone (``map(type, ...)``, ``"" not in values``, ``min(map(len, ...))``);
anything else, a ``str`` subclass included, falls back to one ``isinstance``
comprehension, and a failed nested check to the members one by one, which
keeps every verdict exact.

The generated checker accepts exactly the documents jsonschema accepts
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
PAD = "    "


class SchemaCompileError(ValueError):
    """A schema uses something the compiler does not implement."""


def _strings(values, least):
    """Whether every one of ``values`` (a list or a dict's values) is a
    string of at least ``least`` characters: one pass over the container,
    with no call per member."""
    kinds = list(map(type, values))
    if kinds.count(str) != len(kinds):
        return all([isinstance(v, str) and len(v) >= least for v in values])
    if least == 1:
        return "" not in values
    return least == 0 or not kinds or min(map(len, values)) >= least


def _nested_strings(members, kind, least):
    """Whether every one of ``members`` has exactly the type ``kind`` (list
    or dict) and holds, as items or as values, only strings of at least
    ``least`` characters: one pass over all the members' strings."""
    kinds = list(map(type, members))
    if kinds.count(kind) != len(kinds):
        return False
    if kind is dict:
        members = [m.values() for m in members]
    return _strings(list(chain.from_iterable(members)), least)


def _malformed(word, value, what):
    return SchemaCompileError("%s value %r is not %s" % (word, value, what))


def _check_values(s):
    """Refuse a keyword value of ``s`` that the generated source could not
    take as the keyword means it."""
    if "$ref" in s and not isinstance(s["$ref"], str):
        raise _malformed("$ref", s["$ref"], "a string")
    if "type" in s and (not isinstance(s["type"], str)
                        or s["type"] not in TYPES):
        raise SchemaCompileError("unimplemented type %r" % (s["type"],))
    least = s.get("minLength", 0)
    if type(least) is not int or least < 0:
        raise _malformed("minLength", least, "a non-negative integer")
    for word in ("required", "enum"):
        value = s.get(word, [])
        if not isinstance(value, list) \
                or not all(isinstance(v, str) for v in value):
            raise _malformed(word, value, "an array of strings")
    if "const" in s and not isinstance(s["const"], str):
        raise _malformed("const", s["const"], "a string")
    if not isinstance(s.get("properties", {}), dict):
        raise _malformed("properties", s["properties"], "an object")
    if "oneOf" in s and not (isinstance(s["oneOf"], list) and s["oneOf"]):
        raise _malformed("oneOf", s["oneOf"], "a non-empty array")


def _lines(checks, pad):
    """Source lines, at indentation ``pad``, that return False from the
    function unless every one of ``checks`` holds.  A check is an expression
    (a string that needs no parentheses after ``not``) or a list of lines
    that return False themselves."""
    out = []
    for check in checks:
        if check == "False":
            out.append(pad + "return False")
        elif isinstance(check, str):
            out += [pad + "if not %s:" % check, pad + PAD + "return False"]
        else:
            out += [pad + line for line in check]
    return out


def compile_schemas(schemas):
    """Map each ``$id`` in ``schemas`` (a list of dicts) to a predicate."""
    by_id = {s["$id"]: s for s in schemas}
    names = {}       # $ref key -> function name, None while generated
    functions = []   # the source text of each finished function

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
        """The name of the function that checks ``target``, generated on
        first use."""
        key, node, uri = resolve(target, base)
        if key not in names:
            names[key] = None
            names[key] = function(node, uri, key)
        if names[key] is None:
            raise SchemaCompileError("recursive $ref %r" % target)
        return names[key]

    def function(s, base, where):
        """Generate the function of schema ``s``; the name to call it by,
        which is its callee's when its body is one bare call."""
        checks = checks_of(s, base, "x", None, 1)
        name = "check_%d" % len(functions)
        if all(isinstance(c, str) for c in checks):
            body = [PAD + "return " + (" and ".join(checks) or "True")]
        else:
            body = _lines(checks, PAD) + [PAD + "return True"]
        functions.append("\n".join(["# " + repr(where),
                                    "def %s(x):" % name] + body))
        return called(s, base) or name

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

    def called(s, base):
        """The function that checks ``s`` when ``s`` is a bare ``$ref``
        to anything but a string leaf, else None."""
        if isinstance(s, dict) and "$ref" in s \
                and not set(s) - {"$ref"} - IGNORED and leaf(s, base) is None:
            return ref(s["$ref"], base)
        return None

    def each(s, base, seq, depth):
        """Checks that every value of the iterable ``seq`` meets ``s``."""
        v = "v%d" % depth
        inner = checks_of(s, base, v, None, depth + 1)
        if not inner:
            return []
        least = leaf(s, base)
        if least is not None:
            return ["_strings(%s, %d)" % (seq, least)]
        name = called(s, base)
        if name is not None:
            member = ["all(map(%s, %s))" % (name, seq)]
        else:
            member = [["for %s in %s:" % (v, seq)] + _lines(inner, PAD)]
        shape = nested(s, base)
        if shape is None:
            return member
        fast = "_nested_strings(%s, %s, %d)" % (seq, shape[0].__name__,
                                                 shape[1])
        if isinstance(member[0], str):
            return ["(%s or %s)" % (fast, member[0])]
        return [["if not %s:" % fast] + _lines(member, PAD)]

    def object_checks(s, base, x, depth):
        """Checks of ``required``, ``properties`` and
        ``additionalProperties`` on ``x``, known to be a dict."""
        out = []
        if s.get("required"):
            out.append("(%s)" % " and ".join("%r in %s" % (k, x)
                                             for k in s["required"]))
        props = s.get("properties", {})
        extra = s.get("additionalProperties", True)
        if not props:
            return out + each(extra, base, "%s.values()" % x, depth)
        k, v = "k%d" % depth, "v%d" % depth
        loop = ["for %s, %s in %s.items():" % (k, v, x)]
        word = "if"
        checked = False
        for key, sub in props.items():
            inner = _lines(checks_of(sub, base, v, None, depth + 1), PAD * 2)
            loop += [PAD + "%s %s == %r:" % (word, k, key)] \
                + (inner or [PAD * 2 + "pass"])
            word = "elif"
            checked = checked or bool(inner)
        rest = checks_of(extra, base, v, None, depth + 1)
        if rest:
            loop += [PAD + "else:"] + _lines(rest, PAD * 2)
        return out + [loop] if checked or rest else out

    def checks_of(s, base, x, known, depth):
        """The checks of schema ``s`` on the variable ``x``, whose type is
        ``known`` (or None when unknown)."""
        if isinstance(s, bool):
            return [] if s else ["False"]
        if not isinstance(s, dict):
            raise SchemaCompileError("schema %r is not an object or a "
                                     "boolean" % (s,))
        unknown = set(s) - IMPLEMENTED - IGNORED
        if unknown:
            raise SchemaCompileError("unimplemented schema keywords %s in %s"
                                     % (sorted(unknown), base))
        _check_values(s)
        target = ref(s["$ref"], base) if "$ref" in s else None
        least = leaf(s, base)
        if least is not None:
            if least == 0:
                return ["isinstance(%s, str)" % x]
            return ["(isinstance(%s, str) and len(%s) >= %d)"
                    % (x, x, least)]
        out = [] if target is None else ["%s(%s)" % (target, x)]
        if "type" in s:
            t = TYPES[s["type"]]
            if known is not t:
                out.append("isinstance(%s, %s)" % (x, t.__name__))
            known = t
        if s.get("minLength", 0) and known in (str, None):
            length = "len(%s) >= %d" % (x, s["minLength"])
            out.append("(%s)" % length if known is str else
                       "(not isinstance(%s, str) or %s)" % (x, length))
        for word in ("enum", "const"):
            if word in s:
                ok = list(dict.fromkeys(s["enum"] if word == "enum"
                                        else [s["const"]]))
                if not ok:
                    test = "False"
                elif len(ok) == 1:
                    test = "%s == %r" % (x, ok[0])
                else:
                    test = "%s in {%s}" % (x, ", ".join(map(repr, ok)))
                out.append("(%s)" % test if known is str else
                           "(isinstance(%s, str) and %s)" % (x, test))
        # generated even where ``known`` rules them out, to validate them
        items = each(s["items"], base, x, depth) if "items" in s else []
        fields = object_checks(s, base, x, depth) \
            if {"required", "properties", "additionalProperties"} & set(s) \
            else []
        for kind, checks in ((list, items), (dict, fields)):
            if checks and known is None:
                out.append(["if isinstance(%s, %s):" % (x, kind.__name__)]
                           + _lines(checks, PAD))
            elif known is kind:
                out += checks
        if "oneOf" in s:
            branches = [function(b, base, "oneOf branch %d in %s" % (n, base))
                        for n, b in enumerate(s["oneOf"])]
            calls = " + ".join("%s(%s)" % (b, x) for b in branches)
            out.append(["if %s != 1:" % calls, PAD + "return False"])
        return out

    entries = {uri: ref(uri, uri) for uri in by_id}
    for uri, s in by_id.items():
        for name in s.get("$defs", {}):
            # unreferenced definitions, too
            ref("#/$defs/" + name.replace("~", "~0").replace("/", "~1"), uri)
    source = "\n\n\n".join(functions) + "\n"
    namespace = {"_strings": _strings, "_nested_strings": _nested_strings,
                 "SOURCE": source}
    exec(compile(source, "<glueforge schemas>", "exec"), namespace)
    return {uri: namespace[name] for uri, name in entries.items()}


def _shipped():
    folder = resources.files("glueforge.schemas")
    return [json.loads(folder.joinpath(name + ".schema.json").read_text())
            for name in NAMES]


SCHEMAS = _shipped()
CHECKERS = compile_schemas(SCHEMAS)
# the generated source, kept with the functions it defines
SOURCE = CHECKERS["glueforge:document"].__globals__["SOURCE"]
