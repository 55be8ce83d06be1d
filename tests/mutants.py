"""Mutation checks of the engine: each mutant changes one snippet of
``src/`` and must make one of its test modules fail.

    python3 tests/mutants.py            # run every mutant
    python3 tests/mutants.py 0 3        # run the mutants at these indexes
    python3 tests/mutants.py --list     # list them

For each entry of ``MUTANTS`` the script copies ``src/`` to a temporary
directory, replaces the snippet, which occurs exactly once in ``src/``, by
its replacement, and runs the entry's test modules with pytest against the
copy.  A mutant is killed when they fail and survives when they pass.  The
exit status is 1 when a mutant survives or its snippet is not found once.

Pytest does not collect this file (its name does not start with ``test_``);
``tests/test_mutants.py`` checks that every snippet still occurs once.
"""

import glob
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (file under src/glueforge, snippet, replacement, test modules, what breaks)
MUTANTS = [
    ("cli.py",
     "if b not in (34, 92))",
     "if b not in (92,))",
     ["tests/test_render.py"],
     "the plain bytes admit the quote (34)"),
    ("cli.py",
     "if b not in (34, 92))",
     "if b not in (34,))",
     ["tests/test_render.py"],
     "the plain bytes admit the backslash (92)"),
    ("cli.py",
     "bytes(b for b in range(32, 127)",
     "bytes(b for b in range(32, 128)",
     ["tests/test_render.py"],
     "the plain bytes admit DEL (127)"),
    ("fincat.py",
     "pos = dict(zip(self.labels, range(len(self))))",
     "pos = dict(zip(self.labels[1:], range(len(self))))",
     ["tests/test_fincat.py"],
     "the lazy index is built over labels[1:]"),
    ("cli.py",
     '        if not _plain("".join(keys + values)):\n',
     '        if not _plain("".join(keys)):\n',
     ["tests/test_render.py"],
     "a label map takes its plainness from the domain alone"),
    ("cli.py",
     "        values = [codomain[table[k]] for k in order]\n",
     "        values = [codomain[q] for q in table]\n",
     ["tests/test_render.py"],
     "a label map writes its values in carrier order, not sorted-key "
     "order"),
    ("cli.py",
     "        members = list(map(sorted, self.merged.values()))\n",
     "        members = list(map(list, self.merged.values()))\n",
     ["tests/test_render.py"],
     "a merged class's members are written unsorted"),
    ("cli.py",
     "            values = list(map(_encode_str, values))\n",
     "            values = values\n",
     ["tests/test_render.py"],
     "a label map that is not plain encodes its keys but not its values"),
    ("cli.py",
     "    parts[1::4] = keys\n",
     "    parts[2::4] = keys\n",
     ["tests/test_render.py"],
     "the bulk join puts the keys where the separators after them go"),
    ("cli.py",
     "            check_continuous(t, space, target_space)\n",
     "            pass\n",
     ["tests/test_refusals.py"],
     "a document sink's sources are not checked continuous"),
    ("cli.py",
     "            check_continuous(t, space, sink.target_space)\n",
     "            pass\n",
     ["tests/test_refusals.py"],
     "a document sink's test maps are not checked continuous"),
    ("cli.py",
     "            sep = comma\n        out.append(indent + \"}\")\n",
     "        out.append(indent + \"}\")\n",
     ["tests/test_render.py"],
     "a generic dict appends no separator after its first entry"),
    ("cli.py",
     "                out.append(sep)\n                _emit(v, inner, out)\n",
     "                out.append(sep)\n                _emit(v, indent, out)\n",
     ["tests/test_render.py"],
     "a generic list passes its own indent, not the inner one, to an "
     "entry"),
    ("gluing.py",
     "        into = legs[pair_obj[:1]]\n",
     "        into = legs[pair_obj[1:]]\n",
     ["tests/test_gluing.py"],
     "a colimit overlap leg is read through the other component's leg"),
    ("gluing.py",
     "[edge[x] for x in legs[pair_obj[:1]]]",
     "[edge[x] for x in legs[pair_obj[1:]]]",
     ["tests/test_gluing.py"],
     "a limit overlap leg is read through the other component's leg"),
    ("fincat.py",
     "            table[k] = rank\n",
     "            pass\n",
     ["tests/test_fincat.py"],
     "the quotient's table leaves a merged position at its own rank"),
    ("gluing.py",
     "        fibre = Counter(leg)\n",
     "        fibre = Counter(set(leg))\n",
     ["tests/test_site.py"],
     "a fiber_sizes count is taken from distinct images"),
    ("gluing.py",
     "        check_continuous(trusted_table(delta, v_space.carrier, "
     "glued.apex),\n",
     "        (trusted_table(delta, v_space.carrier, glued.apex),\n",
     ["tests/test_refusals.py"],
     "a top-ambient delta is not checked continuous"),
    ("refine.py",
     "                if image[cls] >= 0:\n",
     "                if False:\n",
     ["tests/test_refine.py"],
     "an induced colimit map skips its well-definedness test"),
    ("fincat.py",
     "                    or max(img, default=-1) >= n):\n",
     "                    or max(img, default=-1) > n):\n",
     ["tests/test_fincat.py"],
     "induce_topology takes a final-mode entry one past the carrier"),
    ("fincat.py",
     "                    or max(img, default=-1) >= len(sp.carrier)):\n",
     "                    or False):\n",
     ["tests/test_fincat.py"],
     "induce_topology takes an initial-mode entry past the space's carrier"),
    # recorded with earlier changes, each killed when it was made
    ("site.py",
     "                 tuple(sorted(map(colour.__getitem__, down))))\n",
     "                 ())\n",
     ["tests/test_site.py"],
     "colour refinement ignores down-sets"),
    ("site.py",
     "        for mask in masks:\n",
     "        for mask in [sum(1 << p for p in cell)]:\n",
     ["tests/test_site.py"],
     "the uniform-cell stop skips its check between cells"),
    ("site.py",
     "        if best is None or form < best:\n",
     "        if best is None:\n",
     ["tests/test_site.py"],
     "the key search keeps its first form, not the least"),
    ("site.py",
     "        marked[p] = -1\n",
     "        marked[p] = colour[p]\n",
     ["tests/test_site.py"],
     "individualization does not set the point apart"),
    ("fincat.py",
     "        and sizes == [(target & image).bit_count() for target in targets],\n",
     "        and sizes <= [(target & image).bit_count() for target in targets],\n",
     ["tests/test_topology.py", "tests/test_fincat.py"],
     "table_properties calls a continuous injection an embedding"),
    ("fincat.py",
     "    if xtop is not None and ytop is not None:\n",
     "    if False:\n",
     ["tests/test_topology.py"],
     "pullback ignores the spaces"),
    ("fincat.py",
     "        rows = list(map(and_, rows, _preimage_rows(img, sp.rows)))\n",
     "        rows = list(map(or_, rows, _preimage_rows(img, sp.rows)))\n",
     ["tests/test_topology.py"],
     "pullback rows join the two preimages instead of meeting them"),
    ("site.py",
     "            == sum(n * fibres[j][z] for z, n in fibres[i].items())\n",
     "            <= sum(n * fibres[j][z] for z, n in fibres[i].items())\n",
     ["tests/test_site.py"],
     "the strong reading takes an injection short of the fibre product "
     "for a bijection"),
    ("site.py",
     "            len(set(zip(e_i, into_j))) \\\n",
     "            len(list(zip(e_i, into_j))) \\\n",
     ["tests/test_site.py"],
     "the strong reading counts repeated canonical pairs as distinct"),
    ("site.py",
     "        if top and canonical_bij[pair_obj]:\n",
     "        if False:\n",
     ["tests/test_site.py"],
     "the strong reading takes every bijection for a homeomorphism"),
    ("site.py",
     'glued.leg_props[(i,)]["embedding"]',
     'glued.leg_props[(i,)]["open"]',
     ["tests/test_site.py"],
     "effective_gluing_check reads openness as embedding"),
    ("fincat.py",
     '        "open": sizes == list(map(int.bit_count, targets)),\n',
     '        "open": True,\n',
     ["tests/test_topology.py", "tests/test_fincat.py"],
     "table_properties calls every continuous map open"),
    ("site.py",
     "            e, spaces[pair_obj], spaces[pair_obj[:1]])",
     "            e, spaces[pair_obj[:1]], spaces[pair_obj[:1]])",
     ["tests/test_site.py"],
     "effective_gluing_check asks about the edges between the wrong spaces"),
    ("presheaf.py",
     "            if lawful and _natural(comp, source, target, lattice.covering):",
     "            if _natural(comp, source, target, lattice.covering):",
     ["tests/test_presheaf.py"],
     "glue-map checks naturality of lawless locals"),
    ("presheaf.py",
     "                           if not any(b != c and not b & ~c for c in inside)]))",
     "                           if not any(b != c and not b & ~c for c in inside)][:-1]))",
     ["tests/test_presheaf.py", "tests/test_acceptance.py"],
     "a basic cover misses one maximal neighbourhood"),
    ("presheaf.py",
     "            if len(store.sections[meet]) <= 1:",
     "            if len(store.sections[meet]) <= 2:",
     ["tests/test_presheaf.py"],
     "covering families skip constraints through two sections"),
    ("presheaf.py",
     "                if len(across) <= 1 or a == b \\\n",
     "                if len(across) <= 2 or a == b \\\n",
     ["tests/test_presheaf.py"],
     "glued sections skip constraints through two sections"),
    ("presheaf.py",
     "                if len(across) <= 1 or a == b \\\n",
     "                if len(across) <= 1 or a == b or a == b \\\n",
     ["tests/test_presheaf.py"],
     "glued sections skip every diagonal constraint"),
    ("presheaf.py",
     "    cocycle_ok = identity_ok and all(",
     "    cocycle_ok = all(",
     ["tests/test_presheaf.py"],
     "the cocycle condition ignores the identity condition"),
    ("presheaf.py",
     "                if compose(t, inv[o]) != identity(len(t)):",
     "                if False:",
     ["tests/test_presheaf.py"],
     "one-way validation does not check the reverse undoes a transition"),
    ("presheaf.py",
     "        opens = tuple(o for o in masks if not o & ~top)",
     "        opens = tuple(masks)",
     ["tests/test_opens.py", "tests/test_presheaf.py"],
     "a lattice keeps the opens outside its top"),
    ("presheaf.py",
     "[v for v in opens if not v & ~w]",
     "[v for v in opens if not w & ~v]",
     ["tests/test_presheaf.py"],
     "a lattice pairs each open with the opens above it"),
    ("presheaf.py",
     "                and res[(o, o)] != identity(len(store.sections[o]))]",
     "                and len(res[(o, o)]) != len(store.sections[o])]",
     ["tests/test_presheaf.py"],
     "the identity law is checked on the length of the table only"),
    ("fincat.py",
     "    return list(map(then.__getitem__, first))",
     "    return list(map(first.__getitem__, then))",
     ["tests/test_presheaf.py"],
     "a composite table reads first[then[i]]"),
    ("fincat.py",
     "    if not len(set(img)) == len(img) == size:",
     "    if not len(img) == len(img) == size:",
     ["tests/test_laws.py", "tests/test_presheaf.py"],
     "the bijection test counts the values, not the distinct ones"),
    ("schema.py",
     "        return all([isinstance(v, str) and len(v) >= least "
     "for v in values])",
     "        return False",
     ["tests/test_schema.py"],
     "the string-leaf schema check refuses every container"),
    ("cli.py",
     "        keys = sorted(node)",
     "        keys = list(node)",
     ["tests/test_render.py"],
     "the report emitter leaves keys unsorted"),
    ("fincat.py",
     "row & reach[q] for row, q",
     "row & reduce(or_, reach.values(), 0) for row, q",
     ["tests/test_site.py"],
     "a per-test verdict ORs over every source point, not over the fibre"),
    ("fincat.py",
     "[row & reach[q] for",
     "[reach[q] for",
     ["tests/test_site.py"],
     "a per-test verdict drops the meet with the test point's row"),
    ("fincat.py",
     "    if not hit.issuperset(img):\n",
     "    if False:\n",
     ["tests/test_site.py"],
     "a per-test verdict skips the image containment"),
    ("site.py",
     "        counts[q] += 1\n",
     "        counts[q] = 1\n",
     ["tests/test_site.py"],
     "a source key counts distinct images, not multiplicities"),
    ("presheaf.py",
     "            count *= len(dom)\n",
     "            count += len(dom)\n",
     ["tests/test_presheaf.py"],
     "the family count adds the part sizes instead of multiplying them"),
    ("presheaf.py",
     "        if count == len(store.sections[u]) and _injective(store, u, parts):",
     "        if count == len(store.sections[u]):",
     ["tests/test_presheaf.py"],
     "a matching family count alone glues, with no set-size test"),
    ("presheaf.py",
     "        return size <= 1\n",
     "        return size <= 2\n",
     ["tests/test_presheaf.py"],
     "the empty cover separates two sections"),
    ("cli.py",
     "        if len(mapping) == len(domain):\n",
     "        if True:\n",
     ["tests/test_refusals.py"],
     "a document map is read with no length test, so an extra key passes"),
    ("cli.py",
     "        if len(mapping) == len(domain):\n",
     "        if True:\n",
     ["tests/test_tables.py"],
     "the table read drops its length test, so a sink, test, morphism "
     "or gamma map with an extra key is read"),
    ("indexcat.py",
     "                keys[i + \",\" + j] = keys[j + \",\" + i] = pair\n",
     "                keys[i + \",\" + j] = keys[j + \",\" + i] = pair\n"
     "                keys[i + \",\" + i] = (i, i)\n",
     ["tests/test_refusals.py"],
     "the key table maps i,i to a pair in nonsplit mode"),
    ("cli.py",
     "            if arrows.get(key, t) != t:\n",
     "            if len(arrows.get(key, t)) != len(t):\n",
     ["tests/test_refusals.py"],
     "the swaps of the two orientations are compared by length only"),
    ("gluing.py",
     "            if compose(first, then) != identity(len(objects[(i, j)])):\n",
     "            if False:\n",
     ["tests/test_gluing.py", "tests/test_laws.py"],
     "the split involution law is not checked"),
    ("fincat.py",
     "    return not any(_gather(row, bits) & ~rows[q]\n",
     "    return not any(False\n",
     ["tests/test_refusals.py"],
     "a table is continuous whatever the rows"),
    ("fincat.py",
     "    if not is_iso_table(table, size):\n",
     "    if len(set(table)) != len(table):\n",
     ["tests/test_fincat.py"],
     "invert accepts a table that is not onto"),
    ("gluing.py",
     "            fits = len(t) == dom and (not t or min(t) >= 0 and max(t) < cod)\n",
     "            fits = len(t) <= dom and (not t or min(t) >= 0 and max(t) < cod)\n",
     ["tests/test_gluing.py"],
     "the GluingData constructor accepts a table one entry short"),
]


def occurrences(snippet, src=SRC):
    """How many times ``snippet`` occurs in the Python files under ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += handle.read().count(snippet)
    return total


def run_mutant(entry):
    """True when the mutant's test modules fail against the mutated copy."""
    name, snippet, replacement, modules, _ = entry
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(copy, "glueforge", name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *modules],
            cwd=ROOT, env=env, capture_output=True, text=True)
    return run.returncode != 0


def main(argv):
    if argv == ["--list"]:
        for k, entry in enumerate(MUTANTS):
            print("%d  %s: %s" % (k, entry[0], entry[4]))
        return 0
    chosen = [MUTANTS[int(k)] for k in argv] if argv else MUTANTS
    survivors = 0
    for entry in chosen:
        if occurrences(entry[1]) != 1:
            print("not found once  %s: %s" % (entry[0], entry[4]))
            survivors += 1
            continue
        killed = run_mutant(entry)
        survivors += not killed
        print("%-8s  %s: %s" % ("killed" if killed else "SURVIVED",
                                entry[0], entry[4]))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
