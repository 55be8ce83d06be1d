"""Refinement morphisms between gluing functors, the induced maps between
their glued-up objects, and composition of gluings by flattening covers of
covers."""

from .errors import StructuralError
from .fincat import SEP, FinFn, _positions
from .gluing import TOWARD_OVERLAPS, _identity
from .indexcat import NONSPLIT
from .site import effective_epi_check, flatten_sinks


class Refinement:
    """A map of index sets plus a natural family of component maps from the
    reindexed refining functor to the refined one.

    ``source`` is the refining functor (index set J), ``target`` the refined
    functor (index set I), ``gamma`` a map I -> J, and ``components`` assigns
    to every index object ``a`` of the target a map from the source carrier
    at the reindexed object to the target carrier at ``a``.
    """

    __slots__ = ("source", "target", "gamma", "components")

    def __init__(self, source, target, gamma, components):
        if source.indexcat.mode != NONSPLIT or target.indexcat.mode != NONSPLIT:
            raise StructuralError("refinements connect nonsplit gluing data")
        if source.direction != target.direction:
            raise StructuralError("refinement endpoints disagree on direction")
        if source.ambient != target.ambient:
            raise StructuralError("refinement endpoints disagree on ambient")
        if gamma.domain != target.indexcat.index \
                or gamma.codomain != source.indexcat.index:
            raise StructuralError("gamma must map the target index set into "
                                  "the source index set")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "components", dict(components))

    def __setattr__(self, name, value):
        raise AttributeError("Refinement is immutable")

    def reindexed(self, obj):
        """The source index object under the induced functor of gamma."""
        if len(obj) == 1:
            return (self.gamma(obj[0]),)
        gi, gj = self.gamma(obj[0]), self.gamma(obj[1])
        return (gi,) if gi == gj else self.source.indexcat.pair(gi, gj)

    def source_edge(self, i, pair_obj):
        """The table of the source arrow matching the target inclusion
        i -> pair, after reindexing; the identity's when the pair
        collapses."""
        gi = self.gamma(i)
        robj = self.reindexed(pair_obj)
        if len(robj) == 1:
            return _identity(self.source.carrier((gi,)))
        return self.source.edge(gi, robj)


def validate_refinement(ref):
    """Every missing component, endpoint clash, or failed naturality square.
    A square is decided on positions: each component is read into its
    table, and the two composite tables are compared."""
    problems = []
    tcat = ref.target.indexcat
    for obj in tcat.objects:
        if obj not in ref.components:
            problems.append("no component at %r" % (obj,))
            continue
        comp = ref.components[obj]
        want_dom = ref.source.carrier(ref.reindexed(obj))
        want_cod = ref.target.carrier(obj)
        if comp.domain != want_dom or comp.codomain != want_cod:
            problems.append("component at %r has endpoints %r -> %r, expected "
                            "%r -> %r" % (obj, list(comp.domain),
                                          list(comp.codomain),
                                          list(want_dom), list(want_cod)))
    if problems:
        return problems
    comps = {obj: _positions(ref.components[obj]) for obj in tcat.objects}
    for g in tcat.generators:
        _, i, pair_obj = g
        comp_i = comps[(i,)]
        comp_pair = comps[pair_obj]
        src_edge = ref.source_edge(i, pair_obj)
        tgt_edge = ref.target.arrow(g)
        if ref.target.direction == TOWARD_OVERLAPS:
            # from the source component at gamma(i) to the target pair
            square = (comp_i, tgt_edge), (src_edge, comp_pair)
        else:
            # from the source object at gamma(pair) to the target component i
            square = (src_edge, comp_i), (comp_pair, tgt_edge)
        if not _commutes(*square):
            problems.append("naturality square at %r does not commute" % (g,))
    return problems


def _commutes(path, other):
    """Whether two paths of two tables each, from one carrier, have the
    same composite."""
    return list(map(path[1].__getitem__, path[0])) \
        == list(map(other[1].__getitem__, other[0]))


def induced_limit_map(ref, glued_source, glued_target):
    """The canonical map between glued-up objects induced by a refinement.

    Limit side: a compatible source family is reindexed along gamma and pushed
    through the components.  Colimit side: the dual assignment on classes,
    checked to be total and well defined.  Either map is defined from the
    leg squares, so it commutes with every leg of the glued objects that
    ``limit_glue`` and ``colimit_glue`` build.
    """
    problems = validate_refinement(ref)
    if problems:
        raise StructuralError("invalid refinement: " + "; ".join(problems))
    tcat = ref.target.indexcat
    tcomps = [obj[0] for obj in tcat.singletons()]
    if ref.target.direction == TOWARD_OVERLAPS:
        mapping = {}
        for x in glued_source.apex:
            values = []
            for i in tcomps:
                s_gi = glued_source.legs[(ref.gamma(i),)](x)
                values.append(ref.components[(i,)](s_gi))
            label = SEP.join(values)
            if label not in glued_target.apex:
                raise StructuralError(
                    "induced family %r is not compatible in the target" % label)
            mapping[x] = label
        return FinFn(glued_source.apex, glued_target.apex, mapping)
    mapping = {}
    for i in tcomps:
        gi = ref.gamma(i)
        comp = ref.components[(i,)]
        for x in ref.source.carrier((gi,)):
            cls = glued_source.legs[(gi,)](x)
            val = glued_target.legs[(i,)](comp(x))
            if mapping.setdefault(cls, val) != val:
                raise StructuralError(
                    "induced class map is not well defined at %r" % cls)
    missing = [c for c in glued_source.apex if c not in mapping]
    if missing:
        raise StructuralError(
            "induced class map is undefined on classes %r; gamma does not "
            "reach them" % missing)
    return FinFn(glued_source.apex, glued_target.apex, mapping)


def compose_via_sinks(outer, inner):
    """Flatten an outer sink with one inner sink per source and report.

    Returns the flattened sink and whether the outer target is the glued-up
    object of its canonical split gluing functor, decided by
    ``effective_epi_check`` without building that functor.
    """
    flattened = flatten_sinks(outer, inner)
    return {"sink": flattened, "is_glued_up": effective_epi_check(flattened)}
