"""Refinement morphisms between gluing functors, the induced maps between
their glued-up objects, and composition of gluings by flattening covers of
covers."""

from .errors import StructuralError
from .fincat import SEP, compose, identity
from .gluing import TOWARD_OVERLAPS
from .indexcat import NONSPLIT
from .site import effective_epi_check, flatten_sinks


class Refinement:
    """A map of index sets plus a natural family of component maps from the
    reindexed refining functor to the refined one, each a position table.

    ``source`` is the refining functor (index set J), ``target`` the refined
    functor (index set I), ``gamma`` the table of a map I -> J (each label
    of I, in index order, to the position of its image in J), and
    ``components`` assigns to index objects ``a`` of the target the table
    of a map from the source carrier at the reindexed object to the target
    carrier at ``a``.  The parser reads each table against the carriers it
    runs between, so their endpoints hold.
    """

    __slots__ = ("source", "target", "gamma", "components")

    def __init__(self, source, target, gamma, components):
        if source.indexcat.mode != NONSPLIT or target.indexcat.mode != NONSPLIT:
            raise StructuralError("refinements connect nonsplit gluing data")
        if source.direction != target.direction:
            raise StructuralError("refinement endpoints disagree on direction")
        if source.ambient != target.ambient:
            raise StructuralError("refinement endpoints disagree on ambient")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "components", dict(components))

    def __setattr__(self, name, value):
        raise AttributeError("Refinement is immutable")

    def image(self, i):
        """The source index label that gamma sends the target index label
        ``i`` to, refused as ``FinFn`` refuses a label outside its
        domain."""
        try:
            k = self.target.indexcat.index._pos[i]
        except KeyError:
            raise StructuralError("label %r not in domain" % i)
        return self.source.indexcat.index.labels[self.gamma[k]]

    def reindexed(self, obj):
        """The source index object under the induced functor of gamma."""
        if len(obj) == 1:
            return (self.image(obj[0]),)
        gi, gj = self.image(obj[0]), self.image(obj[1])
        return (gi,) if gi == gj else self.source.indexcat.pair(gi, gj)

    def source_edge(self, i, pair_obj):
        """The table of the source arrow matching the target inclusion
        i -> pair, after reindexing; the identity's when the pair
        collapses."""
        gi = self.image(i)
        robj = self.reindexed(pair_obj)
        if len(robj) == 1:
            return identity(len(self.source.carrier((gi,))))
        return self.source.edge(gi, robj)


def validate_refinement(ref):
    """Every missing component or failed naturality square.  A square is
    decided on positions: the two composite tables are compared."""
    tcat = ref.target.indexcat
    comps = ref.components
    problems = ["no component at %r" % (obj,) for obj in tcat.objects
                if obj not in comps]
    if problems:
        return problems
    for g in tcat.generators:
        _, i, pair_obj = g
        comp_i = comps[(i,)]
        comp_pair = comps[pair_obj]
        src_edge = ref.source_edge(i, pair_obj)
        tgt_edge = ref.target.arrow(g)
        if ref.target.direction == TOWARD_OVERLAPS:
            # from the source component at gamma(i) to the target pair
            one, other = compose(comp_i, tgt_edge), compose(src_edge, comp_pair)
        else:
            # from the source object at gamma(pair) to the target component i
            one, other = compose(src_edge, comp_i), compose(comp_pair, tgt_edge)
        if one != other:
            problems.append("naturality square at %r does not commute" % (g,))
    return problems


def induced_limit_map(ref, glued_source, glued_target):
    """The table of the canonical map between glued-up objects induced by a
    refinement: the target apex position of each source apex position.

    Limit side: a compatible source family is reindexed along gamma and pushed
    through the components, and found among the target families by its
    label.  Colimit side: the dual assignment on classes, each
    component's points taken through the source leg at gamma(i) and, after
    the component, the target leg at i, checked to be total and well
    defined.  Either map is defined from the leg squares, so it commutes
    with every leg of the glued objects that ``limit_glue`` and
    ``colimit_glue`` build.
    """
    problems = validate_refinement(ref)
    if problems:
        raise StructuralError("invalid refinement: " + "; ".join(problems))
    tcomps = [obj[0] for obj in ref.target.indexcat.singletons()]
    size = len(glued_source.apex)
    if ref.target.direction == TOWARD_OVERLAPS:
        # per target component i, the label of each source family's value
        # at gamma(i) pushed through the component
        pushed = []
        for i in tcomps:
            labels, comp = ref.target.carrier((i,)).labels, ref.components[(i,)]
            pushed.append([labels[comp[y]]
                           for y in glued_source.legs[(ref.image(i),)]])
        image = []
        for x in range(size):
            label = SEP.join([values[x] for values in pushed])
            if label not in glued_target.apex:
                raise StructuralError(
                    "induced family %r is not compatible in the target" % label)
            image.append(glued_target.apex.position(label))
        return image
    image = [-1] * size
    for i in tcomps:
        leg_t = glued_target.legs[(i,)]
        for cls, y in zip(glued_source.legs[(ref.image(i),)],
                          ref.components[(i,)]):
            if image[cls] != leg_t[y]:
                if image[cls] >= 0:
                    raise StructuralError(
                        "induced class map is not well defined at %r"
                        % glued_source.apex.labels[cls])
                image[cls] = leg_t[y]
    missing = [c for c, q in zip(glued_source.apex.labels, image) if q < 0]
    if missing:
        raise StructuralError(
            "induced class map is undefined on classes %r; gamma does not "
            "reach them" % missing)
    return image


def compose_via_sinks(outer, inner):
    """Flatten an outer sink with one inner sink per source and report.

    Returns the flattened sink and whether the outer target is the glued-up
    object of its canonical split gluing functor, decided by
    ``effective_epi_check`` without building that functor.
    """
    flattened = flatten_sinks(outer, inner)
    return {"sink": flattened, "is_glued_up": effective_epi_check(flattened)}
