import os
import random

import pytest

from endochain.errors import ClaimViolation
from endochain.field import QQ
from endochain.series import LaurentPoly
from endochain.curve_ring import build_ring, semigroup_ring, normalization_lattice
from endochain.chain import build_chain_tree, chain_family, representation_module
from endochain import lattice, resolver, ringio
from endochain.lattice import Ambient, Lattice, LatticeMap, direct_sum, isomorphism, kernel_lattice
from endochain.resolver import (
    Resolution,
    Term,
    keyred_resolve,
    resolve_presented_module,
    verify_hom_exactness,
)
from endochain.verify import generated_test_lattices


T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)


def label_map(tree):
    fam = chain_family(tree)
    return fam, {m.lattice.key(): m.label for m in fam.members}


def test_resolve_ring_itself_is_length_zero():
    r = semigroup_ring(QQ, [2, 3])
    res = keyred_resolve(r.self_lattice)
    assert res.length() == 0
    assert res.all_certified()


def test_resolve_maximal_ideal_2_5_length_zero():
    # m over <2,5> is t^2 * <2,3>, a shifted family member
    r = semigroup_ring(QQ, [2, 5])
    res = keyred_resolve(r.maximal_ideal_lattice())
    assert res.length() == 0
    assert res.all_certified()
    tree = build_chain_tree(r)
    fam, labels = label_map(tree)
    assert [labels[t.key()] for t in res.terms[0].tags] == ["S1"]


def test_worked_resolution_over_3_4():
    # J = <1, t> over <3,4>: C_0 = <3,4,5>^2 (+) F[[t]], C_1 = F[[t]]^2
    r = semigroup_ring(QQ, [3, 4])
    tree = build_chain_tree(r)
    amb = r.self_lattice.ambient
    j = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    res = keyred_resolve(j, tree=tree)
    fam, labels = label_map(tree)
    assert res.length() == 1
    assert [labels[t.key()] for t in res.terms[0].tags] == ["S1", "S1", "S2"]
    assert [labels[t.key()] for t in res.terms[1].tags] == ["S2", "S2"]
    assert res.all_certified()
    assert res.certificates["hom_exact"] == {"S0": True, "S1": True, "S2": True}


def test_length_bound_over_corpus_samples():
    rng = random.Random(5)
    from endochain.verify import corpus, generated_test_lattices

    for name, ring in corpus():
        tree = build_chain_tree(ring)
        for kind, lat in generated_test_lattices(rng, ring, tree, count=3):
            res = keyred_resolve(lat, tree=tree)
            assert res.length() <= tree.n, (name, kind)
            assert res.all_certified(), (name, kind)


def test_hom_exactness_negative_control():
    # corrupt a certified resolution: scale an interior map by t
    r = semigroup_ring(QQ, [3, 4])
    tree = build_chain_tree(r)
    amb = r.self_lattice.ambient
    j = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    res = keyred_resolve(j, tree=tree)
    bad_maps = list(res.maps)
    m1 = bad_maps[1]
    bad_maps[1] = LatticeMap(
        m1.source,
        m1.target,
        [[[e * T for e in row] for row in mat] for mat in m1.mats],
    )
    bad = Resolution(res.ring, res.target, res.terms, bad_maps)
    fam = chain_family(tree)
    x = fam.members[0].lattice
    assert verify_hom_exactness(res, x)
    assert not verify_hom_exactness(bad, x)


def test_resolution_certificate_fields():
    r = semigroup_ring(QQ, [2, 3])
    res = keyred_resolve(r.maximal_ideal_lattice())
    c = res.certificates
    assert c["composites_zero"] and c["left_injective"]
    assert c["surjective_onto_target"]
    assert all(c["decompositions"])


def test_minimal_cover_property_case_c():
    # over <3,4>: resolving J goes through the free-cover step; the kernel
    # of the cover must be R1-stable (asserted inside; run to exercise it)
    r = semigroup_ring(QQ, [3, 4])
    amb = r.self_lattice.ambient
    j = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    res = keyred_resolve(j)
    assert res.length() <= 2


def test_node_split_resolution():
    node = build_ring(QQ, 2, [(T, Z), (Z, T)])
    m = node.maximal_ideal_lattice()
    res = keyred_resolve(m)
    assert res.length() <= 1
    assert res.all_certified()


def test_isomorphism_detects_shifts():
    r = semigroup_ring(QQ, [2, 3])
    amb = r.self_lattice.ambient
    a = r.self_lattice
    # b = t^3 * R (shift every module generator of R)
    b = Lattice.from_generators(
        r, amb, [tuple(p.shift(3) for p in g) for g in a.genset()]
    )
    f = isomorphism(a, b)
    assert f is not None and f.mats[0][0][0].valuation() == 3
    # m = t^2 F[[t]] over the cusp is NOT a twist of R
    assert isomorphism(a, r.maximal_ideal_lattice()) is None


def test_presented_module_identity_gives_trivial():
    r = semigroup_ring(QQ, [2, 3])
    f = LatticeMap.identity(r.self_lattice)
    res = resolve_presented_module(f)
    assert res.notes.get("kernel") == "zero"
    assert res.notes["gamma_pd_bound"] == 1
    assert res.all_certified()


def test_presented_module_mult_t_on_normalization():
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    f = LatticeMap(e, e, [[[T]]])
    res = resolve_presented_module(f)
    assert res.notes.get("kernel") == "zero"
    assert res.notes["gamma_pd_bound"] == 1
    assert res.all_certified()


def test_presented_module_sum_map():
    # f: R (+) E -> E the sum map; kernel is the antidiagonal copy of R
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    src, _ = direct_sum([r.self_lattice, e])
    one = LaurentPoly.one(QQ)
    f = LatticeMap(src, e, [[[one, one]]])
    k, _ = kernel_lattice(f)
    assert k == r.self_lattice  # {(a, -a)} with a in R (E meets R in R)
    res = resolve_presented_module(f)
    assert res.notes["gamma_pd_bound"] <= 2
    assert res.all_certified()


def test_resolutions_deterministic():
    r = semigroup_ring(QQ, [3, 4])
    amb = r.self_lattice.ambient
    j = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    r2 = semigroup_ring(QQ, [3, 4], window_hint=2 * r.window_bound)
    amb2 = r2.self_lattice.ambient
    j2 = Lattice.from_generators(r2, amb2, [amb2.unit_vec(QQ, 0, 0), amb2.unit_vec(QQ, 0, 1)])
    res = keyred_resolve(j)
    res2 = keyred_resolve(j2)
    assert [t.lattice.key() for t in res.terms] == [t.lattice.key() for t in res2.terms]
    assert [m.render() for m in res.maps] == [m.render() for m in res2.maps]


def test_isomorphism_propagates_engine_errors(monkeypatch):
    # a failing surjectivity test is a bug to surface, never "not isomorphic"
    r = semigroup_ring(QQ, [2, 3])
    a = r.self_lattice
    b = Lattice.from_generators(r, a.ambient, [tuple(p.shift(3) for p in g) for g in a.genset()])
    assert isomorphism(a, b) is not None

    def broken(f):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(lattice, "is_surjective_onto", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        isomorphism(a, b)


def test_recursion_depth_bound_is_twice_the_chain_depth(monkeypatch):
    # R (+) E over <2,9>, chain depth n = 4: each chain level takes case (c),
    # then case (b) one level down, so the recursion reaches its bound 2n;
    # on a tree claiming one level less, the depth check raises
    r = semigroup_ring(QQ, [2, 9])
    tree = build_chain_tree(r)
    lat, _ = direct_sum([r.self_lattice, normalization_lattice(r)])
    depths = []
    inner = resolver._resolve

    def spy(node, n, bound, depth=0):
        depths.append(depth)
        return inner(node, n, bound, depth)

    monkeypatch.setattr(resolver, "_resolve", spy)
    res = keyred_resolve(lat, tree=tree)
    assert res.length() == tree.n == 4 and res.all_certified()
    assert max(depths) == 2 * tree.n
    tree.n -= 1
    with pytest.raises(ClaimViolation, match="deeper than twice the chain depth"):
        keyred_resolve(lat, tree=tree, certify=False)


# -- the placement route against the R-closure route -----------------------------------

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
PLACEMENT_RINGS = sorted(os.path.splitext(n)[0] for n in os.listdir(os.path.join(DATA, "rings"))) + ["gf32003/semigroup_3_4"]


def _load_ring(name):
    if name.startswith("gf32003/"):
        path = os.path.join(os.path.dirname(__file__), "golden", "rings", name.split("/")[1] + "-gf32003.json")
    else:
        path = os.path.join(DATA, "rings", name + ".json")
    return ringio.ring_from_json(ringio.load_json(path))


def _embedding_gens(base, positions, lat):
    """The former generators of ``embedded_lattice``: the factor's basis rows
    on the base branches plus each coordinate's tail monomials t^(hi + m),
    m < mx."""
    ranks = [0] * base.branches
    for i, p in enumerate(positions):
        ranks[p] = lat.ambient.ranks[i]
    amb = Ambient(ranks)
    slots = [(amb.coord(p, s), lat.ambient.coord(i, s)) for i, p in enumerate(positions) for s in range(ranks[p])]
    gens = []
    for v in lat.basis:
        vec = list(amb.zero_vec(base.field))
        for c, c_small in slots:
            vec[c] = v[c_small]
        gens.append(tuple(vec))
    for c, c_small in slots:
        for m in range(base.mx(amb.branch_of(c))):
            gens.append(amb.unit_vec(base.field, c, lat.hi[c_small] + m))
    return amb, gens


@pytest.mark.parametrize("name", PLACEMENT_RINGS)
def test_placement_route_matches_closure_route(monkeypatch, name):
    # family members, factor projections and E, placed without R-closure,
    # are the R-closures of the generators the former closure route used
    ring = _load_ring(name)
    tree = build_chain_tree(ring)
    for node in tree.nodes():
        pos_of = {g: i for i, g in enumerate(node.global_branches)}
        for mem in chain_family(tree, node).members:
            positions = tuple(pos_of[g] for g in mem.node.global_branches)
            amb, gens = _embedding_gens(node.ring, positions, mem.node.ring.self_lattice)
            assert mem.lattice.key() == Lattice.from_generators(node.ring, amb, gens).key()
    e = normalization_lattice(ring)
    amb = ring.self_lattice.ambient
    gens = [amb.unit_vec(ring.field, br, m) for br in range(ring.branches) for m in range(ring.mx(br))]
    assert e.key() == Lattice.from_generators(ring, amb, gens).key()

    seen = []
    original = resolver._restrict_to_factor

    def spy(n, positions, child_ring):
        out = original(n, positions, child_ring)
        seen.append((n, positions, child_ring, out))
        return out

    monkeypatch.setattr(resolver, "_restrict_to_factor", spy)
    lats = [lat for _, lat in generated_test_lattices(random.Random(f"{name}/0"), ring, tree, count=4)]
    for lat in lats + [representation_module(chain_family(tree))[0]]:
        keyred_resolve(lat, tree=tree, certify=False)
    # M reaches the factor route on every ring but a DVR, one factor when R1 is local
    assert bool(seen) == (not ring.is_dvr_product())
    for n, positions, child_ring, out in seen:
        amb = n.ambient
        slots = [amb.coord(p, s) for p in positions for s in range(amb.ranks[p])]
        gens = [tuple(g[c] for c in slots) for g in n.genset()]
        assert out.key() == Lattice.from_generators(child_ring, out.ambient, gens).key()


def test_restriction_keeps_basis_rows_whole():
    # the node's self-lattice has the basis row 1 = (1, 1), which straddles
    # both branches: it is no direct sum of its projections
    r = build_ring(QQ, 2, [(T, Z), (Z, T)])
    tree = build_chain_tree(r)
    (T0, child), _ = tree.root.children
    assert T0 == (0,)
    with pytest.raises(ClaimViolation):
        resolver._restrict_to_factor(r.self_lattice, T0, child.ring)


# -- Hom(X, -) certificates: the left-exactness route against the full one ------------


def _members(tree):
    return [(m.label, m.lattice) for m in chain_family(tree).members]


def _certify_matches_full(res, members, presentation=False):
    """certify's hom_exact equals the full ``verify_hom_exactness`` (every
    Hom(X, -) position checked) for every member; returns the certificates."""
    certs = res.certify(members, presentation)
    full = {label: verify_hom_exactness(res, x, presentation) for label, x in members}
    assert certs["hom_exact"] == full
    return certs


CORPUS_RINGS = sorted(os.path.splitext(n)[0] for n in os.listdir(os.path.join(DATA, "rings")))


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_certify_matches_full_hom_route_on_corpus(name):
    ring = _load_ring(name)
    tree = build_chain_tree(ring)
    members = _members(tree)
    for kind, lat in generated_test_lattices(random.Random(f"{name}/0"), ring, tree, count=3):
        res = keyred_resolve(lat, tree=tree, certify=False)
        assert all(_certify_matches_full(res, members)["hom_exact"].values()), kind


@pytest.mark.parametrize("name", CORPUS_RINGS)
def test_resolution_tags_are_family_lattices(name):
    # each tag is a lattice of the root family itself, never an equal-key
    # lattice over a chain ring below the root
    ring = _load_ring(name)
    tree = build_chain_tree(ring)
    members = {id(m.lattice) for m in chain_family(tree).members}
    for kind, lat in generated_test_lattices(random.Random(f"{name}/0"), ring, tree):
        res = keyred_resolve(lat, tree=tree, certify=False)
        assert all(id(tag) in members for t in res.terms for tag in t.tags), kind


@pytest.mark.parametrize("name", ["node", "semigroup_3_4"])
def test_tag_maps_are_built_once_per_child(monkeypatch, name):
    # the factor route lifts a child's tags through a map that depends only
    # on (node, child): it is built on the first resolve that needs it and
    # kept on the child, so a second resolve looks up no member again
    from endochain.chain import EFamily

    ring = _load_ring(name)
    tree = build_chain_tree(ring)
    lats = [lat for _, lat in generated_test_lattices(random.Random(f"{name}/0"), ring, tree)]
    first = [keyred_resolve(lat, tree=tree, certify=False) for lat in lats]
    maps = {nd.label: nd.tags for nd in tree.nodes() if nd.tags is not None}
    assert maps
    found = []
    real = EFamily.find
    monkeypatch.setattr(EFamily, "find", lambda fam, lat: found.append(lat) or real(fam, lat))
    again = [keyred_resolve(lat, tree=tree, certify=False) for lat in lats]
    assert {nd.label: nd.tags for nd in tree.nodes() if nd.tags is not None} == maps
    assert all(nd.tags is maps[nd.label] for nd in tree.nodes() if nd.label in maps)
    assert not found
    assert [[t.tags for t in r.terms] for r in again] == [[t.tags for t in r.terms] for r in first]


SHIPPED_MODULES = (
    ("j_over_3_4", "semigroup_3_4"),
    ("m_over_2_5", "semigroup_2_5"),
    ("m_frac_over_2_5", "semigroup_2_5"),
    ("m_over_cusp_line", "cusp_line"),
    ("m_over_3_5", "semigroup_3_5"),
)


def test_certify_matches_full_hom_route_on_shipped_modules():
    lengths = []
    for module, name in SHIPPED_MODULES:
        ring = _load_ring(name)
        tree = build_chain_tree(ring)
        lat = ringio.lattice_from_json(ringio.load_json(os.path.join(DATA, "modules", module + ".json")), ring)
        res = keyred_resolve(lat, tree=tree, certify=False)
        assert all(_certify_matches_full(res, _members(tree))["hom_exact"].values()), module
        lengths.append(res.length())
    # m over <3,5> has length 2, so exactness at Hom(X, C_0) is still checked
    assert max(lengths) == 2


def test_certify_matches_full_hom_route_on_presentations():
    r = semigroup_ring(QQ, [2, 3])
    tree = build_chain_tree(r)
    e = normalization_lattice(r)
    src, _ = direct_sum([r.self_lattice, e])
    one = LaurentPoly.one(QQ)
    maps = [LatticeMap.identity(r.self_lattice), LatticeMap(e, e, [[[T]]]), LatticeMap(src, e, [[[one, one]]])]
    for f in maps:
        res = resolve_presented_module(f, tree=tree, certify=False)
        assert all(_certify_matches_full(res, _members(tree), presentation=True)["hom_exact"].values())


def test_certificate_negative_controls():
    # complexes over <3,4> whose plain certificate fails, and one whose plain
    # certificate holds but which is no add(M)-resolution: the certificates
    # are those the route that checks every Hom(X, -) position gave
    r = semigroup_ring(QQ, [3, 4])
    tree = build_chain_tree(r)
    members = _members(tree)
    one = LaurentPoly.one(QQ)
    R = r.self_lattice
    amb = R.ambient
    m = r.maximal_ideal_lattice()
    j = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    r2, _ = direct_sum([R, R])
    res = keyred_resolve(j, tree=tree)
    scaled = list(res.maps)
    scaled[1] = LatticeMap(scaled[1].source, scaled[1].target, [[[e * T for e in row] for row in mat] for mat in scaled[1].mats])
    cover = LatticeMap(r2, j, [[[one, T]]])
    k, emb = kernel_lattice(cover)
    cases = {
        # m -> R is injective, not surjective
        "not_surjective": Resolution(r, R, [Term(m, (m,))], [LatticeMap(m, R, [[[one]]])]),
        # R^2 -> R, (a, b) -> a + b, is surjective, not injective
        "not_injective": Resolution(r, R, [Term(r2, (R, R))], [LatticeMap(r2, R, [[[one, one]]])]),
        # test_hom_exactness_negative_control: not exact at C_0
        "t_scaled": Resolution(res.ring, res.target, res.terms, scaled),
        # 0 -> K -> R^2 -> J -> 0 is exact, but J is no quotient of R^2 under
        # Hom(S1, -) or Hom(S2, -)
        "free_presentation": Resolution(r, j, [Term(r2, (R, R)), Term(k, (k,))], [cover, emb]),
    }
    expected = {
        "not_surjective": {
            "composites_zero": True, "surjective_onto_target": False, "exact_at_interior": [], "left_injective": True,
            "decompositions": [True], "hom_exact": {"S0": False, "S1": True, "S2": True},
        },
        "not_injective": {
            "composites_zero": True, "surjective_onto_target": True, "exact_at_interior": [], "left_injective": False,
            "decompositions": [True], "hom_exact": {"S0": False, "S1": False, "S2": False},
        },
        "t_scaled": {
            "composites_zero": True, "surjective_onto_target": True, "exact_at_interior": [False], "left_injective": True,
            "decompositions": [True, True], "hom_exact": {"S0": False, "S1": False, "S2": False},
        },
        "free_presentation": {
            "composites_zero": True, "surjective_onto_target": True, "exact_at_interior": [True], "left_injective": True,
            "decompositions": [True, True], "hom_exact": {"S0": True, "S1": False, "S2": False},
        },
    }
    for name, c in cases.items():
        assert _certify_matches_full(c, members) == expected[name], name
        assert not c.all_certified()


@pytest.mark.parametrize("name", PLACEMENT_RINGS)
def test_single_tag_direct_sum_is_the_tag(name):
    # Term.decomposition_ok compares a one-tag term with its tag directly:
    # the direct sum of one lattice is that lattice, key for key
    tree = build_chain_tree(_load_ring(name))
    for mem in chain_family(tree).members:
        ds, _ = direct_sum([mem.lattice])
        assert ds.key() == mem.lattice.key()
        assert Term(mem.lattice, (mem.lattice,)).decomposition_ok()
    members = chain_family(tree).lattices()
    if len(members) > 1:
        assert not Term(members[0], (members[1],)).decomposition_ok()


def test_certify_reads_the_isomorphism_verdict(monkeypatch):
    # the fast path's isomorphism has passed is_surjective_onto, which keeps
    # its verdict on the map: certify reads it with no second Nakayama test
    # and fills the same certificate; a fresh map is tested anew
    r = semigroup_ring(QQ, [2, 5])
    tree = build_chain_tree(r)
    res = keyred_resolve(r.maximal_ideal_lattice(), tree=tree, certify=False)
    assert res.length() == 0 and res.maps[0].onto is True
    calls = []
    real = lattice.nakayama_covers
    monkeypatch.setattr(lattice, "nakayama_covers", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    members = [(m.label, m.lattice) for m in chain_family(tree).members]
    certs = res.certify(members)
    assert certs["surjective_onto_target"] is True and res.all_certified()
    assert all(goal is not res.target for goal in calls)
    fresh = LatticeMap(res.maps[0].source, res.maps[0].target, res.maps[0].mats)
    assert fresh.onto is None and lattice.is_surjective_onto(fresh) and calls[-1] is res.target
