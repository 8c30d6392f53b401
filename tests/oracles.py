"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: cubic loops, explicit path
enumeration, candidate scans. Nothing imports the library's distance
engine, except pruned_copy_extraction, an earlier design of the
extraction kept as a reference for the one that replaced it, and
pair_scan, which reads the engine's point distance pair by pair as the
reference for the pair kernel's bands; disagreement with the package is
always a finding.
"""

from fractions import Fraction

from coarsegeom import choice_pipeline as cp
from coarsegeom import errors
from coarsegeom.coarse_maps import _scaled_pairs, verify_quasi_isometry
from coarsegeom.metric_graph import Interior, Vertex, _scaled_distance, distance
from coarsegeom.tree_ops import assert_tree, prune_k

ZERO = Fraction(0)
ONE = Fraction(1)


def floyd_warshall(g):
    """All-pairs vertex distances as {u: {v: Fraction | None}}."""
    ids = list(g.vertex_ids())
    dist = {u: {v: None for v in ids} for u in ids}
    for u in ids:
        dist[u][u] = ZERO
    for e in g.edges:
        cur = dist[e.u][e.v]
        if cur is None or e.length < cur:
            dist[e.u][e.v] = e.length
            dist[e.v][e.u] = e.length
    for k in ids:
        rk = dist[k]
        for i in ids:
            dik = dist[i][k]
            if dik is None:
                continue
            ri = dist[i]
            for j in ids:
                dkj = rk[j]
                if dkj is None:
                    continue
                alt = dik + dkj
                if ri[j] is None or alt < ri[j]:
                    ri[j] = alt
    return dist


def adjacency(g):
    """Each vertex's (neighbor id, Edge) pairs, by (neighbor id, edge id),
    built from g.edges alone."""
    adj = {v: [] for v in g.vertex_ids()}
    for e in g.edges:
        adj[e.u].append((e.v, e))
        adj[e.v].append((e.u, e))
    for pairs in adj.values():
        pairs.sort(key=lambda pair: (pair[0], pair[1].id))
    return adj


def entries(g, pt):
    """(vertex, cost-to-reach-it) entry list for a point."""
    if isinstance(pt, Vertex):
        return [(pt.id, ZERO)]
    e = g.edge(pt.edge)
    s = pt.offset * e.length
    return [(e.u, s), (e.v, e.length - s)]


def point_distance(g, fw, p, q):
    """Exact point-to-point distance using only fw and edge data."""
    best = None
    if isinstance(p, Interior) and isinstance(q, Interior) and p.edge == q.edge:
        e = g.edge(p.edge)
        best = abs((p.offset - q.offset) * e.length)
    if (
        isinstance(p, Vertex)
        and isinstance(q, Vertex)
        and p.id == q.id
    ):
        return ZERO
    for a, ca in entries(g, p):
        for b, cb in entries(g, q):
            base = fw[a][b]
            if base is None:
                continue
            tot = ca + base + cb
            if best is None or tot < best:
                best = tot
    if best is None:
        raise ValueError("points lie in different components")
    return best


def point_order(p):
    """The canonical point order: vertices by id, then interior points by
    (edge id, offset)."""
    return (0, p.id, ZERO) if isinstance(p, Vertex) else (1, p.edge, p.offset)


def nearest_point(g, fw, q, points):
    """The point nearest q, ties toward the smaller point in point_order."""
    return min(points, key=lambda x: (point_distance(g, fw, q, x), point_order(x)))


def enumerate_geodesics_dfs(g, p, q, fw=None):
    """All shortest paths between two points (an int stands for a vertex)
    as (vertex_seq, edge_id_seq), routed through each point's entry
    vertices, plus the direct segment when both lie inside one edge.
    Sorted in lexicographic order of hops: first vertex, then each hop's
    (next vertex, edge id)."""
    if fw is None:
        fw = floyd_warshall(g)
    p, q = (Vertex(x) if isinstance(x, int) else x for x in (p, q))
    try:
        total = point_distance(g, fw, p, q)
    except ValueError:
        return []
    out = []
    if isinstance(p, Interior) and isinstance(q, Interior) and p.edge == q.edge:
        if abs(p.offset - q.offset) * g.edge(p.edge).length == total:
            out.append(((), ()))
    ends = dict(entries(g, q))
    adj = adjacency(g)
    stack = [(a, ca, (a,), ()) for a, ca in entries(g, p)]
    while stack:
        cur, cost, vseq, eseq = stack.pop()
        if cur in ends and cost + ends[cur] == total:
            out.append((vseq, eseq))
        for nbr, e in adj[cur]:
            rem = point_distance(g, fw, Vertex(nbr), q)
            if cost + e.length + rem == total:
                stack.append((nbr, cost + e.length, vseq + (nbr,), eseq + (e.id,)))
    out.sort(key=lambda path: (path[0][:1], tuple(zip(path[0][1:], path[1]))))
    return out


def count_geodesics_dfs(g, u, v, fw=None):
    return len(enumerate_geodesics_dfs(g, u, v, fw))


def point_along_walk(g, geo, s):
    """The point at arc length s along a geodesic, walked in Fractions over
    its runs (edge, from offset, to offset), offsets being length-fractions
    in the edge's own orientation; offsets 0 and 1 are the edge's ends."""
    s = Fraction(s)
    if s == 0:
        return geo.start
    vs, segs = geo.vertices, []
    if isinstance(geo.start, Interior):
        e = g.edge(geo.start.edge)
        if not vs:  # both ends inside one edge
            segs.append((e, geo.start.offset, geo.end.offset))
        else:
            segs.append((e, geo.start.offset, ZERO if vs[0] == e.u else ONE))
    for a, eid in zip(vs, geo.edges):
        e = g.edge(eid)
        segs.append((e, ZERO, ONE) if a == e.u else (e, ONE, ZERO))
    if vs and isinstance(geo.end, Interior):
        e = g.edge(geo.end.edge)
        segs.append((e, ZERO if vs[-1] == e.u else ONE, geo.end.offset))
    walked = ZERO
    for e, a, b in segs:
        seg_len = abs(b - a) * e.length
        if walked + seg_len >= s:
            local = (s - walked) / e.length
            t = a + local if b > a else a - local
            return Vertex(e.u) if t == 0 else Vertex(e.v) if t == 1 else Interior(e.id, t)
        walked += seg_len
    return geo.end


def brute_delta(g):
    """Slim-triangle bound over all vertex triples, half-edge probes.

    For each side of each triple, every geodesic is probed at its vertices
    and at midpoints of edges outside the union of the other two sides'
    geodesic carriers; the value is the max probe-to-union distance.
    """
    fw = floyd_warshall(g)
    ids = list(g.vertex_ids())
    geos = {}

    def side(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in geos:
            geos[key] = enumerate_geodesics_dfs(g, key[0], key[1], fw)
        return geos[key]

    best = ZERO
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                tri = (ids[i], ids[j], ids[k])
                for a, b, c in (
                    (tri[0], tri[1], tri[2]),
                    (tri[1], tri[2], tri[0]),
                    (tri[2], tri[0], tri[1]),
                ):
                    uverts = set()
                    uedges = set()
                    for pair in ((b, c), (a, c)):
                        for vseq, eseq in side(*pair):
                            uverts.update(vseq)
                            uedges.update(eseq)

                    def to_union(w):
                        return min(fw[w][x] for x in uverts)

                    for vseq, eseq in side(a, b):
                        for w in vseq:
                            d = to_union(w)
                            if d > best:
                                best = d
                        for eid in eseq:
                            if eid in uedges:
                                continue
                            e = g.edge(eid)
                            d = e.length / 2 + min(to_union(e.u), to_union(e.v))
                            if d > best:
                                best = d
    return best


def _on_segment(g, fw, p, a, b):
    """Metric test: p lies on the (unique, in a tree) geodesic [a, b]."""
    return point_distance(g, fw, a, p) + point_distance(g, fw, p, b) == point_distance(
        g, fw, a, b
    )


def _norm(g, p):
    if isinstance(p, Interior):
        if p.offset == 0:
            return Vertex(g.edge(p.edge).u)
        if p.offset == 1:
            return Vertex(g.edge(p.edge).v)
    return p


def brute_tree_median(g, x, y, z):
    """The unique point on all three pairwise geodesics of a tree.

    Candidates are vertices plus the three inputs; in a tree the triple
    median is always one of these.
    """
    fw = floyd_warshall(g)
    cands = {(0, v, ZERO): Vertex(v) for v in g.vertex_ids()}
    for p in (x, y, z):
        q = _norm(g, p)
        key = (0, q.id, ZERO) if isinstance(q, Vertex) else (1, q.edge, q.offset)
        cands[key] = q
    hits = [
        p
        for p in cands.values()
        if _on_segment(g, fw, p, x, y)
        and _on_segment(g, fw, p, y, z)
        and _on_segment(g, fw, p, x, z)
    ]
    if len(hits) != 1:
        raise AssertionError(f"median candidates: {hits!r}")
    return hits[0]


def brute_quasi_inverse(f, n, z):
    """The assignments of the coarse inverse of f, a map out of a tree:
    each vertex and edge midpoint x of f's target, in point_order, paired
    with the median fold relative to z of the domain points whose images
    lie within n of x, or with None where no image does."""
    ft = floyd_warshall(f.target)
    net = [Vertex(v) for v in f.target.vertex_ids()]
    net += [Interior(e.id, Fraction(1, 2)) for e in f.target.edges]
    out = []
    for x in sorted(net, key=point_order):
        m = None
        for y, fy in f.assignments:
            if point_distance(f.target, ft, fy, x) <= n:
                m = y if m is None else brute_tree_median(f.source, z, m, y)
        out.append((x, m))
    return out


def brute_prune(g, k):
    """(surviving vertex ids, stages) of k simultaneous leaf-removal
    rounds, each round rescanning every surviving vertex's valence over
    the edges left between survivors."""
    alive = set(g.vertex_ids())
    stages = []
    for _ in range(k):
        valence = {v: 0 for v in alive}
        for e in g.edges:
            if e.u in alive and e.v in alive:
                valence[e.u] += 1
                valence[e.v] += 1
        leaves = sorted(v for v in alive if valence[v] == 1)
        if not leaves:
            break
        alive -= set(leaves)
        stages.append(tuple(leaves))
    return alive, tuple(stages)


def surviving_vertex_partition(g, center, radius):
    """Components of vertices outside the closed ball, by DFS reachability.

    An edge joins two survivors iff both endpoints survive and the edge
    does not hold the center (off the center's edge the distance function
    along an edge is minimized at an endpoint, so no interior point dips
    deeper into the ball than the nearer endpoint; on the center's edge
    the center itself is deleted).
    """
    fw = floyd_warshall(g)
    radius = Fraction(radius)
    alive = {v for v in g.vertex_ids() if point_distance(g, fw, Vertex(v), center) > radius}
    cut = center.edge if isinstance(center, Interior) else None
    adj = adjacency(g)
    seen = set()
    parts = []
    for start in sorted(alive):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            for nbr, e in adj[cur]:
                if nbr in alive and nbr not in comp and e.id != cut:
                    stack.append(nbr)
        seen |= comp
        parts.append(frozenset(comp))
    return frozenset(parts)


def point_separated(g, x, y, w, r):
    """Whether every path from x to y meets the closed ball around w of
    radius r, decided on an explicit subdivision.

    Each edge is cut at its ends, at every point where one of the routes
    to w (through u, through v, or along the edge when w lies on it)
    reaches length exactly r, and at the offsets of x and y.  The distance
    to w differs from r throughout each open piece between two cuts, so a
    piece survives or dies whole, as its midpoint does.  Surviving pieces
    are joined to the surviving cut points at their ends, and a BFS over
    pieces and cut points decides.
    """
    fw = floyd_warshall(g)
    r = Fraction(r)

    def dead(p):
        return point_distance(g, fw, p, w) <= r

    def node(p):
        return ("v", p.id) if isinstance(p, Vertex) else ("p", p.edge, p.offset)

    if dead(x) or dead(y):
        return True
    nbrs = {}
    for e in g.edges:
        ln = e.length
        du = point_distance(g, fw, Vertex(e.u), w)
        dv = point_distance(g, fw, Vertex(e.v), w)
        cuts = {ZERO, Fraction(1), (r - du) / ln, 1 - (r - dv) / ln}
        if isinstance(w, Interior) and w.edge == e.id:
            cuts |= {w.offset - r / ln, w.offset + r / ln}
        cuts |= {p.offset for p in (x, y) if isinstance(p, Interior) and p.edge == e.id}
        cuts = sorted(t for t in cuts if 0 <= t <= 1)
        for a, b in zip(cuts, cuts[1:]):
            if dead(Interior(e.id, (a + b) / 2)):
                continue
            piece = ("s", e.id, a)
            for t in (a, b):
                p = Vertex(e.u) if t == 0 else Vertex(e.v) if t == 1 else Interior(e.id, t)
                if not dead(p):
                    nbrs.setdefault(piece, []).append(node(p))
                    nbrs.setdefault(node(p), []).append(piece)
    seen = {node(x)}
    stack = [node(x)]
    while stack:
        cur = stack.pop()
        if cur == node(y):
            return False
        for nxt in nbrs.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def label_shape(g):
    """Label-level structural fingerprint, for comparing rebuilt graphs
    whose vertex ids differ."""
    lab = g.vertex_labels

    def vl(v):
        return lab[v] if lab[v] is not None else f"#{v}"

    verts = sorted(vl(v) for v in g.vertex_ids())
    edges = sorted(
        (min(vl(e.u), vl(e.v)), max(vl(e.u), vl(e.v)), e.length) for e in g.edges
    )
    return tuple(verts), tuple(edges)


def geodesic_label_form(g, vseq, eseq):
    """Canonical label form of a geodesic, id-layout independent."""
    lab = g.vertex_labels

    def vl(v):
        return lab[v] if lab[v] is not None else f"#{v}"

    ef = []
    for eid in eseq:
        e = g.edge(eid)
        ef.append((vl(e.u), vl(e.v), e.length, None if e.label is None else vl(e.label)))
    return tuple(vl(v) for v in vseq), tuple(ef)


def pruned_copy_extraction(m, g0, n):
    """extract_choice as it ran on a pruned copy of the domain tree: the
    same checks in the same order, then prune_k's new graph, each image's
    Fraction distance to the base, and the root's row searched on the copy.
    It uses the library's certificate check, pruning and point distance;
    the survivor-set extraction must give equal certificates and errors."""
    n = int(n)
    if n < 4:
        raise errors.ConstantTooSmall(f"extraction needs a constant >= 4, got {n}")
    assert_tree(m.source)
    if not m.target.same_structure(g0.graph):
        raise errors.GraphMismatch("map target is not the given doubled-edge graph")
    need = cp.required_gamma0_depth(n)
    if g0.depth < need:
        raise errors.DepthError(f"truncation depth {g0.depth} is below the required {need}")
    cert = verify_quasi_isometry(m, n, mode="vertex-exhaustive")
    if not cert.accepted:
        raise errors.NotQuasiIsometry(f"map fails the constant-{n} check: "
                                      f"{cert.violations[0]}")
    k = cp.pruning_rounds(n)
    pruned, _ = prune_k(m.source, k)
    if pruned.n_vertices == 0:
        raise errors.DepthError(f"{k} pruning rounds emptied the domain tree")
    edges = {e.id: e for e in pruned.edges}
    near, images = set(), {}
    for w, q in m.assignments:
        if isinstance(w, Vertex) and w.id not in pruned.vertex_labels:
            continue
        if isinstance(w, Interior) and w.edge not in edges:
            continue
        d = distance(g0.graph, q, Vertex(0))
        if isinstance(w, Vertex):
            images[w.id] = q, d
            if d <= n:
                near.add(w.id)
        elif d <= n:
            e = edges[w.edge]
            near.update(v for v in (e.u, e.v) if distance(pruned, w, Vertex(v)) <= Fraction(1, 2))
    if not near:
        raise errors.DepthError("no surviving domain point maps within the constant "
                                "of the base")
    root = min(near)
    if images[root][1] > 3 * n:
        raise errors.NotQuasiIsometry(
            "root image strays beyond three constants from the base, which "
            f"an accepted constant-{n} certificate rules out")
    frontier = [u for u, d in pruned.vertex_row(root).items() if d == 2 * k]
    if not frontier:
        raise errors.DepthError(f"no vertices at tree distance {2 * k} from the root")
    h_values, owner = [], {}
    for u in frontier:
        img, d = images[u]
        level = d.numerator // d.denominator
        if level == 0:
            raise errors.LabelError(f"frontier vertex {u} maps into the base region")
        if level < 10 * n:
            raise errors.LabelError(f"frontier vertex {u} maps to level {level}, "
                                    f"below the guaranteed {10 * n}")
        elem, si, _ = g0.info(img.id if isinstance(img, Vertex)
                              else g0.graph.edge(img.edge).label)
        arm = g0.family.sets[si].name
        if arm in owner:
            raise errors.ArmCollision(f"frontier vertices {owner[arm]} and {u} both land on "
                                      f"arm {arm!r}")
        owner[arm] = u
        h_values.append((u, elem))
    assignment, transversal = [], []
    for s in g0.family.sets:
        u = owner.get(s.name)
        if u is None:
            raise errors.DepthError(f"no frontier vertex lands on arm {s.name!r}")
        assignment.append((s.name, u))
        transversal.append(dict(h_values)[u])
    verified = (len(frontier) == len(g0.family.sets)
                and cp.verify_transversal(transversal, g0.family))
    return cp.ChoiceCertificate(n, k, root, tuple(frontier), tuple(assignment),
                                tuple(h_values), tuple(transversal), verified)


def pair_scan(m, rows, n, start=(0, 1)):
    """coarse_maps._first_violation by a plain lexicographic loop: the
    first pair (i, j) of m's rows, a slice, from ``start`` on whose
    distances break the bound with constant n, as (i, j, ds, dt) in units
    of 1/s, each distance read with _scaled_distance; no rows, no bands,
    no skipping."""
    s, (src, ks, ps), (tgt, kt, pt) = _scaled_pairs(m, rows)
    i0, j0 = start
    for i in range(i0, len(ps)):
        for j in range(j0 if i == i0 else i + 1, len(ps)):
            ds = _scaled_distance(src, ks, ps[i], ps[j])
            dt = _scaled_distance(tgt, kt, pt[i], pt[j])
            if dt > n * ds + n * s or ds > n * dt + n * n * s:
                return i, j, ds, dt
    return None


def map_document(pairs, source_path, target_path, n=None):
    """A map's document written point by point from its (source point,
    target point) pairs: the pairs in domain order (vertices by id, then
    interior points by edge id and offset), each offset "p/q"."""

    def key(p):
        return (0, p.id, ZERO) if isinstance(p, Vertex) else (1, p.edge, p.offset)

    def point(p):
        if isinstance(p, Vertex):
            return {"vertex": p.id}
        return {"edge": p.edge, "offset": f"{p.offset.numerator}/{p.offset.denominator}"}

    doc = {
        "source": source_path,
        "target": target_path,
        "assign": [{"from": point(p), "to": point(q)}
                   for p, q in sorted(pairs, key=lambda pq: key(pq[0]))],
    }
    if n is not None:
        doc["N"] = n
    return doc
