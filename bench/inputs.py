"""Seeded input generators of the benchmark.

Every input is a pure function of a workload name and an index into that
workload's fixed pool, so reference digests can be recorded once per pool
entry.  Every run visits the whole pool; the run seed chooses the order.
These generators are kept apart from the test suite's helpers on purpose:
editing a test must never change what the benchmark measures.
"""

import random
from fractions import Fraction

# edge lengths of the rational workload
LENGTHS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def instance_rng(workload, index):
    """The generator behind one pool entry; string seeds hash with SHA-512,
    so the stream does not depend on PYTHONHASHSEED."""
    return random.Random(f"{workload}:{index}")


def schedule(seed, pool):
    """Pool indices without end, in an order drawn from the run seed; each
    pass visits the whole pool once."""
    rng = random.Random(seed)
    while True:
        order = list(range(pool))
        rng.shuffle(order)
        yield from order


def random_tree_spec(rng, n):
    """(vertex ids, edges) of a random recursive tree on 0..n-1 with edge
    lengths drawn from LENGTHS."""
    edges = [(i - 1, rng.randrange(i), i, rng.choice(LENGTHS)) for i in range(1, n)]
    return list(range(n)), edges


def random_graph_spec(rng, n, extra):
    """A random spanning tree on 0..n-1 plus ``extra`` more edges, which may
    run parallel to existing ones; lengths are drawn from LENGTHS."""
    _, edges = random_tree_spec(rng, n)
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((len(edges), u, v, rng.choice(LENGTHS)))
    return list(range(n)), edges


def vertex_pairs(rng, ids, count):
    """``count`` ordered pairs of distinct vertex ids."""
    return [tuple(rng.sample(ids, 2)) for _ in range(count)]
