"""The order in which the coloring kernel numbers its colorings, as the
reference the tests hold the kernel's bit positions to.

Bit m of a `CutProfile` level set stands for coloring m: bit i of m puts
the (i + 1)-th agent on the A side, and the first agent stays on B.
"""

from loccgraph.errors import BoundExceeded
from loccgraph.merging import DEFAULT_COLOR_BOUND, Bicoloring


def iter_bicolorings(agents, bound: int = DEFAULT_COLOR_BOUND):
    """All 2^(n-1) colorings with the canonical first agent pinned to B,
    in binary-counting order over the remaining agents (deterministic).

    Color-swap symmetry makes this exhaustive for cut purposes: the cut of
    a coloring equals the cut of its flip.
    """
    agents = tuple(sorted(agents))
    if len(agents) > bound:
        raise BoundExceeded(f"{len(agents)} agents exceeds the coloring bound {bound}")
    for mask in range(1 << (len(agents) - 1)):
        yield Bicoloring(agents, frozenset(a for i, a in enumerate(agents[1:])
                                           if mask >> i & 1))
