"""Small-world contact graph and the email interactions that raise
energy-saving awareness.

The graph is a Watts-Strogatz construction: a ring lattice of even
degree k whose forward edges are each rewired with probability beta.
Rewiring preserves the edge count, so |E| = n*k/2 always.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

from .errors import ValidationError
from .occupants import OccupantAgent, hazard_clock, waiting_time

# An agent's p_email is interpreted as expected emails per office day of
# this many minutes (at contact_rate 1).
EMAIL_BASE_MINUTES = 480

AWARENESS_CAP = 100.0


@dataclass(frozen=True)
class SocialNetwork:
    n: int
    k: int
    beta: float
    edges: frozenset[tuple[int, int]]  # (lo, hi) pairs
    neighbors: tuple[tuple[int, ...], ...]  # sorted adjacency per node


def network_degree(n: int, k: int) -> int:
    """The degree of the network of ``n`` agents: ``k`` capped at n - 1
    and rounded down to even; 0 where that leaves no ring (fewer than
    three agents), which disables contacts."""
    k = min(k, n - 1)
    k -= k % 2
    return k if k >= 2 else 0


def ring_lattice(n: int, k: int) -> tuple[frozenset[int], ...]:
    """Each node's neighbors in the ring lattice over nodes 0..n-1, each
    joined to the ``k // 2`` nearest on either side."""
    half = k // 2
    return tuple(
        frozenset((i + j) % n for j in range(-half, half + 1) if j)
        for i in range(n)
    )


def build_small_world(
    n: int, k: int, beta: float, rng, *, lattice=None
) -> SocialNetwork:
    """Watts-Strogatz graph over nodes 0..n-1.

    Requires n > k >= 2 with k even and beta in [0, 1]. Each forward
    lattice edge (i, i+j) is rewired to a uniformly chosen non-neighbor
    with probability beta; if a node is already connected to everyone
    the edge is kept, so the edge count is exactly n*k/2 either way.

    The lattice is ``ring_lattice(n, k)``, copied before it is rewired; a
    caller holding it passes it as ``lattice``. The draws, from ``rng``:
    edge by edge, j = 1..k/2 outer and i inner, one ``random()`` per edge
    not rewired away already, and for each edge rewired ``randrange(n)``
    until it names a non-neighbor.
    """
    if k < 2 or k % 2 != 0:
        raise ValidationError(f"small-world degree k must be even and >= 2, got {k}")
    if n <= k:
        raise ValidationError(f"small-world needs n > k, got n={n}, k={k}")
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"rewiring probability must be in [0, 1], got {beta}")

    adjacency = list(map(set, ring_lattice(n, k) if lattice is None else lattice))
    random, randrange = rng.random, rng.randrange
    for j in range(1, k // 2 + 1):
        for i in range(n):
            target = (i + j) % n
            around = adjacency[i]
            if target not in around:
                continue  # already rewired away
            if random() >= beta:
                continue
            if len(around) >= n - 1:
                continue  # connected to everyone; nothing valid to rewire to
            while True:
                candidate = randrange(n)
                if candidate != i and candidate not in around:
                    break
            around.remove(target)
            adjacency[target].remove(i)
            around.add(candidate)
            adjacency[candidate].add(i)

    neighbors = tuple(map(tuple, map(sorted, adjacency)))
    edges = frozenset(
        [(i, j) for i, around in enumerate(neighbors) for j in around if i < j]
    )
    if 2 * len(edges) != n * k:
        raise RuntimeError(
            f"rewiring changed the edge count: {len(edges)} edges, "
            f"expected {n * k // 2}"
        )
    return SocialNetwork(n=n, k=k, beta=beta, edges=edges, neighbors=neighbors)


def send_hazard(p_email: float, contact_rate: float) -> float:
    """Per-minute probability that an agent in its own office sends an
    email: ``contact_rate * p_email / 480``, clamped to 1."""
    return min(1.0, p_email * (contact_rate / EMAIL_BASE_MINUTES))


def contact_step(
    network: SocialNetwork,
    sender_id: int,
    p: float,
    start: int,
    end: int,
    rng,
) -> list[tuple[int, int, int]]:
    """The emails of one office stay of ``sender_id``, who sends with
    per-minute hazard ``p`` (``send_hazard``) from its entry minute
    ``start`` up to, not including, its leave minute ``end``; returned as
    plain tuples ``(sender_id, receiver_id, minute)``, one per minute at
    most.

    Everything is drawn from the sender's own stream ``rng``, in the order
    of a clock restarted at each email: the wait to the first email
    (``waiting_time``), then per email the wait to the next one and its
    receiver, a uniform network neighbor. Awareness is the caller's: a
    receiver's rises by the awareness delta per email (``raise_awareness``).
    """
    events: list[tuple[int, int, int]] = []
    nbrs = network.neighbors[sender_id]
    if not nbrs:
        return events  # no receiver; its stream feeds nothing else
    clock = hazard_clock(p)
    minute = start + waiting_time(rng, clock)
    # rng.choice(nbrs), inlined below: the rejection loop of Random._randbelow.
    n = len(nbrs)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    append = events.append
    if p >= 1.0:
        # An email every minute, no wait drawn.
        for minute in range(minute, end):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append((sender_id, nbrs[r], minute))
        return events
    random = rng.random
    while minute < end:
        u = random()  # the next wait, 0 when U < p, decided without a log
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append((sender_id, nbrs[r], minute))
        minute += 1 if u < p else 1 + int(-log(1.0 - u) * clock)
    return events


def raise_awareness(
    agents: list[OccupantAgent], receiver_ids, awareness_delta: float
) -> None:
    """Raise each receiver's awareness by ``awareness_delta`` per email, in
    order, capped at 100; ``agents`` must be indexable by agent id."""
    cap = AWARENESS_CAP
    for receiver_id in receiver_ids:
        receiver = agents[receiver_id]
        awareness = receiver.awareness + awareness_delta
        receiver.awareness = awareness if awareness < cap else cap
