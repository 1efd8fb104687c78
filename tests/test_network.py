import math
import random
from math import log

import pytest
from hypothesis import given, settings, strategies as st

from officesim import ValidationError, build_small_world, contact_step, run_replication
from officesim.checks import contact_count, contacts, derive_trace, roster
from officesim.network import (
    EMAIL_BASE_MINUTES,
    SocialNetwork,
    raise_awareness,
    ring_lattice,
    send_hazard,
)
from officesim.occupants import (
    NEVER,
    AgentState,
    OccupantAgent,
    ScheduleClass,
    Stereotype,
    hazard_clock,
    waiting_time,
)

from conftest import as_contact_events, make_small_scenario


def test_ring_lattice_at_beta_zero():
    net = build_small_world(10, 2, 0.0, random.Random(1))
    assert len(net.edges) == 10
    assert all(len(around) == 2 for around in net.neighbors)
    assert all((i, (i + 1) % 10) in net.edges or ((i + 1) % 10, i) in net.edges
               for i in range(10))


def test_reference_population_network_shape():
    net = build_small_world(213, 4, 0.1, random.Random(2))
    assert len(net.edges) == 213 * 4 // 2
    assert all(i != j for i, j in net.edges)


def test_full_rewiring_preserves_edge_count():
    net = build_small_world(10, 2, 1.0, random.Random(3))
    assert len(net.edges) == 10
    assert all(i != j for i, j in net.edges)
    assert len(set(net.edges)) == 10


@settings(max_examples=50)
@given(
    n=st.integers(min_value=5, max_value=60),
    half_k=st.integers(min_value=1, max_value=2),
    beta=st.floats(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_edge_count_conserved_under_any_beta(n, half_k, beta, seed):
    k = 2 * half_k
    net = build_small_world(n, k, beta, random.Random(seed))
    assert len(net.edges) == n * k // 2
    degrees = list(map(len, net.neighbors))
    assert sum(degrees) == n * k
    assert min(degrees) >= 1


def _reference_small_world(n, k, beta, rng):
    """The rewiring loop as first written (lattice built in place, unbound
    draws), kept as the reference for ``build_small_world``'s draws."""
    adjacency = [set() for _ in range(n)]
    half = k // 2
    for i in range(n):
        for j in range(1, half + 1):
            other = (i + j) % n
            adjacency[i].add(other)
            adjacency[other].add(i)
    for j in range(1, half + 1):
        for i in range(n):
            target = (i + j) % n
            if target not in adjacency[i]:
                continue
            if rng.random() >= beta:
                continue
            if len(adjacency[i]) >= n - 1:
                continue
            while True:
                candidate = rng.randrange(n)
                if candidate != i and candidate not in adjacency[i]:
                    break
            adjacency[i].remove(target)
            adjacency[target].remove(i)
            adjacency[i].add(candidate)
            adjacency[candidate].add(i)
    return tuple(tuple(sorted(adjacency[i])) for i in range(n))


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_rewiring_draws_as_the_reference(k, beta):
    # Same neighbors and the same stream state afterwards, whether the
    # lattice is built or passed in (as a scenario passes its own).
    for n in [*range(max(3, k + 1), 31), 200]:
        lattice = ring_lattice(n, k)
        for seed in range(8):
            expected_rng = random.Random(seed)
            expected = _reference_small_world(n, k, beta, expected_rng)
            for given_lattice in (None, lattice):
                rng = random.Random(seed)
                net = build_small_world(n, k, beta, rng, lattice=given_lattice)
                assert net.neighbors == expected
                assert rng.getstate() == expected_rng.getstate()
                assert net.edges == {
                    (i, j) for i in range(n) for j in expected[i] if i < j
                }
        assert lattice == ring_lattice(n, k)  # copied, never rewired in place


@pytest.mark.parametrize("n,k,beta", [(4, 4, 0.1), (10, 3, 0.1), (10, 0, 0.1),
                                      (10, 2, -0.1), (10, 2, 1.5)])
def test_parameter_validation(n, k, beta):
    with pytest.raises(ValidationError):
        build_small_world(n, k, beta, random.Random(1))


def _office_agent(agent_id, stereotype=Stereotype.REGULAR_USER, awareness=50.0):
    agent = OccupantAgent(agent_id, ScheduleClass.TIMETABLE_COMPLIER, stereotype,
                          awareness, "office")
    agent.state = AgentState.IN_OWN_OFFICE
    return agent


def _streams(n, seed):
    """One email stream per agent."""
    return [random.Random(seed * 1000 + i) for i in range(n)]


def _send(net, agents, awareness_delta, sender_id, p, start, end, rng):
    """One office stay's emails, their awareness raised at once."""
    contacts = contact_step(net, sender_id, p, start, end, rng)
    raise_awareness(agents, [receiver for _, receiver, _ in contacts], awareness_delta)
    return contacts


def _per_minute_emails(net, sender_id, p, start, end, rng):
    """The reference for ``contact_step``: the sender's email clock walked
    minute by minute over the stay [start, end). The first email waits
    ``waiting_time``; at each email the clock restarts with the next wait
    (``random()``, with a log only when U >= p, nothing when p >= 1), and
    the receiver is ``rng.choice`` among the sender's neighbors."""
    clock = hazard_clock(p)
    due = start + waiting_time(rng, clock)
    emails = []
    for minute in range(start, end):
        if minute != due:
            continue
        due = minute + 1
        if p < 1.0:
            u = rng.random()
            if u >= p:
                due += int(-log(1.0 - u) * clock)
        emails.append((sender_id, rng.choice(net.neighbors[sender_id]), minute))
    return emails


def test_contact_rate_zero_is_silent():
    assert send_hazard(0.9, 0.0) == 0.0
    assert waiting_time(random.Random(1), hazard_clock(send_hazard(0.9, 0.0))) == NEVER
    scenario = make_small_scenario(population_size=5, contact_rate=0.0)
    result = run_replication(scenario, seed=1)
    assert contact_count(result.record) == 0
    assert all(r.final_awareness == r.initial_awareness for r in roster(result.record))


def test_awareness_capped_at_hundred():
    agents = [_office_agent(i, Stereotype.ENVIRONMENT_CHAMPION, 100.0)
              for i in range(6)]
    net = build_small_world(6, 2, 0.0, random.Random(1))
    rngs = _streams(6, 2)
    for sender_id in range(6):
        _send(net, agents, 5.0, sender_id, 1.0, 0, 2000, rngs[sender_id])
    assert all(a.awareness == 100.0 for a in agents)


def test_only_office_agents_send():
    # Each sender's email clock runs only while it is in its own office:
    # every contact falls inside an office stay of its sender, replayed
    # from the events.
    scenario = make_small_scenario(population_size=5, contact_rate=100.0)
    result = run_replication(scenario, seed=3)
    office = derive_trace(result).office_stays
    emails = contacts(result.record)
    assert emails
    for sender_id, _, minute in emails:
        assert any(a <= minute < b for a, b in office.get(sender_id, ()))


def test_emails_respect_topology():
    agents = [_office_agent(i) for i in range(12)]
    net = build_small_world(12, 4, 0.5, random.Random(4))
    rngs = _streams(12, 5)
    events = []
    for sender_id in range(12):
        events += as_contact_events(
            _send(net, agents, 0.5, sender_id, 1.0, 0, 3000, rngs[sender_id])
        )
    assert events
    for ev in events:
        edge = (min(ev.sender_id, ev.receiver_id), max(ev.sender_id, ev.receiver_id))
        assert edge in net.edges


def test_send_rates_scale_with_stereotype():
    # one champion and one big user, both permanently at their desks: the
    # email clock, restarted after each email, fires p_email / 480 times
    # per minute at contact rate 1
    rng = random.Random(7)
    minutes = 120_000
    for p_email in (0.9, 0.05):
        clock = hazard_clock(send_hazard(p_email, 1.0))
        count = 0
        due = waiting_time(rng, clock)
        while due < minutes:
            count += 1
            due += 1 + waiting_time(rng, clock)
        expected = minutes * p_email / EMAIL_BASE_MINUTES
        sigma = math.sqrt(expected * (1 - p_email / EMAIL_BASE_MINUTES))
        assert abs(count - expected) <= 3 * sigma


def test_receiver_awareness_increases_by_delta():
    agents = [_office_agent(i, Stereotype.ENVIRONMENT_CHAMPION, 95.0)
              for i in range(4)]
    net = build_small_world(4, 2, 0.0, random.Random(8))
    rngs = _streams(4, 9)
    total_before = sum(a.awareness for a in agents)
    events = []
    for sender_id in range(4):
        events += _send(
            net, agents, 0.25, sender_id, 10.0 / 480, 0, 200, rngs[sender_id]
        )
    gained = sum(a.awareness for a in agents) - total_before
    # every receiver started below the cap by more than the total gain
    assert events
    assert gained == pytest.approx(0.25 * len(events))


@pytest.mark.parametrize("degree", range(1, 10))
def test_receiver_draw_matches_random_choice(degree):
    # Agent 0 sends every minute, drawing one receiver among its neighbors
    # from its own stream and nothing else.
    n = degree + 1
    agents = [_office_agent(i) for i in range(n)]
    nbrs = tuple(range(1, n))
    net = SocialNetwork(
        n=n,
        k=degree,
        beta=0.0,
        edges=frozenset((0, j) for j in nbrs),
        neighbors=(nbrs,) + ((0,),) * degree,
    )
    for seed in range(5):
        rng, twin = random.Random(seed), random.Random(seed)
        events = as_contact_events(_send(net, agents, 0.0, 0, 1.0, 0, 200, rng))
        assert [event.minute for event in events] == list(range(200))
        for event in events:
            assert event.receiver_id == twin.choice(nbrs)
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("degree", range(1, 10))
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.02, 0.3, 0.9, 1.0, 4.2])
def test_stay_draw_matches_per_minute_clock(degree, p):
    # The whole stay drawn at once gives the same emails as the per-minute
    # clock and leaves the sender's stream in the same state; p 0 and 1e-9
    # never fire in these stays.
    n = degree + 1
    nbrs = tuple(range(1, n))
    net = SocialNetwork(
        n=n,
        k=degree,
        beta=0.0,
        edges=frozenset((0, j) for j in nbrs),
        neighbors=(nbrs,) + ((0,),) * degree,
    )
    for seed in range(4):
        rng, twin = random.Random(seed), random.Random(seed)
        for start, end in ((0, 300), (301, 301), (302, 310), (500, 1700)):
            stay = contact_step(net, 0, p, start, end, rng)
            assert stay == _per_minute_emails(net, 0, p, start, end, twin)
            assert rng.getstate() == twin.getstate()
            if p < 1e-6:
                assert stay == []
