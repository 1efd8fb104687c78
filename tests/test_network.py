import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from officesim import ValidationError, build_small_world, contact_step
from officesim.network import EMAIL_BASE_MINUTES, SocialNetwork
from officesim.occupants import (
    AgentState,
    OccupantAgent,
    ScheduleClass,
    Stereotype,
)

from conftest import as_contact_events


def test_ring_lattice_at_beta_zero():
    net = build_small_world(10, 2, 0.0, random.Random(1))
    assert len(net.edges) == 10
    assert all(net.degree(i) == 2 for i in range(10))
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
    degrees = [net.degree(i) for i in range(n)]
    assert sum(degrees) == n * k
    assert min(degrees) >= 1


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


def test_contact_rate_zero_is_silent():
    agents = [_office_agent(i) for i in range(6)]
    net = build_small_world(6, 2, 0.0, random.Random(1))
    before = [a.awareness for a in agents]
    events = contact_step(net, agents, 0.0, 1.0, 0, random.Random(1), senders=agents)
    assert events == []
    assert [a.awareness for a in agents] == before


def test_awareness_capped_at_hundred():
    agents = [_office_agent(i, Stereotype.ENVIRONMENT_CHAMPION, 100.0)
              for i in range(6)]
    net = build_small_world(6, 2, 0.0, random.Random(1))
    rng = random.Random(2)
    for minute in range(2000):
        contact_step(net, agents, 50.0, 5.0, minute, rng, senders=agents)
    assert all(a.awareness == 100.0 for a in agents)


def test_only_office_agents_send():
    agents = [_office_agent(i) for i in range(6)]
    agents[0].state = AgentState.IN_CORRIDOR
    net = build_small_world(6, 2, 0.0, random.Random(1))
    rng = random.Random(3)
    events = []
    for minute in range(5000):
        events += as_contact_events(
            contact_step(net, agents, 100.0, 0.0, minute, rng, senders=agents)
        )
    assert events
    assert all(ev.sender_id != 0 for ev in events)


def test_emails_respect_topology():
    agents = [_office_agent(i) for i in range(12)]
    net = build_small_world(12, 4, 0.5, random.Random(4))
    rng = random.Random(5)
    events = []
    for minute in range(3000):
        events += as_contact_events(
            contact_step(net, agents, 40.0, 0.5, minute, rng, senders=agents)
        )
    assert events
    for ev in events:
        edge = (min(ev.sender_id, ev.receiver_id), max(ev.sender_id, ev.receiver_id))
        assert edge in net.edges


def test_send_rates_scale_with_stereotype():
    # one champion and one big user, both permanently at their desks
    agents = [
        _office_agent(0, Stereotype.ENVIRONMENT_CHAMPION, 97.0),
        _office_agent(1, Stereotype.BIG_USER, 10.0),
    ]
    net = build_small_world(3, 2, 0.0, random.Random(6))
    agents.append(_office_agent(2))
    rng = random.Random(7)
    minutes = 120_000
    counts = {0: 0, 1: 0}
    for minute in range(minutes):
        for ev in as_contact_events(
            contact_step(net, agents, 1.0, 0.0, minute, rng, senders=agents)
        ):
            if ev.sender_id in counts:
                counts[ev.sender_id] += 1
    for agent_id, p_email in ((0, 0.9), (1, 0.05)):
        expected = minutes * p_email / EMAIL_BASE_MINUTES
        sigma = math.sqrt(expected * (1 - p_email / EMAIL_BASE_MINUTES))
        assert abs(counts[agent_id] - expected) <= 3 * sigma


def test_receiver_awareness_increases_by_delta():
    agents = [_office_agent(i, Stereotype.ENVIRONMENT_CHAMPION, 95.0)
              for i in range(4)]
    net = build_small_world(4, 2, 0.0, random.Random(8))
    rng = random.Random(9)
    total_before = sum(a.awareness for a in agents)
    events = []
    for minute in range(200):
        events += contact_step(net, agents, 10.0, 0.25, minute, rng, senders=agents)
    gained = sum(a.awareness for a in agents) - total_before
    # every receiver started below the cap by more than the total gain
    assert gained == pytest.approx(0.25 * len(events))


@pytest.mark.parametrize("degree", range(1, 10))
def test_receiver_draw_matches_random_choice(degree):
    # Agent 0 always sends (its send probability is clamped to 1), so each
    # minute draws one random() and then one receiver among its neighbors.
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
        for minute in range(200):
            (event,) = as_contact_events(
                contact_step(net, agents, 1e6, 0.0, minute, rng, senders=agents[:1])
            )
            twin.random()
            assert event.receiver_id == twin.choice(nbrs)
        assert rng.getstate() == twin.getstate()
