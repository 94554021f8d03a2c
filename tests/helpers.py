"""Shared helpers used across the test modules."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """A fresh import of ``tools/<name>.py`` (scripts, not a package)."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(fw, gen, max_time=60.0):
    """Run a generator to completion inside a framework's simulator."""
    return fw.sim.run(until=fw.sim.process(gen), max_time=max_time)


def chop(image: bytes, cuts):
    """``image`` as the gather a stream read in pieces hands a decoder: part
    boundaries wherever ``cuts`` fall (taken modulo its length) — inside a
    header, a primitive, the padding in front of a double, a payload."""
    from repro.simnet.buffers import Gather

    edges = [0, *sorted(cut % (len(image) + 1) for cut in cuts), len(image)]
    return Gather(image[lo:hi] for lo, hi in zip(edges, edges[1:]))


def random_topologies():
    """Hypothesis strategy of small knowledge bases: ``(kb, hosts)``.

    2–5 networks of four kinds (two of a kind weigh the same: ties), 2–6
    hosts on 1–3 of them each, attached and registered in drawn orders;
    possibly one network both its hosts know but the KB does not, one host
    left out of the KB, a middle registration removed again, and one link
    or host believed down.
    """
    from hypothesis import strategies as st

    from repro.abstraction import TopologyKB
    from repro.simnet.engine import Simulator
    from repro.simnet.host import Host
    from repro.simnet.networks import Ethernet100, LossyInternet, Myrinet2000, WanVthd

    @st.composite
    def build(draw):
        sim = Simulator()
        kinds = st.sampled_from((Ethernet100, WanVthd, Myrinet2000, LossyInternet))
        networks = [draw(kinds)(sim, f"net{i}") for i in range(draw(st.integers(2, 5)))]
        hosts = [Host(sim, f"h{i}") for i in range(draw(st.integers(2, 6)))]
        nets_of_a_host = st.lists(st.sampled_from(networks), min_size=1, max_size=3, unique=True)
        links = [(host, network) for host in hosts for network in draw(nets_of_a_host)]
        for host, network in draw(st.permutations(links)):
            network.connect(host)
        kb = TopologyKB()
        unknown = draw(st.sampled_from([None, *networks, *hosts]))
        for network in draw(st.permutations(networks)):
            if network is not unknown:
                kb.register_network(network)
        for host in draw(st.permutations(hosts)):
            if host is not unknown:
                kb.register_host(host)
        if draw(st.booleans()):
            kb.remove_network(kb.networks()[len(kb.networks()) // 2])
        down = draw(st.sampled_from([None, *networks, *hosts]))
        if down in networks:
            kb.mark_link_down(down)
        elif down is not None:
            kb.mark_host_down(down)
        return kb, hosts

    return build()
