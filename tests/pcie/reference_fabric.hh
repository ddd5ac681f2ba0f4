/**
 * @file
 * The per-hop event model of fabric transit, kept as the differential
 * oracle for Fabric's analytic walk.
 *
 * Each hop is one event: when it fires, the packet enters the link at
 * the current tick, queues FIFO behind the busy horizon, draws its
 * fault replays, and schedules the next hop at arrival + forwarding
 * latency (or its delivery, on the last hop). Link service order is
 * therefore the order hop events fire — the order the analytic walk
 * must reproduce. Routes, link parameters and delivery ordering bands
 * come from a finalized Fabric used only as a topology description;
 * the oracle owns its own copies of the links.
 */

#ifndef AFA_TESTS_PCIE_REFERENCE_FABRIC_HH
#define AFA_TESTS_PCIE_REFERENCE_FABRIC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "pcie/fabric.hh"
#include "pcie/link.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace afa::pcie::testing {

class ReferenceFabric
{
  public:
    /** @p topology must be finalized and must carry no traffic. */
    ReferenceFabric(afa::sim::Simulator &simulator,
                    const Fabric &topology)
        : sim(simulator), topo(topology),
          faultRate(topology.linkCount(), 0.0),
          faultStream(topology.linkCount())
    {
        for (std::size_t i = 0; i < topology.linkCount(); ++i)
            links.push_back(topology.linkAt(i));
    }

    void
    send(NodeId src, NodeId dst, std::uint32_t bytes,
         afa::sim::EventFn on_delivered)
    {
        sendAt(sim.now(), src, dst, bytes, std::move(on_delivered));
    }

    /** A send entering its first link at @p enter <= now (the shape
     *  of a shipped device send). */
    void
    sendAt(Tick enter, NodeId src, NodeId dst, std::uint32_t bytes,
           afa::sim::EventFn on_delivered)
    {
        ++fabricStats.packets;
        fabricStats.bytes += bytes;
        if (src == dst) {
            sim.scheduleAfter(0, std::move(on_delivered));
            return;
        }
        hop(topo.route(src, dst), 0, dst, bytes, std::move(on_delivered),
            enter);
    }

    /** Fabric::setFaultRng() counterpart. */
    void setFaultRng(afa::sim::Rng *rng) { faultRng = rng; }

    /** Fabric::setEndpointFault() counterpart. */
    void
    setEndpointFault(NodeId endpoint, double rate)
    {
        for (std::size_t i = 0; i < links.size(); ++i) {
            for (NodeId n = 0; n < topo.nodes(); ++n) {
                if (&topo.linkAt(i) == topo.linkBetween(endpoint, n) ||
                    &topo.linkAt(i) == topo.linkBetween(n, endpoint))
                    setLinkFaultRate(i, rate);
            }
        }
    }

    const FabricStats &stats() const { return fabricStats; }
    const Link &linkAt(std::size_t index) const { return links[index]; }
    std::size_t linkCount() const { return links.size(); }

  private:
    void
    setLinkFaultRate(std::size_t link, double rate)
    {
        if (faultRate[link] == 0.0 && rate > 0.0)
            faultStream[link] =
                faultRng->fork(static_cast<std::uint64_t>(link));
        faultRate[link] = rate;
    }

    void
    hop(std::span<const PathHop> path, std::size_t i, NodeId dst,
        std::uint32_t bytes, afa::sim::EventFn cb, Tick enter)
    {
        const PathHop &ph = path[i];
        Link &link = links[ph.link];
        const afa::sim::Bytes size{bytes};
        Tick arrive = link.transfer(enter, size);
        fabricStats.totalQueueDelay += (arrive - enter) -
            link.serialization(size) - link.params().propagation;
        if (faultRate[ph.link] > 0.0) {
            unsigned replays = 0;
            while (replays < 16 &&
                   faultStream[ph.link].chance(faultRate[ph.link])) {
                arrive = link.transfer(arrive, size);
                ++replays;
            }
            fabricStats.linkReplays += replays;
        }
        if (i + 1 == path.size()) {
            const std::uint32_t ord = topo.deliveryOrder(dst);
            if (ord == 0)
                sim.scheduleAt(arrive, std::move(cb));
            else
                sim.scheduleOnShard(topo.nodeShardOf(dst), arrive,
                                    std::move(cb), false, ord);
            return;
        }
        sim.scheduleAt(arrive + ph.forwardAfter,
                       [this, path, i, dst, bytes,
                        cb = std::move(cb)]() mutable {
                           hop(path, i + 1, dst, bytes, std::move(cb),
                               sim.now());
                       });
    }

    afa::sim::Simulator &sim;
    const Fabric &topo;
    std::vector<Link> links;
    std::vector<double> faultRate;
    std::vector<afa::sim::Rng> faultStream;
    afa::sim::Rng *faultRng = nullptr;
    FabricStats fabricStats;
};

} // namespace afa::pcie::testing

#endif // AFA_TESTS_PCIE_REFERENCE_FABRIC_HH
