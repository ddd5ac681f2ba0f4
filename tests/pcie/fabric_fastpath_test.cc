/**
 * @file
 * Differential tests for the fabric's analytic transit walk: the same
 * scripted traffic is driven through a Fabric and through the per-hop
 * event model (ReferenceFabric, the oracle), and every observable —
 * delivery ticks, delivery-callback order, fabric-wide stats, per-link
 * stats — must match exactly.
 *
 * Plus regression tests for the send() edge cases (self-send,
 * unreachable destination).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "pcie/afa_topology.hh"
#include "pcie/fabric.hh"
#include "pcie/link.hh"
#include "reference_fabric.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace afa::pcie;
using afa::pcie::testing::ReferenceFabric;
using afa::sim::Rng;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::sim::usec;

namespace {

/** One scripted packet of the differential workload. */
struct SendOp
{
    Tick when;
    NodeId src;
    NodeId dst;
    std::uint32_t bytes;
    /** Ship the send like a device completion: post it one minimum
     *  propagation later in the source's ordering band, entering at
     *  `when`. */
    bool shipped = false;
};

/** What a replay observed: per-op delivery ticks, callback order. */
struct Observed
{
    std::vector<Tick> ticks;
    std::vector<std::size_t> order;
};

/**
 * Replay @p ops against @p fabric (a Fabric or the ReferenceFabric;
 * @p topo supplies the delivery bands) and record every delivery.
 */
template <typename F>
Observed
replay(Simulator &sim, F &fabric, const Fabric &topo,
       const std::vector<SendOp> &ops)
{
    Observed seen;
    seen.ticks.assign(ops.size(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const SendOp op = ops[i];
        auto deliver = [&sim, &seen, i] {
            seen.ticks[i] = sim.now();
            seen.order.push_back(i);
        };
        if (!op.shipped) {
            sim.scheduleAt(op.when, [&fabric, op, deliver] {
                fabric.send(op.src, op.dst, op.bytes, deliver);
            });
            continue;
        }
        sim.scheduleAt(
            op.when + topo.minPropagation().count(),
            [&fabric, op, deliver] {
                if constexpr (std::is_same_v<F, Fabric>)
                    fabric.sendSpannedAt(op.when, op.src, op.dst,
                                         op.bytes, 0, 0,
                                         afa::obs::Stage::FabricComplete,
                                         deliver);
                else
                    fabric.sendAt(op.when, op.src, op.dst, op.bytes,
                                  deliver);
            },
            topo.deliveryOrder(op.src), /*internal=*/true);
    }
    sim.run();
    return seen;
}

/** Assert the walk and the oracle observed identical traffic. */
void
expectSameObservables(const Fabric &fast, const ReferenceFabric &ref)
{
    EXPECT_EQ(fast.stats().packets, ref.stats().packets);
    EXPECT_EQ(fast.stats().bytes, ref.stats().bytes);
    EXPECT_EQ(fast.stats().totalQueueDelay, ref.stats().totalQueueDelay);
    EXPECT_EQ(fast.stats().linkReplays, ref.stats().linkReplays);
    ASSERT_EQ(fast.linkCount(), ref.linkCount());
    for (std::size_t i = 0; i < fast.linkCount(); ++i) {
        const Link &a = fast.linkAt(i);
        const Link &b = ref.linkAt(i);
        EXPECT_EQ(a.bytesCarried(), b.bytesCarried()) << a.name();
        EXPECT_EQ(a.transfers(), b.transfers()) << a.name();
        EXPECT_EQ(a.busyTime(), b.busyTime()) << a.name();
        EXPECT_EQ(a.queueDelay(), b.queueDelay()) << a.name();
        EXPECT_EQ(a.busyUntil(), b.busyUntil()) << a.name();
    }
}

void
expectSameDeliveries(const Observed &fast, const Observed &ref)
{
    ASSERT_EQ(fast.ticks.size(), ref.ticks.size());
    for (std::size_t i = 0; i < fast.ticks.size(); ++i)
        EXPECT_EQ(fast.ticks[i], ref.ticks[i]) << "packet " << i;
    EXPECT_EQ(fast.order, ref.order);
}

/**
 * A Fabric under test plus its oracle, over two identically built
 * topologies (node ids coincide).
 */
struct Pair
{
    Simulator fastSim{1}, refSim{1};
    Fabric fast{fastSim, "fast"};
    Fabric topo{refSim, "topo"};
    std::unique_ptr<ReferenceFabric> ref;

    template <typename Build>
    explicit Pair(Build build)
    {
        build(fast);
        build(topo);
        ref = std::make_unique<ReferenceFabric>(refSim, topo);
    }

    /** Replay @p ops through both; returns what the walk saw. */
    Observed
    check(const std::vector<SendOp> &ops)
    {
        Observed seen = replay(fastSim, fast, fast, ops);
        expectSameDeliveries(seen, replay(refSim, *ref, topo, ops));
        expectSameObservables(fast, *ref);
        return seen;
    }
};

class FabricFastPathTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

/** Random host<->SSD traffic over an AFA tree of @p ssds devices. */
std::vector<SendOp>
afaTraffic(const AfaTopology &topo, unsigned ssds, std::uint64_t seed,
           int bursts)
{
    Rng rng(seed);
    std::vector<SendOp> ops;
    Tick when = 0;
    for (int burst = 0; burst < bursts; ++burst) {
        // Alternate dense bursts (heavy uplink contention) with
        // spaced-out singletons (uncontended transits).
        bool dense = rng.uniformInt(0, 1) == 0;
        unsigned count = dense
            ? static_cast<unsigned>(rng.uniformInt(4, 12)) : 1;
        when += dense ? rng.uniformInt(0, 500)
                      : usec(5) + rng.uniformInt(0, 2000);
        for (unsigned p = 0; p < count; ++p) {
            unsigned dev = static_cast<unsigned>(
                rng.uniformInt(0, ssds - 1));
            bool up = rng.uniformInt(0, 2) != 0; // mostly data returns
            if (up)
                ops.push_back(SendOp{when, topo.ssds[dev], topo.host,
                                     4096 + 16});
            else
                ops.push_back(SendOp{when, topo.host, topo.ssds[dev], 64});
        }
    }
    return ops;
}

TEST_F(FabricFastPathTest, AfaTopologyRandomTrafficMatchesReference)
{
    // Host<->SSD traffic over the paper's two-level switch tree:
    // bursts force queueing on the shared carrier/leaf/root links,
    // quiet gaps keep a large uncontended share.
    AfaTopologyParams params;
    params.ssds = 16;
    AfaTopology topo;
    Pair pair([&](Fabric &f) { topo = buildAfaTopology(f, params); });
    pair.check(afaTraffic(topo, params.ssds, 1234, 200));

    // Every packet is walked once, contended or not.
    const FabricStats &fs = pair.fast.stats();
    EXPECT_GE(static_cast<double>(fs.fastPathPackets),
              0.95 * static_cast<double>(fs.packets));
    // Contention must actually have occurred, or the equivalence
    // check proves nothing about queue-delay accounting.
    EXPECT_GT(fs.totalQueueDelay, 0u);
}

TEST_F(FabricFastPathTest, ShippedSameTickBurstsOn64SsdsMatchReference)
{
    // The shape of the real system: 64 SSDs, endpoints in their own
    // delivery bands, completions shipped one minimum propagation
    // after their backdated entry, and bursts where many devices
    // complete in the same tick, so packets tie at the shared uplinks
    // and the service order falls back to endpoint order.
    AfaTopologyParams params;
    params.ssds = 64;
    AfaTopology topo;
    auto build = [&](Fabric &f) {
        topo = buildAfaTopology(f, params);
        for (NodeId ssd : topo.ssds)
            f.markEndpoint(ssd);
    };
    Pair pair(build);

    Rng rng(64);
    std::vector<SendOp> ops;
    Tick when = 0;
    for (int burst = 0; burst < 150; ++burst) {
        when += rng.uniformInt(0, 3) == 0 ? usec(4) : rng.uniformInt(0, 700);
        const unsigned count = static_cast<unsigned>(rng.uniformInt(1, 24));
        for (unsigned p = 0; p < count; ++p) {
            const NodeId ssd = topo.ssds[rng.uniformInt(0, 63)];
            if (rng.uniformInt(0, 3) == 0)
                ops.push_back(SendOp{when, topo.host, ssd, 64});
            else
                ops.push_back(SendOp{when, ssd, topo.host,
                                     rng.uniformInt(0, 1) ? 4112u : 16u,
                                     /*shipped=*/true});
        }
    }
    pair.check(ops);
    EXPECT_EQ(pair.fast.stats().fastPathPackets, pair.fast.stats().packets);
    EXPECT_GT(pair.fast.stats().totalQueueDelay, 0u);
}

TEST_F(FabricFastPathTest, DeepLineTopologyBackToBackMatchesReference)
{
    // A 5-hop line a - s1 - s2 - s3 - s4 - b with back-to-back sends:
    // every packet after the first queues at hop 0 or deeper.
    std::vector<NodeId> nodes;
    Pair pair([&](Fabric &f) {
        nodes.clear();
        nodes.push_back(f.addEndpoint("a"));
        for (int s = 1; s <= 4; ++s)
            nodes.push_back(
                f.addSwitch("s" + std::to_string(s), 150 * s));
        nodes.push_back(f.addEndpoint("b"));
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
            f.connect(nodes[i], nodes[i + 1],
                      LinkParams{static_cast<unsigned>(1 + i % 4),
                                 Gen::Gen3, 40 + 10 * i});
        f.finalize();
    });

    Rng rng(99);
    std::vector<SendOp> ops;
    Tick when = 0;
    for (int i = 0; i < 300; ++i) {
        when += rng.uniformInt(0, 900);
        ops.push_back(SendOp{when, nodes.front(), nodes.back(),
                             static_cast<std::uint32_t>(
                                 rng.uniformInt(64, 8192))});
    }
    pair.check(ops);
    EXPECT_GT(pair.fast.stats().totalQueueDelay, 0u);
}

/**
 * The displacement repro: a - s1 - s2 - b plus c - s2. Source a is
 * two hops from the shared directed link s2->b while c is one hop
 * away, so a packet from c sent *after* one from a reaches the shared
 * link *earlier* — the per-hop model serves c first, so a's walked
 * reservation must be revoked and a walked again.
 */
struct UnequalPrefixTopo
{
    NodeId a, b, c, s1, s2;
};

UnequalPrefixTopo
buildUnequalPrefixTopo(Fabric &f)
{
    UnequalPrefixTopo t;
    t.a = f.addEndpoint("a");
    t.b = f.addEndpoint("b");
    t.c = f.addEndpoint("c");
    t.s1 = f.addSwitch("s1", 300);
    t.s2 = f.addSwitch("s2", 300);
    f.connect(t.a, t.s1, LinkParams{4, Gen::Gen3, 100});
    f.connect(t.s1, t.s2, LinkParams{4, Gen::Gen3, 100});
    f.connect(t.s2, t.b, LinkParams{4, Gen::Gen3, 100});
    f.connect(t.c, t.s2, LinkParams{4, Gen::Gen3, 100});
    f.finalize();
    return t;
}

TEST_F(FabricFastPathTest, EarlierEntrantDisplacesFastPathReservation)
{
    // a->b is sent first and reserves s2->b at a future entry tick;
    // c->b is sent later but reaches s2->b first, and its
    // serialization runs past a's reserved start, so a's delivery
    // must be pushed back — exactly as the per-hop model computes it.
    UnequalPrefixTopo t;
    Pair pair([&](Fabric &f) { t = buildUnequalPrefixTopo(f); });
    const std::vector<SendOp> ops{
        SendOp{0, t.a, t.b, 4096},
        SendOp{101, t.c, t.b, 8192},
    };
    const Observed seen = pair.check(ops);
    EXPECT_LT(seen.ticks[1], seen.ticks[0]);
    // c (sent later) is delivered first, a queued behind it, and a's
    // reservation was revoked and walked again — still one walk per
    // packet from the caller's point of view.
    EXPECT_GT(pair.fast.stats().totalQueueDelay, 0u);
    EXPECT_EQ(pair.fast.stats().fastPathPackets, 2u);
    EXPECT_EQ(pair.fast.stats().displacements, 1u);
}

/** Random mixed-size traffic between the unequal-prefix endpoints. */
std::vector<SendOp>
unequalPrefixTraffic(const UnequalPrefixTopo &t, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SendOp> ops;
    const NodeId eps[3] = {t.a, t.b, t.c};
    Tick when = 0;
    for (int i = 0; i < 400; ++i) {
        when += rng.uniformInt(0, 2500);
        NodeId src = eps[rng.uniformInt(0, 2)];
        NodeId dst = eps[rng.uniformInt(0, 2)];
        if (src == dst)
            dst = eps[(rng.uniformInt(0, 2) + 1) % 3];
        if (src == dst)
            continue;
        ops.push_back(SendOp{when, src, dst,
                             static_cast<std::uint32_t>(
                                 rng.uniformInt(64, 8192))});
    }
    return ops;
}

TEST_F(FabricFastPathTest, UnequalPrefixRandomTrafficMatchesReference)
{
    // Randomized mixed-size bidirectional traffic over the asymmetric
    // topology: sources at unequal distances keep racing for the
    // shared s2->b and s2->s1 links, so reservations are repeatedly
    // revoked (including cascades where a revoked packet's own
    // reservations had traffic queued behind them).
    UnequalPrefixTopo t;
    Pair pair([&](Fabric &f) { t = buildUnequalPrefixTopo(f); });
    pair.check(unequalPrefixTraffic(t, 4242));
    EXPECT_GT(pair.fast.stats().displacements, 0u);
    EXPECT_GT(pair.fast.stats().totalQueueDelay, 0u);
}

/**
 * Arm @p rate on @p endpoint over [on, off) in both fabrics of
 * @p pair, as plain events scheduled before the run (like the
 * FaultEngine's link_error windows).
 */
void
faultWindow(Pair &pair, NodeId endpoint, double rate, Tick on, Tick off)
{
    pair.fastSim.scheduleAt(on, [&pair, endpoint, rate] {
        pair.fast.setEndpointFault(endpoint, rate);
    });
    pair.fastSim.scheduleAt(off, [&pair, endpoint] {
        pair.fast.clearEndpointFault(endpoint);
    });
    pair.refSim.scheduleAt(on, [&pair, endpoint, rate] {
        pair.ref->setEndpointFault(endpoint, rate);
    });
    pair.refSim.scheduleAt(off, [&pair, endpoint] {
        pair.ref->setEndpointFault(endpoint, 0.0);
    });
}

TEST_F(FabricFastPathTest, UnequalPrefixLinkFaultsMatchReference)
{
    // Replays are drawn during the walk in each link's service order.
    // With the shared s2->b link faulted, revoked reservations must
    // rewind its replay stream before they are walked again, and
    // arming or clearing the fault re-walks what it covers.
    UnequalPrefixTopo t;
    Pair pair([&](Fabric &f) { t = buildUnequalPrefixTopo(f); });
    Rng fast_rng(11), ref_rng(11);
    pair.fast.setFaultRng(&fast_rng);
    pair.ref->setFaultRng(&ref_rng);
    const std::vector<SendOp> ops = unequalPrefixTraffic(t, 99);
    const Tick span = ops.back().when;
    faultWindow(pair, t.b, 0.3, span / 10, span / 2);
    faultWindow(pair, t.b, 0.15, span / 2 + 1000, span);
    faultWindow(pair, t.a, 0.25, span / 4, 3 * span / 4);
    pair.check(ops);
    EXPECT_GT(pair.fast.stats().linkReplays, 0u);
    EXPECT_GT(pair.fast.stats().displacements, 0u);
}

TEST_F(FabricFastPathTest, AfaLinkFaultReplaysMatchReference)
{
    // Faults on a few SSDs' links come and go during contended AFA
    // traffic; arming or clearing one re-walks the reservations it
    // covers under the new rate.
    AfaTopologyParams params;
    params.ssds = 16;
    AfaTopology topo;
    Pair pair([&](Fabric &f) { topo = buildAfaTopology(f, params); });
    Rng fast_rng(7), ref_rng(7);
    pair.fast.setFaultRng(&fast_rng);
    pair.ref->setFaultRng(&ref_rng);
    const std::vector<SendOp> ops = afaTraffic(topo, params.ssds, 77, 300);
    const Tick span = ops.back().when;
    for (unsigned d : {1u, 5u, 6u, 12u})
        faultWindow(pair, topo.ssds[d], 0.2 + 0.01 * d, span * d / 20,
                    span * d / 20 + span / 3);
    pair.check(ops);
    EXPECT_GT(pair.fast.stats().linkReplays, 0u);
}

TEST_F(FabricFastPathTest, SameTickDeliveryCascadeMatchesReference)
{
    // Two equal-latency disjoint first legs (a->b and c->d) deliver
    // at the same tick; each delivery callback immediately issues a
    // follow-on send into a shared uplink (b->sw->e, d->sw->e). The
    // follow-ons' FIFO slots on sw->e are decided by same-tick
    // callback order, so this pins that order through the cascade.
    auto build = [](Fabric &f) {
        NodeId a = f.addEndpoint("a");
        NodeId b = f.addEndpoint("b");
        NodeId c = f.addEndpoint("c");
        NodeId d = f.addEndpoint("d");
        NodeId e = f.addEndpoint("e");
        NodeId sw = f.addSwitch("sw", 300);
        f.connect(a, b, LinkParams{4, Gen::Gen3, 100});
        f.connect(c, d, LinkParams{4, Gen::Gen3, 100});
        f.connect(b, sw, LinkParams{4, Gen::Gen3, 100});
        f.connect(d, sw, LinkParams{4, Gen::Gen3, 100});
        f.connect(sw, e, LinkParams{16, Gen::Gen3, 100});
        f.finalize();
    };
    auto run = [](Simulator &sim, auto &f, std::vector<Tick> &ticks) {
        const NodeId a = 0, b = 1, c = 2, d = 3, e = 4;
        ticks.assign(4, 0);
        f.send(a, b, 64, [&sim, &f, &ticks, b, e] {
            ticks[0] = sim.now();
            f.send(b, e, 4096, [&sim, &ticks] { ticks[2] = sim.now(); });
        });
        f.send(c, d, 64, [&sim, &f, &ticks, d, e] {
            ticks[1] = sim.now();
            f.send(d, e, 4096, [&sim, &ticks] { ticks[3] = sim.now(); });
        });
        sim.run();
    };
    Pair pair(build);
    std::vector<Tick> fast_ticks, ref_ticks;
    run(pair.fastSim, pair.fast, fast_ticks);
    run(pair.refSim, *pair.ref, ref_ticks);
    EXPECT_EQ(fast_ticks, ref_ticks);
    // The first legs really did deliver at the same tick, and the
    // follow-ons really did contend: their gap is the shared uplink
    // serialization.
    EXPECT_EQ(fast_ticks[0], fast_ticks[1]);
    EXPECT_GT(fast_ticks[3], fast_ticks[2]);
    expectSameObservables(pair.fast, *pair.ref);
}

TEST_F(FabricFastPathTest, MidPathContentionQueuesAtSharedUplink)
{
    // Two devices with private first links funnel into one shared
    // uplink. Simultaneous sends are both uncontended at hop 0 and
    // tie at the shared link: the second queues there, and the
    // delivery gap equals the uplink serialization — the same
    // contract FabricTest.SharedUplinkContentionDelaysSecondFlow pins.
    Simulator sim(1);
    Fabric f(sim, "f");
    NodeId host = f.addEndpoint("host");
    NodeId sw = f.addSwitch("sw", 300);
    NodeId d0 = f.addEndpoint("d0");
    NodeId d1 = f.addEndpoint("d1");
    f.connect(host, sw, LinkParams{16, Gen::Gen3, 100});
    f.connect(sw, d0, LinkParams{4, Gen::Gen3, 100});
    f.connect(sw, d1, LinkParams{4, Gen::Gen3, 100});
    f.finalize();
    std::vector<Tick> arrivals;
    f.send(d0, host, 4096, [&] { arrivals.push_back(sim.now()); });
    f.send(d1, host, 4096, [&] { arrivals.push_back(sim.now()); });
    std::uint64_t events = sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    const Link *up = f.linkBetween(sw, host);
    EXPECT_EQ(arrivals[1] - arrivals[0],
              up->serialization(afa::sim::Bytes{4096}));
    EXPECT_EQ(f.stats().fastPathPackets, 2u);
    EXPECT_EQ(f.stats().displacements, 0u);
    EXPECT_GT(f.stats().totalQueueDelay, 0u);
    EXPECT_EQ(events, 2u);
}

TEST_F(FabricFastPathTest, UncontendedSendMatchesUnloadedLatency)
{
    Simulator sim(1);
    Fabric f(sim, "f");
    auto topo = buildAfaTopology(f, AfaTopologyParams{});
    Tick delivered = 0;
    f.send(topo.ssds[5], topo.host, 4096, [&] { delivered = sim.now(); });
    std::uint64_t events = sim.run();
    EXPECT_EQ(delivered, f.unloadedLatency(topo.ssds[5], topo.host, 4096));
    // The whole 4-hop transfer must cost exactly one delivery event.
    EXPECT_EQ(events, 1u);
    EXPECT_EQ(f.stats().fastPathPackets, 1u);
    EXPECT_EQ(f.stats().totalQueueDelay, 0u);
}

TEST_F(FabricFastPathTest, SelfSendDeliversAtCurrentTick)
{
    Simulator sim(1);
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    f.connect(a, b, LinkParams{4, Gen::Gen3, 100});
    f.finalize();
    Tick delivered = afa::sim::kMaxTick;
    sim.scheduleAt(usec(3), [&] {
        f.send(a, a, 64, [&] { delivered = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(delivered, usec(3));
    EXPECT_EQ(f.stats().packets, 1u);
    EXPECT_EQ(f.stats().fastPathPackets, 0u);
}

TEST_F(FabricFastPathTest, UnreachableDestinationIsFatal)
{
    Simulator sim(1);
    Fabric f(sim, "f");
    NodeId a = f.addEndpoint("a");
    NodeId b = f.addEndpoint("b");
    NodeId island = f.addEndpoint("island");
    f.connect(a, b, LinkParams{4, Gen::Gen3, 100});
    f.finalize();
    EXPECT_THROW(f.send(a, island, 64, [] {}), afa::sim::SimError);
    EXPECT_THROW(f.unloadedLatency(a, island, 64), afa::sim::SimError);
    EXPECT_EQ(f.hopCount(a, island), 0u);
    EXPECT_TRUE(f.route(a, island).empty());
}

} // namespace
