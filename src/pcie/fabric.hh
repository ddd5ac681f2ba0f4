/**
 * @file
 * The PCIe switch fabric: nodes (endpoints and store-and-forward
 * switches) joined by Links, with shortest-path routing.
 *
 * finalize() precompiles, per (src, dst), the full hop sequence as
 * packed link-index + forward-latency records. send() then computes
 * the whole transit analytically: every link is a FIFO server, so a
 * packet's entry at each hop is max(arrival, busy horizon), and one
 * pass over the route advances every busy horizon and schedules a
 * single delivery event at the computed arrival tick.
 *
 * Walking ahead is exact only if each link serves packets in the
 * order the per-hop event model would: by the tick a packet reaches
 * the link, ties broken by the order its hop event was scheduled
 * (the previous hop's tick and order, recursively back to the send).
 * A later send can reach a shared link ahead of packets walked
 * earlier, so every occupancy past a route's first hop is recorded as
 * a revocable reservation. An entrant that precedes a reservation in
 * service order revokes it and everything queued behind it (and the
 * owners' downstream hops), and the revoked packets are walked again,
 * analytically, in service order. See DESIGN.md "Events-per-IO
 * budget" for the full contract; tests/pcie holds the per-hop event
 * model as the differential oracle.
 */

#ifndef AFA_PCIE_FABRIC_HH
#define AFA_PCIE_FABRIC_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "pcie/link.hh"
#include "sim/sim_object.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::pcie {

/** Identifies a fabric node (endpoint or switch). */
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = 0xffffffffu;

/** Fabric-wide traffic statistics. */
struct FabricStats
{
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    Tick totalQueueDelay = 0;
    /** Packets delivered by one analytic walk and a single delivery
     *  event: every packet with a route (self-sends count as
     *  packets only). Invariant across --shards: every walk executes
     *  on the fabric's shard at the same tick in the same canonical
     *  order at any shard count (endpoint sends are shipped one
     *  lookahead after their backdated entry in serial runs too). */
    std::uint64_t fastPathPackets = 0;
    /** Reservations revoked because an earlier entrant in link
     *  service order (or a link-fault rate change) arrived after they
     *  were walked, cascades included. Each revoked hop is walked
     *  again; the count measures that rework, not a model effect. */
    std::uint64_t displacements = 0;
    /** Transfers repeated because an injected link fault corrupted
     *  them (each replay re-serialises the full payload). */
    std::uint64_t linkReplays = 0;
};

/** One precompiled hop of a (src, dst) route. */
struct PathHop
{
    std::uint32_t link;  ///< index into the fabric's links
    NodeId to;           ///< node at the far end of the link
    Tick forwardAfter;   ///< store-and-forward latency charged after
                         ///< this hop (0 on the final hop)
};

/**
 * A tree/mesh of PCIe switches and endpoints.
 *
 * Build with addEndpoint()/addSwitch()/connect(), then finalize()
 * (computes routes), then send().
 */
class Fabric : public afa::sim::SimObject
{
  public:
    Fabric(afa::sim::Simulator &simulator, std::string fabric_name);

    /** Add a leaf device (host root complex or SSD endpoint). */
    NodeId addEndpoint(const std::string &node_name);

    /**
     * Add a store-and-forward switch with the given per-packet
     * forwarding latency.
     */
    NodeId addSwitch(const std::string &node_name, Tick forward_latency);

    /**
     * Join two nodes with a bidirectional link (one Link object per
     * direction, so each direction serialises independently, like the
     * separate TX/RX lanes of real PCIe).
     */
    void connect(NodeId a, NodeId b, const LinkParams &params);

    /** Compute routing tables. Must be called before send(). */
    void finalize();

    /** True once finalize() has run. */
    bool finalized() const { return isFinalized; }

    /**
     * Send @p bytes from @p src to @p dst; @p on_delivered fires when
     * the last byte has arrived at @p dst.
     */
    void send(NodeId src, NodeId dst, std::uint32_t bytes,
              afa::sim::EventFn on_delivered);

    /**
     * send() that also records an obs transit span [send, deliver]
     * for IO @p io on @p track, committed when the packet is
     * delivered (so a revoked and re-walked packet records its true
     * delivery tick). No-op wrapper around send() when the span log is
     * absent, the pcie category is disabled, or @p io is 0.
     */
    void sendSpanned(NodeId src, NodeId dst, std::uint32_t bytes,
                     std::uint64_t io, std::uint16_t track,
                     afa::obs::Stage stage,
                     afa::sim::EventFn on_delivered);

    /**
     * sendSpanned() with an explicit entry tick @p enter <= now().
     *
     * Sharded execution ships a device's outbound send to the
     * fabric's shard with one lookahead window of delay; this entry
     * point lets the shipped send compute link entry, queueing, and
     * arrival from the tick the device issued it, so every horizon
     * mutation and delivery tick is bit-identical to the serial
     * schedule. Safe because (a) endpoint edge links carry no
     * through-traffic and no reservations ever cover a route's first
     * hop, so nothing can have touched the link in (enter, now()],
     * and (b) every computed event time is >= enter + propagation >=
     * now(), so nothing schedules into the past. The send still takes
     * its service position on later links from now(), the tick the
     * walk executes, exactly as a shipped per-hop send would.
     */
    void sendSpannedAt(Tick enter, NodeId src, NodeId dst,
                       std::uint32_t bytes, std::uint64_t io,
                       std::uint16_t track, afa::obs::Stage stage,
                       afa::sim::EventFn on_delivered);

    /**
     * Declare that @p node's SimObjects execute on @p shard (default
     * 0, the fabric's own shard). Final delivery callbacks for a
     * remote node are posted through the simulator's inter-shard
     * mailbox; all fabric state stays on the fabric's shard.
     */
    void setNodeShard(NodeId node, unsigned shard);

    /** Shard a node's delivery callbacks execute on. */
    unsigned
    nodeShardOf(NodeId node) const
    {
        return node < nodeShardMap.size() ? nodeShardMap[node] : 0;
    }

    /**
     * Declare @p node an endpoint whose deliveries (and outbound
     * ships) use the canonical same-tick ordering band 2 + node (see
     * Simulator::scheduleOnShard()). The system model marks every SSD
     * endpoint — in serial runs too, so the same-tick order of
     * deliveries is the same deterministic function of the model at
     * any shard count. The host stays unmarked: host-bound deliveries
     * are always fabric-local and keep plain FIFO order.
     */
    void markEndpoint(NodeId node);

    /** The delivery ordering band of @p node (0 = plain FIFO). */
    std::uint32_t
    deliveryOrder(NodeId node) const
    {
        return node < nodeOrder.size() ? nodeOrder[node] : 0;
    }

    /**
     * Minimum propagation delay over all links (0 with no links) —
     * the conservative lookahead horizon for sharded execution: no
     * cross-fabric effect travels faster than one link flight.
     */
    afa::sim::TickDelta minPropagation() const;

    /** Attach (or detach, with nullptr) the span log. */
    void setSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

    /**
     * Estimated unloaded delivery latency (no queueing) for planning
     * and tests.
     */
    Tick unloadedLatency(NodeId src, NodeId dst,
                         std::uint32_t bytes) const;

    /** Number of link hops between two nodes. */
    unsigned hopCount(NodeId src, NodeId dst) const;

    /** The precompiled hop sequence from @p src to @p dst (empty for
     *  a self-route or an unreachable destination). */
    std::span<const PathHop> route(NodeId src, NodeId dst) const;

    /** Node count. */
    std::size_t nodes() const { return nodeInfo.size(); }

    /** Directed link between adjacent nodes (for stats); null if none. */
    const Link *linkBetween(NodeId from, NodeId to) const;

    /** Number of directed links (two per connect()). */
    std::size_t linkCount() const { return links.size(); }

    /** Directed link by construction index (for stats iteration). */
    const Link &linkAt(std::size_t index) const { return links[index]; }

    /** Fabric-wide stats. */
    const FabricStats &stats() const { return fabricStats; }

    /**
     * The random stream link-fault replay coin flips derive from.
     * Must be set before any endpoint fault activates; the
     * FaultEngine passes its own plan-seeded stream so faulted runs
     * replay identically at any --jobs (detlint: fault-rng). Each
     * faulted link forks a private child stream by link index when it
     * is armed, so the flip a packet sees depends only on its link
     * and its position in that link's service order — never on how
     * walks interleave across links, which shifts with --shards.
     */
    void setFaultRng(afa::sim::Rng *rng) { faultRng = rng; }

    /**
     * Inject (rate > 0) or clear (rate == 0) a transient error rate on
     * every directed link adjacent to @p endpoint: each transfer on a
     * faulted link is independently corrupted with probability @p rate
     * and replayed in full, possibly repeatedly. Replays are drawn
     * during the walk, in each link's service order; reservations
     * that start at or after the change are revoked and walked again
     * under the new rate.
     */
    void setEndpointFault(NodeId endpoint, double rate);

    /** Remove the fault on @p endpoint (setEndpointFault(.., 0)). */
    void clearEndpointFault(NodeId endpoint)
    {
        setEndpointFault(endpoint, 0.0);
    }

    /** Name of a node. */
    const std::string &nodeName(NodeId id) const;

  private:
    struct NodeInfo
    {
        std::string name;
        bool isSwitch = false;
        Tick forwardLatency = 0;
        // Adjacency: (neighbour, index into links of the directed
        // link this->neighbour).
        std::vector<std::pair<NodeId, std::size_t>> out;
    };

    /**
     * One revocable occupancy of a link by hop @c hop (>= 1) of a
     * walked packet. A link's entries are kept in service order, so a
     * revocation always cuts a suffix and each rollback restores the
     * exact busy horizon. Entries whose start has passed can no
     * longer be revoked and are pruned lazily.
     */
    struct Reservation
    {
        Tick start;          ///< entry tick (the per-hop arrival)
        Tick prevHorizon;    ///< link busy horizon before the transfer
        std::uint32_t flight;///< owning Flight index
        std::uint16_t hop;   ///< hop position on the owner's route
        std::uint16_t replays; ///< fault replays drawn (kNoDraw: none)
    };

    /** Reservation::replays when the link was not faulted. */
    static constexpr std::uint16_t kNoDraw = 0xffff;
    /** Flight::redo when no hop of the flight is revoked. */
    static constexpr std::uint32_t kNoRedo = 0xffffffffu;
    /** Flight::dispHop when no hop was displaced; as a position in
     *  before(), the displacement that rescheduled dispHop. */
    static constexpr std::uint32_t kNoHop = 0xfffffffeu;

    /**
     * A walked multi-hop packet, alive while any of its reservations
     * may still be revoked. Entry ticks per hop live in flightEntry
     * (maxHops slots per flight).
     */
    struct Flight
    {
        afa::sim::EventFn cb;        ///< callback while not scheduled
        afa::sim::EventHandle ev;    ///< scheduled delivery
        Tick callTick = 0;           ///< tick the send executed
        std::uint64_t sendSeq = 0;   ///< fabric-wide send order
        std::uint32_t pathFirst = 0; ///< base index into pathHops
        std::uint32_t hops = 0;      ///< route length (>= 2)
        std::uint32_t live = 0;      ///< unpruned reservations
        std::uint32_t gen = 0;       ///< validates work items
        NodeId dst = kInvalidNode;
        std::uint32_t bytes = 0;
        std::uint32_t redo = kNoRedo;///< lowest revoked hop (scratch)
        // Where this flight's hop events sit in service order (see
        // before()): hops 1..anchor are scheduled by the send, hop
        // dispHop by a revoking entrant at dispTick; hops 1..resvEnd
        // are still the send-time walk's own reservations.
        std::uint32_t anchor = 0;
        std::uint32_t resvEnd = 0;
        std::uint32_t dispHop = kNoHop;
        Tick dispTick = 0;
        Tick lateArrive = 0;         ///< arrival noted by noteLate()
        bool pending = false;        ///< has a queued work item
        bool late = false;           ///< per-hop release order
    };

    /** A hop of a flight waiting to be (re)walked. */
    struct WorkItem
    {
        std::uint32_t flight;
        std::uint32_t hop;
        std::uint32_t gen;
    };

    std::vector<NodeInfo> nodeInfo;
    std::vector<Link> links;
    // Precompiled routes: pathHops[pathOffset[src * n + dst] ..
    // pathOffset[src * n + dst + 1]) is the full hop sequence.
    std::vector<PathHop> pathHops;
    std::vector<std::uint32_t> pathOffset;
    std::uint32_t maxHops = 0;
    // Revocable reservations per directed link, in service order
    // (parallel to links; sized in finalize()).
    std::vector<std::vector<Reservation>> linkResv;
    std::vector<Flight> flights;
    std::vector<Tick> flightEntry; ///< flights.size() * maxHops
    std::vector<std::uint32_t> freeFlights;
    // Revoked hops awaiting their re-walk (tiny; scanned linearly).
    std::vector<WorkItem> work;
    // revokeFrom() scratch: owners revoked, owners to rescan.
    std::vector<std::uint32_t> revoked;
    std::vector<std::uint32_t> rescan;
    std::uint64_t sendCount = 0;
    // Arrival ticks of late packets (min-heaps; lateGone holds
    // superseded entries still in lateDue), see lateInFlight().
    std::vector<Tick> lateDue;
    std::vector<Tick> lateGone;
    bool isFinalized;
    // Injected per-link fault state (parallel to links; sized in
    // finalize()). faultedLinks counts entries with rate > 0 so the
    // healthy-path cost of the fault hooks is a single integer test.
    std::vector<double> linkFaultRate;
    // Per-link replay streams, forked from the FaultEngine's stream
    // by link index when a fault is armed (see setLinkFaultRate()).
    std::vector<afa::sim::Rng> linkFaultStream;
    // Per link, the replay stream state before each drawing
    // reservation, in list order, so a revocation rewinds the stream.
    std::vector<std::vector<afa::sim::Rng>> linkFaultSnap;
    unsigned faultedLinks = 0;
    // Shard each node's delivery callbacks run on (empty = all 0).
    std::vector<unsigned> nodeShardMap;
    // Delivery ordering band per node (empty/0 = plain FIFO order).
    std::vector<std::uint32_t> nodeOrder;
    afa::sim::Rng *faultRng = nullptr;
    FabricStats fabricStats;
    afa::obs::SpanLog *spanLog = nullptr;

    std::size_t
    pathIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * nodeInfo.size() + dst;
    }

    Tick &
    entryOf(std::uint32_t flight, std::uint32_t hop)
    {
        return flightEntry[static_cast<std::size_t>(flight) * maxHops +
                           hop];
    }

    Tick
    entryOf(std::uint32_t flight, std::uint32_t hop) const
    {
        return flightEntry[static_cast<std::size_t>(flight) * maxHops +
                           hop];
    }

    void sendAt(Tick enter, NodeId src, NodeId dst,
                std::uint32_t bytes, afa::sim::EventFn on_delivered);
    afa::sim::EventHandle scheduleDelivery(Tick arrive, NodeId dst,
                                           afa::sim::EventFn cb);
    bool before(std::uint32_t a, std::uint32_t a_hop, std::uint32_t b,
                std::uint32_t b_hop) const;
    Tick positionTick(std::uint32_t flight, std::uint32_t hop) const;
    Tick transit(std::size_t link_idx, Tick enter, std::uint32_t bytes,
                 std::uint16_t *replays);
    void walk(std::uint32_t flight, std::uint32_t hop);
    void drainWork();
    bool nextWork(std::uint32_t &flight, std::uint32_t &hop);
    void prune(std::size_t link_idx);
    void revokeFrom(std::size_t link_idx, std::size_t pos, Tick by);
    void revokeStarting(std::size_t link_idx);
    bool lateInFlight(bool shipped);
    void noteLate(Tick old_arrive, Tick arrive);
    std::uint32_t allocFlight();
    bool routeFaulted(std::uint32_t first, std::uint32_t last) const;
    void setLinkFaultRate(std::size_t link_idx, double rate);
    std::size_t linkIndex(NodeId from, NodeId to) const;
    void checkNode(NodeId id) const;
    [[noreturn]] void fatalNoRoute(NodeId at, NodeId dst) const;
};

} // namespace afa::pcie

#endif // AFA_PCIE_FABRIC_HH
