#include "pcie/fabric.hh"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>

#include "obs/span_log.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace afa::pcie {

using afa::sim::EventFn;
using afa::sim::Simulator;

Fabric::Fabric(Simulator &simulator, std::string fabric_name)
    : SimObject(simulator, std::move(fabric_name)), isFinalized(false)
{
}

NodeId
Fabric::addEndpoint(const std::string &node_name)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot add nodes after finalize()",
                        name().c_str());
    nodeInfo.push_back(NodeInfo{node_name, false, 0, {}});
    return static_cast<NodeId>(nodeInfo.size() - 1);
}

NodeId
Fabric::addSwitch(const std::string &node_name, Tick forward_latency)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot add nodes after finalize()",
                        name().c_str());
    nodeInfo.push_back(NodeInfo{node_name, true, forward_latency, {}});
    return static_cast<NodeId>(nodeInfo.size() - 1);
}

void
Fabric::checkNode(NodeId id) const
{
    if (id >= nodeInfo.size())
        afa::sim::panic("fabric %s: bad node id %u", name().c_str(), id);
}

void
Fabric::fatalNoRoute(NodeId at_node, NodeId dst) const
{
    afa::sim::fatal("fabric %s: no route %s -> %s", name().c_str(),
                    nodeInfo[at_node].name.c_str(),
                    nodeInfo[dst].name.c_str());
}

void
Fabric::connect(NodeId a, NodeId b, const LinkParams &params)
{
    if (isFinalized)
        afa::sim::fatal("fabric %s: cannot connect after finalize()",
                        name().c_str());
    checkNode(a);
    checkNode(b);
    if (a == b)
        afa::sim::fatal("fabric %s: self-link on node %u",
                        name().c_str(), a);
    links.emplace_back(nodeInfo[a].name + "->" + nodeInfo[b].name,
                       params);
    nodeInfo[a].out.emplace_back(b, links.size() - 1);
    links.emplace_back(nodeInfo[b].name + "->" + nodeInfo[a].name,
                       params);
    nodeInfo[b].out.emplace_back(a, links.size() - 1);
}

void
Fabric::finalize()
{
    const std::size_t n = nodeInfo.size();
    // Dense n*n next-hop table: next_hop[src * n + dst] is the
    // neighbour on the shortest path (kInvalidNode if unreachable).
    std::vector<NodeId> next_hop(n * n, kInvalidNode);
    // BFS from every destination, recording each node's parent-ward
    // neighbour (first hop toward dst).
    for (NodeId dst = 0; dst < n; ++dst) {
        std::vector<NodeId> toward(n, kInvalidNode);
        std::deque<NodeId> queue{dst};
        std::vector<bool> seen(n, false);
        seen[dst] = true;
        while (!queue.empty()) {
            NodeId cur = queue.front();
            queue.pop_front();
            for (const auto &[nbr, li] : nodeInfo[cur].out) {
                (void)li;
                if (seen[nbr])
                    continue;
                seen[nbr] = true;
                toward[nbr] = cur;
                queue.push_back(nbr);
            }
        }
        for (NodeId src = 0; src < n; ++src)
            next_hop[pathIndex(src, dst)] = toward[src];
    }
    // Precompile every route into packed hop records, so send() never
    // walks adjacency lists or the next-hop table per packet.
    pathHops.clear();
    pathOffset.assign(n * n + 1, 0);
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (src != dst) {
                NodeId at_node = src;
                while (at_node != dst) {
                    NodeId next = next_hop[pathIndex(at_node, dst)];
                    if (next == kInvalidNode)
                        break; // unreachable: leave the route empty
                    Tick fwd = next == dst
                        ? 0 : nodeInfo[next].forwardLatency;
                    pathHops.push_back(PathHop{
                        static_cast<std::uint32_t>(
                            linkIndex(at_node, next)),
                        next, fwd});
                    at_node = next;
                }
            }
            pathOffset[pathIndex(src, dst) + 1] =
                static_cast<std::uint32_t>(pathHops.size());
        }
    }
    maxHops = 0;
    for (std::size_t i = 0; i + 1 < pathOffset.size(); ++i)
        maxHops = std::max(maxHops, pathOffset[i + 1] - pathOffset[i]);
    linkResv.assign(links.size(), {});
    // Contention rarely stacks more than a few packets on a link;
    // starting with room for them keeps a late first pile-up from
    // allocating mid-run.
    for (auto &resv : linkResv)
        resv.reserve(8);
    linkFaultRate.assign(links.size(), 0.0);
    linkFaultStream.assign(links.size(), afa::sim::Rng{});
    linkFaultSnap.assign(links.size(), {});
    faultedLinks = 0;
    isFinalized = true;
}

void
Fabric::setLinkFaultRate(std::size_t link_idx, double rate)
{
    double &cur = linkFaultRate[link_idx];
    if (cur == rate)
        return;
    // Hops that reach the link from now on draw under the new rate
    // (the fault event precedes same-tick hops): revoke them and
    // rewind the stream; the caller walks them again.
    revokeStarting(link_idx);
    if (cur == 0.0) {
        ++faultedLinks;
        // Each faulted link draws its replay coin flips from its own
        // stream, forked by link index from the FaultEngine's
        // plan-seeded stream. Per-link streams (rather than one
        // shared stream) make the flips a function of each link's own
        // service order — which is model-deterministic — instead of
        // the global order of walks. Re-arming a link restarts its
        // stream; that too is a pure function of the plan.
        linkFaultStream[link_idx] =
            faultRng->fork(static_cast<std::uint64_t>(link_idx));
    } else if (rate == 0.0) {
        --faultedLinks;
    }
    cur = rate;
}

void
Fabric::setEndpointFault(NodeId endpoint, double rate)
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: setEndpointFault before finalize()",
                        name().c_str());
    checkNode(endpoint);
    if (rate > 0.0 && !faultRng)
        afa::sim::panic("fabric %s: endpoint fault without a fault "
                        "rng (setFaultRng() first)", name().c_str());
    if (rate < 0.0 || rate >= 1.0)
        afa::sim::fatal("fabric %s: link fault rate %.3f out of [0, 1)",
                        name().c_str(), rate);
    // Both directions: TX and RX lanes of the endpoint's links.
    for (const auto &[nbr, li] : nodeInfo[endpoint].out) {
        setLinkFaultRate(li, rate);
        setLinkFaultRate(linkIndex(nbr, endpoint), rate);
    }
    drainWork();
}

bool
Fabric::routeFaulted(std::uint32_t first, std::uint32_t last) const
{
    for (std::uint32_t i = first; i != last; ++i)
        if (linkFaultRate[pathHops[i].link] > 0.0)
            return true;
    return false;
}

std::size_t
Fabric::linkIndex(NodeId from, NodeId to) const
{
    for (const auto &[nbr, li] : nodeInfo[from].out)
        if (nbr == to)
            return li;
    afa::sim::panic("fabric %s: no link %s->%s", name().c_str(),
                    nodeInfo[from].name.c_str(),
                    nodeInfo[to].name.c_str());
}

const Link *
Fabric::linkBetween(NodeId from, NodeId to) const
{
    for (const auto &[nbr, li] : nodeInfo[from].out)
        if (nbr == to)
            return &links[li];
    return nullptr;
}

const std::string &
Fabric::nodeName(NodeId id) const
{
    checkNode(id);
    return nodeInfo[id].name;
}

std::span<const PathHop>
Fabric::route(NodeId src, NodeId dst) const
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: route before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    const std::size_t base = pathIndex(src, dst);
    return {pathHops.data() + pathOffset[base],
            pathHops.data() + pathOffset[base + 1]};
}

/**
 * Schedule a packet's single delivery event at @p arrive, in the
 * destination's ordering band: endpoint deliveries keep their
 * committed same-tick position, host-bound ones (band 0) plain FIFO
 * order. The handle can be reclaimed if the packet is revoked.
 */
afa::sim::EventHandle
Fabric::scheduleDelivery(Tick arrive, NodeId dst, EventFn cb)
{
    return sim().scheduleAt(arrive, std::move(cb), deliveryOrder(dst));
}

void
Fabric::send(NodeId src, NodeId dst, std::uint32_t bytes,
             EventFn on_delivered)
{
    sendAt(now(), src, dst, bytes, std::move(on_delivered));
}

void
Fabric::sendAt(Tick enter, NodeId src, NodeId dst, std::uint32_t bytes,
               EventFn on_delivered)
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: send before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    assert(enter <= now() && "send entry tick in the future");
    ++fabricStats.packets;
    fabricStats.bytes += bytes;
    if (src == dst) {
        after(0, std::move(on_delivered));
        return;
    }
    const std::size_t base = pathIndex(src, dst);
    const std::uint32_t first = pathOffset[base];
    const std::uint32_t last = pathOffset[base + 1];
    if (first == last)
        fatalNoRoute(src, dst);
    ++fabricStats.fastPathPackets;
    ++sendCount;
    const PathHop &ph = pathHops[first];
    bool late = (!lateDue.empty() && lateInFlight(enter < now())) ||
        (faultedLinks && routeFaulted(first, last)) ||
        links[ph.link].busyUntil() > enter;
    // Hop 0 executes now, ahead of every hop that reaches the link at
    // or after now (a send precedes same-tick hop events), so it is
    // never revocable and needs no reservation.
    if (!linkResv[ph.link].empty())
        revokeStarting(ph.link);
    const Tick arrive = transit(ph.link, enter, bytes, nullptr);
    if (first + 1 == last) {
        if (late)
            noteLate(0, arrive);
        scheduleDelivery(arrive, dst, std::move(on_delivered));
        drainWork();
        return;
    }
    const std::uint32_t idx = allocFlight();
    Flight &fl = flights[idx];
    fl.cb = std::move(on_delivered);
    fl.callTick = now();
    fl.sendSeq = sendCount;
    fl.pathFirst = first;
    fl.hops = last - first;
    fl.dst = dst;
    fl.bytes = bytes;
    fl.late = late;
    fl.anchor = late ? 0 : fl.hops - 1;
    fl.resvEnd = fl.anchor;
    fl.dispHop = kNoHop;
    fl.lateArrive = 0;
    entryOf(idx, 0) = enter;
    entryOf(idx, 1) = arrive + ph.forwardAfter;
    walk(idx, 1);
}

/**
 * Service order at a link: true when hop @p a_hop of flight @p a is
 * served before hop @p b_hop of flight @p b.
 *
 * A link serves packets in the order their hop events fire: by tick,
 * then by the order the events were scheduled, which is the position
 * of the event that scheduled them — recursively. In the per-hop
 * model a hop is scheduled by the previous hop, and hop 0 is the send
 * itself (at the tick it executed, in fabric-wide send order; a send
 * precedes same-tick hop events). The committed results were produced
 * by a fabric that placed some hop events differently, and the walk
 * keeps those positions (see lateInFlight()): hops 1..anchor were
 * scheduled by the send (a send-time walk or its fallback
 * continuation), and a hop revoked from that walk was rescheduled by
 * the revoking entrant at dispTick, after same-tick hops and sends.
 */
bool
Fabric::before(std::uint32_t a, std::uint32_t a_hop, std::uint32_t b,
               std::uint32_t b_hop) const
{
    const Flight &fa = flights[a];
    const Flight &fb = flights[b];
    // Rank of a same-tick scheduler: send, hop event, displacement.
    auto rank = [](std::uint32_t hop) {
        return hop == 0 ? 0 : hop == kNoHop ? 2 : 1;
    };
    // The position that scheduled hop @p hop (>= 1) of @p fl.
    auto scheduler = [](const Flight &fl, std::uint32_t hop) {
        return hop == fl.dispHop ? kNoHop : hop <= fl.anchor ? 0 : hop - 1;
    };
    for (;;) {
        const Tick ta = positionTick(a, a_hop);
        const Tick tb = positionTick(b, b_hop);
        if (ta != tb)
            return ta < tb;
        if (rank(a_hop) != rank(b_hop))
            return rank(a_hop) < rank(b_hop);
        if (rank(a_hop) != 1)
            return fa.sendSeq < fb.sendSeq;
        a_hop = scheduler(fa, a_hop);
        b_hop = scheduler(fb, b_hop);
    }
}

/** Tick of a service-order position (see before()). */
Tick
Fabric::positionTick(std::uint32_t flight, std::uint32_t hop) const
{
    const Flight &fl = flights[flight];
    return hop == 0 ? fl.callTick
        : hop == kNoHop ? fl.dispTick : entryOf(flight, hop);
}

/**
 * Move @p bytes across one link entering at @p enter (FIFO behind the
 * busy horizon), drawing fault replays when the link is faulted.
 * Returns the arrival tick at the far end. A revocable transfer
 * (@p replays non-null) saves the replay stream first so a revocation
 * can rewind it, and reports the replays drawn (kNoDraw if none).
 */
Tick
Fabric::transit(std::size_t link_idx, Tick enter, std::uint32_t bytes,
                std::uint16_t *replays)
{
    Link &link = links[link_idx];
    const afa::sim::Bytes size{bytes};
    if (link.busyUntil() > enter)
        fabricStats.totalQueueDelay += link.busyUntil() - enter;
    Tick arrive = link.transfer(enter, size);
    if (replays)
        *replays = kNoDraw;
    if (faultedLinks && linkFaultRate[link_idx] > 0.0) {
        // Injected link fault: each delivery attempt is corrupted
        // with probability `rate` and the payload re-serialised.
        // Bounded so a spec rate close to 1 cannot livelock the hop.
        const double rate = linkFaultRate[link_idx];
        afa::sim::Rng &stream = linkFaultStream[link_idx];
        if (replays)
            linkFaultSnap[link_idx].push_back(stream);
        std::uint16_t drawn = 0;
        while (drawn < 16 && stream.chance(rate)) {
            arrive = link.transfer(arrive, size);
            ++drawn;
        }
        fabricStats.linkReplays += drawn;
        if (replays)
            *replays = drawn;
    }
    return arrive;
}

/**
 * Walk flight @p idx from hop @p hop, interleaved with any revoked
 * hops awaiting a re-walk, always taking the earliest in service
 * order; returns when nothing is left to walk.
 */
void
Fabric::walk(std::uint32_t idx, std::uint32_t hop)
{
    const Tick t = now();
    for (;;) {
        if (!work.empty()) {
            work.push_back(WorkItem{idx, hop, ++flights[idx].gen});
            nextWork(idx, hop);
        }
        Flight &fl = flights[idx];
        const PathHop &ph = pathHops[fl.pathFirst + hop];
        auto &resv = linkResv[ph.link];
        if (!resv.empty() && resv.front().start < t)
            prune(ph.link);
        const Tick enter = entryOf(idx, hop);
        if (!fl.late && links[ph.link].busyUntil() > enter) {
            fl.late = true;
            fl.anchor = hop;
            fl.resvEnd = hop - 1;
        }
        std::size_t pos = resv.size();
        while (pos > 0 &&
               before(idx, hop, resv[pos - 1].flight, resv[pos - 1].hop))
            --pos;
        if (pos != resv.size())
            revokeFrom(ph.link, pos, enter);
        const Tick prev = links[ph.link].busyUntil();
        std::uint16_t replays;
        const Tick arrive = transit(ph.link, enter, fl.bytes, &replays);
        resv.push_back(Reservation{enter, prev, idx,
                                   static_cast<std::uint16_t>(hop),
                                   replays});
        ++fl.live;
        if (hop + 1 < fl.hops) {
            entryOf(idx, hop + 1) = arrive + ph.forwardAfter;
            ++hop;
            continue;
        }
        if (!fl.late) {
            fl.ev = scheduleDelivery(arrive, fl.dst, std::move(fl.cb));
        } else {
            noteLate(fl.lateArrive, arrive);
            fl.lateArrive = arrive;
            if (deliveryOrder(fl.dst) != 0) {
                fl.ev = scheduleDelivery(arrive, fl.dst, std::move(fl.cb));
            } else {
                // Released from the last hop's entry, where the per-hop
                // model scheduled it (see lateInFlight()).
                fl.ev = sim().scheduleAt(
                    enter,
                    [this, idx, arrive] {
                        Flight &f = flights[idx];
                        f.ev = at(arrive, std::move(f.cb));
                    },
                    /*band=*/0, /*internal=*/true);
            }
        }
        fl.pending = false;
        if (!nextWork(idx, hop))
            return;
    }
}

/** Walk whatever revoked hops are waiting. */
void
Fabric::drainWork()
{
    std::uint32_t idx, hop;
    if (nextWork(idx, hop))
        walk(idx, hop);
}

/**
 * Take the earliest waiting hop in service order, dropping items made
 * stale by a later, lower revocation of the same flight.
 */
bool
Fabric::nextWork(std::uint32_t &idx, std::uint32_t &hop)
{
    if (work.empty())
        return false;
    std::erase_if(work, [this](const WorkItem &w) {
        return flights[w.flight].gen != w.gen;
    });
    if (work.empty())
        return false;
    std::size_t best = 0;
    for (std::size_t i = 1; i < work.size(); ++i)
        if (before(work[i].flight, work[i].hop, work[best].flight,
                   work[best].hop))
            best = i;
    idx = work[best].flight;
    hop = work[best].hop;
    work[best] = work.back();
    work.pop_back();
    return true;
}

/**
 * The release-order rule. The per-hop model scheduled a delivery when
 * the packet entered its last link; the single-event model this walk
 * replaces scheduled it at send time, and fell back to the per-hop
 * model for any packet that met queueing on its walk, crossed a
 * faulted link, was revoked, or was sent while such a packet was
 * still in flight. Both orders are exact in ticks but give a
 * host-bound delivery a different same-tick position among host
 * events, and committed results depend on it, so those "late"
 * packets keep the per-hop release: one internal event at the
 * last-hop entry schedules the delivery. Endpoint-bound deliveries
 * use their own ordering band, where both orders coincide.
 *
 * A late packet counts as in flight until its arrival tick. The
 * per-hop model retired it in a plain event of that tick, which runs
 * before any shipped send (band 2 + node) of the tick and, for plain
 * senders, is taken to run after them.
 */
bool
Fabric::lateInFlight(bool shipped)
{
    const Tick t = now();
    auto later = std::greater<Tick>{};
    while (!lateDue.empty() &&
           (lateDue.front() < t || (shipped && lateDue.front() == t))) {
        const Tick due = lateDue.front();
        std::pop_heap(lateDue.begin(), lateDue.end(), later);
        lateDue.pop_back();
        if (!lateGone.empty() && lateGone.front() == due) {
            std::pop_heap(lateGone.begin(), lateGone.end(), later);
            lateGone.pop_back();
        }
    }
    return lateDue.size() > lateGone.size();
}

/** Move a late packet's arrival from @p old_arrive (0: none) to
 *  @p arrive in the in-flight set. */
void
Fabric::noteLate(Tick old_arrive, Tick arrive)
{
    auto later = std::greater<Tick>{};
    if (old_arrive) {
        lateGone.push_back(old_arrive);
        std::push_heap(lateGone.begin(), lateGone.end(), later);
    }
    lateDue.push_back(arrive);
    std::push_heap(lateDue.begin(), lateDue.end(), later);
}

std::uint32_t
Fabric::allocFlight()
{
    std::uint32_t idx;
    if (!freeFlights.empty()) {
        idx = freeFlights.back();
        freeFlights.pop_back();
    } else {
        flights.emplace_back();
        freeFlights.reserve(flights.capacity());
        idx = static_cast<std::uint32_t>(flights.size() - 1);
        flightEntry.resize(flights.size() * maxHops);
    }
    Flight &fl = flights[idx];
    fl.live = 0;
    fl.redo = kNoRedo;
    fl.pending = true;
    return idx;
}

/**
 * Drop the entries of a link whose start has passed: no entrant can
 * precede them any more (every later hop reaches a link at or after
 * now). A flight is recycled once its last entry goes and no re-walk
 * is waiting; its delivery event no longer needs it.
 */
void
Fabric::prune(std::size_t link_idx)
{
    auto &resv = linkResv[link_idx];
    const Tick t = now();
    std::size_t n = 0;
    std::size_t drawn = 0;
    for (; n < resv.size() && resv[n].start < t; ++n) {
        drawn += resv[n].replays != kNoDraw;
        Flight &fl = flights[resv[n].flight];
        if (--fl.live == 0 && !fl.pending) {
            fl.ev = afa::sim::EventHandle{};
            freeFlights.push_back(resv[n].flight);
        }
    }
    resv.erase(resv.begin(), resv.begin() + static_cast<std::ptrdiff_t>(n));
    if (drawn) {
        auto &snap = linkFaultSnap[link_idx];
        snap.erase(snap.begin(),
                   snap.begin() + static_cast<std::ptrdiff_t>(drawn));
    }
}

/** Prune a link, then revoke every entry that starts at or after now. */
void
Fabric::revokeStarting(std::size_t link_idx)
{
    prune(link_idx);
    const auto &resv = linkResv[link_idx];
    std::size_t pos = resv.size();
    while (pos > 0 && resv[pos - 1].start >= now())
        --pos;
    if (pos != resv.size())
        revokeFrom(link_idx, pos, now());
}

/**
 * Revoke a link's entries from @p pos on, and transitively every
 * reservation computed from them: each revoked owner's downstream
 * hops, and everything queued behind those. Rollbacks run from the
 * tail, so each restores the exact busy horizon (and replay stream)
 * of its link. Each owner's delivery is taken back and a re-walk
 * queued from its lowest revoked hop; its entry tick there is
 * unchanged, since only later hops were computed from the revoked
 * state.
 */
void
Fabric::revokeFrom(std::size_t link_idx, std::size_t pos, Tick by)
{
    auto cut = [this, by](std::size_t li, std::size_t from) {
        auto &resv = linkResv[li];
        for (std::size_t q = resv.size(); q-- > from; ) {
            const Reservation &r = resv[q];
            Flight &fl = flights[r.flight];
            const unsigned replays = r.replays == kNoDraw ? 0 : r.replays;
            links[li].revoke(r.start, r.prevHorizon,
                             afa::sim::Bytes{fl.bytes}, 1 + replays);
            if (r.prevHorizon > r.start)
                fabricStats.totalQueueDelay -= r.prevHorizon - r.start;
            if (r.replays != kNoDraw) {
                fabricStats.linkReplays -= replays;
                linkFaultStream[li] = linkFaultSnap[li].back();
                linkFaultSnap[li].pop_back();
            }
            ++fabricStats.displacements;
            --fl.live;
            if (fl.redo == kNoRedo)
                revoked.push_back(r.flight);
            if (r.hop < fl.redo) {
                fl.redo = r.hop;
                rescan.push_back(r.flight);
            }
            if (r.hop <= fl.resvEnd) {
                fl.dispHop = r.hop;
                fl.dispTick = by;
                fl.anchor = r.hop - 1;
                fl.resvEnd = r.hop - 1;
            } else if (r.hop == fl.dispHop) {
                fl.dispTick = std::min(fl.dispTick, by);
            }
        }
        resv.resize(from);
    };
    cut(link_idx, pos);
    while (!rescan.empty()) {
        const std::uint32_t idx = rescan.back();
        rescan.pop_back();
        const Flight &fl = flights[idx];
        for (std::uint32_t h = fl.redo + 1; h < fl.hops; ++h) {
            const std::size_t li = pathHops[fl.pathFirst + h].link;
            const auto &resv = linkResv[li];
            for (std::size_t p = 0; p < resv.size(); ++p) {
                if (resv[p].flight == idx && resv[p].hop == h) {
                    cut(li, p);
                    break;
                }
            }
        }
    }
    for (std::uint32_t idx : revoked) {
        Flight &fl = flights[idx];
        if (fl.cb)
            sim().cancel(fl.ev); // a pending release, if any
        else
            fl.cb = sim().reclaim(fl.ev);
        fl.ev = afa::sim::EventHandle{};
        fl.late = true;
        fl.pending = true;
        work.push_back(WorkItem{idx, fl.redo, ++fl.gen});
        fl.redo = kNoRedo;
    }
    revoked.clear();
}

void
Fabric::sendSpanned(NodeId src, NodeId dst, std::uint32_t bytes,
                    std::uint64_t io, std::uint16_t track,
                    afa::obs::Stage stage, EventFn on_delivered)
{
    sendSpannedAt(now(), src, dst, bytes, io, track, stage,
                  std::move(on_delivered));
}

void
Fabric::sendSpannedAt(Tick enter, NodeId src, NodeId dst,
                      std::uint32_t bytes, std::uint64_t io,
                      std::uint16_t track, afa::obs::Stage stage,
                      EventFn on_delivered)
{
    if (spanLog && io != 0 &&
        spanLog->wants(afa::obs::categoryOf(stage))) {
        // The span is committed by the delivery itself, so it always
        // carries the final delivery tick.
        const std::uint8_t flags = src == dst
            ? afa::obs::kSpanFlagSelf : afa::obs::kSpanFlagFastPath;
        on_delivered = [this, stage, io, enter, track, flags,
                        cb = std::move(on_delivered)]() mutable {
            spanLog->record(stage, io, enter, now(), track, flags);
            cb();
        };
    }
    sendAt(enter, src, dst, bytes, std::move(on_delivered));
}

void
Fabric::markEndpoint(NodeId node)
{
    checkNode(node);
    if (nodeOrder.size() < nodeInfo.size())
        nodeOrder.resize(nodeInfo.size(), 0);
    nodeOrder[node] = 2 + node;
}

afa::sim::TickDelta
Fabric::minPropagation() const
{
    Tick min_prop = 0;
    for (const Link &link : links) {
        const Tick p = link.params().propagation;
        min_prop = min_prop == 0 ? p : std::min(min_prop, p);
    }
    return afa::sim::TickDelta{static_cast<std::int64_t>(min_prop)};
}

Tick
Fabric::unloadedLatency(NodeId src, NodeId dst,
                        std::uint32_t bytes) const
{
    if (!isFinalized)
        afa::sim::fatal("fabric %s: unloadedLatency before finalize()",
                        name().c_str());
    checkNode(src);
    checkNode(dst);
    if (src == dst)
        return 0;
    const std::size_t base = pathIndex(src, dst);
    const std::uint32_t first = pathOffset[base];
    const std::uint32_t last = pathOffset[base + 1];
    if (first == last)
        fatalNoRoute(src, dst);
    Tick total = 0;
    for (std::uint32_t i = first; i != last; ++i) {
        const PathHop &ph = pathHops[i];
        const Link &link = links[ph.link];
        total += link.serialization(afa::sim::Bytes{bytes}) +
            link.params().propagation +
            ph.forwardAfter;
    }
    return total;
}

unsigned
Fabric::hopCount(NodeId src, NodeId dst) const
{
    return static_cast<unsigned>(route(src, dst).size());
}

} // namespace afa::pcie
