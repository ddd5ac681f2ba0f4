#include "core/afa_system.hh"

#include "obs/metrics.hh"
#include "obs/span_log.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"

namespace afa::core {

using afa::nvme::NvmeCommand;
using afa::nvme::NvmeCompletion;
using afa::sim::Simulator;
using afa::sim::Tracer;

AfaSystem::AfaSystem(Simulator &simulator, const AfaSystemParams &params,
                     Tracer *tracer)
    : sim(simulator), sysParams(params)
{
    if (params.ssds == 0)
        afa::sim::fatal("AfaSystem: need at least one SSD");

    // Fabric first (Fig. 2/4).
    pcieFabric = std::make_unique<afa::pcie::Fabric>(sim, "fabric");
    afa::pcie::AfaTopologyParams ft = params.fabric;
    ft.ssds = params.ssds;
    fabricTopo = buildAfaTopology(*pcieFabric, ft);

    // Shard partition: host + fabric + fault books on shard 0, the
    // SSD subtrees block-partitioned across shards 1..K-1 in device
    // order. The lookahead horizon is the fabric's minimum link
    // propagation: no cross-shard interaction can happen sooner than
    // one wire traversal. The horizon, the endpoint delivery bands,
    // and the shipped completion sends are set up in serial runs too:
    // the schedule is then the same deterministic function of the
    // model at every shard count, which is what makes the figures
    // bit-identical under --shards (see DESIGN.md "Sharded execution
    // contract").
    const unsigned shard_count = sim.shards();
    ssdShards.assign(params.ssds, 0);
    sim.setLookahead(pcieFabric->minPropagation());
    for (unsigned d = 0; d < params.ssds; ++d)
        pcieFabric->markEndpoint(fabricTopo.ssds[d]);
    if (shard_count > 1) {
        if (tracer)
            afa::sim::fatal("AfaSystem: the debug tracer is not "
                            "shard-safe; run with shards=1");
        if (sim.lookahead() == afa::sim::TickDelta{})
            afa::sim::fatal("AfaSystem: sharded run needs a positive "
                            "minimum link propagation for lookahead");
        for (unsigned d = 0; d < params.ssds; ++d) {
            unsigned s = 1 + (d * (shard_count - 1)) / params.ssds;
            ssdShards[d] = s;
            pcieFabric->setNodeShard(fabricTopo.ssds[d], s);
        }
    }

    // Host side.
    sched = std::make_unique<afa::host::Scheduler>(
        sim, "sched", afa::host::CpuTopology(params.topology),
        params.kernel, tracer);
    irqSub = std::make_unique<afa::host::IrqSubsystem>(
        sim, "irq", *sched, params.ssds, tracer);
    bg = std::make_unique<afa::host::BackgroundLoad>(
        sim, "bg", *sched, params.background);
    driver = std::make_unique<Driver>(*this, params.ssds);
    ships.resize(params.ssds);

    // SSDs. Each device subtree is built (and later started) under
    // its own ShardScope so every event it schedules lands on its
    // shard's queue.
    for (unsigned d = 0; d < params.ssds; ++d) {
        afa::sim::ShardScope shard_scope(sim, ssdShards[d]);
        nands.push_back(std::make_unique<afa::nand::NandArray>(
            sim, afa::sim::strfmt("nvme%u.nand", d), params.nand));
        ctrls.push_back(std::make_unique<afa::nvme::Controller>(
            sim, afa::sim::strfmt("nvme%u", d), params.firmware,
            *nands.back(), params.ftl, tracer));
        afa::nvme::Controller &ctrl = *ctrls.back();
        ctrl.setFastPath(params.deviceFastPath);
        ctrl.setQueuePairs(sched->topology().logicalCpus());
        ctrl.setTransport([this, d](std::uint32_t bytes, std::uint64_t io,
                                    afa::sim::EventFn fn) {
            // Device -> fabric: "ship" the send to the fabric's shard
            // one lookahead later, backdating the fabric entry to the
            // device-side tick. Exact because the device's edge link
            // carries no through-traffic or reservations, so nothing
            // can have touched it in the interim, and link arithmetic
            // already includes >= one propagation delay. Serial runs
            // take the same path (lookahead = min propagation) with
            // the same ordering band, so simultaneous completions
            // from different devices walk the fabric in the same
            // canonical ascending-endpoint order at any shard count.
            // The send is parked in the device's ship pool so the
            // shipped closure stays inline.
            const afa::sim::Tick entry = sim.now();
            auto *slot = ships[d].acquire();
            slot->value.entry = entry;
            slot->value.bytes = bytes;
            slot->value.io = io;
            slot->value.fn = std::move(fn);
            sim.scheduleOnShard(
                0, entry + sim.lookahead(),
                [this, slot, d] {
                    Ship ship = afa::sim::HandoffPool<Ship>::take(slot);
                    pcieFabric->sendSpannedAt(
                        ship.entry, fabricTopo.ssds[d], fabricTopo.host,
                        ship.bytes, ship.io, afa::obs::ssdTrack(d),
                        afa::obs::Stage::FabricComplete,
                        std::move(ship.fn));
                },
                /*internal=*/true,
                /*order=*/2 + fabricTopo.ssds[d]);
        });
        ctrl.setCompletionHandler(
            [this, d](const NvmeCompletion &completion) {
                driver->onCompletion(d, completion);
            });
    }

    if (params.pinIrqAffinity)
        irqSub->pinAllToQueueCpus();

    if (params.faults) {
        std::vector<afa::nvme::Controller *> ctrl_ptrs;
        for (auto &ctrl : ctrls)
            ctrl_ptrs.push_back(ctrl.get());
        faults = std::make_unique<afa::fault::FaultEngine>(
            sim, params.faults, std::move(ctrl_ptrs),
            pcieFabric.get(), fabricTopo.ssds, ssdShards);
    }
}

void
AfaSystem::start()
{
    if (startedFlag)
        return;
    startedFlag = true;
    sched->start();
    irqSub->start();
    bg->start();
    for (unsigned d = 0; d < ctrls.size(); ++d) {
        afa::sim::ShardScope shard_scope(sim, ssdShards[d]);
        ctrls[d]->start();
    }
    if (faults)
        faults->start();
}

afa::workload::IoEngine &
AfaSystem::ioEngine()
{
    return *driver;
}

afa::nvme::Controller &
AfaSystem::ssd(unsigned index)
{
    if (index >= ctrls.size())
        afa::sim::panic("AfaSystem: ssd index %u out of range", index);
    return *ctrls[index];
}

std::size_t
AfaSystem::outstandingCommands() const
{
    return driver->outstanding();
}

const DriverStats &
AfaSystem::driverStats() const
{
    return driver->stats();
}

void
AfaSystem::addMetricsSource(
    std::function<void(afa::obs::MetricsRegistry &)> source)
{
    extraMetricsSources.push_back(std::move(source));
}

void
AfaSystem::setSpanLog(afa::obs::SpanLog *log)
{
    spanLogPtr = log;
    pcieFabric->setSpanLog(log);
    sched->setSpanLog(log);
    irqSub->setSpanLog(log);
    for (unsigned d = 0; d < ctrls.size(); ++d)
        ctrls[d]->setSpanLog(log, afa::obs::ssdTrack(d));
}

void
AfaSystem::attachTelemetry(afa::obs::Telemetry &telemetry)
{
    if (!telemetry.enabled())
        return;
    // Every source below reads state that only shard-0 events mutate
    // (the host, the fabric walks — device sends are shipped to shard
    // 0 — and the fault books), so a boundary sample on shard 0 is
    // race-free and shard-count-invariant.
    telemetry.addCounter("fabric.packets", [this] {
        return pcieFabric->stats().packets;
    });
    telemetry.addCounter("fabric.bytes", [this] {
        return pcieFabric->stats().bytes;
    });
    telemetry.addCounter("fabric.fast_path_packets", [this] {
        return pcieFabric->stats().fastPathPackets;
    });
    telemetry.addCounter("fabric.displacements", [this] {
        return pcieFabric->stats().displacements;
    });
    telemetry.addCounter("fabric.link_replays", [this] {
        return pcieFabric->stats().linkReplays;
    });
    telemetry.addCounter("irq.delivered", [this] {
        return irqSub->stats().delivered;
    });
    telemetry.addCounter("sched.switches", [this] {
        std::uint64_t switches = 0;
        const unsigned cpus = sched->topology().logicalCpus();
        for (unsigned c = 0; c < cpus; ++c)
            switches += sched->cpuStats(c).switches;
        return switches;
    });
    telemetry.addGauge("driver.in_flight", [this] {
        return static_cast<double>(driver->outstanding());
    });
    if (sysParams.faults) {
        // Fault-run series only appear in faulted timelines, the
        // same gate publishMetrics() applies to --metrics-json.
        telemetry.addCounter("driver.timeouts", [this] {
            return driver->stats().timeouts;
        });
        telemetry.addCounter("driver.retries", [this] {
            return driver->stats().retries;
        });
        telemetry.addCounter("driver.aborts", [this] {
            return driver->stats().aborts;
        });
        telemetry.addCounter("fault.events_applied", [this] {
            return faults->stats().applied;
        });
        telemetry.addCounter("fault.events_reverted", [this] {
            return faults->stats().reverted;
        });
        telemetry.addGauge("fault.active", [this] {
            return static_cast<double>(faults->stats().active);
        });
    }
}

void
AfaSystem::publishMetrics(afa::obs::MetricsRegistry &registry) const
{
    const afa::pcie::FabricStats &fs = pcieFabric->stats();
    registry.addCounter("fabric.packets", fs.packets);
    registry.addCounter("fabric.bytes", fs.bytes);
    registry.addCounter("fabric.fast_path_packets", fs.fastPathPackets);
    registry.addCounter("fabric.displacements", fs.displacements);
    registry.addCounter("fabric.queue_delay_ticks", fs.totalQueueDelay);
    registry.addCounter("fabric.link_replays", fs.linkReplays);

    const afa::host::IrqStats &is = irqSub->stats();
    registry.addCounter("irq.delivered", is.delivered);
    registry.addCounter("irq.remote_deliveries", is.remoteDeliveries);
    registry.addCounter("irq.cross_socket", is.crossSocket);
    registry.addCounter("irq.rebalances", is.rebalances);
    registry.addCounter("irq.vector_moves", is.vectorMoves);

    afa::host::CpuStats cpu;
    unsigned cpus = sched->topology().logicalCpus();
    for (unsigned c = 0; c < cpus; ++c) {
        const afa::host::CpuStats &s = sched->cpuStats(c);
        cpu.busyTime += s.busyTime;
        cpu.irqTime += s.irqTime;
        cpu.switches += s.switches;
        cpu.interrupts += s.interrupts;
        cpu.pulls += s.pulls;
        cpu.cstateWakes += s.cstateWakes;
        cpu.cstateExitDelay += s.cstateExitDelay;
    }
    registry.addCounter("sched.busy_ticks", cpu.busyTime);
    registry.addCounter("sched.irq_ticks", cpu.irqTime);
    registry.addCounter("sched.switches", cpu.switches);
    registry.addCounter("sched.interrupts", cpu.interrupts);
    registry.addCounter("sched.pulls", cpu.pulls);
    registry.addCounter("sched.cstate_wakes", cpu.cstateWakes);
    registry.addCounter("sched.cstate_exit_ticks", cpu.cstateExitDelay);

    afa::nvme::ControllerStats ssd;
    afa::nvme::FtlStats ftl;
    afa::nand::NandStats nand;
    std::uint64_t smart_collections = 0;
    std::uint64_t smart_saves = 0;
    for (std::size_t d = 0; d < ctrls.size(); ++d) {
        const afa::nvme::ControllerStats &cs = ctrls[d]->stats();
        ssd.readsCompleted += cs.readsCompleted;
        ssd.writesCompleted += cs.writesCompleted;
        ssd.bytesRead += cs.bytesRead;
        ssd.bytesWritten += cs.bytesWritten;
        ssd.hiccups += cs.hiccups;
        ssd.smartStallDelay += cs.smartStallDelay;
        ssd.droppedCommands += cs.droppedCommands;
        ssd.faultStallDelay += cs.faultStallDelay;
        ssd.fastPathCommands += cs.fastPathCommands;
        ssd.fallbackCommands += cs.fallbackCommands;
        const afa::nvme::FtlStats &fls = ctrls[d]->ftl().stats();
        ftl.hostReadsMapped += fls.hostReadsMapped;
        ftl.hostWrites += fls.hostWrites;
        ftl.gcRuns += fls.gcRuns;
        const afa::nand::NandStats &ns = nands[d]->stats();
        nand.reads += ns.reads;
        nand.programs += ns.programs;
        nand.erases += ns.erases;
        nand.dieBusyTime += ns.dieBusyTime;
        nand.channelBusyTime += ns.channelBusyTime;
        const afa::nvme::SmartEngine &se = ctrls[d]->smart();
        smart_collections += se.collections();
        smart_saves += se.saves();
    }
    registry.addCounter("nvme.reads_completed", ssd.readsCompleted);
    registry.addCounter("nvme.writes_completed", ssd.writesCompleted);
    registry.addCounter("nvme.bytes_read", ssd.bytesRead);
    registry.addCounter("nvme.bytes_written", ssd.bytesWritten);
    registry.addCounter("nvme.hiccups", ssd.hiccups);
    registry.addCounter("nvme.smart_stall_ticks", ssd.smartStallDelay);
    registry.addCounter("nvme.fast_path_commands", ssd.fastPathCommands);
    registry.addCounter("nvme.fallback_commands", ssd.fallbackCommands);
    registry.addCounter("smart.collections", smart_collections);
    registry.addCounter("smart.saves", smart_saves);
    registry.addCounter("ftl.host_reads_mapped", ftl.hostReadsMapped);
    registry.addCounter("ftl.host_writes", ftl.hostWrites);
    registry.addCounter("ftl.gc_runs", ftl.gcRuns);
    registry.addCounter("nand.reads", nand.reads);
    registry.addCounter("nand.programs", nand.programs);
    registry.addCounter("nand.erases", nand.erases);
    registry.addCounter("nand.die_busy_ticks", nand.dieBusyTime);
    registry.addCounter("nand.channel_busy_ticks",
                        nand.channelBusyTime);

    if (sysParams.faults) {
        // Fault-run counters only appear in faulted artifacts, so
        // healthy --metrics-json output is byte-identical to before.
        registry.addCounter("nvme.dropped_commands",
                            ssd.droppedCommands);
        registry.addCounter("nvme.fault_stall_ticks",
                            ssd.faultStallDelay);
        const DriverStats &ds = driver->stats();
        registry.addCounter("driver.timeouts", ds.timeouts);
        registry.addCounter("driver.retries", ds.retries);
        registry.addCounter("driver.aborts", ds.aborts);
        registry.addCounter("driver.stale_completions",
                            ds.staleCompletions);
        const afa::fault::FaultEngineStats &es = faults->stats();
        registry.addCounter("fault.events_applied", es.applied);
        registry.addCounter("fault.events_reverted", es.reverted);
    }

    for (const auto &source : extraMetricsSources)
        source(registry);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

const AfaSystem::Driver::IdEntry *
AfaSystem::Driver::findId(std::uint64_t id) const
{
    if (idTable.empty())
        return nullptr;
    const IdEntry &e = idTable[id & (idTable.size() - 1)];
    return e.id == id ? &e : nullptr;
}

void
AfaSystem::Driver::mapId(std::uint64_t id, std::uint32_t slot)
{
    if (idTable.empty())
        idTable.resize(256);
    while (idTable[id & (idTable.size() - 1)].id != 0)
        growIdTable();
    idTable[id & (idTable.size() - 1)] = IdEntry{id, slot};
    ++liveIds;
}

void
AfaSystem::Driver::growIdTable()
{
    // Double until every live id has an entry of its own.
    for (std::size_t size = 2 * idTable.size();; size *= 2) {
        std::vector<IdEntry> grown(size);
        bool clash = false;
        for (const IdEntry &e : idTable) {
            if (e.id == 0)
                continue;
            IdEntry &dst = grown[e.id & (size - 1)];
            clash = dst.id != 0;
            if (clash)
                break;
            dst = e;
        }
        if (!clash) {
            idTable.swap(grown);
            return;
        }
    }
}

void
AfaSystem::Driver::unmapId(std::uint64_t id)
{
    idTable[id & (idTable.size() - 1)] = IdEntry{};
    --liveIds;
}

void
AfaSystem::Driver::submit(unsigned cpu,
                          const afa::workload::IoRequest &request,
                          CompleteFn on_device_complete)
{
    if (request.device >= sys.ctrls.size())
        afa::sim::panic("driver: device %u out of range",
                        request.device);
    const std::uint32_t slot = pendings.acquire();
    pendings[slot] = Pending{std::move(on_device_complete), request.tag,
                             request, cpu, 0, {}};
    startAttempt(slot);
}

void
AfaSystem::Driver::startAttempt(std::uint32_t slot)
{
    const std::uint64_t id = nextCmdId++;
    mapId(id, slot);
    Pending &pending = pendings[slot];
    const afa::workload::IoRequest &request = pending.req;
    const unsigned cpu = pending.cpu;

    // Timeouts are armed only when a fault plan is loaded: on a
    // healthy run the driver schedules no extra events at all.
    if (sys.sysParams.faults)
        pending.timeout = sys.sim.scheduleAfter(
            sys.sysParams.faults->nvmeTimeout,
            [this, id] { onTimeout(id); });

    // The command travels parked in the device's SQE pool: it must
    // reach the controller as sent even if this attempt times out
    // (and its slot is reused) while the SQE is in flight.
    auto *sqe = sqes[request.device].acquire();
    NvmeCommand &cmd = sqe->value;
    cmd.op = request.op;
    cmd.lba = request.lba;
    cmd.bytes = request.bytes;
    cmd.queueId = static_cast<std::uint16_t>(cpu);
    cmd.cmdId = id;
    cmd.submitted = sys.sim.now();
    cmd.tag = request.tag;

    afa::nvme::Controller *ctrl = sys.ctrls[request.device].get();
    sys.pcieFabric->sendSpanned(
        sys.fabricTopo.host, sys.fabricTopo.ssds[request.device],
        sys.sysParams.sqeBytes, cmd.tag, afa::obs::cpuTrack(cpu),
        afa::obs::Stage::FabricSubmit, [ctrl, sqe] {
            ctrl->submit(
                afa::sim::HandoffPool<NvmeCommand>::take(sqe));
        });
}

void
AfaSystem::Driver::onTimeout(std::uint64_t id)
{
    const IdEntry *entry = findId(id);
    if (!entry)
        afa::sim::panic("driver: timeout for unknown command %llu",
                        (unsigned long long)id);
    ++drvStats.timeouts;
    const std::uint32_t slot = entry->slot;
    unmapId(id);
    Pending &pending = pendings[slot];
    const afa::fault::FaultPlan &plan = *sys.sysParams.faults;
    if (pending.attempts >= plan.maxRetries) {
        // Retry budget exhausted: fail the IO back to the submitter
        // on its own CPU (no interrupt fires for an abort).
        ++drvStats.aborts;
        CompleteFn fn = std::move(pending.fn);
        const unsigned cpu = pending.cpu;
        pendings.release(slot);
        fn(afa::workload::IoResult{cpu, afa::nvme::Status::TimedOut});
        return;
    }
    ++drvStats.retries;
    afa::sim::Tick backoff = plan.retryBackoff << pending.attempts;
    if (sys.spanLogPtr && pending.tag &&
        sys.spanLogPtr->wants(afa::obs::Category::Fault))
        sys.spanLogPtr->record(afa::obs::Stage::RetryWait, pending.tag,
                               sys.sim.now(), sys.sim.now() + backoff,
                               afa::obs::cpuTrack(pending.cpu));
    ++backoffWaits;
    sys.sim.scheduleAfter(backoff, [this, slot] {
        --backoffWaits;
        // Resubmit under a fresh command id so a late completion of
        // the timed-out attempt can be told apart (it counts as stale
        // in onCompletion()).
        ++pendings[slot].attempts;
        startAttempt(slot);
    });
}

std::uint64_t
AfaSystem::Driver::deviceBlocks(unsigned device) const
{
    if (device >= sys.ctrls.size())
        afa::sim::panic("driver: device %u out of range", device);
    return sys.ctrls[device]->ftl().logicalBlocks();
}

void
AfaSystem::Driver::onCompletion(unsigned device,
                                const NvmeCompletion &completion)
{
    const IdEntry *entry = findId(completion.cmdId);
    if (!entry) {
        if (sys.sysParams.faults) {
            // The driver already timed this attempt out (and retried
            // or aborted the IO); the device's late answer is dropped
            // like a CQE for a recycled tag.
            ++drvStats.staleCompletions;
            return;
        }
        afa::sim::panic("driver: completion for unknown command %llu",
                        (unsigned long long)completion.cmdId);
    }
    const std::uint32_t slot = entry->slot;
    unmapId(completion.cmdId);
    Pending &pending = pendings[slot];
    if (sys.sysParams.faults)
        sys.sim.cancel(pending.timeout);
    const afa::nvme::Status status = completion.status;
    if (sys.polledMode) {
        // Polled queues: the CQE sits in host memory; the submitting
        // thread's poll loop will find it. No interrupt is raised.
        CompleteFn fn = std::move(pending.fn);
        pendings.release(slot);
        fn(afa::workload::IoResult{completion.queueId, status});
        return;
    }
    // Deliver through the MSI-X vector of (device, submit queue);
    // its affinity decides which CPU pays the hardirq/softirq cost.
    // The slot stays taken until the handler runs; the handler
    // captures only [this, slot, status], which fits std::function's
    // inline buffer.
    sys.irqSub->raise(device, completion.queueId,
                      [this, slot, status](unsigned handler_cpu) {
                          CompleteFn fn = std::move(pendings[slot].fn);
                          pendings.release(slot);
                          fn(afa::workload::IoResult{handler_cpu,
                                                     status});
                      },
                      pending.tag);
}

} // namespace afa::core
