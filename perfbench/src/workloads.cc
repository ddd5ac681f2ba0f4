#include "workloads.hh"

#include <cinttypes>
#include <iterator>

#include "core/geometry.hh"
#include "fault/fault_plan.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"

#include "clock.hh"

namespace perfbench {

using afa::core::AfaSystem;
using afa::core::AfaSystemParams;
using afa::core::Geometry;
using afa::core::TuningConfig;
using afa::core::TuningProfile;
using afa::sim::msec;
using afa::sim::strfmt;
using afa::workload::FioJob;
using afa::workload::FioThread;
using afa::workload::OpenLoopEngine;
using afa::workload::OpenLoopParams;

namespace {

// RAID-5 scenario constants (fig_fault_tail's shape plus a stall).
constexpr unsigned kRaidWidth = 8;
constexpr unsigned kLimpMember = 4;
constexpr double kLimpFactor = 8.0;
constexpr unsigned kStallMember = 1;
constexpr Tick kStallDuration = msec(25); // > the 10 ms driver timeout
constexpr std::uint64_t kRebuildBlocks = 2048;

std::vector<WorkloadDef>
makeWorkloads()
{
    WorkloadDef fig06;
    fig06.name = "fig06_closed_qd1";
    fig06.traffic = Traffic::ClosedLoop;
    fig06.profile = TuningProfile::Default;
    fig06.ssds = 64;
    fig06.duration = msec(100);
    fig06.slice = msec(4);

    WorkloadDef frontier;
    frontier.name = "frontier_open_400k";
    frontier.traffic = Traffic::OpenLoop;
    frontier.profile = TuningProfile::IrqAffinity;
    frontier.ssds = 64;
    frontier.duration = msec(250);
    frontier.slice = msec(5);
    frontier.ratePerSec = 400000.0;

    // FTL/NAND sized so GC fires within the measured 200 ms. The stock
    // 1 GiB logical space on simScaledNand() has 4x physical headroom
    // and never collects at all (see README.md). Here 16 dies of three
    // 16-page blocks (3072 slots) back a 1024-block logical space: a
    // fully preconditioned drive starts at the GC threshold (dies + 2
    // free blocks), and because random overwrites of so small a space
    // invalidate whole blocks quickly, collection stays cheap (write
    // amplification about 1.3) instead of collapsing into a write
    // cliff.
    WorkloadDef aged;
    aged.name = "aged_mixed_gc";
    aged.traffic = Traffic::OpenLoop;
    aged.profile = TuningProfile::ExpFirmware;
    aged.ssds = 16;
    aged.duration = msec(200);
    aged.slice = msec(5);
    aged.ratePerSec = 200000.0;
    aged.readFraction = 0.7;
    aged.precondition = 1.0;
    aged.nand.channels = 4;
    aged.nand.diesPerChannel = 4;
    aged.nand.blocksPerDie = 3;
    aged.nand.pagesPerBlock = 16;
    aged.ftl.logicalBlocks = 1024;

    WorkloadDef raid;
    raid.name = "raid5_limp_rebuild";
    raid.traffic = Traffic::Raid;
    raid.profile = TuningProfile::IrqAffinity;
    raid.ssds = kRaidWidth;
    raid.duration = msec(300);
    raid.slice = msec(10);
    raid.clients = 8;

    return {fig06, frontier, aged, raid};
}

std::shared_ptr<const afa::fault::FaultPlan>
raidPlan(Tick duration)
{
    auto plan = std::make_shared<afa::fault::FaultPlan>();
    afa::fault::FaultEvent stall;
    stall.kind = afa::fault::FaultKind::CtrlStall;
    stall.ssd = kStallMember;
    stall.at = duration / 6;
    stall.duration = kStallDuration;
    plan->events.push_back(stall);
    afa::fault::FaultEvent limp;
    limp.kind = afa::fault::FaultKind::Limp;
    limp.ssd = kLimpMember;
    limp.at = duration / 3;
    limp.duration = duration / 3;
    limp.factor = kLimpFactor;
    plan->events.push_back(limp);
    return plan;
}

void
appendHist(std::string &out, const char *label,
           const afa::stats::Histogram &h)
{
    out += strfmt("%s n=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64
                  " mean=%.17g q50=%" PRIu64 " q90=%" PRIu64
                  " q99=%" PRIu64 " q999=%" PRIu64 " q9999=%" PRIu64 "\n",
                  label, h.count(), h.min(), h.max(), h.mean(),
                  h.quantile(0.5), h.quantile(0.9), h.quantile(0.99),
                  h.quantile(0.999), h.quantile(0.9999));
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = makeWorkloads();
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &d : workloads())
        if (d.name == name)
            return &d;
    return nullptr;
}

void
TimingEngine::submit(unsigned cpu,
                     const afa::workload::IoRequest &request,
                     CompleteFn on_device_complete)
{
    CompleteFn timed = [this, fn = std::move(on_device_complete)](
                           const afa::workload::IoResult &result) {
        const std::uint64_t t0 = steadyNs();
        fn(result);
        totals.completionNs += steadyNs() - t0;
        ++totals.completions;
    };
    const std::uint64_t t0 = steadyNs();
    inner.submit(cpu, request, std::move(timed));
    totals.submitNs += steadyNs() - t0;
    ++totals.submits;
}

std::uint64_t
Instance::completedIos() const
{
    if (openLoop)
        return openLoop->totals().completed;
    std::uint64_t n = 0;
    for (const auto &t : threads)
        n += t->stats().completed;
    return n;
}

std::uint64_t
Instance::attemptedIos() const
{
    if (openLoop)
        return openLoop->totals().arrivals;
    std::uint64_t n = 0;
    for (const auto &t : threads)
        n += t->stats().submitted;
    return n;
}

bool
Instance::drained() const
{
    if (openLoop)
        return openLoop->finished();
    for (const auto &t : threads)
        if (!t->finished())
            return false;
    return true;
}

afa::stats::Histogram
Instance::latencyHistogram() const
{
    if (openLoop)
        return openLoop->histogram();
    afa::stats::Histogram h;
    for (const auto &t : threads)
        h.merge(t->histogram());
    return h;
}

std::unique_ptr<Instance>
build(const WorkloadDef &def, std::uint64_t seed, bool traced)
{
    auto inst = std::make_unique<Instance>();
    inst->def = &def;
    inst->sim = std::make_unique<afa::sim::Simulator>(seed);
    afa::sim::Simulator &sim = *inst->sim;

    Geometry geometry(afa::host::CpuTopology{}, def.ssds);
    const TuningConfig tuning =
        TuningConfig::forProfile(def.profile, geometry);

    // The ExperimentRunner's system set-up, with the figure benches'
    // time-compressed SMART and irqbalance periods.
    AfaSystemParams sp;
    sp.ssds = def.ssds;
    sp.kernel = tuning.kernel;
    sp.firmware = tuning.firmware;
    sp.pinIrqAffinity = tuning.pinIrqAffinity;
    sp.firmware.smart.period = afa::sim::sec(1);
    sp.kernel.irq.irqBalanceInterval = afa::sim::sec(1);
    sp.nand = def.nand;
    sp.ftl = def.ftl;
    if (def.traffic == Traffic::Raid)
        sp.faults = raidPlan(def.duration);
    inst->system = std::make_unique<AfaSystem>(sim, sp);
    AfaSystem &system = *inst->system;

    if (traced) {
        afa::obs::TraceParams tp;
        tp.mask = afa::obs::kAllCategories;
        inst->spans = std::make_unique<afa::obs::SpanLog>(tp);
        system.setSpanLog(inst->spans.get());
        inst->timing = std::make_unique<TimingEngine>(system.ioEngine());
    }
    afa::workload::IoEngine &engine = inst->timing
        ? static_cast<afa::workload::IoEngine &>(*inst->timing)
        : system.ioEngine();

    if (def.precondition > 0.0)
        for (unsigned d = 0; d < def.ssds; ++d)
            system.ssd(d).ftl().precondition(def.precondition);

    auto add_thread = [&](afa::workload::IoEngine &target,
                          unsigned device, unsigned cpu,
                          const std::string &name) {
        FioJob job;
        job.runtime = def.duration;
        job.cpusAllowed = afa::host::CpuMask(1) << cpu;
        job.rtPriority = tuning.fioRtPriority;
        job.name = name;
        inst->threads.push_back(std::make_unique<FioThread>(
            sim, name, system.scheduler(), target, device, job));
        if (inst->spans)
            inst->threads.back()->attachSpanLog(inst->spans.get());
    };

    switch (def.traffic) {
      case Traffic::ClosedLoop: {
        // FourPerCore is one run with a thread per SSD (Table II).
        const auto runs =
            geometry.runsFor(afa::core::GeometryVariant::FourPerCore);
        for (const auto &p : runs.front())
            add_thread(engine, p.device, p.cpu,
                       strfmt("fio-nvme%u", p.device));
        break;
      }
      case Traffic::OpenLoop: {
        OpenLoopParams ol;
        ol.arrival.ratePerSec = def.ratePerSec;
        ol.readFraction = def.readFraction;
        ol.streams = 4;
        ol.duration = def.duration;
        ol.rtPriority = tuning.fioRtPriority;
        ol.cpus = geometry.fioCpus();
        inst->openLoop = std::make_unique<OpenLoopEngine>(
            sim, "openloop", system.scheduler(), engine, def.ssds, ol);
        if (inst->spans)
            inst->openLoop->attachSpanLog(inst->spans.get());
        break;
      }
      case Traffic::Raid: {
        std::vector<unsigned> members;
        for (unsigned d = 0; d < def.ssds; ++d)
            members.push_back(d);
        inst->volume = std::make_unique<afa::raid::ParityVolume>(
            sim, "vol0", engine, members, 1);
        afa::raid::RebuildParams reb;
        for (unsigned d = 0; d < def.ssds; ++d)
            if (d != kLimpMember)
                reb.sources.push_back(d);
        reb.target = kLimpMember;
        reb.blocks = kRebuildBlocks;
        reb.cpu = geometry.fioCpus()[0];
        inst->rebuild = std::make_unique<afa::raid::RebuildEngine>(
            sim, "rebuild0", engine, reb);
        if (inst->spans)
            inst->rebuild->attachSpanLog(inst->spans.get());
        afa::raid::ParityVolume *volume = inst->volume.get();
        afa::raid::RebuildEngine *rebuild = inst->rebuild.get();
        rebuild->setOnComplete(
            [volume] { volume->setMemberFailed(kLimpMember, false); });
        // At 2T/3 the limping member is kicked and rebuilt.
        sim.scheduleAt(2 * (def.duration / 3), [volume, rebuild, &sim] {
            volume->setMemberFailed(kLimpMember, true);
            rebuild->start(sim.now());
        });
        for (unsigned c = 0; c < def.clients; ++c)
            add_thread(*inst->volume, 0, geometry.fioCpus()[c],
                       strfmt("client%u", c));
        break;
      }
    }

    system.start();
    for (auto &t : inst->threads)
        t->start(0);
    if (inst->openLoop)
        inst->openLoop->start(0);
    return inst;
}

void
finish(Instance &inst)
{
    afa::sim::Simulator &sim = *inst.sim;
    sim.run(inst.def->duration);
    inst.measuredIos = inst.completedIos();
    sim.run(inst.def->duration + msec(100));
    for (int rounds = 0; rounds < 100 && !inst.drained(); ++rounds)
        sim.run(sim.now() + msec(10));
}

namespace {

RunCheck
check(const Instance &inst)
{
    RunCheck rc;
    rc.attempted = inst.attemptedIos();
    auto identity = [&rc](bool holds, std::uint64_t lost,
                          std::string what) {
        if (holds)
            return;
        rc.lost += lost;
        rc.identityFailures.push_back(std::move(what));
    };
    auto absdiff = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : b - a;
    };

    if (inst.openLoop) {
        for (const auto &s : inst.openLoop->streamStats()) {
            const std::uint64_t out =
                s.submitted + s.dropped + s.finalBacklog;
            identity(s.arrivals == out, absdiff(s.arrivals, out),
                     "arrivals != submitted + dropped + finalBacklog");
            const std::uint64_t done = s.completed + s.inflightAtEnd;
            identity(s.submitted == done, absdiff(s.submitted, done),
                     "submitted != completed + inflightAtEnd");
        }
    } else {
        // Closed loop: after the drain nothing is in flight, so
        // issued == completed + inflight reduces to issued == completed.
        for (const auto &t : inst.threads) {
            const auto &s = t->stats();
            identity(s.submitted == s.completed,
                     absdiff(s.submitted, s.completed),
                     strfmt("%s: issued %" PRIu64
                                      " != completed %" PRIu64,
                                      t->job().name.c_str(),
                                      s.submitted, s.completed));
        }
    }
    if (inst.volume)
        identity(inst.volume->stats().clientIos == rc.attempted,
                 absdiff(inst.volume->stats().clientIos, rc.attempted),
                 "volume client IOs != client submissions");
    const std::size_t outstanding = inst.system->outstandingCommands();
    identity(outstanding == 0, outstanding,
             "driver commands outstanding after drain");

    auto guard = [&rc](bool holds, const char *what) {
        if (!holds)
            rc.guardFailures.push_back(what);
    };
    guard(inst.drained(), "every client IO reaped");
    guard(inst.completedIos() > 0, "client IOs completed");
    afa::obs::MetricsRegistry reg;
    inst.system->publishMetrics(reg);
    const auto snap = reg.snapshot();
    const std::string &name = inst.def->name;
    if (name == "fig06_closed_qd1") {
        guard(snap.counter("irq.delivered") > 0, "irq.delivered > 0");
        guard(snap.counter("sched.switches") > 0, "sched.switches > 0");
    } else if (name == "frontier_open_400k") {
        const auto t = inst.openLoop->totals();
        // Below saturation: nothing shed, and at most 1% of the
        // arrivals still queued when the arrival clock stops.
        guard(t.dropped == 0, "workload.dropped == 0");
        guard(t.finalBacklog * 100 <= t.arrivals,
              "workload.final_backlog <= 1% of arrivals");
    } else if (name == "aged_mixed_gc") {
        guard(snap.counter("ftl.gc_runs") > 0, "ftl.gc_runs > 0");
        guard(snap.counter("nand.erases") > 0, "nand.erases > 0");
    } else if (name == "raid5_limp_rebuild") {
        guard(inst.volume->stats().degradedReads > 0,
              "raid.degraded_reads > 0");
        guard(inst.system->driverStats().retries > 0,
              "core.driver_retries > 0");
        guard(inst.rebuild->stats().done, "rebuild done");
    }
    return rc;
}

std::string modelDigestText(const Instance &inst);
std::string implDigestText(const Instance &inst);
std::string digestHex(const std::string &text);

} // namespace

Outcome
conclude(const Instance &inst)
{
    Outcome o;
    o.check = check(inst);
    o.digest = digestHex(modelDigestText(inst));
    o.implDigest = digestHex(implDigestText(inst));
    o.ios = inst.completedIos();
    o.measuredIos = inst.measuredIos;
    o.latency = inst.latencyHistogram();
    afa::obs::MetricsRegistry reg;
    inst.system->publishMetrics(reg);
    o.metrics = reg.snapshot();
    const afa::sim::Simulator &sim = *inst.sim;
    o.modelEvents = sim.executedEvents();
    for (const auto &s : sim.shardStats().shards)
        o.plumbingEvents += s.plumbingEvents;
    o.simEnd = sim.now();
    o.cpus = inst.system->scheduler().topology().logicalCpus();
    for (unsigned d = 0; d < inst.def->ssds; ++d)
        o.ftlPrograms += inst.system->ssd(d).ftl().stats().programs;
    o.driver = inst.system->driverStats();
    if (inst.openLoop) {
        const auto t = inst.openLoop->totals();
        o.dropped = t.dropped;
        o.finalBacklog = t.finalBacklog;
    }
    if (inst.volume) {
        o.memberIos = inst.volume->stats().memberIos;
        o.degradedReads = inst.volume->stats().degradedReads;
        const auto &r = inst.rebuild->stats();
        if (r.done)
            o.rebuildMs =
                static_cast<double>(r.finishedAt - r.startedAt) / 1e6;
    }
    if (auto *fe = inst.system->faultEngine())
        o.faultsApplied = fe->stats().applied;
    if (inst.spans) {
        o.attribution = inst.spans->attribution();
        o.spanDrops = inst.spans->dropped();
    }
    if (inst.timing)
        o.timing = inst.timing->counters();
    return o;
}

namespace {

/**
 * Counters of AfaSystem::publishMetrics that are simulated results.
 * An explicit list, so that a counter added later, or one that only
 * says how the simulator computed a result, cannot change the model
 * digest.
 */
const char *const kModelCounters[] = {
    "fabric.packets", "fabric.bytes", "fabric.queue_delay_ticks",
    "fabric.link_replays",
    "irq.delivered", "irq.remote_deliveries", "irq.cross_socket",
    "irq.rebalances", "irq.vector_moves",
    "sched.busy_ticks", "sched.irq_ticks", "sched.switches",
    "sched.interrupts", "sched.pulls", "sched.cstate_wakes",
    "sched.cstate_exit_ticks",
    "nvme.reads_completed", "nvme.writes_completed", "nvme.bytes_read",
    "nvme.bytes_written", "nvme.hiccups", "nvme.smart_stall_ticks",
    "nvme.dropped_commands", "nvme.fault_stall_ticks",
    "smart.collections", "smart.saves",
    "ftl.host_reads_mapped", "ftl.host_writes", "ftl.gc_runs",
    "nand.reads", "nand.programs", "nand.erases", "nand.die_busy_ticks",
    "nand.channel_busy_ticks",
    "fault.events_applied", "fault.events_reverted",
};

/** Counters that say how the simulator computed, not what. */
const char *const kImplCounters[] = {
    "fabric.fast_path_packets", "fabric.fallback_packets",
    "nvme.fast_path_commands", "nvme.fallback_commands",
};

std::string
counterLines(const Instance &inst, const char *const *names,
             std::size_t count)
{
    afa::obs::MetricsRegistry reg;
    inst.system->publishMetrics(reg);
    const afa::obs::MetricsSnapshot snap = reg.snapshot();
    std::string out;
    for (std::size_t i = 0; i < count; ++i)
        out += strfmt("%s=%" PRIu64 "\n", names[i], snap.counter(names[i]));
    return out;
}

/**
 * The model digest's text: what the simulation computed, serialised
 * canonically. It is checked against references.txt, so it holds
 * nothing that an exact optimisation of the simulator may change.
 */
std::string
modelDigestText(const Instance &inst)
{
    std::string out;
    const afa::sim::Simulator &sim = *inst.sim;
    out += strfmt("workload %s seed %" PRIu64 " now %" PRIu64
                  " measured_ios %" PRIu64 "\n",
                  inst.def->name.c_str(), sim.seed(), sim.now(),
                  inst.measuredIos);
    appendHist(out, "latency", inst.latencyHistogram());
    for (const auto &t : inst.threads) {
        const auto &s = t->stats();
        out += strfmt("thread %s submitted=%" PRIu64
                      " completed=%" PRIu64 " rbytes=%" PRIu64
                      " wbytes=%" PRIu64 " errors=%" PRIu64 "\n",
                      t->job().name.c_str(), s.submitted, s.completed,
                      s.readBytes, s.writeBytes, s.errors);
        appendHist(out, "  hist", t->histogram());
    }
    if (inst.openLoop) {
        for (const auto &s : inst.openLoop->streamStats()) {
            out += strfmt("stream arrivals=%" PRIu64 " submitted=%" PRIu64
                          " completed=%" PRIu64 " dropped=%" PRIu64
                          " errors=%" PRIu64 " rbytes=%" PRIu64
                          " wbytes=%" PRIu64 " peak=%" PRIu64
                          " backlog=%" PRIu64 " inflight=%" PRIu64 " act=",
                          s.arrivals, s.submitted, s.completed, s.dropped,
                          s.errors, s.readBytes, s.writeBytes,
                          s.backlogPeak, s.finalBacklog, s.inflightAtEnd);
            for (std::uint64_t e : s.exceed)
                out += strfmt("%" PRIu64 ",", e);
            out += "\n";
        }
        for (unsigned d = 0; d < inst.def->ssds; ++d)
            appendHist(out, strfmt("  dev%u", d).c_str(),
                       inst.openLoop->deviceHistogram(d));
    }
    if (inst.volume) {
        const auto &v = inst.volume->stats();
        out += strfmt("volume client=%" PRIu64 " member=%" PRIu64
                      " reads=%" PRIu64 " writes=%" PRIu64
                      " degraded=%" PRIu64 " failed=%" PRIu64 "\n",
                      v.clientIos, v.memberIos, v.reads, v.writes,
                      v.degradedReads, v.failedIos);
        const auto &r = inst.rebuild->stats();
        out += strfmt("rebuild blocks=%" PRIu64 " chunks=%" PRIu64
                      " start=%" PRIu64 " end=%" PRIu64 " done=%d\n",
                      r.blocksDone, r.chunks, r.startedAt, r.finishedAt,
                      r.done ? 1 : 0);
    }
    const auto &ds = inst.system->driverStats();
    out += strfmt("driver timeouts=%" PRIu64 " retries=%" PRIu64
                  " aborts=%" PRIu64 " stale=%" PRIu64 "\n",
                  ds.timeouts, ds.retries, ds.aborts, ds.staleCompletions);

    out += counterLines(inst, kModelCounters, std::size(kModelCounters));
    return out;
}

/**
 * The implementation digest's text: event counts and fast-path
 * splits. They must repeat across repetitions and between unsliced,
 * sliced and traced runs of one build, but an exact optimisation may
 * change them, so no reference is kept.
 */
std::string
implDigestText(const Instance &inst)
{
    const afa::sim::Simulator &sim = *inst.sim;
    std::uint64_t plumbing = 0;
    for (const auto &s : sim.shardStats().shards)
        plumbing += s.plumbingEvents;
    return strfmt("events model=%" PRIu64 " plumbing=%" PRIu64 "\n",
                  sim.executedEvents(), plumbing) +
        counterLines(inst, kImplCounters, std::size(kImplCounters));
}

std::string
digestHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return strfmt("%016" PRIx64, h);
}

} // namespace

} // namespace perfbench
