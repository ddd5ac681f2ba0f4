#include "host/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::host {

using afa::sim::EventFn;

CpuMask
maskFromSet(const CpuSet &cpus)
{
    CpuMask mask = 0;
    for (unsigned c : cpus) {
        if (c >= 64)
            afa::sim::fatal("cpu %u beyond the 64-cpu mask limit", c);
        mask |= CpuMask(1) << c;
    }
    return mask;
}

namespace {

bool
inMask(CpuMask mask, unsigned cpu)
{
    return cpu < 64 && (mask & (CpuMask(1) << cpu));
}

double
weightForNice(int nice)
{
    // The kernel's prio_to_weight table is 1024 * 1.25^(-nice).
    return 1024.0 * std::pow(1.25, -nice);
}

} // namespace

Scheduler::Scheduler(afa::sim::Simulator &simulator,
                     std::string sched_name, const CpuTopology &topology,
                     const KernelConfig &config,
                     afa::sim::Tracer *trace_sink)
    : SimObject(simulator, std::move(sched_name)), topo(topology),
      kcfg(config), tracer(trace_sink), started(false)
{
    if (topo.logicalCpus() > 64)
        afa::sim::fatal("%s: at most 64 logical CPUs supported (%u)",
                        name().c_str(), topo.logicalCpus());
    cpus.resize(topo.logicalCpus());
}

void
Scheduler::trace(const char *category, std::string message)
{
    if (tracer)
        tracer->record(now(), category, message);
}

bool
Scheduler::tracing(const char *category) const
{
    return tracer && tracer->enabled(category);
}

void
Scheduler::checkTaskId(TaskId id) const
{
    if (id >= tasks.size())
        afa::sim::panic("%s: bad task id %u", name().c_str(), id);
}

Scheduler::Task &
Scheduler::task(TaskId id)
{
    checkTaskId(id);
    return tasks[id];
}

const Scheduler::Task &
Scheduler::task(TaskId id) const
{
    checkTaskId(id);
    return tasks[id];
}

TaskId
Scheduler::createTask(const TaskParams &params)
{
    if (params.affinity == 0)
        afa::sim::fatal("%s: task '%s' has an empty affinity mask",
                        name().c_str(), params.name.c_str());
    if (params.klass == SchedClass::RealTime &&
        (params.rtPriority < 1 || params.rtPriority > 99))
        afa::sim::fatal("%s: rt priority %d out of [1,99]",
                        name().c_str(), params.rtPriority);
    Task t;
    t.params = params;
    t.weight = weightForNice(params.nice);
    tasks.push_back(std::move(t));
    // Every runqueue has room for every task: a wakeup never
    // allocates, even the first time a CPU queues that many.
    for (Cpu &c : cpus) {
        if (c.fairQueue.capacity() < tasks.size()) {
            c.fairQueue.reserve(2 * tasks.size());
            c.rtQueue.reserve(2 * tasks.size());
        }
    }
    return static_cast<TaskId>(tasks.size() - 1);
}

void
Scheduler::setRealTime(TaskId id, int rt_priority)
{
    if (rt_priority < 1 || rt_priority > 99)
        afa::sim::fatal("%s: rt priority %d out of [1,99]",
                        name().c_str(), rt_priority);
    Task &t = task(id);
    if (t.state != TaskState::Blocked)
        afa::sim::fatal("%s: chrt on non-blocked task '%s' unsupported",
                        name().c_str(), t.params.name.c_str());
    t.params.klass = SchedClass::RealTime;
    t.params.rtPriority = rt_priority;
}

void
Scheduler::setFair(TaskId id, int nice)
{
    Task &t = task(id);
    if (t.state != TaskState::Blocked)
        afa::sim::fatal("%s: renice on non-blocked task unsupported",
                        name().c_str());
    t.params.klass = SchedClass::Fair;
    t.params.nice = nice;
    t.weight = weightForNice(nice);
}

void
Scheduler::setAffinity(TaskId id, CpuMask mask)
{
    if (mask == 0)
        afa::sim::fatal("%s: empty affinity mask", name().c_str());
    Task &t = task(id);
    if (t.state != TaskState::Blocked)
        afa::sim::fatal(
            "%s: changing affinity of non-blocked task unsupported",
            name().c_str());
    t.params.affinity = mask;
}

TaskState
Scheduler::taskState(TaskId id) const
{
    return task(id).state;
}

unsigned
Scheduler::taskCpu(TaskId id) const
{
    return task(id).cpu;
}

const TaskStats &
Scheduler::taskStats(TaskId id) const
{
    return task(id).stats;
}

const CpuStats &
Scheduler::cpuStats(unsigned cpu) const
{
    return cpus.at(cpu).stats;
}

bool
Scheduler::cpuIdle(unsigned cpu) const
{
    const Cpu &c = cpus.at(cpu);
    return c.current == kNoTask && c.fairQueue.empty() &&
        c.rtQueue.empty();
}

unsigned
Scheduler::cpuLoad(unsigned cpu) const
{
    const Cpu &c = cpus.at(cpu);
    return static_cast<unsigned>(c.fairQueue.size() + c.rtQueue.size() +
                                 (c.current != kNoTask ? 1 : 0));
}

bool
Scheduler::isIsolated(unsigned cpu) const
{
    return kcfg.isolcpus.count(cpu) != 0;
}

double
Scheduler::vruntimeDelta(const Task &t, Tick work) const
{
    return static_cast<double>(work) * 1024.0 / t.weight;
}

double
Scheduler::execRate(unsigned cpu, const Task &t) const
{
    (void)t;
    // Hyper-threading: wall time stretches while a sibling runs.
    for (unsigned sib : topo.siblingsOf(cpu))
        if (cpus[sib].current != kNoTask)
            return kcfg.sched.htSlowdown;
    return 1.0;
}

Tick
Scheduler::sliceFor(unsigned cpu, const Task &t) const
{
    (void)t;
    const Cpu &c = cpus.at(cpu);
    std::size_t nr = c.fairQueue.size() +
        (c.current != kNoTask ? 1 : 0);
    nr = std::max<std::size_t>(nr, 1);
    Tick slice = kcfg.sched.schedLatency / nr;
    return std::max(slice, kcfg.sched.minGranularity);
}

// ---------------------------------------------------------------------
// Runqueue primitives
// ---------------------------------------------------------------------

void
Scheduler::enqueue(unsigned cpu, TaskId id, bool renormalize)
{
    Cpu &c = cpus[cpu];
    Task &t = task(id);
    t.cpu = cpu;
    if (t.params.klass == SchedClass::RealTime) {
        // Insert by priority (higher first), FIFO within priority.
        auto it = c.rtQueue.begin();
        while (it != c.rtQueue.end() &&
               task(*it).params.rtPriority >= t.params.rtPriority)
            ++it;
        c.rtQueue.insert(it, id);
    } else {
        if (renormalize) {
            double floor = c.minVruntime -
                static_cast<double>(kcfg.sched.sleeperCredit);
            t.vruntime = std::max(t.vruntime, floor);
        }
        const std::pair<double, TaskId> key{t.vruntime, id};
        c.fairQueue.insert(std::lower_bound(c.fairQueue.begin(),
                                            c.fairQueue.end(), key),
                           key);
    }
}

void
Scheduler::dequeueFromRq(unsigned cpu, TaskId id)
{
    Cpu &c = cpus[cpu];
    Task &t = task(id);
    if (t.params.klass == SchedClass::RealTime) {
        auto it = std::find(c.rtQueue.begin(), c.rtQueue.end(), id);
        if (it == c.rtQueue.end())
            afa::sim::panic("%s: task %s not on rt rq %u",
                            name().c_str(), t.params.name.c_str(), cpu);
        c.rtQueue.erase(it);
    } else {
        const std::pair<double, TaskId> key{t.vruntime, id};
        auto it = std::lower_bound(c.fairQueue.begin(), c.fairQueue.end(),
                                   key);
        if (it == c.fairQueue.end() || *it != key)
            afa::sim::panic("%s: task %s not on fair rq %u",
                            name().c_str(), t.params.name.c_str(), cpu);
        c.fairQueue.erase(it);
    }
}

// ---------------------------------------------------------------------
// Placement and wakeup
// ---------------------------------------------------------------------

unsigned
Scheduler::choosePlacement(const Task &t) const
{
    // Candidates: affinity minus isolated CPUs. Only an explicit
    // affinity can land a task on an isolated CPU (the isolcpus
    // contract).
    CpuMask isolated = maskFromSet(kcfg.isolcpus);
    CpuMask candidates = t.params.affinity & ~isolated;
    if (candidates == 0)
        candidates = t.params.affinity;

    // Prefer the previous CPU when it is idle (cache affinity).
    if (t.everPlaced && inMask(candidates, t.cpu) &&
        cpuLoad(t.cpu) == 0)
        return t.cpu;

    unsigned best = 64;
    unsigned best_load = ~0u;
    for (unsigned cpu = 0; cpu < topo.logicalCpus(); ++cpu) {
        if (!inMask(candidates, cpu))
            continue;
        unsigned load = cpuLoad(cpu);
        // Least loaded wins; the previous CPU wins ties (cache
        // affinity), otherwise the lowest id (scan order).
        bool better = load < best_load ||
            (load == best_load && t.everPlaced && cpu == t.cpu);
        if (better) {
            best = cpu;
            best_load = load;
        }
    }
    if (best == 64)
        afa::sim::panic("%s: no placement for task '%s'",
                        name().c_str(), t.params.name.c_str());
    return best;
}

void
Scheduler::wake(TaskId id)
{
    Task &t = task(id);
    if (t.state != TaskState::Blocked)
        afa::sim::panic("%s: wake on non-blocked task '%s'",
                        name().c_str(), t.params.name.c_str());
    unsigned cpu = choosePlacement(t);
    if (t.everPlaced && cpu != t.cpu) {
        ++t.stats.migrations;
        // Cross-CPU wake: vruntime frames are per-runqueue, so the
        // task re-enters at the destination's min_vruntime (CFS's
        // migrate_task_rq_fair). This is what makes a migrated hog
        // "fresh" against wakeup-granularity checks.
        if (t.params.klass == SchedClass::Fair)
            t.vruntime = cpus[cpu].minVruntime;
        if (tracing("sched.migrate"))
            trace("sched.migrate",
                  afa::sim::strfmt("%s cpu%u -> cpu%u",
                                   t.params.name.c_str(), t.cpu, cpu));
    }
    t.everPlaced = true;
    t.state = TaskState::Runnable;
    t.runnableSince = now();
    enqueue(cpu, id, true);

    Cpu &c = cpus[cpu];
    if (c.current == kNoTask) {
        dispatch(cpu);
        return;
    }
    Task &curr = task(c.current);
    if (wouldPreempt(t, curr)) {
        accountRunning(cpu);
        stopRunning(cpu, true);
        dispatch(cpu);
    } else {
        if (tracing("sched.no_preempt"))
            trace("sched.no_preempt",
                  afa::sim::strfmt("%s waits behind %s on cpu%u",
                                   t.params.name.c_str(),
                                   curr.params.name.c_str(), cpu));
    }
}

bool
Scheduler::wouldPreempt(const Task &woken, const Task &curr) const
{
    if (woken.params.klass == SchedClass::RealTime) {
        if (curr.params.klass != SchedClass::RealTime)
            return true;
        return woken.params.rtPriority > curr.params.rtPriority;
    }
    if (curr.params.klass == SchedClass::RealTime)
        return false;
    // CFS wakeup preemption: only when the running task's vruntime
    // leads by more than the wakeup granularity (scaled for the woken
    // task's weight).
    double gran = static_cast<double>(kcfg.sched.wakeupGranularity) *
        1024.0 / woken.weight;
    return curr.vruntime - woken.vruntime > gran;
}

// ---------------------------------------------------------------------
// Dispatch and execution
// ---------------------------------------------------------------------

TaskId
Scheduler::pickNext(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    if (!c.rtQueue.empty())
        return c.rtQueue.front();
    if (!c.fairQueue.empty())
        return c.fairQueue.begin()->second;
    return kNoTask;
}

void
Scheduler::dispatch(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    if (c.current != kNoTask)
        return;
    TaskId next = pickNext(cpu);
    if (next == kNoTask) {
        enterIdle(cpu);
        idleBalance(cpu);
        return;
    }
    startRunning(cpu, next);
}

void
Scheduler::startRunning(unsigned cpu, TaskId id)
{
    Cpu &c = cpus[cpu];
    Task &t = task(id);
    dequeueFromRq(cpu, id);

    Tick wait = now() - t.runnableSince;
    t.stats.waitTime += wait;
    t.stats.worstWait = std::max(t.stats.worstWait, wait);
    if (spanLog && t.params.traceSpans && wait > 0 &&
        spanLog->wants(afa::obs::Category::Sched))
        spanLog->record(afa::obs::Stage::SchedulerWait, 0,
                        t.runnableSince, now(),
                        afa::obs::cpuTrack(cpu), 0, id);

    // Waking an idle CPU pays the c-state exit latency.
    Tick exit_delay = wakeFromIdle(cpu);

    t.state = TaskState::Running;
    c.current = id;
    c.currentStarted = now();
    ++c.stats.switches;

    // Cache pollution: resuming after someone else ran here.
    if (c.lastTask != id && c.lastTask != kNoTask)
        t.remaining += kcfg.sched.cachePollutionCost;
    c.lastTask = id;

    Tick begin = std::max(now() + exit_delay, c.irqBusyUntil) +
        kcfg.sched.contextSwitchCost;
    t.segStart = begin;
    t.segRate = execRate(cpu, t);
    Tick wall = static_cast<Tick>(
        static_cast<double>(t.remaining) * t.segRate);
    t.segEvent = at(begin + wall,
                    [this, cpu, id] { segmentComplete(cpu, id); });
}

void
Scheduler::accountRunning(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    if (c.current == kNoTask)
        return;
    Task &t = task(c.current);
    if (now() <= t.segStart)
        return; // still in switch-in limbo; no work done yet
    Tick elapsed = now() - t.segStart;
    auto work = static_cast<Tick>(
        static_cast<double>(elapsed) / t.segRate);
    work = std::min(work, t.remaining);
    t.remaining -= work;
    t.stats.cpuTime += work;
    c.stats.busyTime += elapsed;
    t.vruntime += vruntimeDelta(t, work);
    t.segStart = now();
    // Advance min_vruntime monotonically.
    double floor = t.vruntime;
    if (!c.fairQueue.empty())
        floor = std::min(floor, c.fairQueue.begin()->first);
    c.minVruntime = std::max(c.minVruntime, floor);
}

void
Scheduler::rescheduleSegment(unsigned cpu, Tick not_before)
{
    Cpu &c = cpus[cpu];
    if (c.current == kNoTask)
        return;
    Task &t = task(c.current);
    sim().cancel(t.segEvent);
    Tick begin = std::max(std::max(now(), not_before), c.irqBusyUntil);
    begin = std::max(begin, t.segStart);
    t.segStart = begin;
    t.segRate = execRate(cpu, t);
    Tick wall = static_cast<Tick>(
        static_cast<double>(t.remaining) * t.segRate);
    TaskId id = c.current;
    t.segEvent = at(begin + wall,
                    [this, cpu, id] { segmentComplete(cpu, id); });
}

void
Scheduler::stopRunning(unsigned cpu, bool requeue)
{
    Cpu &c = cpus[cpu];
    if (c.current == kNoTask)
        return;
    TaskId id = c.current;
    Task &t = task(id);
    sim().cancel(t.segEvent);
    c.current = kNoTask;
    t.state = TaskState::Runnable;
    t.runnableSince = now();
    ++t.stats.preemptions;
    if (requeue)
        enqueue(cpu, id, false);
}

void
Scheduler::segmentComplete(unsigned cpu, TaskId id)
{
    Cpu &c = cpus[cpu];
    if (c.current != id)
        afa::sim::panic("%s: segment completion for non-current task",
                        name().c_str());
    accountRunning(cpu);
    Task &t = task(id);
    // Absorb sub-tick rounding residue.
    t.stats.cpuTime += t.remaining;
    t.remaining = 0;
    ++t.stats.segments;
    t.state = TaskState::Blocked;
    c.current = kNoTask;
    EventFn done = std::move(t.onDone);
    t.onDone = nullptr;
    dispatch(cpu);
    if (done)
        done();
}

void
Scheduler::runFor(TaskId id, Tick work, EventFn on_done)
{
    Task &t = task(id);
    if (t.state != TaskState::Blocked)
        afa::sim::panic("%s: runFor on non-blocked task '%s'",
                        name().c_str(), t.params.name.c_str());
    if (work == 0)
        afa::sim::panic("%s: zero-length work segment", name().c_str());
    t.remaining = work;
    t.onDone = std::move(on_done);
    wake(id);
}

// ---------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------

void
Scheduler::interrupt(unsigned cpu, Tick duration, EventFn handler)
{
    if (cpu >= cpus.size())
        afa::sim::panic("%s: interrupt on bad cpu %u", name().c_str(),
                        cpu);
    Cpu &c = cpus[cpu];
    Tick exit_delay = wakeFromIdle(cpu);
    Tick start = std::max(now() + exit_delay, c.irqBusyUntil);
    Tick end = start + duration;
    c.irqBusyUntil = end;
    c.stats.irqTime += duration;
    ++c.stats.interrupts;
    if (c.current != kNoTask) {
        accountRunning(cpu);
        rescheduleSegment(cpu, end);
    }
    if (handler)
        at(end, std::move(handler));
}

// ---------------------------------------------------------------------
// Ticks, RCU, and balancing
// ---------------------------------------------------------------------

void
Scheduler::start()
{
    if (started)
        return;
    started = true;
    for (unsigned cpu = 0; cpu < cpus.size(); ++cpu) {
        // Random phases avoid a lockstep tick storm.
        Tick phase = static_cast<Tick>(rng().uniform(
            0.0, static_cast<double>(kcfg.sched.tickPeriod)));
        unsigned cpu_copy = cpu;
        cpus[cpu].tickEvent =
            after(phase, [this, cpu_copy] { onTick(cpu_copy); });
        scheduleRcu(cpu);
    }
    after(kcfg.sched.balanceInterval, [this] { balance(); });
}

void
Scheduler::scheduleTick(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    Tick period = kcfg.sched.tickPeriod;
    // nohz_full: a single running task and an empty queue drops the
    // tick to the residual 1 Hz.
    if (kcfg.nohzFull.count(cpu) && c.fairQueue.empty() &&
        c.rtQueue.empty())
        period = kcfg.sched.nohzTickPeriod;
    c.tickEvent = after(period, [this, cpu] { onTick(cpu); });
}

void
Scheduler::onTick(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    ++c.stats.ticks;
    if (c.current != kNoTask) {
        // The tick handler steals a few microseconds from the task.
        Tick start = std::max(now(), c.irqBusyUntil);
        c.irqBusyUntil = start + kcfg.sched.tickCost;
        c.stats.irqTime += kcfg.sched.tickCost;
        accountRunning(cpu);
        rescheduleSegment(cpu, c.irqBusyUntil);

        // Slice expiry check (fair class only; FIFO runs until done).
        Task &curr = task(c.current);
        if (curr.params.klass == SchedClass::Fair &&
            !c.fairQueue.empty()) {
            Tick ran = now() - c.currentStarted;
            if (ran >= sliceFor(cpu, curr) &&
                c.fairQueue.begin()->first < curr.vruntime) {
                stopRunning(cpu, true);
                dispatch(cpu);
            }
        }
    }
    scheduleTick(cpu);
}

void
Scheduler::scheduleRcu(unsigned cpu)
{
    Tick wait = static_cast<Tick>(rng().exponential(
        static_cast<double>(kcfg.sched.rcuCallbackInterval)));
    after(std::max<Tick>(wait, 1), [this, cpu] {
        // rcu_nocbs offloads the callback to a housekeeping CPU.
        unsigned target = cpu;
        if (kcfg.rcuNocbs.count(cpu)) {
            for (unsigned hk = 0; hk < cpus.size(); ++hk) {
                if (!isIsolated(hk) && !kcfg.rcuNocbs.count(hk)) {
                    target = hk;
                    break;
                }
            }
        }
        // Callbacks only accumulate on CPUs doing work.
        if (cpus[cpu].current != kNoTask || target != cpu)
            interrupt(target, kcfg.sched.rcuCallbackCost, nullptr);
        scheduleRcu(cpu);
    });
}

void
Scheduler::balance()
{
    for (unsigned cpu = 0; cpu < cpus.size(); ++cpu) {
        if (isIsolated(cpu))
            continue;
        if (cpus[cpu].current == kNoTask &&
            cpus[cpu].fairQueue.empty() && cpus[cpu].rtQueue.empty())
            tryPull(cpu);
    }
    after(kcfg.sched.balanceInterval, [this] { balance(); });
}

void
Scheduler::idleBalance(unsigned cpu)
{
    if (!started || isIsolated(cpu))
        return;
    if (tryPull(cpu))
        dispatch(cpu);
}

bool
Scheduler::tryPull(unsigned to_cpu)
{
    // Find the busiest non-isolated CPU with a queued fair task that
    // is allowed to run here.
    unsigned busiest = 64;
    std::size_t busiest_queue = 0;
    for (unsigned cpu = 0; cpu < cpus.size(); ++cpu) {
        if (cpu == to_cpu || isIsolated(cpu))
            continue;
        std::size_t qlen = cpus[cpu].fairQueue.size();
        if (qlen > busiest_queue) {
            busiest_queue = qlen;
            busiest = cpu;
        }
    }
    if (busiest == 64)
        return false;
    Cpu &from = cpus[busiest];
    for (const auto &[vrt, tid] : from.fairQueue) {
        Task &t = task(tid);
        if (!inMask(t.params.affinity, to_cpu))
            continue;
        // dequeueFromRq erases the entry that vrt/tid alias, so copy
        // the id out first and never touch the bindings after.
        const unsigned pulled = tid;
        dequeueFromRq(busiest, pulled);
        // Renormalise vruntime into the new queue's frame.
        t.vruntime = t.vruntime - from.minVruntime +
            cpus[to_cpu].minVruntime;
        ++t.stats.migrations;
        ++cpus[to_cpu].stats.pulls;
        if (tracing("sched.balance"))
            trace("sched.balance",
                  afa::sim::strfmt("pull %s cpu%u -> cpu%u",
                                   t.params.name.c_str(), busiest,
                                   to_cpu));
        enqueue(to_cpu, pulled, false);
        if (cpus[to_cpu].current == kNoTask)
            dispatch(to_cpu);
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// C-states
// ---------------------------------------------------------------------

void
Scheduler::enterIdle(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    c.idleSince = now();
    if (kcfg.cstate.idlePoll) {
        c.cstate = 0;
        return;
    }
    // Menu-governor-lite: predict this idle period from the last one.
    bool deep = kcfg.cstate.maxCstate >= 6 &&
        c.lastIdleLen >= kcfg.cstate.c6Threshold;
    c.cstate = deep ? 6 : 1;
}

Tick
Scheduler::wakeFromIdle(unsigned cpu)
{
    Cpu &c = cpus[cpu];
    if (c.current != kNoTask || c.cstate == 0)
        return 0;
    c.lastIdleLen = now() - c.idleSince;
    Tick delay = c.cstate == 6 ? kcfg.cstate.c6ExitLatency
                               : kcfg.cstate.c1ExitLatency;
    c.cstate = 0;
    ++c.stats.cstateWakes;
    c.stats.cstateExitDelay += delay;
    return delay;
}

} // namespace afa::host
